//! The workspace's graph: seeded generators over a compressed-sparse-row
//! adjacency.
//!
//! [`CsrTopology`] stores the neighbor lists of all nodes in one flat
//! array indexed by per-node offsets — two allocations total, cache-dense
//! iteration, and `degree(v)` is a subtraction — so the same type serves
//! a 600-node §4.5 modularity experiment and a million-node cluster.
//!
//! Four generator families cover the paper's §4.5 and §5 regimes. Each
//! draws from a caller-supplied RNG, so a graph is a pure function of the
//! generator's arguments and the RNG state:
//!
//! * **Scale-free** — [`barabasi_albert`] preferential attachment via the
//!   endpoint-multiset trick: every edge endpoint is pushed into a flat
//!   vector, so sampling a uniform element of that vector is sampling a
//!   node with probability proportional to its degree.
//! * **Random** — [`erdos_renyi`] `G(n, p)` via geometric skip-sampling:
//!   instead of flipping `n·(n−1)/2` coins we jump straight to the next
//!   successful pair, making generation `O(edges)` and therefore viable
//!   at million-node scale.
//! * **Small-world** — [`watts_strogatz`]: a ring lattice where each node
//!   links to its `k/2` nearest neighbors on each side, then each far
//!   endpoint is rewired to a uniform node with probability `beta`.
//! * **Modular** — [`planted_partition`]: equal communities, dense inside
//!   and sparse across.
//!
//! [`CsrTopology::generate`] picks a family by [`TopologyKind`] and seeds
//! it, making a topology a pure function of `(kind, n, seed)`.

use rand::Rng;
use resilience_core::seeded_rng;
use serde::{Deserialize, Serialize};

/// Which generator family to draw the topology from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Barabási–Albert preferential attachment: each new node attaches
    /// `m` edges to existing nodes with probability proportional to
    /// degree. Produces a power-law degree tail (hubs).
    ScaleFree {
        /// Edges attached by each arriving node (`m ≥ 1`).
        m: usize,
    },
    /// Erdős–Rényi `G(n, p)` with `p` chosen to hit `mean_degree`.
    /// Degree distribution is binomial — no hubs.
    Random {
        /// Expected mean degree (`p = mean_degree / (n − 1)`).
        mean_degree: f64,
    },
    /// Watts–Strogatz small-world: ring lattice of degree `k` with each
    /// far endpoint rewired with probability `beta`.
    SmallWorld {
        /// Ring degree (each node links `k/2` to each side; even, ≥ 2).
        k: usize,
        /// Rewiring probability in `[0, 1]`.
        beta: f64,
    },
}

impl TopologyKind {
    /// Short label for tables and metric names.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::ScaleFree { .. } => "scale_free",
            TopologyKind::Random { .. } => "random",
            TopologyKind::SmallWorld { .. } => "small_world",
        }
    }
}

/// An undirected graph over nodes `0..n` in compressed-sparse-row form.
///
/// `neighbors(v)` is the slice `adjacency[offsets[v]..offsets[v+1]]`.
/// Each undirected edge appears once in each endpoint's list. Neighbor
/// lists are sorted ascending, so iteration order — and therefore every
/// float accumulation a cascade performs — is a pure function of the
/// topology, independent of generator internals or thread budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrTopology {
    offsets: Vec<u64>,
    adjacency: Vec<u32>,
}

impl CsrTopology {
    /// Generate a topology of `n` nodes from `kind`, deterministically
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` nodes or the kind's parameters
    /// are degenerate (`m == 0`, odd or `< 2` `k`, negative
    /// `mean_degree`, `beta ∉ [0, 1]`).
    pub fn generate(kind: &TopologyKind, n: usize, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        match *kind {
            TopologyKind::ScaleFree { m } => barabasi_albert(n, m, &mut rng),
            TopologyKind::Random { mean_degree } => {
                assert!(mean_degree >= 0.0, "mean_degree must be non-negative");
                let p = if n < 2 {
                    0.0
                } else {
                    (mean_degree / (n - 1) as f64).clamp(0.0, 1.0)
                };
                erdos_renyi(n, p, &mut rng)
            }
            TopologyKind::SmallWorld { k, beta } => watts_strogatz(n, k, beta, &mut rng),
        }
    }

    /// Build the CSR arrays from an undirected edge list (counting sort:
    /// one pass to size each neighbor list, one pass to scatter).
    /// Self-loops are dropped; parallel edges are kept (the generators
    /// avoid them where the classical model does).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` or an endpoint is `≥ n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        assert!(n <= u32::MAX as usize, "node ids are u32");
        let links = || edges.iter().filter(|&&(a, b)| a != b);
        let mut degree = vec![0u64; n];
        for &(a, b) in links() {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut adjacency = vec![0u32; offsets[n] as usize];
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        for &(a, b) in links() {
            adjacency[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            adjacency[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        // Sorted neighbor lists pin the cascade's float-accumulation
        // order to the topology alone.
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            adjacency[lo..hi].sort_unstable();
        }
        CsrTopology { offsets, adjacency }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbor list of `v`, ascending.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjacency[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Mean degree (`2·edges / n`).
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.adjacency.len() as f64 / self.len() as f64
        }
    }

    /// Node ids sorted by descending degree, ties broken by ascending id
    /// — the deterministic victim order for targeted attacks (§5.1).
    pub fn degrees_desc(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(self.degree(v as usize)), v));
        order
    }
}

/// Barabási–Albert preferential attachment, endpoint-multiset form.
///
/// Seeded with a clique of `m + 1` nodes (all `n` nodes if `n ≤ m`);
/// every subsequent node attaches `m` edges whose far endpoints are drawn
/// uniformly from the flat vector of all previous edge endpoints
/// (degree-proportional by construction). Duplicate targets within one
/// arrival are redrawn, so the graph is simple. Produces the power-law
/// degree distribution behind §5.1's scale-free robustness claims.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> CsrTopology {
    assert!(m >= 1, "scale-free m must be >= 1");
    let core = (m + 1).min(n);
    let mut edges: Vec<(u32, u32)> =
        Vec::with_capacity(core * core / 2 + n.saturating_sub(core) * m);
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * edges.capacity());
    for a in 0..core {
        for b in (a + 1)..core {
            edges.push((a as u32, b as u32));
            endpoints.push(a as u32);
            endpoints.push(b as u32);
        }
    }
    let mut targets: Vec<u32> = Vec::with_capacity(m);
    for v in core..n {
        targets.clear();
        while targets.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((v as u32, t));
            endpoints.push(v as u32);
            endpoints.push(t);
        }
    }
    CsrTopology::from_edges(n, &edges)
}

/// Erdős–Rényi `G(n, p)`: each pair independently connected with
/// probability `p`, by geometric skip-sampling over the strictly
/// lower-triangular pair order `(1,0), (2,0), (2,1), (3,0), …` —
/// `O(edges)` instead of `O(n²)` coin flips.
///
/// # Panics
///
/// Panics if `p ∉ [0, 1]`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> CsrTopology {
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability must be in [0,1]"
    );
    let pairs = n * n.saturating_sub(1) / 2;
    let mut edges = Vec::with_capacity((p * pairs as f64) as usize + 16);
    if n < 2 || p <= 0.0 {
        return CsrTopology::from_edges(n, &edges);
    }
    // At p = 1, log_q = −∞ and every skip is 0: all pairs, in order.
    let log_q = (1.0 - p).ln();
    // (v, w) walks the lower triangle; skip ~ Geometric(p) pairs ahead.
    let mut v: u64 = 1;
    let mut w: i64 = -1;
    loop {
        let u: f64 = rng.gen::<f64>();
        let skip = ((1.0 - u).ln() / log_q).floor().max(0.0) as i64;
        w += 1 + skip;
        while w >= v as i64 && (v as usize) < n {
            w -= v as i64;
            v += 1;
        }
        if v as usize >= n {
            return CsrTopology::from_edges(n, &edges);
        }
        edges.push((v as u32, w as u32));
    }
}

/// Watts–Strogatz small world: a ring lattice of degree `k` (`k/2`
/// neighbors per side) with each far endpoint rewired to a uniform node
/// with probability `beta`. `beta = 0` is the lattice; `beta = 1`
/// approaches a random graph. For `n > k` the edge count is always
/// `n·k/2`.
///
/// # Panics
///
/// Panics if `k` is odd or `< 2`, or `beta ∉ [0, 1]`.
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> CsrTopology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "small-world k must be even and >= 2"
    );
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
    let half = (k / 2).min(n.saturating_sub(1));
    let mut edges = Vec::with_capacity(n * half);
    for v in 0..n {
        for d in 1..=half {
            let w = (v + d) % n;
            if v as u32 == w as u32 {
                continue;
            }
            let rewire = beta > 0.0 && rng.gen::<f64>() < beta;
            if rewire {
                // Redraw until the endpoint is neither `v` nor the ring
                // neighbor we are replacing (parallel edges elsewhere are
                // tolerated, as in the classical model's large-n limit).
                let mut t = rng.gen_range(0..n);
                let mut guard = 0;
                while (t == v || t == w) && guard < 64 {
                    t = rng.gen_range(0..n);
                    guard += 1;
                }
                if t != v {
                    edges.push((v as u32, t as u32));
                    continue;
                }
            }
            edges.push((v as u32, w as u32));
        }
    }
    CsrTopology::from_edges(n, &edges)
}

/// Planted-partition (stochastic block) graph: `blocks` equal communities
/// over `n` nodes; within-community pairs connect with probability `p_in`,
/// cross-community pairs with `p_out`. With `p_in ≫ p_out` this is the
/// *modularized* architecture §4.5 recommends for damage containment.
///
/// # Panics
///
/// Panics if `blocks == 0` or either probability is outside `[0, 1]`.
pub fn planted_partition<R: Rng + ?Sized>(
    n: usize,
    blocks: usize,
    p_in: f64,
    p_out: f64,
    rng: &mut R,
) -> CsrTopology {
    assert!(blocks > 0, "need at least one block");
    assert!((0.0..=1.0).contains(&p_in), "p_in must be in [0,1]");
    assert!((0.0..=1.0).contains(&p_out), "p_out must be in [0,1]");
    let block_of = |v: usize| v * blocks / n.max(1);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let p = if block_of(a) == block_of(b) {
                p_in
            } else {
                p_out
            };
            if p > 0.0 && rng.gen_bool(p) {
                edges.push((a as u32, b as u32));
            }
        }
    }
    CsrTopology::from_edges(n, &edges)
}

/// Test fixtures: the ring lattice with `k` neighbors per side.
#[cfg(test)]
pub(crate) fn ring_lattice(n: usize, k: usize) -> CsrTopology {
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|v| (1..=k).map(move |d| (v as u32, ((v + d) % n) as u32)))
        .collect();
    CsrTopology::from_edges(n, &edges)
}

/// Test fixtures: the complete graph `K_n`.
#[cfg(test)]
pub(crate) fn complete(n: usize) -> CsrTopology {
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|a| (a + 1..n as u32).map(move |b| (a, b)))
        .collect();
    CsrTopology::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degrees(g: &CsrTopology) -> Vec<usize> {
        (0..g.len()).map(|v| g.degree(v)).collect()
    }

    #[test]
    fn csr_matches_edge_list() {
        let edges = [(0u32, 1u32), (1, 2), (0, 2), (2, 3), (3, 3)];
        let top = CsrTopology::from_edges(5, &edges);
        assert_eq!(top.len(), 5);
        assert_eq!(top.edge_count(), 4); // self-loop dropped
        assert_eq!(top.neighbors(0), &[1, 2]);
        assert_eq!(top.neighbors(2), &[0, 1, 3]);
        assert_eq!(top.neighbors(4), &[] as &[u32]);
        assert_eq!(top.degree(2), 3);
        assert!((top.mean_degree() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn hubs_first_ordering() {
        let top = CsrTopology::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]);
        // Hub 0 first; ties (1, 2, 3 at degree 2) by ascending id; leaf last.
        assert_eq!(top.degrees_desc(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_graph() {
        let top = CsrTopology::from_edges(0, &[]);
        assert!(top.is_empty());
        assert_eq!(top.mean_degree(), 0.0);
        assert!(top.degrees_desc().is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        for kind in [
            TopologyKind::ScaleFree { m: 3 },
            TopologyKind::Random { mean_degree: 6.0 },
            TopologyKind::SmallWorld { k: 6, beta: 0.1 },
        ] {
            let a = CsrTopology::generate(&kind, 500, 42);
            let b = CsrTopology::generate(&kind, 500, 42);
            let c = CsrTopology::generate(&kind, 500, 43);
            assert_eq!(a, b, "{kind:?} not deterministic");
            assert_ne!(a, c, "{kind:?} ignores its seed");
        }
    }

    #[test]
    fn scale_free_edge_count_and_hubs() {
        let n = 2_000;
        let m = 3;
        let top = barabasi_albert(n, m, &mut seeded_rng(7));
        // m+1 clique seed + m edges per arrival.
        let expected = (m + 1) * m / 2 + (n - m - 1) * m;
        assert_eq!(top.edge_count(), expected);
        assert!(degrees(&top).iter().all(|&d| d >= m));
        let order = top.degrees_desc();
        let (hub, mean) = (top.degree(order[0] as usize), top.mean_degree());
        assert!(hub as f64 > 8.0 * mean, "max degree {hub} vs mean {mean}");
        // Degrees descend along the attack order.
        assert!(hub >= top.degree(order[n / 2] as usize));
    }

    #[test]
    fn scale_free_degrees_are_heavy_tailed() {
        let mut rng = seeded_rng(103);
        let as_f64 =
            |g: &CsrTopology| -> Vec<f64> { degrees(g).iter().map(|&d| d as f64).collect() };
        // Hill tail-index of a BA network's degree sequence ≈ 2–3; an ER
        // graph's Poisson degrees give a much larger (thin-tail) value.
        let ba = barabasi_albert(3_000, 2, &mut rng);
        let hill_ba = resilience_stats::hill_estimator(&as_f64(&ba), 300).unwrap();
        let er = erdos_renyi(3_000, 4.0 / 3_000.0, &mut rng);
        let hill_er = resilience_stats::hill_estimator(&as_f64(&er), 300).unwrap();
        assert!(
            hill_ba < 4.0 && hill_er > hill_ba,
            "BA {hill_ba} vs ER {hill_er}"
        );
    }

    #[test]
    fn scale_free_clamps_its_seed_clique_to_n() {
        let g = barabasi_albert(3, 3, &mut seeded_rng(104));
        assert_eq!(g, complete(3));
    }

    #[test]
    fn random_graph_hits_mean_degree() {
        let top = CsrTopology::generate(&TopologyKind::Random { mean_degree: 8.0 }, 10_000, 11);
        let mean = top.mean_degree();
        assert!((mean - 8.0).abs() < 0.5, "mean degree {mean}");
        // Binomial degrees: the maximum should stay within a small
        // multiple of the mean (no hubs).
        let max_deg = *degrees(&top).iter().max().unwrap();
        assert!(max_deg < 40, "unexpected hub of degree {max_deg}");
        let n = 400;
        let p = 0.02;
        let g = erdos_renyi(n, p, &mut seeded_rng(105));
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.edge_count() as f64;
        assert!(
            (got - expected).abs() < 0.2 * expected,
            "edges {got} vs expected {expected}"
        );
    }

    #[test]
    fn random_graph_extreme_probabilities() {
        let mut rng = seeded_rng(106);
        assert_eq!(erdos_renyi(20, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(erdos_renyi(20, 1.0, &mut rng), complete(20));
    }

    #[test]
    fn lattice_fixtures_are_regular() {
        let ring = ring_lattice(10, 2);
        assert!(degrees(&ring).iter().all(|&d| d == 4));
        assert_eq!(ring.edge_count(), 20);
        let k5 = complete(5);
        assert_eq!(k5.edge_count(), 10);
        assert!(degrees(&k5).iter().all(|&d| d == 4));
    }

    #[test]
    fn small_world_zero_beta_is_the_lattice() {
        let ws = watts_strogatz(20, 4, 0.0, &mut seeded_rng(107));
        assert_eq!(ws, ring_lattice(20, 2));
    }

    #[test]
    fn small_world_keeps_ring_degree() {
        let top = CsrTopology::generate(&TopologyKind::SmallWorld { k: 6, beta: 0.05 }, 2_000, 3);
        assert_eq!(top.edge_count(), 2_000 * 3);
        assert!((top.mean_degree() - 6.0).abs() < 1e-9);
        let mut rng = seeded_rng(108);
        for beta in [0.1, 0.5, 1.0] {
            let ws = watts_strogatz(60, 6, beta, &mut rng);
            assert_eq!(ws.edge_count(), 60 * 3, "beta {beta}");
            assert!(degrees(&ws).iter().all(|&d| d >= 1));
        }
    }

    #[test]
    fn small_world_rewiring_spreads_degrees() {
        let rewired = watts_strogatz(200, 4, 1.0, &mut seeded_rng(109));
        let degrees = degrees(&rewired);
        let min = *degrees.iter().min().unwrap();
        let max = *degrees.iter().max().unwrap();
        assert!(max > min, "full rewiring breaks the regular lattice");
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn small_world_rejects_bad_beta() {
        let _ = watts_strogatz(10, 2, 1.5, &mut seeded_rng(110));
    }

    #[test]
    fn planted_partition_density_structure() {
        let n = 200;
        let blocks = 4;
        let g = planted_partition(n, blocks, 0.3, 0.01, &mut seeded_rng(111));
        // Count within- vs cross-block edges.
        let block_of = |v: usize| v * blocks / n;
        let (mut within, mut cross) = (0usize, 0usize);
        for a in 0..n {
            for &b in g.neighbors(a) {
                let b = b as usize;
                if b > a {
                    if block_of(a) == block_of(b) {
                        within += 1;
                    } else {
                        cross += 1;
                    }
                }
            }
        }
        // Expected within ≈ 4·C(50,2)·0.3 = 1470; cross ≈ 7500·0.01 = 75.
        assert!(within > 10 * cross, "within {within} vs cross {cross}");
    }

    #[test]
    fn planted_partition_extremes() {
        let mut rng = seeded_rng(112);
        assert_eq!(planted_partition(30, 3, 0.0, 0.0, &mut rng).edge_count(), 0);
        let full = planted_partition(12, 3, 1.0, 1.0, &mut rng);
        assert_eq!(full, complete(12));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn planted_partition_rejects_zero_blocks() {
        let _ = planted_partition(10, 0, 0.1, 0.1, &mut seeded_rng(113));
    }
}
