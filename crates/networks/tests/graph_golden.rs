//! Golden digests of the seeded graph generators.
//!
//! Every experiment that draws a graph is a pure function of its seed, so
//! the generators themselves are pinned here: an FNV-1a digest over the
//! sorted undirected edge list of each graph. The digest reads the graph
//! only through `len()` and `neighbors(v)`, so it is independent of how
//! the graph is stored and of the order of each neighbor list.

use resilience_cluster::{CsrTopology, TopologyKind};
use resilience_core::seeded_rng;
use resilience_networks::{barabasi_albert, planted_partition};

/// FNV-1a over `n` and the sorted `(low, high)` edge list.
fn edge_digest<'a>(n: usize, neighbors: impl Fn(usize) -> &'a [u32]) -> u64 {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..n {
        for &w in neighbors(v) {
            if (v as u32) < w {
                edges.push((v as u32, w));
            }
        }
    }
    edges.sort_unstable();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u32| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(n as u32);
    for (a, b) in edges {
        eat(a);
        eat(b);
    }
    hash
}

#[test]
fn barabasi_albert_is_pinned() {
    // E15's input: 3000 nodes, m = 2, master seed 42 + experiment 15.
    let g = barabasi_albert(3_000, 2, &mut seeded_rng(42 + 15));
    assert_eq!(edge_digest(g.len(), |v| g.neighbors(v)), 367326015531219908);
    let small = barabasi_albert(40, 3, &mut seeded_rng(7));
    assert_eq!(
        edge_digest(small.len(), |v| small.neighbors(v)),
        2079079395740096536
    );
}

#[test]
fn planted_partition_is_pinned() {
    // E21's shape: 600 nodes in 4 lightly coupled modules.
    let g = planted_partition(600, 4, 0.072, 0.0033, &mut seeded_rng(2101));
    assert_eq!(edge_digest(g.len(), |v| g.neighbors(v)), 722440212950658502);
}

#[test]
fn cluster_topologies_are_pinned() {
    let cases = [
        (TopologyKind::ScaleFree { m: 3 }, 5855411373687385967),
        (
            TopologyKind::Random { mean_degree: 6.0 },
            14726770162582822722,
        ),
        (
            TopologyKind::SmallWorld { k: 6, beta: 0.1 },
            14757777061288369551,
        ),
    ];
    for (kind, want) in cases {
        let g = CsrTopology::generate(&kind, 2_000, 42);
        assert_eq!(edge_digest(g.len(), |v| g.neighbors(v)), want, "{kind:?}");
    }
}
