//! Giant-component analysis under node removal.
//!
//! Removing nodes and asking how large the biggest connected cluster
//! remains is the standard robustness probe for the §5.1 claims. Removal
//! curves are computed *additively*: nodes are inserted in reverse removal
//! order into a union–find, so a whole sweep costs near-linear time.

use crate::graph::CsrTopology;
use crate::union_find::UnionFind;

/// Size of the largest connected component among the `alive` nodes.
pub fn giant_component_size(graph: &CsrTopology, alive: &[bool]) -> usize {
    assert_eq!(alive.len(), graph.len(), "alive mask must cover every node");
    if !alive.contains(&true) {
        return 0;
    }
    // Dead nodes stay singletons, so the largest component is an alive one.
    let mut uf = UnionFind::new(graph.len());
    for v in (0..graph.len()).filter(|&v| alive[v]) {
        for &w in graph.neighbors(v) {
            let w = w as usize;
            if w < v && alive[w] {
                uf.union(v, w);
            }
        }
    }
    uf.largest_component()
}

/// Largest-component size as a *fraction* of all nodes.
pub fn giant_component_fraction(graph: &CsrTopology, alive: &[bool]) -> f64 {
    if graph.is_empty() {
        return 0.0;
    }
    giant_component_size(graph, alive) as f64 / graph.len() as f64
}

/// Giant-component fraction after removing each prefix of `removal_order`:
/// `result[k]` = fraction with the first `k` nodes removed. Computed by
/// adding nodes in reverse order (O((n + m) α(n)) total).
pub fn removal_curve(graph: &CsrTopology, removal_order: &[usize]) -> Vec<f64> {
    let n = graph.len();
    assert!(
        removal_order.len() <= n,
        "cannot remove more nodes than exist"
    );
    let mut removed = vec![false; n];
    for &v in removal_order {
        removed[v] = true;
    }
    let mut uf = UnionFind::new(n);
    let mut alive = vec![false; n];
    let mut giant = 0usize;
    let mut insert = |v: usize| {
        alive[v] = true;
        for &w in graph.neighbors(v) {
            let w = w as usize;
            if alive[w] {
                uf.union(v, w);
            }
        }
        giant = giant.max(uf.component_size(v));
        giant
    };
    // Insert the never-removed nodes first.
    let mut survivors_giant = 0;
    for v in (0..n).filter(|&v| !removed[v]) {
        survivors_giant = insert(v);
    }
    // Replay removals backwards, recording the curve back-to-front.
    let denom = n.max(1) as f64;
    let mut curve = vec![0.0; removal_order.len() + 1];
    curve[removal_order.len()] = survivors_giant as f64 / denom;
    for (k, &v) in removal_order.iter().enumerate().rev() {
        curve[k] = insert(v) as f64 / denom;
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{complete, ring_lattice};

    #[test]
    fn intact_complete_graph_is_one_component() {
        let g = complete(6);
        let alive = vec![true; 6];
        assert_eq!(giant_component_size(&g, &alive), 6);
        assert!((giant_component_fraction(&g, &alive) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dead_nodes_break_components() {
        // Path 0-1-2-3 (ring minus nothing: use a ring of 4, k=1).
        let g = ring_lattice(5, 1);
        let mut alive = vec![true; 5];
        alive[0] = false;
        // Remaining path 1-2-3-4.
        assert_eq!(giant_component_size(&g, &alive), 4);
        alive[2] = false;
        // {1}, {3,4}.
        assert_eq!(giant_component_size(&g, &alive), 2);
    }

    #[test]
    fn all_dead_is_zero() {
        let g = complete(4);
        assert_eq!(giant_component_size(&g, &[false; 4]), 0);
        assert_eq!(giant_component_fraction(&g, &[false; 4]), 0.0);
    }

    #[test]
    fn removal_curve_is_monotone_decreasing() {
        let g = complete(8);
        let order: Vec<usize> = (0..5).collect();
        let curve = removal_curve(&g, &order);
        assert_eq!(curve.len(), 6);
        assert!((curve[0] - 1.0).abs() < 1e-12);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        // After removing 5 of 8: 3 nodes remain fully connected.
        assert!((curve[5] - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn removal_curve_matches_direct_computation() {
        let g = ring_lattice(12, 2);
        let order = vec![0, 3, 7, 9, 1];
        let curve = removal_curve(&g, &order);
        for k in 0..=order.len() {
            let mut alive = vec![true; 12];
            for &v in &order[..k] {
                alive[v] = false;
            }
            let direct = giant_component_fraction(&g, &alive);
            assert!(
                (curve[k] - direct).abs() < 1e-12,
                "k={k}: curve {} vs direct {direct}",
                curve[k]
            );
        }
    }

    #[test]
    #[should_panic(expected = "alive mask")]
    fn mask_length_checked() {
        let g = complete(3);
        let _ = giant_component_size(&g, &[true; 2]);
    }
}
