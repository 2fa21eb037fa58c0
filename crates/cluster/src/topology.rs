//! The cluster's topology: the workspace graph of `crates/networks`.
//!
//! [`CsrTopology`] keeps the neighbor lists of all nodes in one flat
//! array, which is what lets the cluster run at millions of nodes; it and
//! its generators live in [`resilience_networks::graph`] and are
//! re-exported here. What the cluster adds is the giant component of a
//! word-packed alive-set.

use resilience_dcsp::BitWords;
use resilience_networks::UnionFind;

pub use resilience_networks::graph::{CsrTopology, TopologyKind};

/// Size of the largest connected component among `alive` nodes (0 if
/// nothing is alive).
pub fn giant_size(topology: &CsrTopology, alive: &BitWords) -> usize {
    if alive.none_set() {
        return 0;
    }
    // Dead nodes stay singletons, so the largest component is an alive one.
    let mut uf = UnionFind::new(topology.len());
    alive.for_each_one(|v| {
        for &w in topology.neighbors(v) {
            let w = w as usize;
            // Each undirected edge is visited from both sides; the
            // `v < w` guard unions it once.
            if v < w && alive.get(w) {
                uf.union(v, w);
            }
        }
    });
    uf.largest_component()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn giant_size_tracks_alive_set() {
        // Path 0-1-2-3 plus isolated 4.
        let top = CsrTopology::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let mut alive = BitWords::new_filled(5);
        assert_eq!(giant_size(&top, &alive), 4);
        alive.clear(1); // split the path
        assert_eq!(giant_size(&top, &alive), 2);
        alive.clear(2);
        alive.clear(3);
        assert_eq!(giant_size(&top, &alive), 1);
        alive.clear_all();
        assert_eq!(giant_size(&top, &alive), 0);
    }
}
