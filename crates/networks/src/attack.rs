//! Random-failure vs. targeted-attack experiments (the paper's §5.1).
//!
//! "Network-based systems that possess the scale-free property are
//! extremely robust against random failures of system components. However,
//! when we consider … a spreading virus that is deliberately designed to
//! attack the hubs of the network, such connectivity becomes a
//! vulnerability of the system."

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::graph::CsrTopology;
use crate::percolation::removal_curve;

/// How nodes are chosen for removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackStrategy {
    /// Uniformly random failures.
    Random,
    /// Remove highest-degree nodes first (hub attack).
    TargetedByDegree,
}

/// A percolation curve under an attack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackCurve {
    /// The strategy used.
    pub strategy: AttackStrategy,
    /// `giant[k]` = giant-component fraction after removing `k` nodes.
    pub giant: Vec<f64>,
}

impl AttackCurve {
    /// Fraction of nodes that must be removed before the giant component
    /// first drops below `threshold` (1.0 if it never does).
    pub fn collapse_point(&self, threshold: f64) -> f64 {
        let n = (self.giant.len() - 1).max(1);
        match self.giant.iter().position(|&f| f < threshold) {
            Some(k) => k as f64 / n as f64,
            None => 1.0,
        }
    }

    /// Area under the curve (mean giant fraction over the removal sweep) —
    /// a scalar robustness score (Schneider et al.'s R measure).
    pub fn robustness(&self) -> f64 {
        if self.giant.is_empty() {
            return 0.0;
        }
        self.giant.iter().sum::<f64>() / self.giant.len() as f64
    }
}

/// Remove up to `max_removals` nodes by `strategy`, recording the
/// giant-component fraction after every removal.
pub fn attack_sweep<R: Rng + ?Sized>(
    graph: &CsrTopology,
    strategy: AttackStrategy,
    max_removals: usize,
    rng: &mut R,
) -> AttackCurve {
    let n = graph.len();
    let max_removals = max_removals.min(n);
    let order: Vec<usize> = match strategy {
        AttackStrategy::Random => {
            let mut nodes: Vec<usize> = (0..n).collect();
            nodes.shuffle(rng);
            nodes.truncate(max_removals);
            nodes
        }
        AttackStrategy::TargetedByDegree => {
            let nodes = graph.degrees_desc().into_iter().take(max_removals);
            nodes.map(|v| v as usize).collect()
        }
    };
    AttackCurve {
        strategy,
        giant: removal_curve(graph, &order),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{barabasi_albert, erdos_renyi};
    use resilience_core::seeded_rng;

    /// The E15 reproduction: BA robust to random failure, fragile to hub
    /// attack; ER degrades comparably under both.
    #[test]
    fn scale_free_robust_random_fragile_targeted() {
        let mut rng = seeded_rng(111);
        let n = 2_000;
        let ba = barabasi_albert(n, 2, &mut rng);
        let er = erdos_renyi(n, 4.0 / n as f64, &mut rng);
        let removals = n / 2;

        let ba_random = attack_sweep(&ba, AttackStrategy::Random, removals, &mut rng);
        let ba_target = attack_sweep(&ba, AttackStrategy::TargetedByDegree, removals, &mut rng);
        let er_random = attack_sweep(&er, AttackStrategy::Random, removals, &mut rng);
        let er_target = attack_sweep(&er, AttackStrategy::TargetedByDegree, removals, &mut rng);

        // BA under random failure keeps a large giant component even at
        // 50% removal.
        assert!(
            *ba_random.giant.last().unwrap() > 0.25,
            "BA giant after random removals: {}",
            ba_random.giant.last().unwrap()
        );
        // Hub attack shatters BA far earlier.
        assert!(
            ba_target.robustness() < 0.55 * ba_random.robustness(),
            "targeted {} vs random {}",
            ba_target.robustness(),
            ba_random.robustness()
        );
        // The attack gap is much larger for BA than for ER.
        let ba_gap = ba_random.robustness() - ba_target.robustness();
        let er_gap = er_random.robustness() - er_target.robustness();
        assert!(ba_gap > 1.5 * er_gap, "BA gap {ba_gap} vs ER gap {er_gap}");
    }

    #[test]
    fn collapse_point_semantics() {
        let curve = AttackCurve {
            strategy: AttackStrategy::Random,
            giant: vec![1.0, 0.9, 0.4, 0.1],
        };
        assert!((curve.collapse_point(0.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(curve.collapse_point(0.05), 1.0);
        assert!((curve.robustness() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn sweep_respects_bounds() {
        let mut rng = seeded_rng(112);
        let g = erdos_renyi(50, 0.1, &mut rng);
        let c = attack_sweep(&g, AttackStrategy::Random, 500, &mut rng);
        assert_eq!(c.giant.len(), 51); // clamped to n
        let c2 = attack_sweep(&g, AttackStrategy::TargetedByDegree, 10, &mut rng);
        assert_eq!(c2.giant.len(), 11);
    }

    #[test]
    fn targeted_removes_hubs_first() {
        let mut rng = seeded_rng(113);
        let g = CsrTopology::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        // Star: removing the hub disconnects everything.
        let c = attack_sweep(&g, AttackStrategy::TargetedByDegree, 1, &mut rng);
        assert!((c.giant[0] - 1.0).abs() < 1e-12);
        assert!((c.giant[1] - 0.2).abs() < 1e-12); // singletons remain
    }
}
