//! E16 — self-organized criticality and coordinated interventions
//! (paper §4.5).

use resilience_core::seeded_rng;
use resilience_networks::sandpile::{InterventionPolicy, Sandpile};
use resilience_stats::tail::loglog_slope;

use crate::table::ExperimentTable;
use resilience_core::RunContext;

/// Run E16.
pub fn run(ctx: &RunContext) -> ExperimentTable {
    let seed = ctx.seed;
    let drops = 25_000;
    let mut rows = Vec::new();
    let mut tails = Vec::new();
    let policies = [
        ("no intervention (SOC baseline)", InterventionPolicy::None),
        (
            "random micro-relief (budget 4/5 drops)",
            InterventionPolicy::RandomRelief {
                period: 5,
                budget: 4,
            },
        ),
        (
            "targeted near-critical relief (budget 4/5 drops)",
            InterventionPolicy::TargetedRelief {
                period: 5,
                budget: 4,
            },
        ),
    ];
    // Every policy starts from the same warmed pile and rng state, so
    // warm once and hand each policy a clone of both.
    let mut warm_rng = seeded_rng(seed.wrapping_add(16));
    let mut warm_pile = Sandpile::new(40, 40);
    warm_pile.warm_up(70_000, &mut warm_rng);
    let density = warm_pile.density();
    for (label, policy) in policies {
        let (mut pile, mut rng) = (warm_pile.clone(), warm_rng.clone());
        let report = pile.run(drops, policy, &mut rng);
        let sizes: Vec<f64> = report
            .avalanche_sizes
            .iter()
            .filter(|&&s| s > 0)
            .map(|&s| s as f64)
            .collect();
        let slope = loglog_slope(&sizes, 0.2);
        tails.push(report.tail_fraction(100));
        rows.push(vec![
            label.into(),
            format!("{density:.2}"),
            format!("{}", report.max_avalanche()),
            format!("{:.4}", report.tail_fraction(100)),
            match slope {
                Some(s) => format!("{s:.2}"),
                None => "-".into(),
            },
            format!("{}", report.grains_relieved),
        ]);
    }
    ExperimentTable {
        perf: None,
        id: "E16".into(),
        title: "Sandpile self-organized criticality and interventions".into(),
        claim: "§4.5 (Bak): decentralized systems self-organize to a critical \
                state where small disturbances cause cascading failures; \
                small centrally-coordinated destructions can keep the system \
                away from its critical points"
            .into(),
        headers: vec![
            "policy".into(),
            "critical density".into(),
            "max avalanche".into(),
            "P(avalanche ≥ 100)".into(),
            "CCDF log-log slope".into(),
            "grains relieved".into(),
        ],
        rows,
        finding: format!(
            "the unmanaged pile self-organizes to density ≈ 2.1 with a \
             power-law avalanche tail (shallow log-log slope) and huge worst \
             cases; a tiny coordinated relief budget (0.8 grains per drop) \
             cuts P(avalanche ≥ 100) from {:.4} to {:.4}, with targeting the \
             fullest cells roughly twice as effective as the random control \
             ({:.4}) — the paper's suggested small centrally-coordinated \
             destructions do avoid the critical point",
            tails[0], tails[2], tails[1]
        ),
    }
}

#[cfg(test)]
mod tests {
    use resilience_core::RunContext;
    #[test]
    fn intervention_trims_tail() {
        let t = super::run(&RunContext::new(0));
        let base: f64 = t.rows[0][3].parse().unwrap();
        let targeted: f64 = t.rows[2][3].parse().unwrap();
        assert!(targeted < base);
    }
}
