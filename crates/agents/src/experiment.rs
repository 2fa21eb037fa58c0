//! The E14 budget-allocation experiment (the paper's §4.4 question).
//!
//! "What combination of resilience strategies is optimum under a given
//! condition is one of the questions that we would like to answer."
//!
//! [`sweep_budgets`] runs the multi-agent simulation across the budget
//! simplex for a given shock regime and reports survival probabilities.
//! Every entry point builds [`SweepCell`]s and hands them to
//! [`evaluate_cells`], the one simulation loop, which fans the
//! (cell, replicate) runs out on a thread budget.

use rand::Rng;

use resilience_core::{derive_seed, seeded_rng, BudgetAllocation, ParallelTrials};
use serde::{Deserialize, Serialize};

use crate::budget::BudgetedParams;
use crate::dynamics::{SimConfig, Simulation};
use crate::environment::{Environment, EnvironmentKind};

/// The environmental regime a population must endure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShockRegime {
    /// No change at all.
    Calm,
    /// Steady drift of 2 bits/step.
    SteadyDrift,
    /// A 12-bit shock every 60 steps (rare X-events).
    RareShocks,
    /// A 6-bit shock every 12 steps (frequent mid-size events).
    FrequentShocks,
}

impl ShockRegime {
    /// All regimes, in sweep order.
    pub const ALL: [ShockRegime; 4] = [
        ShockRegime::Calm,
        ShockRegime::SteadyDrift,
        ShockRegime::RareShocks,
        ShockRegime::FrequentShocks,
    ];

    /// The environment law for this regime.
    pub fn environment_kind(&self) -> EnvironmentKind {
        match self {
            ShockRegime::Calm => EnvironmentKind::Static,
            ShockRegime::SteadyDrift => EnvironmentKind::Drift { bits_per_step: 2 },
            ShockRegime::RareShocks => EnvironmentKind::Shocks {
                period: 60,
                bits: 12,
            },
            ShockRegime::FrequentShocks => EnvironmentKind::Shocks {
                period: 12,
                bits: 6,
            },
        }
    }
}

/// Survival results for one allocation under one regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimeOutcome {
    /// The budget split.
    pub allocation: BudgetAllocation,
    /// The regime tested.
    pub regime: ShockRegime,
    /// Replicates run.
    pub replicates: usize,
    /// Replicates whose population survived the horizon.
    pub survivals: usize,
    /// Mean final population size across replicates (0 for extinct runs).
    pub mean_final_population: f64,
}

impl RegimeOutcome {
    /// Fraction of replicates surviving.
    pub fn survival_rate(&self) -> f64 {
        if self.replicates == 0 {
            1.0
        } else {
            self.survivals as f64 / self.replicates as f64
        }
    }
}

/// One cell of an allocation sweep: an allocation under a regime, with
/// the seed its replicates derive from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// The budget split.
    pub allocation: BudgetAllocation,
    /// The regime tested.
    pub regime: ShockRegime,
    /// Replicate `rep` runs on `seeded_rng(derive_seed(seed, rep))`.
    pub seed: u64,
}

/// Evaluate every cell with `replicates` independent runs of `steps`
/// steps each. The `cells.len() × replicates` runs are fanned out on
/// `threads` workers, one (cell, replicate) pair per work item, and
/// folded in (cell, replicate) order, so the outcomes are bit-identical
/// for every thread budget; `threads = 1` runs them in that order on the
/// calling thread.
pub fn evaluate_cells(
    cells: &[SweepCell],
    steps: usize,
    replicates: usize,
    threads: usize,
) -> Vec<RegimeOutcome> {
    let config = SimConfig::default();
    let runs = cells.len() * replicates;
    // Final population of each run, `None` when it went extinct.
    let finals = ParallelTrials::new(threads.max(1)).run_ranges(
        runs as u64,
        1,
        |range| {
            let run = range.start as usize;
            let cell = &cells[run / replicates];
            let mut rng = seeded_rng(derive_seed(cell.seed, (run % replicates) as u64));
            let env = Environment::random(config.n_bits, cell.regime.environment_kind(), &mut rng);
            let params = BudgetedParams::from_allocation(&cell.allocation);
            let out = Simulation::new(config, params, env, &mut rng).run(steps, &mut rng);
            (!out.extinct).then(|| *out.population_series.values().last().unwrap_or(&0.0))
        },
        Vec::with_capacity(runs),
        |mut acc, last: Option<f64>| {
            acc.push(last);
            acc
        },
    );
    cells
        .iter()
        .enumerate()
        .map(|(c, cell)| {
            let runs = &finals[c * replicates..(c + 1) * replicates];
            RegimeOutcome {
                allocation: cell.allocation,
                regime: cell.regime,
                replicates,
                survivals: runs.iter().flatten().count(),
                // Folded from +0.0: `Sum` starts at −0.0, which would
                // print an all-extinct cell as "-0".
                mean_final_population: runs.iter().flatten().fold(0.0, |acc, p| acc + p)
                    / replicates.max(1) as f64,
            }
        })
        .collect()
}

/// Evaluate one allocation under one regime (`replicates` independent
/// runs of `steps` steps each, seeded from `seed`).
pub fn evaluate_allocation(
    allocation: &BudgetAllocation,
    regime: ShockRegime,
    steps: usize,
    replicates: usize,
    seed: u64,
) -> RegimeOutcome {
    let cell = SweepCell {
        allocation: *allocation,
        regime,
        seed,
    };
    evaluate_cells(&[cell], steps, replicates, 1)
        .pop()
        .expect("one outcome per cell")
}

/// The cells of a whole budget-simplex sweep (`grid_steps`
/// subdivisions) under one regime; cell `i` is seeded
/// `derive_seed(seed, i)`.
pub fn sweep_cells(regime: ShockRegime, grid_steps: usize, seed: u64) -> Vec<SweepCell> {
    BudgetAllocation::simplex_grid(grid_steps)
        .into_iter()
        .enumerate()
        .map(|(i, allocation)| SweepCell {
            allocation,
            regime,
            seed: derive_seed(seed, i as u64),
        })
        .collect()
}

/// Sweep the whole budget simplex (`grid_steps` subdivisions) under one
/// regime.
pub fn sweep_budgets(
    regime: ShockRegime,
    grid_steps: usize,
    steps: usize,
    replicates: usize,
    seed: u64,
) -> Vec<RegimeOutcome> {
    evaluate_cells(&sweep_cells(regime, grid_steps, seed), steps, replicates, 1)
}

/// The best allocation of a sweep (highest survival, ties broken by final
/// population).
pub fn best_allocation(outcomes: &[RegimeOutcome]) -> Option<&RegimeOutcome> {
    outcomes.iter().max_by(|a, b| {
        (a.survival_rate(), a.mean_final_population)
            .partial_cmp(&(b.survival_rate(), b.mean_final_population))
            .expect("rates are finite")
    })
}

/// The ablation cells under `regime`: the uniform mix, then each pure
/// corner; cell `i` is seeded `derive_seed(seed, 100 + i)`.
pub fn ablation_cells(regime: ShockRegime, seed: u64) -> Vec<SweepCell> {
    use resilience_core::Strategy;
    [
        BudgetAllocation::uniform(),
        BudgetAllocation::pure(Strategy::Redundancy),
        BudgetAllocation::pure(Strategy::Diversity),
        BudgetAllocation::pure(Strategy::Adaptability),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, allocation)| SweepCell {
        allocation,
        regime,
        seed: derive_seed(seed, 100 + i as u64),
    })
    .collect()
}

/// Convenience used by tests and the bench harness: an ablation row
/// comparing the uniform mix against each pure corner under `regime`.
pub fn ablation_rows(
    regime: ShockRegime,
    steps: usize,
    replicates: usize,
    seed: u64,
) -> Vec<RegimeOutcome> {
    evaluate_cells(&ablation_cells(regime, seed), steps, replicates, 1)
}

/// A deterministic RNG helper for external drivers that want their own
/// environments.
pub fn regime_environment<R: Rng + ?Sized>(
    regime: ShockRegime,
    n_bits: usize,
    rng: &mut R,
) -> Environment {
    Environment::random(n_bits, regime.environment_kind(), rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_regime_everything_survives() {
        let out = evaluate_allocation(&BudgetAllocation::uniform(), ShockRegime::Calm, 150, 5, 1);
        assert_eq!(out.survival_rate(), 1.0);
        assert!(out.mean_final_population > 40.0);
    }

    #[test]
    fn drift_demands_adaptability() {
        use resilience_core::Strategy;
        // Under steady drift, a zero-adaptability (pure redundancy)
        // population dies; an adaptability-heavy one survives.
        let redundancy_only = evaluate_allocation(
            &BudgetAllocation::pure(Strategy::Redundancy),
            ShockRegime::SteadyDrift,
            250,
            6,
            2,
        );
        let adaptability_heavy = evaluate_allocation(
            &BudgetAllocation::new(0.1, 0.1, 0.8).unwrap(),
            ShockRegime::SteadyDrift,
            250,
            6,
            2,
        );
        assert_eq!(
            redundancy_only.survival_rate(),
            0.0,
            "pure redundancy cannot track drift"
        );
        assert!(
            adaptability_heavy.survival_rate() > 0.8,
            "adaptability survives drift: {}",
            adaptability_heavy.survival_rate()
        );
    }

    #[test]
    fn sweep_covers_simplex() {
        let outcomes = sweep_budgets(ShockRegime::Calm, 2, 50, 2, 3);
        assert_eq!(outcomes.len(), 6); // (2+1)(2+2)/2
        let best = best_allocation(&outcomes).unwrap();
        assert!(best.survival_rate() >= outcomes[0].survival_rate());
    }

    #[test]
    fn ablation_has_four_rows() {
        let rows = ablation_rows(ShockRegime::Calm, 50, 2, 4);
        assert_eq!(rows.len(), 4);
        // All corners survive a calm world.
        for row in &rows {
            assert_eq!(row.survival_rate(), 1.0, "{:?}", row.allocation);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = evaluate_allocation(
            &BudgetAllocation::uniform(),
            ShockRegime::RareShocks,
            100,
            3,
            7,
        );
        let b = evaluate_allocation(
            &BudgetAllocation::uniform(),
            ShockRegime::RareShocks,
            100,
            3,
            7,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn evaluate_cells_is_thread_invariant_and_per_cell() {
        let mut cells = ablation_cells(ShockRegime::FrequentShocks, 5);
        cells.extend(sweep_cells(ShockRegime::SteadyDrift, 2, 6));
        let serial = evaluate_cells(&cells, 80, 3, 1);
        for threads in [2usize, 3] {
            assert_eq!(
                evaluate_cells(&cells, 80, 3, threads),
                serial,
                "threads={threads}"
            );
        }
        for (cell, outcome) in cells.iter().zip(&serial) {
            let alone = evaluate_allocation(&cell.allocation, cell.regime, 80, 3, cell.seed);
            assert_eq!(&alone, outcome);
        }
        assert!(evaluate_cells(&cells, 80, 0, 2)
            .iter()
            .all(|o| o.replicates == 0 && o.mean_final_population == 0.0));
    }

    #[test]
    fn regime_kinds() {
        assert_eq!(
            ShockRegime::Calm.environment_kind(),
            EnvironmentKind::Static
        );
        assert!(matches!(
            ShockRegime::SteadyDrift.environment_kind(),
            EnvironmentKind::Drift { bits_per_step: 2 }
        ));
        assert_eq!(ShockRegime::ALL.len(), 4);
    }
}
