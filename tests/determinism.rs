//! Every experiment and simulation must be an exact function of its seed —
//! the reproducibility contract of the whole repository.

use systems_resilience::agents::experiment::{evaluate_allocation, ShockRegime};
use systems_resilience::core::{seeded_rng, BudgetAllocation, Config};
use systems_resilience::networks::graph::barabasi_albert;
use systems_resilience::stats::distributions::{Pareto, Sampler};

#[test]
fn config_sampling_is_seed_deterministic() {
    let a = Config::random(256, &mut seeded_rng(99));
    let b = Config::random(256, &mut seeded_rng(99));
    assert_eq!(a, b);
    let c = Config::random(256, &mut seeded_rng(100));
    assert_ne!(a, c);
}

#[test]
fn graph_generation_is_seed_deterministic() {
    let g1 = barabasi_albert(500, 2, &mut seeded_rng(7));
    let g2 = barabasi_albert(500, 2, &mut seeded_rng(7));
    assert_eq!(g1, g2);
}

#[test]
fn samplers_are_seed_deterministic() {
    let p = Pareto::new(1.0, 1.5).expect("valid");
    let mut r1 = seeded_rng(5);
    let mut r2 = seeded_rng(5);
    for _ in 0..100 {
        assert_eq!(p.sample(&mut r1), p.sample(&mut r2));
    }
}

#[test]
fn agent_experiments_are_seed_deterministic() {
    let a = evaluate_allocation(
        &BudgetAllocation::uniform(),
        ShockRegime::FrequentShocks,
        120,
        4,
        123,
    );
    let b = evaluate_allocation(
        &BudgetAllocation::uniform(),
        ShockRegime::FrequentShocks,
        120,
        4,
        123,
    );
    assert_eq!(a, b);
}

#[test]
fn experiment_tables_are_seed_deterministic() {
    use resilience_bench::experiments::registry;
    use systems_resilience::core::RunContext;
    // A representative cheap subset (the full set is exercised by the
    // binary and the bench crate's own tests).
    for id in ["e1", "e2", "e4"] {
        let runner = registry()
            .into_iter()
            .find(|(rid, _)| *rid == id)
            .map(|(_, r)| r)
            .expect("registered");
        let t1 = runner(&RunContext::new(42));
        let t2 = runner(&RunContext::new(42));
        assert_eq!(t1, t2, "{id} must be reproducible");
    }
}
