//! Property-based equivalence of the ceiling-breaking verification paths
//! against the engines they accelerate.
//!
//! The symmetry-reduced recoverability checker (one repair walk per
//! damage *orbit*, counts multiplied by orbit size) and the
//! compressed-frontier maintainability engines (word-packed frontiers,
//! streamed level counts) must be observationally invisible: identical
//! reports — including the counterexample — to the unreduced/dense paths
//! they replace, on arbitrary inputs, for any thread count, with or
//! without chaos fault injection in the run context.

use proptest::prelude::*;

use systems_resilience::core::{
    derive_seed, AllOnes, AtLeastOnes, Config, Constraint, ExplicitSet, FaultConfig,
    PredicateConstraint, RunContext, Supervision,
};
use systems_resilience::dcsp::maintainability::{
    analyze_bit_dcsp, analyze_bit_dcsp_adversarial, analyze_bit_dcsp_adversarial_frontiers,
    analyze_bit_dcsp_auto, analyze_bit_dcsp_frontiers,
};
use systems_resilience::dcsp::recoverability::{
    is_k_recoverable_exhaustive, is_k_recoverable_exhaustive_parallel, is_k_recoverable_symmetric,
    is_k_recoverable_symmetric_stats,
};
use systems_resilience::dcsp::repair::{BfsRepair, GreedyRepair, RepairStrategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Orbit reduction is invisible: for symmetric counting constraints
    /// the reduced checker must reproduce the exhaustive engine's report
    /// bit-for-bit — case counts, worst repair distance, verdict, and the
    /// lowest-ranked counterexample — for arbitrary thresholds, damage
    /// bounds, budgets, strategies, and thread counts.
    #[test]
    fn orbit_reduction_matches_exhaustive(
        n in 4usize..12,
        damage in 1usize..4,
        k in 0usize..5,
        need_frac in 0.3f64..1.0,
        use_bfs in any::<bool>(),
        threads in 1usize..5,
    ) {
        let need = (((n as f64) * need_frac).ceil() as usize).clamp(1, n);
        let start = Config::ones(n);
        let greedy = GreedyRepair::new();
        let bfs = BfsRepair::new(k.max(1));
        let strategy: &dyn RepairStrategy = if use_bfs { &bfs } else { &greedy };
        let ctx = RunContext::with_threads(0, threads);
        let env = AtLeastOnes::new(n, need);
        let sym = is_k_recoverable_symmetric(&start, &env, strategy, damage, k, &ctx)
            .expect("counting constraints declare symmetry");
        let full = is_k_recoverable_exhaustive(&start, &env, strategy, damage, k);
        prop_assert_eq!(sym, full);
    }

    /// The symmetric checker's report *and* its telemetry counters are a
    /// pure function of the problem: bit-identical for 1, 2, and 4
    /// threads.
    #[test]
    fn symmetric_reports_and_stats_are_thread_invariant(
        n in 4usize..11,
        damage in 1usize..4,
        k in 0usize..4,
    ) {
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let mut first = None;
        for threads in [1usize, 2, 4] {
            let ctx = RunContext::with_threads(0, threads);
            let got = is_k_recoverable_symmetric_stats(
                &start, &env, &GreedyRepair::new(), damage, k, &ctx,
            )
            .expect("AllOnes declares symmetry");
            match &first {
                None => first = Some(got),
                Some(want) => prop_assert_eq!(&got, want),
            }
        }
    }

    /// Compressed quiet frontiers equal the dense per-state analysis on
    /// arbitrary thresholds and thread counts.
    #[test]
    fn compressed_quiet_frontiers_match_dense(
        n_bits in 6usize..13,
        need_frac in 0.2f64..1.0,
        threads in 1usize..5,
    ) {
        let need = (((n_bits as f64) * need_frac).ceil() as usize).clamp(1, n_bits);
        let env = AtLeastOnes::new(n_bits, need);
        let dense = analyze_bit_dcsp(n_bits, &env);
        let summary = analyze_bit_dcsp_frontiers(n_bits, &env, threads);
        prop_assert_eq!(&summary.frontier_sizes, &dense.frontier_sizes());
        prop_assert_eq!(summary.hopeless, dense.hopeless_states().len() as u64);
        prop_assert_eq!(summary.min_k(), dense.min_k());
    }

    /// Compressed adversarial level sets equal the dense min-max value
    /// iteration's level histogram.
    #[test]
    fn compressed_adversarial_frontiers_match_dense(
        n_bits in 6usize..11,
        need_gap in 1usize..4,
        damage in 1usize..3,
        threads in 1usize..4,
    ) {
        let need = n_bits - need_gap.min(n_bits - 1);
        let env = AtLeastOnes::new(n_bits, need);
        let dense = analyze_bit_dcsp_adversarial(n_bits, &env, damage, 1);
        let summary = analyze_bit_dcsp_adversarial_frontiers(n_bits, &env, damage, threads);
        prop_assert_eq!(&summary.frontier_sizes, &dense.frontier_sizes());
        prop_assert_eq!(summary.hopeless, dense.hopeless_states().len() as u64);
    }
}

/// The 2^12–2^20 band the dense engine still reaches: the compressed
/// path must agree exactly at every size, and the auto router must
/// produce the same summary from either branch.
#[test]
fn compressed_frontiers_match_dense_at_scale() {
    for (n_bits, need) in [(12usize, 7usize), (16, 10), (20, 13)] {
        let env = AtLeastOnes::new(n_bits, need);
        let dense = analyze_bit_dcsp(n_bits, &env);
        for threads in [1usize, 4] {
            let summary = analyze_bit_dcsp_frontiers(n_bits, &env, threads);
            assert_eq!(
                summary.frontier_sizes,
                dense.frontier_sizes(),
                "n={n_bits} threads={threads}"
            );
            assert_eq!(summary.hopeless, dense.hopeless_states().len() as u64);
        }
        let auto = analyze_bit_dcsp_auto(n_bits, &env, 4);
        assert_eq!(auto.frontier_sizes, dense.frontier_sizes(), "n={n_bits}");
    }
}

/// Chaos fault injection in the run context (panics, delays, poisoned
/// slots, all recoverable) must not perturb verification output: the
/// symmetric and exhaustive parallel checkers stay bit-identical to an
/// unsupervised run at every thread count.
#[test]
fn chaos_supervision_leaves_verification_bit_identical() {
    let cfg = FaultConfig::parse(
        "seed=11,panic=0.2,delay=0.05,delay_ms=1,poison=0.15,times=2,retries=3,backoff_ms=1",
    )
    .expect("valid chaos spec");
    let start = Config::ones(10);
    let env = AllOnes::new(10);
    let clean_sym = is_k_recoverable_symmetric(
        &start,
        &env,
        &GreedyRepair::new(),
        3,
        3,
        &RunContext::with_threads(0, 2),
    )
    .expect("symmetric");
    let clean_full = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 3, 3);
    for threads in [1usize, 2, 4] {
        let ctx = RunContext::with_threads(0, threads)
            .supervised(Supervision::new("symmetry-chaos", cfg.clone()));
        let sym = is_k_recoverable_symmetric(&start, &env, &GreedyRepair::new(), 3, 3, &ctx)
            .expect("symmetric");
        assert_eq!(sym, clean_sym, "symmetric threads={threads}");
        let ctx = RunContext::with_threads(0, threads)
            .supervised(Supervision::new("exhaustive-chaos", cfg.clone()));
        let full =
            is_k_recoverable_exhaustive_parallel(&start, &env, &GreedyRepair::new(), 3, 3, &ctx);
        assert_eq!(full, clean_full, "exhaustive threads={threads}");
    }
}

/// Normal sets with no symmetry for the compressed engines to lean on,
/// one family per shape a word-level early-out can meet: whole words
/// normal or empty (`blocks`), a Hamming ball around an arbitrary center
/// whose inner states survive the adversary's erosion (`ball`), a
/// scattered explicit set (`sparse`), a dense hash-random set
/// (`hashed`), and the empty set, which leaves every state hopeless
/// (`empty`).
fn asymmetric_normal_sets(n_bits: usize) -> Vec<(&'static str, Box<dyn Constraint>)> {
    let full = (1u64 << n_bits) - 1;
    let center = derive_seed(17, n_bits as u64) & full;
    let members = (0..n_bits as u64).map(|i| Config::from_u64(derive_seed(29, i) & full, n_bits));
    vec![
        (
            "blocks",
            Box::new(PredicateConstraint::new("blocks", |c: &Config| {
                (c.to_u64() >> 6).is_multiple_of(3)
            })),
        ),
        (
            "ball",
            Box::new(PredicateConstraint::new("ball", move |c: &Config| {
                (c.to_u64() ^ center).count_ones() <= 3
            })),
        ),
        ("sparse", Box::new(ExplicitSet::new(members))),
        (
            "hashed",
            Box::new(PredicateConstraint::new("hashed", |c: &Config| {
                derive_seed(5, c.to_u64()).is_multiple_of(4)
            })),
        ),
        ("empty", Box::new(ExplicitSet::new(Vec::<Config>::new()))),
    ]
}

/// Both compressed engines equal the dense analyses on asymmetric normal
/// sets at every width from one word to 2^16 states, for thread counts
/// that split the words evenly and unevenly, at damage 0, 1 and 2. With
/// damage ≥ 1 the adversary can undo any repair step that lands on a
/// normal state, so no non-normal state has a finite worst-case value
/// and the adversarial fixed point is the normal set itself; damage 0 is
/// the case where its dilation grows the set level by level.
#[test]
fn compressed_frontiers_match_dense_on_asymmetric_normal_sets() {
    for n_bits in 6usize..=16 {
        for (name, env) in asymmetric_normal_sets(n_bits) {
            let env = env.as_ref();
            let dense = analyze_bit_dcsp(n_bits, env);
            for threads in [1usize, 2, 3] {
                let summary = analyze_bit_dcsp_frontiers(n_bits, env, threads);
                assert_eq!(
                    summary.frontier_sizes,
                    dense.frontier_sizes(),
                    "quiet {name} n={n_bits} threads={threads}"
                );
                assert_eq!(summary.hopeless, dense.hopeless_states().len() as u64);
            }
            for damage in [0usize, 1, 2] {
                let dense = analyze_bit_dcsp_adversarial(n_bits, env, damage, 1);
                for threads in [1usize, 2, 3] {
                    let summary =
                        analyze_bit_dcsp_adversarial_frontiers(n_bits, env, damage, threads);
                    assert_eq!(
                        summary.frontier_sizes,
                        dense.frontier_sizes(),
                        "adversarial {name} n={n_bits} d={damage} threads={threads}"
                    );
                    assert_eq!(
                        summary.hopeless,
                        dense.hopeless_states().len() as u64,
                        "adversarial {name} n={n_bits} d={damage} threads={threads}"
                    );
                }
            }
        }
    }
}
