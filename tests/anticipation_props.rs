//! Property suite for the anticipation layer (ISSUE: early-warning
//! detection and normal/emergency mode switching).
//!
//! The contracts pinned here:
//!
//! * anticipatory serving is a pure function of `(trace seed, chaos
//!   plan)`: the full service report — outcomes, warning scores, mode
//!   transitions — is byte-identical across thread budgets 1, 2, and 4,
//!   with and without a chaos plan;
//! * the detector's O(1) sliding-window indicators (Welford variance +
//!   incremental lag-1 autocorrelation) agree with a naive O(n·w)
//!   recomputation on arbitrary streams and window sizes, and at the
//!   experiments' 1000- and 2000-sample windows through a tipping point;
//! * the canonical no-fault workload never drives the default mode
//!   controller into Emergency, for any trace seed: the emergency
//!   posture is reserved for genuine trouble, and a quiet service never
//!   pays its price.

use proptest::prelude::*;
use systems_resilience::anticipate::{
    naive_residuals, naive_window_indicators, AnticipationConfig, EarlyWarning, EarlyWarningConfig,
    OperatingMode,
};
use systems_resilience::core::faults::{FaultConfig, FaultPlan};
use systems_resilience::core::seeded_rng;
use systems_resilience::service::{
    RequestTrace, ServiceConfig, ServiceEngine, ServiceReport, TraceSpec,
};
use systems_resilience::stats::bistable::{BistableProcess, CRITICAL_FORCING};

/// Serve the canonical workload with the default anticipation layer.
fn serve_anticipatory(trace_seed: u64, plan: &FaultPlan, threads: usize) -> ServiceReport {
    let trace = RequestTrace::generate(&TraceSpec::new(600, trace_seed));
    ServiceEngine::new(ServiceConfig {
        threads,
        anticipation: Some(AnticipationConfig::default()),
        ..ServiceConfig::default()
    })
    .serve(&trace, plan)
}

/// Replay the detector's own detrend chain over the sample prefix, then
/// apply the naive O(w) indicator reference to the trailing window.
fn naive_indicators(samples: &[f64], alpha: f64, window: usize) -> (f64, f64) {
    let residuals = naive_residuals(samples, alpha);
    naive_window_indicators(&residuals[residuals.len().saturating_sub(window)..])
}

/// At E12's and E19's long windows the incremental indicators still
/// match the naive reference: E12's 60k-sample ramp at seed 42, fed
/// through its tip (the jump to the upper branch is the hardest input
/// for the sliding updates), checked every 50th sample to 1e-9.
#[test]
fn long_window_indicators_agree_with_naive_reference_through_a_tip() {
    let process = BistableProcess {
        sigma: 0.04,
        ..BistableProcess::default()
    };
    let run = process.simulate_ramp(
        60_000,
        -0.25,
        CRITICAL_FORCING * 1.25,
        &mut seeded_rng(42 + 12),
    );
    let samples = run.series.values();
    assert!(run.tipping_index.is_some(), "the ramp must cross the fold");
    for (window, rolling_mean) in [(1_000usize, 200.0), (2_000, 100.0)] {
        let alpha = 2.0 / (rolling_mean + 1.0);
        let residuals = naive_residuals(samples, alpha);
        let mut detector = EarlyWarning::new(EarlyWarningConfig {
            window,
            detrend_alpha: alpha,
            ..EarlyWarningConfig::default()
        });
        for (i, &x) in samples.iter().enumerate() {
            let snap = detector.observe(x);
            if !(i + 1).is_multiple_of(50) {
                continue;
            }
            let (var, ac) = naive_window_indicators(&residuals[(i + 1).saturating_sub(window)..=i]);
            assert!(
                (snap.variance - var).abs() <= 1e-9,
                "window {window} sample {i}: variance {} vs naive {var}",
                snap.variance
            );
            assert!(
                (snap.autocorr - ac).abs() <= 1e-9,
                "window {window} sample {i}: autocorr {} vs naive {ac}",
                snap.autocorr
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The anticipatory serve path runs entirely on the logical tick
    /// clock: the complete report is byte-identical at thread budgets
    /// 1, 2, and 4 — quiet or under a seeded chaos plan.
    #[test]
    fn anticipatory_serving_is_thread_invariant(
        trace_seed in any::<u64>(),
        chaos_seed in any::<u64>(),
        with_chaos in any::<bool>(),
    ) {
        let plan = if with_chaos {
            FaultConfig::parse(&format!(
                "seed={chaos_seed},panic=0.1,delay=0.05,poison=0.1,permanent=0.05"
            ))
            .expect("static chaos spec parses")
            .plan
        } else {
            FaultPlan::none()
        };
        let baseline = serve_anticipatory(trace_seed, &plan, 1);
        let json1 = serde_json::to_string(&baseline).expect("reports serialize");
        for threads in [2usize, 4] {
            let report = serve_anticipatory(trace_seed, &plan, threads);
            let json = serde_json::to_string(&report).expect("reports serialize");
            prop_assert!(
                json1 == json,
                "report depends on the thread budget at threads={}",
                threads
            );
        }
        // The warning-score stream is per-tick and must cover the run.
        prop_assert_eq!(baseline.warning_scores.len() as u64, baseline.ticks);
    }

    /// The incremental window indicators match a from-scratch
    /// recomputation at every step, for arbitrary streams and window
    /// sizes — the O(1) sliding Welford + cross-sum updates never
    /// drift from the quantity they claim to maintain.
    #[test]
    fn incremental_indicators_agree_with_naive_reference(
        samples in proptest::collection::vec(0.0f64..1.0, 8..120),
        window in 4usize..40,
    ) {
        let config = EarlyWarningConfig {
            window,
            ..EarlyWarningConfig::default()
        };
        let alpha = config.detrend_alpha;
        let mut detector = EarlyWarning::new(config);
        for (i, &x) in samples.iter().enumerate() {
            let snap = detector.observe(x);
            let (var, ac) = naive_indicators(&samples[..=i], alpha, window);
            prop_assert!(
                (snap.variance - var).abs() <= 1e-9 * var.max(1.0),
                "sample {}: incremental variance {} vs naive {}",
                i, snap.variance, var
            );
            prop_assert!(
                (snap.autocorr - ac).abs() <= 1e-7,
                "sample {}: incremental autocorr {} vs naive {}",
                i, snap.autocorr, ac
            );
        }
    }

    /// On the canonical workload with no fault plan, the default
    /// controller never escalates to Emergency for any trace seed —
    /// surge-driven queue pressure alone stays below the emergency
    /// threshold, so the brownout floor and deadline squeeze of the
    /// emergency posture are never paid in a healthy system.
    #[test]
    fn no_fault_canonical_trace_never_enters_emergency(trace_seed in any::<u64>()) {
        let report = serve_anticipatory(trace_seed, &FaultPlan::none(), 1);
        prop_assert!(
            report.emergency_ticks == 0,
            "quiet run spent ticks in Emergency (transitions: {:?})",
            report.mode_transitions
        );
        prop_assert!(
            report
                .mode_transitions
                .iter()
                .all(|t| t.to != OperatingMode::Emergency),
            "quiet run transitioned into Emergency: {:?}",
            report.mode_transitions
        );
        // And the quiet run must still serve everything it admits.
        prop_assert_eq!(report.failed(), 0);
    }
}
