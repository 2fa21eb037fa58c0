//! Determinism and graceful-degradation properties of the serving layer.
//!
//! The acceptance bar from DESIGN.md: the per-request outcome log must
//! replay bit-identically for any thread budget, and under a chaos fault
//! plan with brownout enabled the service must never hard-fail a request
//! — every request is served (possibly degraded) or explicitly shed —
//! while scoring a strictly lower Bruneau resilience loss than the same
//! run with degradation disabled.

use resilience_core::faults::{FaultConfig, FaultPlan};
use resilience_service::{
    Disposition, ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine, ServiceReport,
    TraceSpec,
};
use resilience_telemetry::Telemetry;

fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 11,
        panic_rate: 0.10,
        delay_rate: 0.05,
        poison_rate: 0.10,
        permanent_rate: 0.05,
        ..FaultPlan::none()
    }
}

fn run(threads: usize, degradation: bool, trace: &RequestTrace, plan: &FaultPlan) -> ServiceReport {
    let engine = ServiceEngine::new(ServiceConfig {
        threads,
        degradation,
        ..ServiceConfig::default()
    });
    engine.serve(trace, plan)
}

#[test]
fn outcome_log_replays_bit_identically_for_any_thread_budget() {
    let trace = RequestTrace::generate(&TraceSpec::new(400, 42));
    let plan = chaos_plan();
    for degradation in [true, false] {
        let baseline = run(1, degradation, &trace, &plan);
        for threads in [2usize, 4] {
            let other = run(threads, degradation, &trace, &plan);
            assert_eq!(
                baseline, other,
                "degradation={degradation} threads={threads}: full report must replay"
            );
        }
    }
}

#[test]
fn same_seed_same_run_different_seed_different_run() {
    let plan = chaos_plan();
    let a = run(
        2,
        true,
        &RequestTrace::generate(&TraceSpec::new(300, 7)),
        &plan,
    );
    let b = run(
        2,
        true,
        &RequestTrace::generate(&TraceSpec::new(300, 7)),
        &plan,
    );
    assert_eq!(a, b);
    let c = run(
        2,
        true,
        &RequestTrace::generate(&TraceSpec::new(300, 8)),
        &plan,
    );
    assert_ne!(a, c, "the trace seed must key the run");
}

#[test]
fn chaos_with_brownout_never_hard_fails_a_request() {
    let trace = RequestTrace::generate(&TraceSpec::new(600, 42));
    let report = run(2, true, &trace, &chaos_plan());
    assert_eq!(report.total(), 600, "every request adjudicated");
    assert_eq!(
        report.failed(),
        0,
        "with graceful degradation on, backend faults become cached fallbacks"
    );
    assert_eq!(report.served() + report.shed(), 600);
    for outcome in &report.outcomes {
        assert!(
            !matches!(outcome.disposition, Disposition::Failed { .. }),
            "hard failure leaked: {outcome}"
        );
    }
    // The chaos plan plus the surge actually disturb the run.
    assert!(report.degraded() > 0, "chaos must force some degradation");
    assert!(report.resilience_loss().is_finite());
}

#[test]
fn degradation_strictly_lowers_bruneau_resilience_loss() {
    let trace = RequestTrace::generate(&TraceSpec::new(600, 42));
    let plan = chaos_plan();
    let on = run(2, true, &trace, &plan);
    let off = run(2, false, &trace, &plan);
    let (r_on, r_off) = (on.resilience_loss(), off.resilience_loss());
    assert!(
        r_on < r_off,
        "brownout must shrink the resilience triangle: R_on={r_on} R_off={r_off}"
    );
    assert!(
        on.goodput() > off.goodput(),
        "degraded service must beat refusals on goodput: on={} off={}",
        on.goodput(),
        off.goodput()
    );
    assert!(off.shed_rate() < 1.0, "even the ablation serves something");
}

#[test]
fn quiet_plan_calm_trace_serves_everything_at_full_fidelity() {
    // Light load, no faults: admission never needs to say no.
    let spec = TraceSpec {
        base_rate: 0.2,
        surge_factor: 1.0,
        cost: (4, 8),
        ..TraceSpec::new(150, 5)
    };
    let trace = RequestTrace::generate(&spec);
    let report = run(1, true, &trace, &FaultPlan::none());
    assert_eq!(report.served(), 150);
    assert_eq!(report.degraded(), 0);
    assert_eq!(report.shed(), 0);
    assert_eq!(
        report.resilience_loss(),
        0.0,
        "undisturbed runs score R = 0"
    );
}

#[test]
fn deadlines_are_honoured_for_served_requests() {
    let trace = RequestTrace::generate(&TraceSpec::new(500, 42));
    let report = run(1, true, &trace, &chaos_plan());
    for outcome in &report.outcomes {
        if let Disposition::Served { latency, .. } = outcome.disposition {
            let request = &trace.requests[usize::try_from(outcome.id).expect("id fits")];
            assert!(
                latency <= request.deadline,
                "request {} served past its deadline: latency={latency} deadline={}",
                outcome.id,
                request.deadline
            );
        }
    }
}

#[test]
fn extreme_fault_magnitudes_saturate_instead_of_overflowing() {
    // `--fault-plan` is untrusted input: a u64::MAX delay or gray factor
    // must saturate the scheduled work (and so shed or degrade the
    // request at admission), never wrap it into a cheap one or panic.
    let trace = RequestTrace::generate(&TraceSpec::new(600, 42));
    for spec in [
        "seed=11,delay=0.5,delay_ms=18446744073709551615",
        "seed=11,gray=0.5,gray_factor=18446744073709551615",
    ] {
        let plan = FaultConfig::parse(spec).expect("extreme plan parses").plan;
        for degradation in [true, false] {
            for replication in [None, Some(2)] {
                let engine = |threads: usize| {
                    ServiceEngine::new(ServiceConfig {
                        threads,
                        degradation,
                        replication: replication.map(|replicas| ReplicationConfig {
                            replicas,
                            ..ReplicationConfig::default()
                        }),
                        ..ServiceConfig::default()
                    })
                };
                let report = engine(1).serve(&trace, &plan);
                let case = format!("{spec} degradation={degradation} replicas={replication:?}");
                assert_eq!(report.total(), 600, "{case}: every request adjudicated");
                if degradation {
                    assert_eq!(report.failed(), 0, "{case}: no hard failure");
                }
                assert!(report.resilience_loss().is_finite(), "{case}");
                assert_eq!(
                    report,
                    engine(4).serve(&trace, &plan),
                    "{case}: report replays at 4 threads"
                );
                // The traced path scores the same saturated work.
                let traced = engine(1).serve_traced(&trace, &plan, &mut Telemetry::new(1.0));
                assert_eq!(report, traced, "{case}: tracing observes only");
            }
        }
    }
}
