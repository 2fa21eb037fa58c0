//! Workspace-level properties of the causal-observability layer: span
//! trees are well-formed (one root per request, parent ticks bracketing
//! children), every critical path's blame decomposition sums *exactly*
//! to its slack deficit, an Emergency escalation always leaves an
//! incident report anchored at the transition tick, and the rendered
//! postmortem bundle plus the traced Prometheus exposition are
//! byte-identical for any `--threads` budget, with and without chaos,
//! across the plain, anticipatory, and replicated serving paths.

use std::collections::BTreeMap;

use proptest::prelude::*;
use systems_resilience::anticipate::AnticipationConfig;
use systems_resilience::core::FaultPlan;
use systems_resilience::service::{
    ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine, TraceSpec,
};
use systems_resilience::telemetry::{render_postmortem, CausalTracer, Telemetry, TriggerKind};

fn service_chaos() -> FaultPlan {
    FaultPlan {
        seed: 11,
        panic_rate: 0.10,
        delay_rate: 0.05,
        poison_rate: 0.10,
        permanent_rate: 0.05,
        ..FaultPlan::none()
    }
}

/// An anticipation tuning whose Emergency band sits low enough that the
/// chaos workload genuinely escalates (the default bands park it in
/// Alert), with its release band below the entry band.
fn escalating_anticipation() -> AnticipationConfig {
    let mut cfg = AnticipationConfig::default();
    cfg.switch.emergency_on = 0.40;
    cfg.switch.emergency_off = 0.30;
    cfg
}

/// The three instrumented serving shapes the properties range over.
fn configs(threads: usize) -> [ServiceConfig; 3] {
    [
        ServiceConfig {
            threads,
            ..ServiceConfig::default()
        },
        ServiceConfig {
            threads,
            anticipation: Some(escalating_anticipation()),
            ..ServiceConfig::default()
        },
        ServiceConfig {
            threads,
            servers_per_family: 4,
            replication: Some(ReplicationConfig {
                replicas: 2,
                ..ReplicationConfig::default()
            }),
            ..ServiceConfig::default()
        },
    ]
}

/// One traced serve: the report plus its full telemetry bundle.
fn traced(
    config: ServiceConfig,
    trace: &RequestTrace,
    plan: &FaultPlan,
) -> (systems_resilience::service::ServiceReport, Telemetry) {
    let mut tel = Telemetry::new(1.0);
    let report = ServiceEngine::new(config).serve_traced(trace, plan, &mut tel);
    (report, tel)
}

/// Every span tree is well-formed: exactly one root per traced request,
/// every child's parent exists, and parent ticks bracket the child's.
fn assert_well_formed(causal: &CausalTracer) {
    let by_id: BTreeMap<u64, _> = causal.spans().iter().map(|s| (s.span_id, s)).collect();
    assert_eq!(by_id.len(), causal.spans().len(), "span ids must be unique");
    let mut roots: BTreeMap<u64, usize> = BTreeMap::new();
    for span in causal.spans() {
        assert!(span.start <= span.end, "span ticks must be ordered");
        if span.parent_id == 0 {
            *roots.entry(span.request).or_insert(0) += 1;
        } else {
            let parent = by_id
                .get(&span.parent_id)
                .unwrap_or_else(|| panic!("span {} has a dangling parent", span.span_id));
            assert_eq!(parent.request, span.request, "parents stay in-request");
            assert!(
                parent.start <= span.start && span.end <= parent.end,
                "parent [{}, {}] must bracket child [{}, {}] (request {})",
                parent.start,
                parent.end,
                span.start,
                span.end,
                span.request
            );
        }
    }
    assert_eq!(
        roots.len() as u64,
        causal.requests(),
        "one span tree per traced request"
    );
    assert!(
        roots.values().all(|&n| n == 1),
        "exactly one root span per request"
    );
}

/// Every critical path decomposes its slack deficit exactly.
fn assert_blame_exact(causal: &CausalTracer) {
    for path in causal.paths() {
        assert_eq!(
            path.blame.total(),
            path.slack_deficit,
            "request {}: blame components must sum to the slack deficit",
            path.request
        );
    }
}

#[test]
fn span_trees_are_well_formed_and_blame_is_exact_across_paths() {
    let trace = RequestTrace::generate(&TraceSpec::new(600, 42));
    let mut paths_seen = 0usize;
    for plan in [FaultPlan::none(), service_chaos()] {
        for config in configs(1) {
            let (report, tel) = traced(config, &trace, &plan);
            assert_eq!(
                tel.causal.requests(),
                report.outcomes.len() as u64,
                "the tracer must see every decided request"
            );
            assert_well_formed(&tel.causal);
            assert_blame_exact(&tel.causal);
            paths_seen += tel.causal.paths().len();
        }
    }
    // Some arm must actually exercise the extractor, or the blame
    // property is vacuous.
    assert!(
        paths_seen > 0,
        "chaos workload must extract at least one critical path"
    );
}

#[test]
fn emergency_escalation_yields_an_incident_at_the_transition_tick() {
    let trace = RequestTrace::generate(&TraceSpec::new(600, 42));
    let (report, tel) = traced(configs(1)[1].clone(), &trace, &service_chaos());
    assert!(
        report.emergency_ticks > 0,
        "the escalating configuration must reach Emergency"
    );
    let escalation_tick = report
        .mode_transitions
        .iter()
        .find(|t| t.is_escalation())
        .map(|t| t.tick)
        .expect("emergency ticks imply an escalation transition");
    let incidents = tel.incidents.finalize(&tel.causal, &report.warning_scores);
    assert!(
        incidents
            .iter()
            .any(|i| i.kind == TriggerKind::ModeEscalation && i.trigger_tick == escalation_tick),
        "an incident report must anchor at the escalation tick {escalation_tick}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary trace seeds and fault rates, the postmortem bundle
    /// and traced Prometheus exposition are byte-identical between 1, 2,
    /// and 4 threads on every serving path, and the structural
    /// invariants hold throughout.
    #[test]
    fn postmortems_are_thread_invariant_for_any_seed(
        trace_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        panic_rate in 0.0f64..0.2,
        poison_rate in 0.0f64..0.2,
        permanent_rate in 0.0f64..0.1,
    ) {
        let trace = RequestTrace::generate(&TraceSpec::new(150, trace_seed));
        let plan = FaultPlan {
            seed: plan_seed,
            panic_rate,
            poison_rate,
            permanent_rate,
            ..FaultPlan::none()
        };
        for shape in 0..configs(1).len() {
            let (report1, tel1) = traced(configs(1)[shape].clone(), &trace, &plan);
            assert_well_formed(&tel1.causal);
            assert_blame_exact(&tel1.causal);
            let incidents1 = tel1.incidents.finalize(&tel1.causal, &report1.warning_scores);
            let bundle1 = render_postmortem("props", &incidents1, &tel1.causal);
            for threads in [2usize, 4] {
                let (report, tel) = traced(configs(threads)[shape].clone(), &trace, &plan);
                prop_assert_eq!(&report1, &report);
                let incidents = tel.incidents.finalize(&tel.causal, &report.warning_scores);
                let bundle = render_postmortem("props", &incidents, &tel.causal);
                prop_assert_eq!(&bundle1, &bundle);
                prop_assert_eq!(tel1.metrics.to_prometheus(), tel.metrics.to_prometheus());
            }
        }
    }
}
