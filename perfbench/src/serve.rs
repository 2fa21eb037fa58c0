//! The three serving workloads: `serve_chaos`, `control_plane` and
//! `control_traced`.
//!
//! Every op serves the canned 600-request surge trace (trace seed 42)
//! under the canned chaos plan; the replicated N=2 arm uses the
//! moderate-load trace shape and correlated-chaos plan of
//! `serve --compare-redundancy`. The trace is open-loop on the logical
//! clock, so request latency is in ticks; the op loop around it is a
//! closed loop of back-to-back calls from one process.

use crate::spans::Spans;
use crate::stats::{median, permutation, quantile};
use crate::{closed_loop, ratio, Run};
use rand::Rng;
use resilience_anticipate::{AnticipationConfig, AnticipationController};
use resilience_core::faults::{FaultConfig, FaultPlan};
use resilience_core::quality::FULL_QUALITY;
use resilience_core::{derive_seed, ParallelTrials};
use resilience_service::{
    Disposition, Fidelity, ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine,
    ServiceReport, TraceSpec,
};
use resilience_telemetry::{render_postmortem, Telemetry};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Requests per trace.
const REQUESTS: u64 = 600;
/// Seed of both request traces.
const TRACE_SEED: u64 = 42;
/// The canned chaos plan (`serve --compare`).
const CHAOS: &str = "seed=11,panic=0.1,delay=0.05,poison=0.1,permanent=0.05";
/// The correlated-chaos plan of the replicated N=2 arm
/// (`serve --compare-redundancy`).
const REDUNDANCY_CHAOS: &str = "seed=11,panic=0.05,gray=0.1,correlated=0.25";
/// Backend Monte Carlo trials per work unit in `serve_chaos` (the
/// engine default); the control-plane workloads switch the backend off.
const CHAOS_TRIALS_PER_UNIT: u64 = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// One serving configuration of the control-plane round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Plain,
    Anticipatory,
    ReplicatedN1,
    ReplicatedN2,
}

const ARMS: [Arm; 4] = [
    Arm::Plain,
    Arm::Anticipatory,
    Arm::ReplicatedN1,
    Arm::ReplicatedN2,
];

impl Arm {
    fn label(self) -> &'static str {
        match self {
            Arm::Plain => "plain",
            Arm::Anticipatory => "anticipatory",
            Arm::ReplicatedN1 => "replicated N=1",
            Arm::ReplicatedN2 => "replicated N=2",
        }
    }

    /// Span around the untraced `ServiceEngine::serve` of this arm.
    fn span(self) -> &'static str {
        match self {
            Arm::Plain => "service.serve.plain",
            Arm::Anticipatory => "anticipate.serve",
            Arm::ReplicatedN1 => "replica.serve.n1",
            Arm::ReplicatedN2 => "replica.serve.n2",
        }
    }

    /// Span around `ServiceEngine::serve_traced` of this arm.
    fn traced_span(self) -> &'static str {
        match self {
            Arm::Plain => "telemetry.serve_traced.plain",
            Arm::Anticipatory => "telemetry.serve_traced.anticipate",
            Arm::ReplicatedN1 => "telemetry.serve_traced.n1",
            Arm::ReplicatedN2 => "telemetry.serve_traced.n2",
        }
    }

    fn config(self, threads: usize, trials_per_work_unit: u64) -> ServiceConfig {
        let base = ServiceConfig {
            threads,
            trials_per_work_unit,
            ..ServiceConfig::default()
        };
        match self {
            Arm::Plain => base,
            Arm::Anticipatory => ServiceConfig {
                anticipation: Some(AnticipationConfig::default()),
                ..base
            },
            Arm::ReplicatedN1 => ServiceConfig {
                replication: Some(ReplicationConfig {
                    replicas: 1,
                    ..ReplicationConfig::default()
                }),
                ..base
            },
            // Equal aggregate capacity with `serve --compare-redundancy`:
            // two diverse replicas split the family's four servers.
            Arm::ReplicatedN2 => ServiceConfig {
                servers_per_family: 4,
                replication: Some(ReplicationConfig {
                    replicas: 2,
                    diversity_classes: vec![],
                    ..ReplicationConfig::default()
                }),
                ..base
            },
        }
    }
}

/// The generated inputs the program receives.
struct Inputs {
    canned: RequestTrace,
    redundancy: RequestTrace,
    chaos: FaultPlan,
    redundancy_chaos: FaultPlan,
}

impl Inputs {
    fn of(&self, arm: Arm) -> (&RequestTrace, &FaultPlan) {
        match arm {
            Arm::ReplicatedN2 => (&self.redundancy, &self.redundancy_chaos),
            _ => (&self.canned, &self.chaos),
        }
    }
}

fn parse_plan(spec: &str) -> FaultPlan {
    FaultConfig::parse(spec)
        .unwrap_or_else(|e| panic!("canned chaos plan `{spec}` must parse: {e}"))
        .plan
}

/// One arm ready to serve: the engine under test and the reference
/// report every op's report must reproduce.
struct Prepared {
    arm: Arm,
    config: ServiceConfig,
    engine: ServiceEngine,
    /// The reference report, serialized.
    reference: String,
    report: ServiceReport,
    /// Whether an op's serialized report was already compared with
    /// `reference`; later ops are compared field by field, which is
    /// equivalent and cheaper than serializing every report.
    bytes_checked: Cell<bool>,
}

/// What a workload's set-up produces, with its timings.
struct Setup {
    inputs: Inputs,
    engines: Vec<(Arm, ServiceEngine, ServiceConfig)>,
    trace_gen_ms: f64,
    plan_parse_us: f64,
    setup_s: f64,
}

/// Workload shape: which arms, at which thread budget and backend size,
/// and the thread budget of the reference report.
struct Shape {
    arms: Vec<Arm>,
    threads: usize,
    reference_threads: usize,
    trials_per_work_unit: u64,
}

fn shape(workload: &str, seed: u64, nproc: usize) -> Shape {
    match workload {
        // The user-facing serve at the `serve` binary's default thread
        // budget, checked against the report at `nproc` threads.
        "serve_chaos" => Shape {
            arms: vec![Arm::Plain],
            threads: 1,
            reference_threads: nproc,
            trials_per_work_unit: CHAOS_TRIALS_PER_UNIT,
        },
        // Backend off, one thread; the seed orders the round's arms.
        "control_plane" => Shape {
            arms: permutation(ARMS.len(), seed)
                .into_iter()
                .map(|i| ARMS[i])
                .collect(),
            threads: 1,
            reference_threads: nproc,
            trials_per_work_unit: 0,
        },
        // Same arms traced; the reference is each arm's untraced twin.
        "control_traced" => Shape {
            arms: permutation(ARMS.len(), seed)
                .into_iter()
                .map(|i| ARMS[i])
                .collect(),
            threads: 1,
            reference_threads: 1,
            trials_per_work_unit: 0,
        },
        other => unreachable!("not a serving workload: {other}"),
    }
}

/// One set-up: generate the traces, parse the plans, build the engines.
fn setup_once(shape: &Shape) -> Setup {
    let start = Instant::now();
    let t = Instant::now();
    let canned = RequestTrace::generate(&TraceSpec::new(REQUESTS, TRACE_SEED));
    let trace_gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let redundancy = RequestTrace::generate(&TraceSpec {
        base_rate: 0.8,
        surge_factor: 2.5,
        deadline: (30, 70),
        ..TraceSpec::new(REQUESTS, TRACE_SEED)
    });
    let t = Instant::now();
    let chaos = parse_plan(CHAOS);
    let plan_parse_us = t.elapsed().as_secs_f64() * 1e6;
    let redundancy_chaos = parse_plan(REDUNDANCY_CHAOS);
    let engines = shape
        .arms
        .iter()
        .map(|&arm| {
            let config = arm.config(shape.threads, shape.trials_per_work_unit);
            (arm, ServiceEngine::new(config.clone()), config)
        })
        .collect();
    Setup {
        inputs: Inputs {
            canned,
            redundancy,
            chaos,
            redundancy_chaos,
        },
        engines,
        trace_gen_ms,
        plan_parse_us,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

/// Set up `SETUPS` times and keep the last, with median timings.
fn setup(shape: &Shape) -> Setup {
    let runs: Vec<Setup> = (0..SETUPS).map(|_| setup_once(shape)).collect();
    let med = |f: fn(&Setup) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let (setup_s, trace_gen_ms, plan_parse_us) = (
        med(|s| s.setup_s),
        med(|s| s.trace_gen_ms),
        med(|s| s.plan_parse_us),
    );
    let last = runs.into_iter().next_back().expect("at least one set-up");
    Setup {
        setup_s,
        trace_gen_ms,
        plan_parse_us,
        ..last
    }
}

/// Pair each engine with the reference report its ops must reproduce,
/// served once at the reference thread budget.
fn prepare(shape: &Shape, setup: Setup) -> (Inputs, Vec<Prepared>) {
    let arms = setup
        .engines
        .into_iter()
        .map(|(arm, engine, config)| {
            let (trace, plan) = setup.inputs.of(arm);
            let report =
                ServiceEngine::new(arm.config(shape.reference_threads, shape.trials_per_work_unit))
                    .serve(trace, plan);
            let reference = serde_json::to_string(&report).expect("service reports serialize");
            Prepared {
                arm,
                config,
                engine,
                reference,
                report,
                bytes_checked: Cell::new(false),
            }
        })
        .collect();
    (setup.inputs, arms)
}

/// Output checks shared by every serve: conservation of requests, the
/// retry-budget identity of the replicated N=2 arm, and identity with
/// the reference report (byte for byte on the arm's first op).
fn check_report(p: &Prepared, trace: &RequestTrace, report: &ServiceReport) -> Result<(), String> {
    let (served, shed, failed, total) = (
        report.served(),
        report.shed(),
        report.failed(),
        report.total(),
    );
    if served + shed + failed != total || total != trace.len() as u64 {
        return Err(format!(
            "{}: served {served} + shed {shed} + failed {failed} != total {total} (trace {})",
            p.arm.label(),
            trace.len()
        ));
    }
    if p.arm == Arm::ReplicatedN2 {
        for (fam, s) in report.replica_stats.iter().enumerate() {
            if s.hedges_launched + s.failovers != s.budget_spent {
                return Err(format!(
                    "family {fam}: hedges {} + failovers {} != budget spent {}",
                    s.hedges_launched, s.failovers, s.budget_spent
                ));
            }
        }
    }
    let same = if p.bytes_checked.get() {
        *report == p.report
    } else {
        p.bytes_checked.set(true);
        serde_json::to_string(report).map_err(|e| format!("serialize: {e}"))? == p.reference
    };
    if !same {
        return Err(format!(
            "{}: report differs from the reference",
            p.arm.label()
        ));
    }
    Ok(())
}

/// One backend dispatch of a serve: seed, trial count, and the value the
/// serve folded (when the report shows it).
struct BackendCall {
    seed: u64,
    trials: u64,
    value: Option<u64>,
}

/// The serving engine's backend computation, through the runtime's
/// public `ParallelTrials::run`.
fn backend(pool: &ParallelTrials, seed: u64, trials: u64) -> u64 {
    pool.run(
        trials,
        seed,
        |idx, rng| idx.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ rng.gen::<u64>(),
        0u64,
        |acc, x| acc ^ x,
    )
}

/// Reconstruct a plain serve's backend dispatches from its report: one
/// 64-trial cache table per family, then one call per request served at
/// full or reduced fidelity, sized `effective work × trials per unit`.
fn backend_calls(
    trace: &RequestTrace,
    report: &ServiceReport,
    cfg: &ServiceConfig,
) -> Vec<BackendCall> {
    let master = derive_seed(trace.seed, 0xbac0);
    let mut calls: Vec<BackendCall> = (0..trace.families.len().max(1))
        .map(|fam| BackendCall {
            seed: derive_seed(master, 0xcafe + fam as u64),
            trials: 64,
            value: report.outcomes.iter().find_map(|o| match o.disposition {
                Disposition::Served {
                    fidelity: Fidelity::Cached,
                    value,
                    ..
                } if o.family == fam => Some(value),
                _ => None,
            }),
        })
        .collect();
    for o in &report.outcomes {
        let Disposition::Served {
            fidelity, value, ..
        } = o.disposition
        else {
            continue;
        };
        let cost = trace
            .requests
            .iter()
            .find(|r| r.id == o.id)
            .map_or(0, |r| r.cost);
        let work = match fidelity {
            Fidelity::Full => cost.max(1),
            Fidelity::Reduced => (cost / cfg.brownout.reduced_divisor.max(1)).max(1),
            Fidelity::Cached => continue,
        };
        calls.push(BackendCall {
            seed: derive_seed(master, o.id),
            trials: work * cfg.trials_per_work_unit,
            value: Some(value),
        });
    }
    calls
}

/// Replay `calls` alone on `pool`, one `runtime.run` span per call;
/// fails if any fold differs from the value the serve produced.
fn replay_backend(
    spans: &mut Spans,
    name: &'static str,
    pool: &ParallelTrials,
    calls: &[BackendCall],
) -> Result<(), String> {
    spans.time(name, |s| {
        for c in calls {
            let v = s.time("runtime.run", |_| backend(pool, c.seed, c.trials));
            if c.value.is_some_and(|want| want != v) {
                return Err(format!(
                    "{name}: backend replay of seed {:#x} folded a different value",
                    c.seed
                ));
            }
        }
        Ok(())
    })
}

/// Replay the anticipation controller alone over an arm's per-tick
/// deficit stream `1 − Q(t)/100`.
fn replay_detector(report: &ServiceReport) -> Result<u64, String> {
    let samples = report.quality.samples();
    if samples.len() != report.warning_scores.len() {
        return Err(format!(
            "anticipatory arm: {} quality samples but {} warning scores",
            samples.len(),
            report.warning_scores.len()
        ));
    }
    let mut controller = AnticipationController::new(AnticipationConfig::default());
    for (tick, q) in samples.iter().enumerate() {
        controller.observe(tick as u64, 1.0 - q / FULL_QUALITY);
    }
    Ok(controller.score_milli())
}

/// One untraced serve per arm, each in its arm's span.
fn serve_round(s: &mut Spans, arms: &[Prepared], inputs: &Inputs) -> Vec<ServiceReport> {
    arms.iter()
        .map(|p| {
            let (trace, plan) = inputs.of(p.arm);
            s.time(p.arm.span(), |_| p.engine.serve(trace, plan))
        })
        .collect()
}

/// What one traced serve and its exports produced.
struct TracedArm {
    report: ServiceReport,
    telemetry: Telemetry,
    export_bytes: usize,
    incidents: usize,
}

/// `serve_traced` with a fresh `Telemetry`, then the three exports users
/// request: Prometheus text, event-trace JSON and the postmortem bundle.
fn serve_traced(s: &mut Spans, p: &Prepared, inputs: &Inputs) -> TracedArm {
    let (trace, plan) = inputs.of(p.arm);
    let (report, telemetry) = s.time(p.arm.traced_span(), |_| {
        let mut tel = Telemetry::new(1.0);
        let report = p.engine.serve_traced(trace, plan, &mut tel);
        (report, tel)
    });
    let prom = s.time("telemetry.prometheus", |_| {
        telemetry.metrics.to_prometheus().len()
    });
    let json = s.time("telemetry.trace_json", |_| telemetry.tracer.to_json().len());
    let (incidents, postmortem) = s.time("telemetry.postmortem", |_| {
        let incidents = telemetry
            .incidents
            .finalize(&telemetry.causal, &report.warning_scores);
        let doc = render_postmortem("serve", &incidents, &telemetry.causal);
        (incidents.len(), doc.len())
    });
    TracedArm {
        report,
        telemetry,
        export_bytes: prom + json + postmortem,
        incidents,
    }
}

/// Every critical path's blame must decompose its slack deficit exactly.
fn check_blame(arm: &TracedArm) -> Result<(), String> {
    for path in arm.telemetry.causal.paths() {
        if path.blame.total() != path.slack_deficit {
            return Err(format!(
                "request {}: blame {} != slack deficit {}",
                path.request,
                path.blame.total(),
                path.slack_deficit
            ));
        }
    }
    Ok(())
}

/// Run a serving workload for `seconds`.
pub fn run(workload: &str, seed: u64, seconds: f64, nproc: usize, spans: &mut Spans) -> Run {
    let shape = shape(workload, seed, nproc);
    let setup = setup(&shape);
    let mut out = Run::default();
    out.set("setup_s", setup.setup_s);
    out.set("service.trace_gen_ms", setup.trace_gen_ms);
    out.set("service.plan_parse_us", setup.plan_parse_us);
    let (inputs, arms) = prepare(&shape, setup);
    let traced = spans.enabled();
    let requests_per_op: u64 = arms.iter().map(|p| p.report.total()).sum();

    let samples = match workload {
        "serve_chaos" => {
            let p = &arms[0];
            let (trace, plan) = inputs.of(p.arm);
            let calls = backend_calls(trace, &p.report, &p.config);
            let (pool, pool_t1) = (ParallelTrials::new(nproc), ParallelTrials::new(1));
            let samples = closed_loop(
                &mut out,
                spans,
                seconds,
                |s| s.time("service.serve", |_| p.engine.serve(trace, plan)),
                |s, report| {
                    check_report(p, trace, &report)?;
                    if s.enabled() {
                        replay_backend(s, "runtime.replay", &pool, &calls)?;
                        replay_backend(s, "runtime.replay_t1", &pool_t1, &calls)?;
                    }
                    Ok(())
                },
            );
            let trials: u64 = calls.iter().map(|c| c.trials).sum();
            let backend_ms = spans.median_us("runtime.replay") / 1e3;
            let backend_ms_t1 = spans.median_us("runtime.replay_t1") / 1e3;
            out.set("runtime.backend_ms", backend_ms);
            out.set("runtime.backend_ms_t1", backend_ms_t1);
            out.set("runtime.thread_scaling", ratio(backend_ms_t1, backend_ms));
            out.set("runtime.backend_calls", calls.len() as f64);
            out.set("runtime.trials", trials as f64);
            out.set(
                "runtime.us_per_call",
                ratio(backend_ms * 1e3, calls.len() as f64),
            );
            // The serve itself runs at one thread, so its share is the
            // one-thread replay's.
            out.set(
                "runtime.backend_share",
                ratio(backend_ms_t1, spans.median_us("service.serve") / 1e3),
            );
            if traced {
                out.note(format!(
                    "runtime: {} backend calls, {trials} trials per serve (computed from the report); \
                     replay at threads={nproc} and threads=1",
                    calls.len()
                ));
            }
            samples
        }
        "control_plane" => closed_loop(
            &mut out,
            spans,
            seconds,
            |s| serve_round(s, &arms, &inputs),
            |s, reports| {
                for (p, report) in arms.iter().zip(&reports) {
                    check_report(p, inputs.of(p.arm).0, report)?;
                    if p.arm == Arm::Anticipatory && s.enabled() {
                        black_box(s.time("anticipate.detector", |_| replay_detector(report))?);
                    }
                }
                Ok(())
            },
        ),
        "control_traced" => {
            let mut counts = None;
            let samples = closed_loop(
                &mut out,
                spans,
                seconds,
                |s| {
                    arms.iter()
                        .map(|p| serve_traced(s, p, &inputs))
                        .collect::<Vec<_>>()
                },
                |s, traced_arms| {
                    for (p, arm) in arms.iter().zip(&traced_arms) {
                        check_report(p, inputs.of(p.arm).0, &arm.report)?;
                        check_blame(arm)?;
                    }
                    counts.get_or_insert_with(|| telemetry_counts(&arms, &traced_arms));
                    if s.enabled() {
                        // The untraced round the overhead ratio divides by.
                        let reports = s.time("baseline.round", |s| serve_round(s, &arms, &inputs));
                        for (p, report) in arms.iter().zip(&reports) {
                            check_report(p, inputs.of(p.arm).0, report)?;
                        }
                    }
                    Ok(())
                },
            );
            for (name, value) in counts.unwrap_or_default() {
                out.set(name, value);
            }
            samples
        }
        other => unreachable!("not a serving workload: {other}"),
    };

    layer_metrics(&mut out, &arms, spans);
    quality_metrics(&mut out, &arms);
    // The gate uses the fastest op and the p90: on a shared host the op
    // time is bimodal (neighbours on the core or not) and the median
    // falls between the modes; see perfbench/README.md.
    out.set("op_ms_min", quantile(&samples, 0.0));
    out.set("op_ms_p90", quantile(&samples, 0.9));
    let busy_s: f64 = samples.iter().sum::<f64>() / 1e3;
    out.note(format!(
        "op_ms_p50          = {} ms (median of {} ops)",
        median(&samples),
        samples.len()
    ));
    out.note(format!(
        "req_per_s          = {} 1/s (requests per second of op time)",
        ratio((requests_per_op * samples.len() as u64) as f64, busy_s)
    ));
    out.note(format!(
        "{workload}: {} measured ops of {requests_per_op} requests; ops at threads={}, \
         reference at threads={}; arm order: {}",
        samples.len(),
        shape.threads,
        shape.reference_threads,
        arms.iter()
            .map(|p| p.arm.label())
            .collect::<Vec<_>>()
            .join(", "),
    ));
    if workload == "serve_chaos" {
        out.note(format!(
            "seed {seed}: serve_chaos has one canned input; the seed changes nothing"
        ));
    }
    if traced && workload == "control_traced" {
        baseline_table(spans);
    }
    out
}

/// Deterministic telemetry counts of one traced round (summed over arms)
/// plus the plain arm's queue-wait quantiles.
fn telemetry_counts(prepared: &[Prepared], arms: &[TracedArm]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&TracedArm) -> usize| arms.iter().map(f).sum::<usize>() as f64;
    let mut counts = vec![
        ("telemetry.events", sum(&|a| a.telemetry.tracer.len())),
        (
            "telemetry.spans",
            sum(&|a| a.telemetry.causal.spans().len()),
        ),
        (
            "telemetry.critical_paths",
            sum(&|a| a.telemetry.causal.paths().len()),
        ),
        ("telemetry.incidents", sum(&|a| a.incidents)),
        ("telemetry.export_bytes", sum(&|a| a.export_bytes)),
    ];
    if let Some(plain) = prepared.iter().zip(arms).find(|(p, _)| p.arm == Arm::Plain) {
        let q = |quantile| {
            plain
                .1
                .telemetry
                .metrics
                .histogram_quantile("service_queue_wait_ticks", quantile)
                .unwrap_or(0.0)
        };
        counts.push(("service.queue_wait_p50_ticks", q(0.5)));
        counts.push(("service.queue_wait_p99_ticks", q(0.99)));
    }
    counts
}

/// Per-layer timings from the spans, and per-serve counts from the
/// reference reports.
fn layer_metrics(out: &mut Run, arms: &[Prepared], spans: &Spans) {
    let report_of = |arm| arms.iter().find(|p| p.arm == arm).map(|p| &p.report);
    if let Some(r) = report_of(Arm::Plain) {
        out.set("service.ticks", r.ticks as f64);
        out.set(
            "service.breaker_transitions",
            r.breaker_transitions.iter().map(Vec::len).sum::<usize>() as f64,
        );
        out.set("service.brownout_changes", r.brownout_history.len() as f64);
        out.set("service.shed", r.shed() as f64);
        let cached: u64 = r.per_family.iter().map(|f| f.served_cached).sum();
        out.set(
            "service.cached_ratio",
            ratio(cached as f64, r.served() as f64),
        );
    }
    if let Some(r) = report_of(Arm::Anticipatory) {
        out.set("anticipate.alert_ticks", r.alert_ticks as f64);
        out.set("anticipate.emergency_ticks", r.emergency_ticks as f64);
        out.set("anticipate.transitions", r.mode_transitions.len() as f64);
    }
    if let Some(r) = report_of(Arm::ReplicatedN2) {
        let sum = |f: fn(&resilience_service::ReplicaFamilyStats) -> u64| {
            r.replica_stats.iter().map(f).sum::<u64>() as f64
        };
        out.set("replica.failovers", sum(|s| s.failovers));
        out.set("replica.hedges", sum(|s| s.hedges_launched));
        out.set("replica.budget_spent", sum(|s| s.budget_spent));
        out.set("replica.budget_exhausted", sum(|s| s.budget_exhausted));
    }
    // Span medians read 0 for calls this workload does not make.
    let us = |name| spans.median_us(name);
    let (plain, ant, n1) = (
        us(Arm::Plain.span()),
        us(Arm::Anticipatory.span()),
        us(Arm::ReplicatedN1.span()),
    );
    out.set("service.plain_us", plain);
    out.set("anticipate.serve_us", ant);
    out.set("anticipate.overhead_us", ant - plain);
    out.set("anticipate.detector_us", us("anticipate.detector"));
    out.set("replica.n1_us", n1);
    out.set("replica.n2_us", us(Arm::ReplicatedN2.span()));
    out.set("replica.loop_overhead_x", ratio(n1, plain));
    out.set("telemetry.plain_us", us(Arm::Plain.traced_span()));
    out.set(
        "telemetry.anticipate_us",
        us(Arm::Anticipatory.traced_span()),
    );
    out.set("telemetry.n1_us", us(Arm::ReplicatedN1.traced_span()));
    out.set("telemetry.n2_us", us(Arm::ReplicatedN2.traced_span()));
    out.set(
        "telemetry.overhead_x",
        ratio(us("op"), us("baseline.round")),
    );
    let (prom, json, pm) = (
        us("telemetry.prometheus"),
        us("telemetry.trace_json"),
        us("telemetry.postmortem"),
    );
    out.set("telemetry.prom_us", prom);
    out.set("telemetry.trace_json_us", json);
    out.set("telemetry.postmortem_us", pm);
    let bytes = out
        .metrics
        .get("telemetry.export_bytes")
        .copied()
        .unwrap_or(0.0);
    // Bytes per µs is MB per second.
    out.set("telemetry.export_mb_per_s", ratio(bytes, prom + json + pm));
}

/// The deterministic quality indicators of one op, from the reference
/// reports every op must reproduce.
fn quality_metrics(out: &mut Run, arms: &[Prepared]) {
    let reports: Vec<&ServiceReport> = arms.iter().map(|p| &p.report).collect();
    let r_mean = reports.iter().map(|r| r.resilience_loss()).sum::<f64>() / reports.len() as f64;
    let served: u64 = reports.iter().map(|r| r.served()).sum();
    let total: u64 = reports.iter().map(|r| r.total()).sum();
    let latencies: Vec<f64> = reports
        .iter()
        .flat_map(|r| &r.outcomes)
        .filter_map(|o| match o.disposition {
            Disposition::Served { latency, .. } => Some(latency as f64),
            _ => None,
        })
        .collect();
    let p98 = quantile(&latencies, 0.98);
    out.set("service.resilience_loss", r_mean);
    out.set("service.goodput", ratio(served as f64, total as f64));
    out.set("service.latency_ticks_p98", p98);
    out.note(format!(
        "resilience_loss    = {r_mean} (mean Bruneau R per serve, deterministic)"
    ));
    out.note(format!(
        "goodput            = {} (served/total, deterministic)",
        ratio(served as f64, total as f64)
    ));
    out.note(format!(
        "latency_ticks_p98  = {p98} ticks (p98 of {} served latencies, deterministic)",
        latencies.len()
    ));
}

/// The control-plane cost table: µs per 600-request serve for each arm,
/// untraced and traced, with ratios over the untraced plain arm and over
/// each arm's untraced twin.
fn baseline_table(spans: &Spans) {
    let plain = spans.median_us(Arm::Plain.span());
    println!("per-layer baseline (median µs per 600-request serve, threads=1, backend off):");
    println!("  | arm | µs/serve | × plain | × untraced |");
    println!("  |---|---|---|---|");
    for arm in ARMS {
        let us = spans.median_us(arm.span());
        println!(
            "  | {} | {us:.0} | {:.2}x | 1x |",
            arm.label(),
            ratio(us, plain)
        );
    }
    for arm in ARMS {
        let us = spans.median_us(arm.traced_span());
        println!(
            "  | {}, traced | {us:.0} | {:.2}x | {:.2}x |",
            arm.label(),
            ratio(us, plain),
            ratio(us, spans.median_us(arm.span()))
        );
    }
}
