//! Quick performance smoke for the DCSP verification engine.
//!
//! Times the headline kernels a handful of times each (median wall time,
//! no criterion machinery) and prints a JSON summary — the source of the
//! checked-in `BENCH_2.json`. Also cross-checks that the fast paths still
//! agree with the retained reference implementations, exiting non-zero on
//! any mismatch, so CI running this binary doubles as an end-to-end
//! equivalence smoke.
//!
//! `bench_smoke faults` instead measures the overhead of the
//! fault-injection supervision layer on a Monte Carlo kernel — bare
//! runtime vs supervised-with-a-quiet-plan vs a chaos plan — and
//! cross-checks that all three produce bit-identical folds (the source
//! of the checked-in `BENCH_3.json`).
//!
//! `bench_smoke telemetry` measures the cost of the telemetry layer on
//! the same chaos kernel: a supervised run plus full derivation of the
//! event trace, metrics, and Q(t) attribution, versus the bare
//! supervised run. It also cross-checks that the derived trace is
//! byte-identical across thread budgets and that the deficit
//! attribution reconciles with the report's own Bruneau loss (the
//! source of the checked-in `BENCH_5.json`).
//!
//! `bench_smoke cluster` measures the cascade simulator at scale:
//! million-node topology generation, a 100k-node fleet run under a
//! targeted attack with recovery (eight trials, timed at one and four
//! threads), and a million-node attack run. It cross-checks that the
//! attack-vs-random experiment table and the serialized 100k cascade
//! logs are byte-identical across thread budgets (the source of the
//! checked-in `BENCH_6.json`).
//!
//! `bench_smoke dcsp` measures the ceiling-breaking verification paths:
//! symmetry-orbit recoverability against the retained reference checker
//! (gated at > 2.8x), and the compressed-frontier maintainability
//! engines at 2^30 quiet / 2^26 adversarial states — beyond the dense
//! path's 2^24 cap, inside a 384 MiB word-packed arena. It cross-checks
//! that the fast paths reproduce the reference/dense reports and that
//! every summary is bit-identical at one and four threads (the source
//! of the checked-in `BENCH_7.json`).
//!
//! `bench_smoke anticipate` measures the cost of the anticipation layer
//! on the chaos-serving workload. Overhead is isolated with a pinned
//! configuration — detector, loss window, and mode controller run every
//! tick but thresholds sit above the score ceiling and every policy is
//! inert, so the run's decisions are byte-identical to the reactive
//! arm's and the wall-time ratio prices only the watching machinery
//! (interleaved rounds, median of per-round ratios, gated at ≤ 1.15x).
//! It also cross-checks that the real anticipatory configuration beats
//! the reactive R with zero hard failures and that its full report is
//! byte-identical across thread budgets (the source of the checked-in
//! `BENCH_8.json`).
//!
//! `bench_smoke redundancy` measures the cost of the replication layer
//! on the serving workload. Overhead is isolated on the quiet N=1 path
//! — replicated admission with one replica makes decisions byte-
//! identical to the unreplicated serve (a gate checks the outcome logs
//! match), so the wall-time ratio prices only the routing machinery
//! (interleaved rounds, median of per-round ratios, gated at ≤ 1.15x).
//! It also cross-checks that a diverse replica pair beats the single
//! backend's R under correlated chaos with zero hard failures, that the
//! retry budget's token accounting reconciles exactly with the
//! hedge+failover volume under a 100%-gray storm, and that the full
//! replicated report is byte-identical across thread budgets (the
//! source of the checked-in `BENCH_9.json`).
//!
//! `bench_smoke obs` measures the cost of the causal-observability
//! layer on the chaos-serving workload: an untraced anticipatory serve
//! versus the same serve with the full telemetry spine attached — span
//! trees, critical paths, flight recorder, metrics (interleaved rounds,
//! median of per-round ratios, gated at ≤ 1.15x). It also cross-checks
//! that tracing never steers (traced and untraced reports are
//! byte-identical), that every critical path's blame decomposition sums
//! exactly to its slack deficit, that an Emergency escalation always
//! yields an incident report whose trigger tick matches the mode
//! transition, and that the postmortem bundle and prometheus exposition
//! are byte-identical across thread budgets under chaos (the source of
//! the checked-in `BENCH_10.json`).
//!
//! ```bash
//! cargo run --release -p resilience-bench --bin bench_smoke > BENCH_2.json
//! cargo run --release -p resilience-bench --bin bench_smoke -- faults > BENCH_3.json
//! cargo run --release -p resilience-bench --bin bench_smoke -- telemetry > BENCH_5.json
//! cargo run --release -p resilience-bench --bin bench_smoke -- cluster > BENCH_6.json
//! cargo run --release -p resilience-bench --bin bench_smoke -- dcsp > BENCH_7.json
//! cargo run --release -p resilience-bench --bin bench_smoke -- anticipate > BENCH_8.json
//! cargo run --release -p resilience-bench --bin bench_smoke -- redundancy > BENCH_9.json
//! cargo run --release -p resilience-bench --bin bench_smoke -- obs > BENCH_10.json
//! ```

// Drivers surface failures as `die(...)` usage errors or documented
// panics, never bare `unwrap()`.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::time::Instant;

use rand::Rng;
use serde::Serialize;

use resilience_core::{AllOnes, AtLeastOnes, Config, FaultConfig, RunContext, Supervision};
use resilience_dcsp::maintainability::{
    analyze_bit_dcsp, analyze_bit_dcsp_adversarial, analyze_bit_dcsp_adversarial_frontiers,
    analyze_bit_dcsp_frontiers, TransitionSystem,
};
use resilience_dcsp::recoverability::{
    is_k_recoverable_exhaustive, is_k_recoverable_exhaustive_parallel, is_k_recoverable_symmetric,
    is_k_recoverable_symmetric_stats, recoverability_reference,
};
use resilience_dcsp::repair::GreedyRepair;

#[derive(Serialize)]
struct Recoverability {
    n16_d3_cases: usize,
    n16_d3_engine_cases_per_sec: f64,
    n16_d3_reference_cases_per_sec: f64,
    n16_d3_engine_speedup: f64,
    n24_d4_cases: usize,
    n24_d4_threads1_cases_per_sec: f64,
    n24_d4_threads4_cases_per_sec: f64,
    n24_d4_thread_scaling: Option<f64>,
}

#[derive(Serialize)]
struct Maintainability {
    explicit_2pow12_csr_states_per_sec: f64,
    explicit_2pow12_reference_states_per_sec: f64,
    explicit_2pow12_csr_speedup: f64,
    implicit_2pow20_bfs_states_per_sec: f64,
    implicit_2pow20_adversarial_threads1_states_per_sec: f64,
    implicit_2pow20_adversarial_threads4_states_per_sec: f64,
    implicit_2pow20_adversarial_thread_scaling: Option<f64>,
}

#[derive(Serialize)]
struct Meta {
    profile: &'static str,
    repetitions: usize,
    timing: &'static str,
    /// Host parallelism: thread-scaling ratios cannot exceed this, so a
    /// `*_thread_scaling` below 1.0 on a 1-core host measures pure
    /// spawn/contention overhead, not an engine defect.
    cores: usize,
    /// Why `*_thread_scaling` fields are null, when they are.
    thread_scaling_note: Option<&'static str>,
}

/// Detected host parallelism (1 when detection fails).
fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `t1/tn` thread-scaling ratio, or `None` on a single-core host where
/// the ratio would measure spawn/contention overhead rather than
/// scaling (the `meta.thread_scaling_note` explains the null).
fn thread_scaling(t1_secs: f64, tn_secs: f64) -> Option<f64> {
    (detected_cores() > 1).then(|| t1_secs / tn_secs)
}

/// The shared `meta` block: build profile, repetition count, timing
/// methodology, and host-honesty fields.
fn make_meta(reps: usize, timing: &'static str) -> Meta {
    let cores = detected_cores();
    Meta {
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        repetitions: reps,
        timing,
        cores,
        thread_scaling_note: (cores == 1).then_some(
            "single-core host: thread-scaling ratios suppressed (a 1-core \
             ratio prices thread spawn/contention, not parallel speedup)",
        ),
    }
}

#[derive(Serialize)]
struct Smoke {
    recoverability: Recoverability,
    maintainability: Maintainability,
    meta: Meta,
}

/// Print a failed gate's message on stderr and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1)
}

/// The upper median of `v`.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Wall-clock seconds of one call of `f`.
fn time_secs<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

/// Median wall-clock seconds over `reps` runs of `f`.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median((0..reps).map(|_| time_secs(&mut f)).collect())
}

/// `n` back-to-back calls of `f`, as one timed round.
fn repeat<T>(n: usize, f: impl Fn() -> T) -> impl FnMut() {
    move || {
        for _ in 0..n {
            std::hint::black_box(f());
        }
    }
}

/// Time `reps` interleaved rounds of `base` then `candidate` and return
/// `(median base secs, median candidate secs, median per-round ratio)`.
/// Gating on the median of per-round ratios keeps machine-load drift
/// between two separately timed batches from masquerading as overhead.
fn interleaved(
    reps: usize,
    mut base: impl FnMut(),
    mut candidate: impl FnMut(),
) -> (f64, f64, f64) {
    let (mut bases, mut candidates, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let b = time_secs(&mut base);
        let c = time_secs(&mut candidate);
        bases.push(b);
        candidates.push(c);
        ratios.push(c / b);
    }
    (median(bases), median(candidates), median(ratios))
}

#[derive(Serialize)]
struct FaultOverhead {
    trials: u64,
    threads: usize,
    chaos_plan: String,
    baseline_trials_per_sec: f64,
    supervised_quiet_trials_per_sec: f64,
    /// Supervised-quiet wall time over bare wall time (1.0 = free).
    supervised_quiet_overhead: f64,
    chaos_trials_per_sec: f64,
    /// Chaos-plan wall time over bare wall time (includes injected
    /// delays and retries, so this is the cost of the *disturbance*,
    /// not just the machinery).
    chaos_overhead: f64,
    faults_injected: u64,
    recovered: u64,
    lost: usize,
    health_r: f64,
}

#[derive(Serialize)]
struct FaultSmoke {
    fault_overhead: FaultOverhead,
    meta: Meta,
}

/// The Monte Carlo kernel the fault-overhead numbers are measured on:
/// fold 64 rng draws per trial, XOR-reduce across trials.
fn mc_kernel(ctx: &RunContext, trials: u64) -> u64 {
    ctx.run_trials(
        trials,
        17,
        |idx, rng| (0..64).fold(idx, |acc, _| acc ^ rng.gen::<u64>()),
        0u64,
        |acc, x| acc ^ x,
    )
}

/// `bench_smoke faults`: supervision-layer overhead + bit-identity check.
fn run_fault_smoke(reps: usize) {
    const TRIALS: u64 = 50_000;
    const THREADS: usize = 4;
    // Delay-free so the chaos numbers measure machinery + retries, not
    // sleeps; rates are high enough that every run injects thousands of
    // faults.
    let chaos_spec = "seed=7,panic=0.02,poison=0.02,times=2,retries=3,backoff_ms=0";
    let chaos = FaultConfig::parse(chaos_spec).expect("canned chaos spec parses");

    let bare_ctx = RunContext::with_threads(0, THREADS);
    let quiet_ctx =
        RunContext::with_threads(0, THREADS).supervised(Supervision::isolation("bench-quiet"));
    let chaos_ctx =
        RunContext::with_threads(0, THREADS).supervised(Supervision::new("bench-chaos", chaos));

    let bare = mc_kernel(&bare_ctx, TRIALS);
    let quiet = mc_kernel(&quiet_ctx, TRIALS);
    let chaotic = mc_kernel(&chaos_ctx, TRIALS);
    if bare != quiet || bare != chaotic {
        fail("supervised folds differ from the bare runtime");
    }
    let report = chaos_ctx.run_report().expect("chaos context reports");
    if report.faults_injected == 0 || report.recovered == 0 {
        fail("chaos plan injected or recovered nothing");
    }
    if !report.lost.is_empty() {
        fail("canned chaos plan is recoverable, nothing may be lost");
    }

    let bare_secs = median_secs(reps, || mc_kernel(&bare_ctx, TRIALS));
    let quiet_secs = median_secs(reps, || mc_kernel(&quiet_ctx, TRIALS));
    let chaos_secs = median_secs(reps, || mc_kernel(&chaos_ctx, TRIALS));

    let smoke = FaultSmoke {
        fault_overhead: FaultOverhead {
            trials: TRIALS,
            threads: THREADS,
            chaos_plan: chaos_spec.to_string(),
            baseline_trials_per_sec: TRIALS as f64 / bare_secs,
            supervised_quiet_trials_per_sec: TRIALS as f64 / quiet_secs,
            supervised_quiet_overhead: quiet_secs / bare_secs,
            chaos_trials_per_sec: TRIALS as f64 / chaos_secs,
            chaos_overhead: chaos_secs / bare_secs,
            faults_injected: report.faults_injected,
            recovered: report.recovered,
            lost: report.lost.len(),
            health_r: report.resilience_loss(),
        },
        meta: make_meta(reps, "median wall seconds per run"),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&smoke).expect("serializes")
    );
}

#[derive(Serialize)]
struct TelemetryOverhead {
    trials: u64,
    threads: usize,
    chaos_plan: String,
    baseline_trials_per_sec: f64,
    traced_trials_per_sec: f64,
    /// Supervised-run-plus-full-telemetry-derivation wall time over the
    /// bare supervised run (1.0 = free). The acceptance bar is 1.3.
    tracing_overhead: f64,
    /// Events in the derived trace (retries + plans + losses).
    events_derived: usize,
    /// Metric families registered from the run report.
    metric_families: usize,
    health_r: f64,
    attribution: resilience_telemetry::DeficitAttribution,
}

#[derive(Serialize)]
struct TelemetrySmoke {
    telemetry_overhead: TelemetryOverhead,
    meta: Meta,
}

/// `bench_smoke telemetry`: derivation overhead + trace determinism +
/// attribution reconciliation on the supervised chaos kernel.
fn run_telemetry_smoke(reps: usize) {
    use resilience_telemetry::{
        record_run_events, record_run_metrics, trajectory_of_run, MetricsRegistry, Tracer,
    };

    const TRIALS: u64 = 50_000;
    const THREADS: usize = 4;
    let chaos_spec = "seed=7,panic=0.02,poison=0.02,times=2,retries=3,backoff_ms=0";

    let supervised_run = |threads: usize| {
        let chaos = FaultConfig::parse(chaos_spec).expect("canned chaos spec parses");
        let ctx = RunContext::with_threads(0, threads)
            .supervised(Supervision::new("bench-telemetry", chaos));
        let fold = mc_kernel(&ctx, TRIALS);
        let report = ctx.run_report().expect("supervised context reports");
        (fold, report)
    };
    let derive = |report: &resilience_core::RunReport| {
        let mut tracer = Tracer::new();
        record_run_events(&mut tracer, report);
        let mut registry = MetricsRegistry::new();
        record_run_metrics(&mut registry, report);
        let observer = trajectory_of_run(report);
        (
            tracer.to_json(),
            registry.to_prometheus(),
            observer.attribution(),
            observer,
        )
    };

    // Correctness gates first: thread-invariant derivation, observer
    // trajectory bit-identical to the report's own health series, and
    // attribution reconciling with the report's Bruneau loss.
    let (fold1, report1) = supervised_run(1);
    let (fold4, report4) = supervised_run(THREADS);
    if fold1 != fold4 {
        fail("supervised folds differ across thread budgets");
    }
    let (trace1, prom1, attr1, obs1) = derive(&report1);
    let (trace4, prom4, attr4, _) = derive(&report4);
    if trace1 != trace4 || prom1 != prom4 {
        fail("derived telemetry depends on thread count");
    }
    if attr1 != attr4 {
        fail("deficit attribution depends on thread count");
    }
    if obs1.quality() != &report1.health {
        fail("observed trajectory is not bit-identical to the report's health");
    }
    let r = report1.resilience_loss();
    if attr1.total != r || (attr1.components_sum() - r).abs() > 1e-9 * r.max(1.0) {
        fail(&format!(
            "attribution does not reconcile: components={} total={} R={r}",
            attr1.components_sum(),
            attr1.total
        ));
    }

    // Interleave base and traced rounds and gate on the median of the
    // per-round ratios. One untimed warm-up round first, so allocator
    // and page-cache cold-start costs don't land on the first ratio.
    std::hint::black_box(supervised_run(THREADS));
    let (base_secs, traced_secs, overhead) = interleaved(
        reps,
        || {
            std::hint::black_box(supervised_run(THREADS));
        },
        || {
            let (fold, report) = supervised_run(THREADS);
            std::hint::black_box((fold, derive(&report)));
        },
    );
    if overhead > 1.3 {
        fail(&format!(
            "telemetry derivation overhead {overhead:.3}x exceeds the 1.3x budget"
        ));
    }

    let mut registry = MetricsRegistry::new();
    record_run_metrics(&mut registry, &report1);
    let mut tracer = Tracer::new();
    record_run_events(&mut tracer, &report1);
    let smoke = TelemetrySmoke {
        telemetry_overhead: TelemetryOverhead {
            trials: TRIALS,
            threads: THREADS,
            chaos_plan: chaos_spec.to_string(),
            baseline_trials_per_sec: TRIALS as f64 / base_secs,
            traced_trials_per_sec: TRIALS as f64 / traced_secs,
            tracing_overhead: overhead,
            events_derived: tracer.len(),
            metric_families: registry.len(),
            health_r: r,
            attribution: attr1,
        },
        meta: make_meta(
            reps,
            "median wall seconds per run; overhead is the median of interleaved per-round ratios",
        ),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&smoke).expect("serializes")
    );
}

#[derive(Serialize)]
struct ClusterScale {
    /// Fleet size of the thread-scaled workload.
    hundred_k_nodes: usize,
    hundred_k_ticks: u64,
    hundred_k_trials: u64,
    hundred_k_threads1_secs: f64,
    hundred_k_threads4_secs: f64,
    hundred_k_thread_scaling: Option<f64>,
    /// Node-ticks per second of the single-threaded workload.
    hundred_k_node_ticks_per_sec: f64,
    /// Cascade topples summed over the 100k trials (must be non-zero —
    /// the workload has to actually exercise the sandpile machinery).
    hundred_k_toppled: u64,
    million_nodes: usize,
    million_topology_build_secs: f64,
    million_topology_nodes_per_sec: f64,
    /// One million-node run: hub attack at tick 1, scored to tick 5.
    million_run_ticks: u64,
    million_run_secs: f64,
    million_run_node_ticks_per_sec: f64,
    /// Surviving giant-component fraction after the million-node attack.
    million_final_giant_fraction: f64,
}

#[derive(Serialize)]
struct ClusterSmoke {
    cluster_scale: ClusterScale,
    meta: Meta,
}

/// `bench_smoke cluster`: cascade-simulator scale numbers + cross-thread
/// bit-identity of experiment tables and serialized cascade logs.
fn run_cluster_smoke(reps: usize) {
    use resilience_bench::experiments::c01_cluster_attack;
    use resilience_cluster::{AttackSpec, ClusterConfig, ClusterEngine, CsrTopology, TopologyKind};
    use resilience_core::FaultPlan;
    use resilience_networks::AttackStrategy;

    // Gate 1: the attack-vs-random experiment table is bit-identical
    // across thread budgets.
    let table1 = c01_cluster_attack::run(&RunContext::with_threads(0, 1));
    let table4 = c01_cluster_attack::run(&RunContext::with_threads(0, 4));
    if table1 != table4 {
        fail("cluster_attack table depends on thread count");
    }

    // The thread-scaled workload: a 100k-node scale-free fleet, surge
    // load plus a recoverable hub attack, eight seeded trials folded
    // into serialized cascade logs.
    const HK_NODES: usize = 100_000;
    const HK_TICKS: u64 = 30;
    const HK_TRIALS: u64 = 8;
    let mut config = ClusterConfig::new(HK_NODES, TopologyKind::ScaleFree { m: 3 });
    config.ticks = HK_TICKS;
    config.headroom = 1.0;
    config.surge_drops = 200;
    config.surge_grain = 0.5;
    let engine = ClusterEngine::new(config, 0xC1);
    let attack = AttackSpec {
        tick: 5,
        strategy: AttackStrategy::TargetedByDegree,
        fraction: 0.05,
        recoverable: true,
    };
    let logs_at = |threads: usize| -> Vec<(String, u64)> {
        let ctx = RunContext::with_threads(0xC2, threads);
        ctx.run_trials(
            HK_TRIALS,
            ctx.derive(1),
            |_trial, rng| {
                let run_seed: u64 = rng.gen();
                let report = engine.run(run_seed, Some(&attack), &FaultPlan::none());
                let log = serde_json::to_string(&report).expect("cluster reports serialize");
                (log, report.total_toppled())
            },
            Vec::new(),
            |mut acc, log| {
                acc.push(log);
                acc
            },
        )
    };

    // Gate 2: the serialized cascade logs are byte-identical at one and
    // four threads, and the workload genuinely cascades.
    let logs1 = logs_at(1);
    let logs4 = logs_at(4);
    if logs1 != logs4 {
        fail("100k-node cascade logs depend on thread count");
    }
    let toppled: u64 = logs1.iter().map(|(_, toppled)| toppled).sum();
    if toppled == 0 {
        fail("the 100k-node workload never cascaded");
    }

    let t1_secs = median_secs(reps, || logs_at(1));
    let t4_secs = median_secs(reps, || logs_at(4));

    // Million-node scale: topology generation, then one attacked run.
    const M_NODES: usize = 1_000_000;
    const M_TICKS: u64 = 5;
    let m_kind = TopologyKind::ScaleFree { m: 3 };
    let m_topology_secs = median_secs(reps, || CsrTopology::generate(&m_kind, M_NODES, 0xC3));
    let mut m_config = ClusterConfig::new(M_NODES, m_kind);
    m_config.ticks = M_TICKS;
    m_config.headroom = 1.0;
    let m_engine = ClusterEngine::new(m_config, 0xC3);
    let m_attack = AttackSpec {
        tick: 1,
        strategy: AttackStrategy::TargetedByDegree,
        fraction: 0.1,
        recoverable: false,
    };
    let m_report = m_engine.run(7, Some(&m_attack), &FaultPlan::none());
    let m_secs = median_secs(reps, || {
        m_engine.run(7, Some(&m_attack), &FaultPlan::none())
    });

    let node_ticks = (HK_NODES as u64 * HK_TICKS * HK_TRIALS) as f64;
    let smoke = ClusterSmoke {
        cluster_scale: ClusterScale {
            hundred_k_nodes: HK_NODES,
            hundred_k_ticks: HK_TICKS,
            hundred_k_trials: HK_TRIALS,
            hundred_k_threads1_secs: t1_secs,
            hundred_k_threads4_secs: t4_secs,
            hundred_k_thread_scaling: thread_scaling(t1_secs, t4_secs),
            hundred_k_node_ticks_per_sec: node_ticks / t1_secs,
            hundred_k_toppled: toppled,
            million_nodes: M_NODES,
            million_topology_build_secs: m_topology_secs,
            million_topology_nodes_per_sec: M_NODES as f64 / m_topology_secs,
            million_run_ticks: M_TICKS,
            million_run_secs: m_secs,
            million_run_node_ticks_per_sec: (M_NODES as u64 * M_TICKS) as f64 / m_secs,
            million_final_giant_fraction: m_report.final_giant as f64 / m_report.n as f64,
        },
        meta: make_meta(reps, "median wall seconds per run"),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&smoke).expect("serializes")
    );
}

#[derive(Serialize)]
struct AnticipationOverhead {
    requests: u64,
    seed: u64,
    chaos_plan: String,
    /// Serves per timing round (one round = this many full replays).
    serves_per_round: usize,
    reactive_serves_per_sec: f64,
    pinned_detector_serves_per_sec: f64,
    /// Pinned-configuration wall time over reactive wall time, median
    /// of interleaved per-round ratios (1.0 = free): the cost of
    /// running the detector machinery with every decision unchanged.
    /// Acceptance bar: 1.15.
    anticipation_overhead: f64,
    resilience_loss_reactive: f64,
    resilience_loss_anticipatory: f64,
    /// `R_reactive / R_anticipatory` (> 1 means anticipation wins).
    resilience_improvement: f64,
    anticipatory_failed: u64,
    alert_ticks: u64,
    emergency_ticks: u64,
    mode_transitions: usize,
}

#[derive(Serialize)]
struct AnticipateSmoke {
    anticipation_overhead: AnticipationOverhead,
    meta: Meta,
}

/// `bench_smoke anticipate`: anticipation-layer overhead + R-improvement
/// and thread-invariance gates on the chaos-serving workload (source of
/// BENCH_8.json).
fn run_anticipate_smoke(reps: usize) {
    use resilience_anticipate::AnticipationConfig;
    use resilience_service::{RequestTrace, ServiceConfig, ServiceEngine, TraceSpec};

    const REQUESTS: u64 = 600;
    const SEED: u64 = 42;
    const SERVES_PER_ROUND: usize = 40;
    let chaos_spec = "seed=11,panic=0.1,delay=0.05,poison=0.1,permanent=0.05";

    let trace = RequestTrace::generate(&TraceSpec::new(REQUESTS, SEED));
    let plan = FaultConfig::parse(chaos_spec)
        .expect("canned chaos spec parses")
        .plan;
    let serve_reactive = |threads: usize| {
        ServiceEngine::new(ServiceConfig {
            threads,
            ..ServiceConfig::default()
        })
        .serve(&trace, &plan)
    };
    let serve_anticipatory = |threads: usize| {
        ServiceEngine::new(ServiceConfig {
            threads,
            anticipation: Some(AnticipationConfig::default()),
            ..ServiceConfig::default()
        })
        .serve(&trace, &plan)
    };
    // The pinned configuration: the detector, loss window, and mode
    // controller run every tick, but the thresholds sit above the score
    // ceiling (score ≤ 1) and every policy is inert, so the run makes
    // exactly the reactive arm's decisions. Timing it against the
    // reactive arm prices the watching machinery alone — the real
    // configuration serves a different (higher-fidelity) mix, so its
    // wall time measures delivered work, not overhead.
    let pinned_config = || {
        let mut cfg = AnticipationConfig::default();
        cfg.detector.warn_on = 2.0;
        cfg.switch.alert_on = 2.0;
        cfg.switch.emergency_on = 2.0;
        let inert = resilience_anticipate::ModePolicy {
            brownout_floor: 0,
            brownout_ceiling: 2,
            cooldown_scale_milli: 1000,
            deadline_scale_milli: 1000,
            provisioning: resilience_anticipate::ProvisioningPolicy::SampleMean,
        };
        cfg.normal = inert.clone();
        cfg.alert = inert.clone();
        cfg.emergency = inert;
        cfg
    };
    let serve_pinned = |threads: usize| {
        ServiceEngine::new(ServiceConfig {
            threads,
            anticipation: Some(pinned_config()),
            ..ServiceConfig::default()
        })
        .serve(&trace, &plan)
    };

    // Correctness gates first: the anticipatory report (the whole
    // self-measurement, not just aggregates) is byte-identical across
    // thread budgets, beats the reactive R, and never hard-fails.
    let ant1 = serve_anticipatory(1);
    let ant4 = serve_anticipatory(4);
    let json1 = serde_json::to_string(&ant1).expect("service reports serialize");
    let json4 = serde_json::to_string(&ant4).expect("service reports serialize");
    if json1 != json4 {
        fail("anticipatory service report depends on thread count");
    }
    let react = serve_reactive(1);
    if ant1.failed() != 0 {
        fail(&format!(
            "{} hard failures with anticipation on; pre-dimming must not drop requests",
            ant1.failed()
        ));
    }
    let r_react = react.resilience_loss();
    let r_ant = ant1.resilience_loss();
    if !r_react.is_finite() || !r_ant.is_finite() || r_ant >= r_react {
        fail(&format!(
            "anticipation did not shrink R: R_ant={r_ant} R_react={r_react}"
        ));
    }
    // The pinned run must be behaviourally indistinguishable from the
    // reactive one — otherwise the overhead ratio is not pricing the
    // machinery alone.
    let pinned = serve_pinned(1);
    if pinned.outcomes != react.outcomes {
        fail("pinned anticipation changed serving decisions");
    }

    // Interleave reactive and anticipatory rounds and gate on the median
    // of the per-round ratios (same discipline as the telemetry smoke).
    std::hint::black_box(serve_pinned(1));
    let (react_secs, ant_secs, overhead) = interleaved(
        reps,
        repeat(SERVES_PER_ROUND, || serve_reactive(1)),
        repeat(SERVES_PER_ROUND, || serve_pinned(1)),
    );
    if overhead > 1.15 {
        fail(&format!(
            "anticipation overhead {overhead:.3}x exceeds the 1.15x budget"
        ));
    }

    let smoke = AnticipateSmoke {
        anticipation_overhead: AnticipationOverhead {
            requests: REQUESTS,
            seed: SEED,
            chaos_plan: chaos_spec.to_string(),
            serves_per_round: SERVES_PER_ROUND,
            reactive_serves_per_sec: SERVES_PER_ROUND as f64 / react_secs,
            pinned_detector_serves_per_sec: SERVES_PER_ROUND as f64 / ant_secs,
            anticipation_overhead: overhead,
            resilience_loss_reactive: r_react,
            resilience_loss_anticipatory: r_ant,
            resilience_improvement: r_react / r_ant,
            anticipatory_failed: ant1.failed(),
            alert_ticks: ant1.alert_ticks,
            emergency_ticks: ant1.emergency_ticks,
            mode_transitions: ant1.mode_transitions.len(),
        },
        meta: make_meta(
            reps,
            "median wall seconds per round; overhead is the median of interleaved per-round ratios",
        ),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&smoke).expect("serializes")
    );
}

#[derive(Serialize)]
struct RedundancyOverhead {
    requests: u64,
    seed: u64,
    chaos_plan: String,
    /// Serves per timing round (one round = this many full replays).
    serves_per_round: usize,
    legacy_serves_per_sec: f64,
    replicated_n1_serves_per_sec: f64,
    /// Quiet N=1-replicated wall time over legacy wall time, median of
    /// interleaved per-round ratios (1.0 = free): the cost of routing
    /// every request through the replication machinery with every
    /// decision unchanged. Acceptance bar: 1.15.
    replication_overhead: f64,
    resilience_loss_single: f64,
    resilience_loss_homogeneous: f64,
    resilience_loss_diverse: f64,
    /// `R_single / R_diverse` (> 1 means redundancy wins).
    resilience_improvement: f64,
    /// `R_homogeneous / R_diverse` (> 1 means diversity carries it).
    diversity_improvement: f64,
    diverse_failed: u64,
    diverse_failovers: u64,
    /// Gray-storm side check: hedges launched / budget tokens spent /
    /// exhaustion events, with zero hard failures.
    storm_hedges_launched: u64,
    storm_budget_spent: u64,
    storm_budget_exhausted: u64,
}

#[derive(Serialize)]
struct RedundancySmoke {
    redundancy_overhead: RedundancyOverhead,
    meta: Meta,
}

/// `bench_smoke redundancy`: replication-layer overhead + R-improvement,
/// budget-accounting, and thread-invariance gates on the serving
/// workload (source of BENCH_9.json).
fn run_redundancy_smoke(reps: usize) {
    use resilience_service::{
        ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine, TraceSpec,
    };

    const REQUESTS: u64 = 600;
    const SEED: u64 = 42;
    const SERVES_PER_ROUND: usize = 40;
    let chaos_spec = "seed=11,panic=0.05,gray=0.1,correlated=0.25";

    // The moderate-load operating point where redundancy pays (same
    // shape as the redundancy_diversity experiment and
    // `serve --compare-redundancy`).
    let trace = RequestTrace::generate(&TraceSpec {
        base_rate: 0.8,
        surge_factor: 2.5,
        deadline: (30, 70),
        ..TraceSpec::new(REQUESTS, SEED)
    });
    let plan = FaultConfig::parse(chaos_spec)
        .expect("canned chaos spec parses")
        .plan;
    let quiet = resilience_core::FaultPlan::none();
    let replicated_config = |replicas: usize, classes: Vec<u32>, threads: usize| ServiceConfig {
        threads,
        servers_per_family: 4,
        replication: Some(ReplicationConfig {
            replicas,
            diversity_classes: classes,
            ..ReplicationConfig::default()
        }),
        ..ServiceConfig::default()
    };
    let serve_legacy_quiet = || {
        ServiceEngine::new(ServiceConfig {
            servers_per_family: 4,
            ..ServiceConfig::default()
        })
        .serve(&trace, &quiet)
    };
    let serve_replicated_quiet =
        || ServiceEngine::new(replicated_config(1, vec![], 1)).serve(&trace, &quiet);

    // Correctness gates first. Gate 1: the full diverse-pair report is
    // byte-identical across thread budgets under chaos.
    let diverse1 = ServiceEngine::new(replicated_config(2, vec![], 1)).serve(&trace, &plan);
    let diverse4 = ServiceEngine::new(replicated_config(2, vec![], 4)).serve(&trace, &plan);
    let json1 = serde_json::to_string(&diverse1).expect("service reports serialize");
    let json4 = serde_json::to_string(&diverse4).expect("service reports serialize");
    if json1 != json4 {
        fail("replicated service report depends on thread count");
    }

    // Gate 2: redundancy wins, diversity carries it, nothing hard-fails.
    let single = ServiceEngine::new(replicated_config(1, vec![], 1)).serve(&trace, &plan);
    let homogeneous = ServiceEngine::new(replicated_config(2, vec![0], 1)).serve(&trace, &plan);
    let (r_single, r_homo, r_div) = (
        single.resilience_loss(),
        homogeneous.resilience_loss(),
        diverse1.resilience_loss(),
    );
    if single.failed() + homogeneous.failed() + diverse1.failed() != 0 {
        fail("a replication arm hard-failed a request");
    }
    if !r_single.is_finite() || !r_div.is_finite() || r_div >= r_single || r_div >= r_homo {
        fail(&format!(
            "diverse replication did not shrink R: \
             R_single={r_single} R_homogeneous={r_homo} R_diverse={r_div}"
        ));
    }
    if diverse1.failovers() == 0 {
        fail("correlated chaos never exercised failover");
    }

    // Gate 3: under a 100%-gray storm the retry budget's token
    // accounting reconciles exactly and hedging actually fires, with
    // zero hard failures.
    let storm_plan = FaultConfig::parse("seed=23,gray=1.0")
        .expect("canned gray spec parses")
        .plan;
    let storm = ServiceEngine::new(replicated_config(2, vec![], 1)).serve(&trace, &storm_plan);
    if storm.failed() != 0 {
        fail("a gray storm hard-failed a request");
    }
    if storm.hedges_launched() == 0 {
        fail("a 100%-gray storm never triggered hedging");
    }
    let rcfg = ReplicationConfig::default();
    let mut storm_spent = 0u64;
    let mut storm_exhausted = 0u64;
    for (fam, s) in storm.replica_stats.iter().enumerate() {
        if s.hedges_launched + s.failovers != s.budget_spent {
            fail(&format!(
                "family {fam}: budget accounting does not reconcile: \
                 hedges={} failovers={} spent={}",
                s.hedges_launched, s.failovers, s.budget_spent
            ));
        }
        let ceiling = u64::from(rcfg.budget_capacity)
            + storm.ticks * u64::from(rcfg.budget_refill_milli) / 1000
            + 1;
        if s.budget_spent > ceiling {
            fail(&format!(
                "family {fam}: budget spend {} exceeds the token ceiling {ceiling}",
                s.budget_spent
            ));
        }
        storm_spent += s.budget_spent;
        storm_exhausted += s.budget_exhausted;
    }

    // Gate 4: the quiet N=1-replicated path is behaviourally identical
    // to the unreplicated serve — otherwise the overhead ratio is not
    // pricing the machinery alone.
    let legacy = serve_legacy_quiet();
    let replicated = serve_replicated_quiet();
    if legacy.outcomes != replicated.outcomes || legacy.quality != replicated.quality {
        fail("N=1 replication changed quiet-path serving decisions");
    }

    // Interleave legacy and replicated rounds and gate on the median of
    // the per-round ratios (same discipline as the anticipation smoke).
    std::hint::black_box(serve_replicated_quiet());
    let (legacy_secs, replicated_secs, overhead) = interleaved(
        reps,
        repeat(SERVES_PER_ROUND, serve_legacy_quiet),
        repeat(SERVES_PER_ROUND, serve_replicated_quiet),
    );
    if overhead > 1.15 {
        fail(&format!(
            "replication overhead {overhead:.3}x exceeds the 1.15x budget"
        ));
    }

    let smoke = RedundancySmoke {
        redundancy_overhead: RedundancyOverhead {
            requests: REQUESTS,
            seed: SEED,
            chaos_plan: chaos_spec.to_string(),
            serves_per_round: SERVES_PER_ROUND,
            legacy_serves_per_sec: SERVES_PER_ROUND as f64 / legacy_secs,
            replicated_n1_serves_per_sec: SERVES_PER_ROUND as f64 / replicated_secs,
            replication_overhead: overhead,
            resilience_loss_single: r_single,
            resilience_loss_homogeneous: r_homo,
            resilience_loss_diverse: r_div,
            resilience_improvement: r_single / r_div,
            diversity_improvement: r_homo / r_div,
            diverse_failed: diverse1.failed(),
            diverse_failovers: diverse1.failovers(),
            storm_hedges_launched: storm.hedges_launched(),
            storm_budget_spent: storm_spent,
            storm_budget_exhausted: storm_exhausted,
        },
        meta: make_meta(
            reps,
            "median wall seconds per round; overhead is the median of interleaved per-round ratios",
        ),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&smoke).expect("serializes")
    );
}

#[derive(Serialize)]
struct ObservabilityOverhead {
    requests: u64,
    seed: u64,
    chaos_plan: String,
    /// Serves per timing round (one round = this many full replays).
    serves_per_round: usize,
    untraced_serves_per_sec: f64,
    traced_serves_per_sec: f64,
    /// Traced wall time over untraced wall time, median of interleaved
    /// per-round ratios (1.0 = free): the cost of building span trees,
    /// critical paths, flight-recorder snapshots, and metrics alongside
    /// the serve. Acceptance bar: 1.15.
    tracing_overhead: f64,
    /// Requests expanded into span trees by the causal tracer.
    requests_traced: u64,
    spans_recorded: usize,
    /// Critical paths extracted (requests that missed or were shed).
    critical_paths: usize,
    /// Total slack deficit across the extracted paths, in ticks; the
    /// blame gate checks each path's decomposition sums exactly to its
    /// share of this.
    slack_deficit_ticks: u64,
    /// Incident reports promoted from flight-recorder snapshots.
    incident_reports: usize,
    /// Emergency ticks of the escalating arm (must be non-zero — the
    /// incident gate needs a real escalation to bite on).
    emergency_ticks: u64,
    /// Bytes of the rendered postmortem bundle.
    postmortem_bytes: usize,
}

#[derive(Serialize)]
struct ObsSmoke {
    observability_overhead: ObservabilityOverhead,
    meta: Meta,
}

/// `bench_smoke obs`: causal-observability overhead + blame-exactness,
/// incident-trigger, observe-only, and thread-invariance gates on the
/// chaos-serving workload (source of BENCH_10.json).
fn run_obs_smoke(reps: usize) {
    use resilience_anticipate::AnticipationConfig;
    use resilience_service::{RequestTrace, ServiceConfig, ServiceEngine, TraceSpec};
    use resilience_telemetry::{render_postmortem, Telemetry, TriggerKind};

    const REQUESTS: u64 = 600;
    const SEED: u64 = 42;
    const SERVES_PER_ROUND: usize = 40;
    let chaos_spec = "seed=11,panic=0.1,delay=0.05,poison=0.1,permanent=0.05";

    let trace = RequestTrace::generate(&TraceSpec::new(REQUESTS, SEED));
    let plan = FaultConfig::parse(chaos_spec)
        .expect("canned chaos spec parses")
        .plan;
    // The default switch thresholds park this workload in Alert; lower
    // the Emergency band (entry and release) so the run genuinely
    // escalates — the incident gate needs a ModeEscalation trigger to
    // check against.
    let escalating_config = || {
        let mut cfg = AnticipationConfig::default();
        cfg.switch.emergency_on = 0.40;
        cfg.switch.emergency_off = 0.30;
        cfg
    };
    let config = |threads: usize| ServiceConfig {
        threads,
        anticipation: Some(escalating_config()),
        ..ServiceConfig::default()
    };
    let serve_untraced = |threads: usize| ServiceEngine::new(config(threads)).serve(&trace, &plan);
    let serve_traced = |threads: usize| {
        let mut tel = Telemetry::new(1.0);
        let report = ServiceEngine::new(config(threads)).serve_traced(&trace, &plan, &mut tel);
        (report, tel)
    };

    // Gate 1: tracing observes, never steers — the traced report is
    // byte-identical to the untraced one.
    let untraced = serve_untraced(1);
    let (report1, tel1) = serve_traced(1);
    let json_untraced = serde_json::to_string(&untraced).expect("service reports serialize");
    let json_traced = serde_json::to_string(&report1).expect("service reports serialize");
    if json_untraced != json_traced {
        fail("attaching the causal tracer changed serving decisions");
    }

    // Gate 2: the workload escalates, and the Emergency escalation left
    // an incident report whose trigger tick is exactly the transition's.
    if report1.emergency_ticks == 0 {
        fail("the escalating configuration never reached Emergency");
    }
    let escalation_tick = report1
        .mode_transitions
        .iter()
        .find(|t| t.is_escalation())
        .map(|t| t.tick)
        .expect("emergency ticks imply an escalation transition");
    let incidents = tel1
        .incidents
        .finalize(&tel1.causal, &report1.warning_scores);
    if !incidents
        .iter()
        .any(|i| i.kind == TriggerKind::ModeEscalation && i.trigger_tick == escalation_tick)
    {
        fail(&format!(
            "no incident report matches the Emergency escalation at tick {escalation_tick}"
        ));
    }

    // Gate 3: blame decompositions are exact — every critical path's
    // components sum to its slack deficit, and the tracer saw every
    // request the engine decided.
    if tel1.causal.requests() != REQUESTS {
        fail(&format!(
            "causal tracer saw {} of {REQUESTS} requests",
            tel1.causal.requests()
        ));
    }
    if tel1.causal.paths().is_empty() {
        fail("the chaos workload extracted no critical paths");
    }
    for path in tel1.causal.paths() {
        if path.blame.total() != path.slack_deficit {
            fail(&format!(
                "request {} blame components sum to {} but slack deficit is {}",
                path.request,
                path.blame.total(),
                path.slack_deficit
            ));
        }
    }

    // Gate 4: the postmortem bundle and prometheus exposition are
    // byte-identical across thread budgets under chaos.
    let (report4, tel4) = serve_traced(4);
    let incidents4 = tel4
        .incidents
        .finalize(&tel4.causal, &report4.warning_scores);
    let bundle1 = render_postmortem("bench-obs", &incidents, &tel1.causal);
    let bundle4 = render_postmortem("bench-obs", &incidents4, &tel4.causal);
    if bundle1 != bundle4 {
        fail("postmortem bundle depends on thread count");
    }
    if tel1.metrics.to_prometheus() != tel4.metrics.to_prometheus() {
        fail("traced prometheus exposition depends on thread count");
    }

    // Interleave untraced and traced rounds and gate on the median of
    // the per-round ratios (same discipline as the anticipation smoke).
    std::hint::black_box(serve_traced(1));
    let (untraced_secs, traced_secs, overhead) = interleaved(
        reps,
        repeat(SERVES_PER_ROUND, || serve_untraced(1)),
        repeat(SERVES_PER_ROUND, || serve_traced(1)),
    );
    if overhead > 1.15 {
        fail(&format!(
            "causal tracing overhead {overhead:.3}x exceeds the 1.15x budget"
        ));
    }

    let slack_deficit_ticks: u64 = tel1.causal.paths().iter().map(|p| p.slack_deficit).sum();
    let smoke = ObsSmoke {
        observability_overhead: ObservabilityOverhead {
            requests: REQUESTS,
            seed: SEED,
            chaos_plan: chaos_spec.to_string(),
            serves_per_round: SERVES_PER_ROUND,
            untraced_serves_per_sec: SERVES_PER_ROUND as f64 / untraced_secs,
            traced_serves_per_sec: SERVES_PER_ROUND as f64 / traced_secs,
            tracing_overhead: overhead,
            requests_traced: tel1.causal.requests(),
            spans_recorded: tel1.causal.spans().len(),
            critical_paths: tel1.causal.paths().len(),
            slack_deficit_ticks,
            incident_reports: incidents.len(),
            emergency_ticks: report1.emergency_ticks,
            postmortem_bytes: bundle1.len(),
        },
        meta: make_meta(
            reps,
            "median wall seconds per round; overhead is the median of interleaved per-round ratios",
        ),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&smoke).expect("serializes")
    );
}

#[derive(Serialize)]
struct SymmetrySpeed {
    /// Damage cases covered by the n=24/d=4/k=4 AllOnes instance.
    n24_d4_cases: usize,
    /// Orbit representatives actually walked by the symmetric checker —
    /// one per (per-class damage count) signature.
    n24_d4_orbit_representatives: u64,
    reference_secs: f64,
    reference_cases_per_sec: f64,
    symmetric_threads1_secs: f64,
    symmetric_threads4_secs: f64,
    symmetric_cases_per_sec: f64,
    /// Reference wall time over symmetric wall time; the acceptance gate
    /// demands > 2.8 (the memoization ceiling of the exhaustive engine).
    symmetric_vs_reference_speedup: f64,
    symmetric_thread_scaling: Option<f64>,
}

#[derive(Serialize)]
struct CompressedScale {
    /// The quiet 2^30 instance: AtLeastOnes(30, 4), five BFS levels.
    quiet_2pow30_levels: usize,
    quiet_2pow30_threads1_secs: f64,
    quiet_2pow30_threads4_secs: f64,
    quiet_2pow30_states_per_sec: f64,
    quiet_2pow30_thread_scaling: Option<f64>,
    /// Bytes of the compressed engine's whole working set at 2^30: three
    /// word-packed bitsets (frontier ping-pong pair + visited).
    quiet_2pow30_arena_bytes: u64,
    /// What the dense path would need per state at 2^24 (its hard cap):
    /// raw u32 BFS levels + `Vec<Option<usize>>` levels + per-state
    /// policy action, ~36 bytes/state. The 2^30 arena must fit inside
    /// this — 64x the states in less memory.
    dense_2pow24_bytes_estimate: u64,
    adversarial_2pow26_levels: usize,
    adversarial_2pow26_threads1_secs: f64,
    adversarial_2pow26_threads4_secs: f64,
    adversarial_2pow26_thread_scaling: Option<f64>,
}

#[derive(Serialize)]
struct DcspSmoke {
    symmetry: SymmetrySpeed,
    compressed: CompressedScale,
    meta: Meta,
}

/// `bench_smoke dcsp`: symmetry-reduction and compressed-frontier scale
/// numbers + equivalence and thread-invariance gates (source of
/// BENCH_7.json).
fn run_dcsp_smoke(reps: usize) {
    let greedy = GreedyRepair::new();
    let ctx1 = RunContext::with_threads(0, 1);
    let ctx4 = RunContext::with_threads(0, 4);

    // Gate 1: on the timed instance the symmetric checker reproduces the
    // exhaustive-parallel and reference reports bit-for-bit, at one and
    // four threads.
    let start = Config::ones(24);
    let env = AllOnes::new(24);
    let (sym_report, sym_stats) =
        is_k_recoverable_symmetric_stats(&start, &env, &greedy, 4, 4, &ctx4)
            .expect("AllOnes declares a symmetry class");
    let (sym_report1, _) = is_k_recoverable_symmetric_stats(&start, &env, &greedy, 4, 4, &ctx1)
        .expect("AllOnes declares a symmetry class");
    let full = is_k_recoverable_exhaustive_parallel(&start, &env, &greedy, 4, 4, &ctx4);
    let reference = recoverability_reference(&start, &env, &greedy, 4, 4);
    if sym_report != full || sym_report != reference || sym_report != sym_report1 {
        fail("symmetric recoverability report differs from the reference paths");
    }

    let ref_secs = median_secs(reps, || {
        recoverability_reference(&start, &env, &greedy, 4, 4)
    });
    let sym1_secs = median_secs(reps, || {
        is_k_recoverable_symmetric(&start, &env, &greedy, 4, 4, &ctx1)
    });
    let sym4_secs = median_secs(reps, || {
        is_k_recoverable_symmetric(&start, &env, &greedy, 4, 4, &ctx4)
    });
    let speedup = ref_secs / sym1_secs;
    if speedup <= 2.8 {
        fail(&format!(
            "symmetry reduction speedup {speedup:.2}x does not clear the 2.8x \
             memoization ceiling"
        ));
    }

    // Gate 2: the compressed engine agrees with the dense path at the
    // largest size the dense path still reaches comfortably.
    let env20 = AtLeastOnes::new(20, 13);
    let dense20 = analyze_bit_dcsp(20, &env20);
    let comp20 = analyze_bit_dcsp_frontiers(20, &env20, 4);
    if comp20.frontier_sizes != dense20.frontier_sizes()
        || comp20.hopeless != dense20.hopeless_states().len() as u64
    {
        fail("compressed frontiers differ from the dense analysis at 2^20");
    }

    // The headline run: 2^30 states — 64x beyond the dense cap — in a
    // three-bitset arena. Timed once per thread budget (a rep is seconds,
    // and the thread-invariance gate already runs both budgets).
    const BIG: usize = 30;
    let env30 = AtLeastOnes::new(BIG, 4);
    let t0 = Instant::now();
    let big1 = analyze_bit_dcsp_frontiers(BIG, &env30, 1);
    let big1_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let big4 = analyze_bit_dcsp_frontiers(BIG, &env30, 4);
    let big4_secs = t0.elapsed().as_secs_f64();
    if big1 != big4 {
        fail("2^30 frontier summary depends on thread count");
    }
    let arena_bytes = 3 * (1u64 << (BIG - 6)) * 8;
    let dense24_bytes = (1u64 << 24) * 36;
    if arena_bytes > dense24_bytes {
        fail("compressed 2^30 arena exceeds the dense 2^24 footprint");
    }

    // Adversarial level sets at 2^26 — also beyond the dense cap.
    let env26 = AtLeastOnes::new(26, 18);
    let t0 = Instant::now();
    let adv1 = analyze_bit_dcsp_adversarial_frontiers(26, &env26, 2, 1);
    let adv1_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let adv4 = analyze_bit_dcsp_adversarial_frontiers(26, &env26, 2, 4);
    let adv4_secs = t0.elapsed().as_secs_f64();
    if adv1 != adv4 {
        fail("2^26 adversarial summary depends on thread count");
    }

    let cases = sym_report.cases as f64;
    let smoke = DcspSmoke {
        symmetry: SymmetrySpeed {
            n24_d4_cases: sym_report.cases,
            n24_d4_orbit_representatives: sym_report.cases as u64 - sym_stats.orbit_hits,
            reference_secs: ref_secs,
            reference_cases_per_sec: cases / ref_secs,
            symmetric_threads1_secs: sym1_secs,
            symmetric_threads4_secs: sym4_secs,
            symmetric_cases_per_sec: cases / sym1_secs,
            symmetric_vs_reference_speedup: speedup,
            symmetric_thread_scaling: thread_scaling(sym1_secs, sym4_secs),
        },
        compressed: CompressedScale {
            quiet_2pow30_levels: big1.frontier_sizes.len(),
            quiet_2pow30_threads1_secs: big1_secs,
            quiet_2pow30_threads4_secs: big4_secs,
            quiet_2pow30_states_per_sec: (1u64 << BIG) as f64 / big1_secs,
            quiet_2pow30_thread_scaling: thread_scaling(big1_secs, big4_secs),
            quiet_2pow30_arena_bytes: arena_bytes,
            dense_2pow24_bytes_estimate: dense24_bytes,
            adversarial_2pow26_levels: adv1.frontier_sizes.len(),
            adversarial_2pow26_threads1_secs: adv1_secs,
            adversarial_2pow26_threads4_secs: adv4_secs,
            adversarial_2pow26_thread_scaling: thread_scaling(adv1_secs, adv4_secs),
        },
        meta: make_meta(
            reps,
            "median wall seconds per run; the 2^30 and 2^26 rows are single timed runs",
        ),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&smoke).expect("serializes")
    );
}

fn main() {
    let reps = 5;
    match std::env::args().nth(1).as_deref() {
        Some("faults") => {
            run_fault_smoke(reps);
            return;
        }
        Some("telemetry") => {
            run_telemetry_smoke(reps);
            return;
        }
        Some("cluster") => {
            run_cluster_smoke(reps);
            return;
        }
        Some("dcsp") => {
            run_dcsp_smoke(reps);
            return;
        }
        Some("anticipate") => {
            run_anticipate_smoke(reps);
            return;
        }
        Some("redundancy") => {
            run_redundancy_smoke(reps);
            return;
        }
        Some("obs") => {
            run_obs_smoke(reps);
            return;
        }
        _ => {}
    }
    let greedy = GreedyRepair::new();

    // Exhaustive k-recoverability, engine vs reference, n=16/d=3/k=3.
    let start16 = Config::ones(16);
    let env16 = AllOnes::new(16);
    let engine_report = is_k_recoverable_exhaustive(&start16, &env16, &greedy, 3, 3);
    let reference_report = recoverability_reference(&start16, &env16, &greedy, 3, 3);
    if engine_report != reference_report {
        fail("engine and reference recoverability reports differ");
    }
    let cases16 = engine_report.cases as f64;
    let engine_secs = median_secs(reps, || {
        is_k_recoverable_exhaustive(&start16, &env16, &greedy, 3, 3)
    });
    let reference_secs = median_secs(reps, || {
        recoverability_reference(&start16, &env16, &greedy, 3, 3)
    });

    // Thread scaling on the widened E2 workload, n=24/d=4/k=4.
    let start24 = Config::ones(24);
    let env24 = AllOnes::new(24);
    let ctx1 = RunContext::with_threads(0, 1);
    let ctx4 = RunContext::with_threads(0, 4);
    let serial = is_k_recoverable_exhaustive_parallel(&start24, &env24, &greedy, 4, 4, &ctx1);
    let parallel = is_k_recoverable_exhaustive_parallel(&start24, &env24, &greedy, 4, 4, &ctx4);
    if serial != parallel {
        fail("recoverability report depends on thread count");
    }
    let cases24 = serial.cases as f64;
    let t1_secs = median_secs(reps, || {
        is_k_recoverable_exhaustive_parallel(&start24, &env24, &greedy, 4, 4, &ctx1)
    });
    let t4_secs = median_secs(reps, || {
        is_k_recoverable_exhaustive_parallel(&start24, &env24, &greedy, 4, 4, &ctx4)
    });

    // CSR backward BFS vs reference on the explicit 2^12-state system.
    let env12 = AtLeastOnes::new(12, 10);
    let ts12 = TransitionSystem::from_bit_dcsp(12, &env12, 2);
    if ts12.analyze() != ts12.analyze_reference() {
        fail("CSR analyze and reference reports differ");
    }
    let csr_secs = median_secs(reps, || ts12.analyze());
    let ref_secs = median_secs(reps, || ts12.analyze_reference());

    // Implicit model checking at 2^20 states.
    let n = 20usize;
    let env20 = AtLeastOnes::new(n, n - n / 3);
    let states20 = (1u64 << n) as f64;
    let bfs_secs = median_secs(reps, || analyze_bit_dcsp(n, &env20));
    let adv1 = analyze_bit_dcsp_adversarial(n, &env20, 2, 1);
    let adv4 = analyze_bit_dcsp_adversarial(n, &env20, 2, 4);
    if adv1 != adv4 {
        fail("implicit adversarial report depends on thread count");
    }
    let adv1_secs = median_secs(reps, || analyze_bit_dcsp_adversarial(n, &env20, 2, 1));
    let adv4_secs = median_secs(reps, || analyze_bit_dcsp_adversarial(n, &env20, 2, 4));

    let smoke = Smoke {
        recoverability: Recoverability {
            n16_d3_cases: engine_report.cases,
            n16_d3_engine_cases_per_sec: cases16 / engine_secs,
            n16_d3_reference_cases_per_sec: cases16 / reference_secs,
            n16_d3_engine_speedup: reference_secs / engine_secs,
            n24_d4_cases: serial.cases,
            n24_d4_threads1_cases_per_sec: cases24 / t1_secs,
            n24_d4_threads4_cases_per_sec: cases24 / t4_secs,
            n24_d4_thread_scaling: thread_scaling(t1_secs, t4_secs),
        },
        maintainability: Maintainability {
            explicit_2pow12_csr_states_per_sec: 4096.0 / csr_secs,
            explicit_2pow12_reference_states_per_sec: 4096.0 / ref_secs,
            explicit_2pow12_csr_speedup: ref_secs / csr_secs,
            implicit_2pow20_bfs_states_per_sec: states20 / bfs_secs,
            implicit_2pow20_adversarial_threads1_states_per_sec: states20 / adv1_secs,
            implicit_2pow20_adversarial_threads4_states_per_sec: states20 / adv4_secs,
            implicit_2pow20_adversarial_thread_scaling: thread_scaling(adv1_secs, adv4_secs),
        },
        meta: make_meta(reps, "median wall seconds per run"),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&smoke).expect("serializes")
    );
}
