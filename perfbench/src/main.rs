//! End-to-end and per-layer benchmark of the resilience stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_chaos --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//! `serve_chaos`, `control_plane`, `control_traced`, `registry`, or
//! `all` (each of the four in a child process, one after another).
//!
//! `--trace 0` times ops with nothing but the op loop's clock and prints
//! the end-to-end metrics; `--trace 1` wraps every call into a layer's
//! public API in a span, adds isolated replays, and prints the per-layer
//! metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` whose metric names and
//! units are exactly those listed in the repository's `BENCHMARK.json`.

mod registry;
mod serve;
mod spans;
mod stats;

use spans::Spans;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// The repository root: the benchmark reads `BENCHMARK.json` and
/// `EXPERIMENTS.md` from it (span files go to `perfbench/out`).
fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["serve_chaos", "control_plane", "control_traced", "registry"];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => {
                let raw = value();
                args.seed = raw
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--seed needs an integer, got `{raw}`")));
            }
            "--seconds" => {
                let raw = value();
                args.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| {
                        usage(&format!("--seconds needs a positive number, got `{raw}`"))
                    });
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("--trace needs 0 or 1, got `{other}`")),
                }
            }
            "--help" | "-h" => usage("benchmark of the resilience stack"),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload `{}`", args.workload));
    }
    args
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Run {
    /// Ops attempted (warm-up included).
    pub attempted: u64,
    /// Ops that failed an output check or panicked.
    pub failed: u64,
    /// Measured ops whose spans the traced run kept.
    pub measured_ops: u64,
    /// Metric values by the names `BENCHMARK.json` uses.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Indicators printed for people, not part of the JSON line.
    pub notes: Vec<String>,
}

impl Run {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a line for the human-readable summary.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one op's result: `Ok` or a failure with its reason.
    pub fn count(&mut self, result: &Result<f64, String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: op {} failed: {reason}", self.attempted - 1);
            }
        }
    }
}

/// `a / b`, or `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Run one op: `run` inside a root span named `op` and timed by the op
/// clock, then `after` (output checks and traced-only replays) outside
/// the timing. A panic anywhere counts as a failed op.
pub fn attempt<T>(
    spans: &mut Spans,
    run: impl FnOnce(&mut Spans) -> T,
    after: impl FnOnce(&mut Spans, T) -> Result<(), String>,
) -> Result<f64, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let out = spans.time("op", run);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        after(spans, out).map(|()| ms)
    }));
    outcome.unwrap_or_else(|panic| {
        spans.abandon_open();
        let reason = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {reason}"))
    })
}

/// Closed loop of back-to-back ops for `seconds`, after a warm-up of a
/// tenth of that (at most one second) whose ops are checked but neither
/// timed nor traced. Returns the measured op times in ms.
pub fn closed_loop<T>(
    run_out: &mut Run,
    spans: &mut Spans,
    seconds: f64,
    mut run: impl FnMut(&mut Spans) -> T,
    mut after: impl FnMut(&mut Spans, T) -> Result<(), String>,
) -> Vec<f64> {
    let traced = spans.enabled();
    let start = Instant::now();
    let warmup = (seconds * 0.1).min(1.0);
    let mut samples = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= warmup + seconds {
            break;
        }
        let warm = elapsed < warmup;
        spans.set_enabled(traced && !warm);
        spans.set_op(run_out.attempted);
        let result = attempt(spans, &mut run, &mut after);
        run_out.count(&result);
        if let (Ok(ms), false) = (result, warm) {
            samples.push(ms);
            run_out.measured_ops += 1;
        }
    }
    spans.set_enabled(traced);
    samples
}

/// Metric names and units, as listed in `BENCHMARK.json`.
struct Manifest {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn field<'v>(value: &'v serde_json::Value, name: &str) -> Option<&'v serde_json::Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

fn load_manifest() -> Result<Manifest, String> {
    let path = repo_root().join("BENCHMARK.json");
    let raw = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = serde_json::parse_value_complete(&raw).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        field(&doc, key)
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
            .iter()
            .map(|m| {
                let name = field(m, "name").and_then(|v| v.as_str());
                let unit = field(m, "unit").and_then(|v| v.as_str());
                match (name, unit) {
                    (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                    _ => Err(format!("BENCHMARK.json `{key}` entry without name/unit")),
                }
            })
            .collect()
    };
    Ok(Manifest {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// `--workload all`: each workload in a child process of this binary,
/// one after another, then one combined result line.
fn run_all(args: &Args) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| usage(&format!("current_exe: {e}")));
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .unwrap_or_else(|e| usage(&format!("cannot run {workload}: {e}")));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        let doc = serde_json::parse_value_complete(last)
            .ok()
            .filter(|_| out.status.success());
        let Some(doc) = doc else {
            eprintln!("perfbench: workload {workload} produced no result");
            std::process::exit(1);
        };
        correct &= matches!(field(&doc, "correct"), Some(serde_json::Value::Bool(true)));
        attempted += field(&doc, "attempted")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0) as u64;
        failed += field(&doc, "failed")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0) as u64;
        if let Some(entries) = field(&doc, "metrics").and_then(|v| v.as_object()) {
            for (name, m) in entries {
                let value = field(m, "value").and_then(|v| v.as_f64()).unwrap_or(0.0);
                let unit = field(m, "unit")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string();
                metrics.push((format!("{workload}.{name}"), value, unit));
            }
        }
        println!();
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    std::process::exit(if correct { 0 } else { 1 });
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = parse_args();
    if args.workload == "all" {
        run_all(&args);
    }
    let manifest = load_manifest().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    let mut spans = Spans::new(args.trace);
    let mut run = match args.workload.as_str() {
        "registry" => registry::run(args.seed, args.seconds, nproc, &mut spans),
        workload => serve::run(workload, args.seed, args.seconds, nproc, &mut spans),
    };
    run.set("peak_rss_mb", stats::peak_rss_mb());

    if args.trace {
        let span_ns = spans::span_cost_ns();
        let per_op = ratio(spans.len() as f64, run.measured_ops as f64);
        let op_ns = stats::median(&spans.per_op_ns("op"));
        run.set("bench.op_ms_p50", op_ns / 1e6);
        run.set("bench.spans_per_op", per_op);
        run.set("bench.span_ns", span_ns);
        run.set(
            "bench.trace_overhead_pct",
            100.0 * ratio(per_op * span_ns, op_ns),
        );
        println!("span totals (self time = wall time minus direct child spans):");
        println!(
            "  {:<34} {:>9} {:>12} {:>12}",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, t) in spans.totals() {
            println!(
                "  {name:<34} {:>9} {:>12.3} {:>12.3}",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let meta = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{nproc},\"seconds\":{},\"ops\":{}}}",
            args.workload, args.seed, args.seconds, run.measured_ops
        );
        match spans.write_jsonl(&path, &meta) {
            Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                run.failed += 1;
            }
        }
    }

    let listed = if args.trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let mut out = Vec::new();
    let mut problems = Vec::new();
    for (name, unit) in listed {
        match run.metrics.get(name.as_str()) {
            Some(v) if v.is_finite() => out.push((name.clone(), *v, unit.clone())),
            Some(v) => problems.push(format!("metric {name} is not finite ({v})")),
            // Per-layer metrics of a layer this workload bypasses read 0.
            None if args.trace => out.push((name.clone(), 0.0, unit.clone())),
            None => problems.push(format!(
                "workload does not produce end-to-end metric {name}"
            )),
        }
    }
    for name in run.metrics.keys() {
        let known = manifest
            .end_to_end
            .iter()
            .chain(&manifest.per_layer)
            .any(|(n, _)| n == name);
        if !known {
            problems.push(format!("metric {name} is missing from BENCHMARK.json"));
        }
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("perfbench: {p}");
        }
        std::process::exit(1);
    }

    for line in &run.notes {
        println!("  {line}");
    }
    for (name, value, unit) in &out {
        println!("  {name:<34} = {value} {unit}");
    }
    println!(
        "  failed_ops = {} / {} attempted",
        run.failed, run.attempted
    );
    let correct = run.failed == 0 && run.attempted > 0;
    println!("{}", result_line(correct, run.attempted, run.failed, &out));
}
