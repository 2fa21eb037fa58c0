//! The `registry` workload: the full experiment registry at master seed
//! 42, every table checked byte for byte against its `EXPERIMENTS.md`
//! section.
//!
//! One op is one experiment runner call plus its Markdown rendering; it
//! is the unit that is checked and counted. A run makes whole passes
//! over the registry, in an order drawn from the workload seed, until the
//! run's seconds are spent (at least one pass). The end-to-end timings
//! are over passes: a pass is what a user regenerating the tables waits
//! for, and per-entry times are the per-layer `exp.<id>_s`.

use crate::spans::Spans;
use crate::stats::{median, permutation, quantile};
use crate::{attempt, ratio, repo_root, Run};
use resilience_bench::experiments::{registry, Runner};
use resilience_core::RunContext;
use std::collections::BTreeMap;
use std::time::Instant;

/// The master seed `EXPERIMENTS.md` was generated with.
const MASTER_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// One registry entry with its names and the section it must render.
struct Entry {
    id: &'static str,
    runner: Runner,
    span: &'static str,
    metric: &'static str,
    expected: String,
}

/// `EXPERIMENTS.md` from the first `## ` heading on, split into one
/// section per table id (the heading text before ` — `). Each section
/// is what the `experiments` binary prints for that table: the rendered
/// Markdown plus one blank line.
fn sections(doc: &str) -> BTreeMap<String, String> {
    let mut out: BTreeMap<String, String> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in doc.split_inclusive('\n') {
        if let Some(heading) = line.strip_prefix("## ") {
            let id = heading
                .split(" — ")
                .next()
                .unwrap_or(heading)
                .trim()
                .to_string();
            current = Some(id);
        }
        if let Some(id) = &current {
            out.entry(id.clone()).or_default().push_str(line);
        }
    }
    out
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Read the reference tables and order the registry by `seed`.
fn setup_once(seed: u64, names: &[(&'static str, &'static str)]) -> Result<Vec<Entry>, String> {
    let path = repo_root().join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut expected = sections(&doc);
    let reg = registry();
    let mut entries = Vec::with_capacity(reg.len());
    for i in permutation(reg.len(), seed) {
        let (id, runner) = reg[i];
        let section = expected
            .remove(&id.to_uppercase())
            .ok_or_else(|| format!("EXPERIMENTS.md has no section for {id}"))?;
        entries.push(Entry {
            id,
            runner,
            span: names[i].0,
            metric: names[i].1,
            expected: section,
        });
    }
    Ok(entries)
}

/// Where a rendered table first departs from its reference section.
fn first_difference(got: &str, want: &str) -> String {
    match got.lines().zip(want.lines()).position(|(g, w)| g != w) {
        Some(i) => format!(
            "line {}: got `{}`, want `{}`",
            i + 1,
            got.lines().nth(i).unwrap_or(""),
            want.lines().nth(i).unwrap_or("")
        ),
        None => format!(
            "{} lines rendered, {} expected",
            got.lines().count(),
            want.lines().count()
        ),
    }
}

/// Run the registry workload for `seconds`.
pub fn run(seed: u64, seconds: f64, nproc: usize, spans: &mut Spans) -> Run {
    let mut out = Run::default();
    // Span and metric names per registry entry (`exp.e3`, `exp.e3_s`).
    let names: Vec<(&'static str, &'static str)> = registry()
        .iter()
        .map(|(id, _)| (leak(format!("exp.{id}")), leak(format!("exp.{id}_s"))))
        .collect();

    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut entries = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        match setup_once(seed, &names) {
            Ok(e) => entries = e,
            Err(e) => {
                eprintln!("perfbench: registry set-up failed: {e}");
                std::process::exit(1);
            }
        }
        setup_secs.push(start.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    let mut per_entry: Vec<Vec<f64>> = vec![Vec::new(); entries.len()];
    let (mut passes, mut trials, mut pass_ms, mut render_ms) = (0u64, 0u64, Vec::new(), Vec::new());
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let (mut pass_trials, mut pass_render_ms, mut pass_total_ms, mut complete) =
            (0u64, 0.0, 0.0, true);
        for (i, e) in entries.iter().enumerate() {
            spans.set_op(out.attempted);
            let result = attempt(
                spans,
                |s| {
                    let ctx = RunContext::with_threads(MASTER_SEED, nproc);
                    let table = s.time(e.span, |_| (e.runner)(&ctx));
                    let t = Instant::now();
                    let mut rendered = s.time("exp.render", |_| table.to_markdown());
                    pass_render_ms += t.elapsed().as_secs_f64() * 1e3;
                    pass_trials += ctx.trials_run();
                    rendered.push('\n');
                    rendered
                },
                |_, rendered| {
                    if rendered == e.expected {
                        Ok(())
                    } else {
                        Err(format!(
                            "{} differs from EXPERIMENTS.md: {}",
                            e.id,
                            first_difference(&rendered, &e.expected)
                        ))
                    }
                },
            );
            out.count(&result);
            match result {
                Ok(ms) => {
                    per_entry[i].push(ms);
                    pass_total_ms += ms;
                    out.measured_ops += 1;
                }
                Err(_) => complete = false,
            }
        }
        passes += 1;
        trials = pass_trials;
        render_ms.push(pass_render_ms);
        if complete {
            pass_ms.push(pass_total_ms);
        }
    }

    for (e, times) in entries.iter().zip(&per_entry) {
        out.set(e.metric, median(times) / 1e3);
    }
    let registry_s = median(&pass_ms) / 1e3;
    out.set("exp.registry_s", registry_s);
    out.set("exp.trials", trials as f64);
    out.set("exp.render_ms", median(&render_ms));
    out.set("setup_s", median(&setup_secs));
    out.set("op_ms_min", quantile(&pass_ms, 0.0));
    out.set("op_ms_p90", quantile(&pass_ms, 0.9));
    out.note(format!(
        "registry: {passes} pass(es) over {} entries at threads={nproc}, master seed {MASTER_SEED}; \
         seed {seed} sets the entry order; op_ms_* are over whole passes",
        entries.len()
    ));
    out.note(format!(
        "registry_s         = {registry_s} s (median of {} passes: runner calls plus rendering)",
        pass_ms.len()
    ));
    out.note(format!(
        "req_per_s          = {} 1/s (runner calls per second of the median pass)",
        ratio(entries.len() as f64, registry_s)
    ));
    out.note(format!(
        "exp.trials         = {trials} (computed: RunContext::trials_run per pass)"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_split_at_headings_and_keep_blank_lines() {
        let doc = "# T\n\npre\n\n## E1 — One\n\nbody\n\n## CLUSTER_X — Two\nrow\n\n";
        let s = sections(doc);
        assert_eq!(s.len(), 2);
        assert_eq!(s["E1"], "## E1 — One\n\nbody\n\n");
        assert_eq!(s["CLUSTER_X"], "## CLUSTER_X — Two\nrow\n\n");
    }
}
