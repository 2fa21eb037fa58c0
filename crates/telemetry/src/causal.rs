//! Causal span trees on the logical tick clock.
//!
//! The event tracer ([`crate::trace`]) records *what* happened; this module
//! records *why a request was slow*. Engines emit one [`RequestSketch`] per
//! decided request — a compact record of the admission gate, every attempt
//! (primary / hedge / failover) with its enqueue tick, base and inflated
//! work, and the final disposition. The tracer expands each sketch into a
//! well-formed span tree (one root per request, parent ticks bracketing
//! children) and, for every deadline-missed or shed request, runs the
//! **critical-path extractor**: an exact integer decomposition of the
//! request's slack deficit into blame edges (queue wait, breaker-open
//! dwell, gray-inflated work, retry backoff, intrinsic work).
//!
//! Everything here is a pure function of the sketches, which are themselves
//! pure functions of the deterministic simulation — so span trees, blame
//! tables and the derived `critical_path_*` metric families are
//! byte-identical across thread budgets.

use crate::metrics::MetricsRegistry;
use std::collections::BTreeMap;

/// Bucket bounds for the `service_queue_wait_ticks` histogram (ticks a
/// winning attempt spent between enqueue and service start).
pub const QUEUE_WAIT_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// What a causal span represents in the request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Root span: arrival to final disposition.
    Request,
    /// Admission-gate decision (zero-width, at the arrival tick).
    Admission,
    /// Primary attempt container.
    Primary,
    /// Hedge attempt container.
    Hedge,
    /// Failover attempt container.
    Failover,
    /// Ticks an attempt sat in the bulkhead queue before service.
    QueueWait,
    /// Ticks an attempt spent in service (draining work).
    Service,
    /// Cached-fallback resolution (zero-width, at the decision tick).
    Fallback,
}

impl SpanKind {
    /// Stable lowercase label used in exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Admission => "admission",
            SpanKind::Primary => "primary",
            SpanKind::Hedge => "hedge",
            SpanKind::Failover => "failover",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::Service => "service",
            SpanKind::Fallback => "fallback",
        }
    }
}

/// One node of a causal span tree, on the logical tick clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalSpan {
    /// Deterministic id derived from (trial, request, attempt, stage).
    pub span_id: u64,
    /// Parent span id; `0` marks the root.
    pub parent_id: u64,
    /// Request id this span belongs to.
    pub request: u64,
    /// Lifecycle stage.
    pub kind: SpanKind,
    /// First tick covered by the span.
    pub start: u64,
    /// Last tick covered by the span (`start <= end`).
    pub end: u64,
    /// Replica index that hosted the work (0 when unreplicated).
    pub replica: u32,
    /// Outcome label (e.g. `won`, `failed`, `cancelled`, `shed:queue-full`).
    pub outcome: String,
}

/// Blame edge names for the critical-path decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlameEdge {
    /// Ticks waiting in a bulkhead queue.
    QueueWait,
    /// Ticks locked out behind an open circuit breaker.
    BreakerDwell,
    /// Extra service ticks from gray-failure work inflation.
    GrayInflation,
    /// Ticks between arrival and the winning attempt's enqueue
    /// (hedge/failover launch delay).
    RetryBackoff,
    /// Ticks the request's own base work needed at full rate.
    IntrinsicWork,
}

impl BlameEdge {
    /// Stable lowercase label used in exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            BlameEdge::QueueWait => "queue-wait",
            BlameEdge::BreakerDwell => "breaker-dwell",
            BlameEdge::GrayInflation => "gray-inflation",
            BlameEdge::RetryBackoff => "retry-backoff",
            BlameEdge::IntrinsicWork => "intrinsic-work",
        }
    }
}

/// Exact integer decomposition of a slack deficit into blame edges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Blame {
    /// Ticks blamed on queue wait.
    pub queue_wait: u64,
    /// Ticks blamed on breaker-open dwell.
    pub breaker_dwell: u64,
    /// Ticks blamed on gray-inflated work.
    pub gray_inflation: u64,
    /// Ticks blamed on retry/hedge/failover backoff.
    pub retry_backoff: u64,
    /// Ticks blamed on the request's intrinsic work.
    pub intrinsic_work: u64,
}

impl Blame {
    /// Sum of all components; equals the critical path's slack deficit.
    pub fn total(&self) -> u64 {
        self.queue_wait
            + self.breaker_dwell
            + self.gray_inflation
            + self.retry_backoff
            + self.intrinsic_work
    }

    fn add(&mut self, edge: BlameEdge, ticks: u64) {
        match edge {
            BlameEdge::QueueWait => self.queue_wait += ticks,
            BlameEdge::BreakerDwell => self.breaker_dwell += ticks,
            BlameEdge::GrayInflation => self.gray_inflation += ticks,
            BlameEdge::RetryBackoff => self.retry_backoff += ticks,
            BlameEdge::IntrinsicWork => self.intrinsic_work += ticks,
        }
    }
}

/// Critical path for one deadline-missed or shed request: which edge was
/// the longest pole, and an exact split of the slack deficit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Request id.
    pub request: u64,
    /// Request family (lane).
    pub family: u32,
    /// Tick the final disposition was recorded.
    pub decided_at: u64,
    /// Final disposition label (`shed:queue-full`, `served:late`, ...).
    pub outcome: String,
    /// Ticks past the effective deadline (or the modeled wait for sheds).
    pub slack_deficit: u64,
    /// Edge with the largest raw contribution.
    pub longest_pole: BlameEdge,
    /// Exact decomposition; `blame.total() == slack_deficit`.
    pub blame: Blame,
}

/// Attempt kind, as seen by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// First routed attempt.
    Primary,
    /// Speculative duplicate launched by the hedger.
    Hedge,
    /// Replacement attempt after a replica failure.
    Failover,
}

impl AttemptKind {
    fn span_kind(&self) -> SpanKind {
        match self {
            AttemptKind::Primary => SpanKind::Primary,
            AttemptKind::Hedge => SpanKind::Hedge,
            AttemptKind::Failover => SpanKind::Failover,
        }
    }
}

/// One attempt's compact causal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptSketch {
    /// Replica index that hosted the attempt (0 when unreplicated).
    pub replica: u32,
    /// Primary, hedge, or failover.
    pub kind: AttemptKind,
    /// Tick the attempt entered the bulkhead queue.
    pub enqueued: u64,
    /// Work units before fault inflation (delay/gray).
    pub base_work: u64,
    /// Work units actually drained (after inflation).
    pub work: u64,
    /// Per-server drain rate of the hosting bulkhead.
    pub rate: u64,
    /// Tick the bulkhead retired the job; `None` if cancelled first.
    pub completed: Option<u64>,
    /// Whether this attempt produced the served response.
    pub won: bool,
    /// Whether the attempt's backend died (panic/poison/correlated).
    pub failed: bool,
}

/// Admission-gate evidence captured when a request is shed, so the
/// extractor can model the wait the gate refused to pay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedGate {
    /// Every eligible breaker was open.
    BreakerOpen {
        /// Tick the (last) blocking breaker opened, when known.
        open_since: Option<u64>,
    },
    /// Every eligible queue was full.
    QueueFull {
        /// Total backlog across eligible bulkheads, in work units.
        backlog: u64,
        /// Aggregate drain rate (work units per tick).
        aggregate_rate: u64,
    },
    /// No fidelity could meet the deadline.
    DeadlineUnmeetable {
        /// Backlog ahead of the cheapest candidate, in work units.
        backlog: u64,
        /// Aggregate drain rate (work units per tick).
        aggregate_rate: u64,
        /// Cheapest candidate's work before inflation.
        base_work: u64,
        /// Cheapest candidate's work after inflation.
        work: u64,
    },
}

/// Final disposition of a sketched request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchOutcome {
    /// Served (possibly degraded or via cached fallback).
    Served {
        /// Fidelity label (`full`, `reduced`, `cached`).
        fidelity: String,
        /// Ticks from arrival to response.
        latency: u64,
        /// Whether a cached fallback resolved the request after a fault.
        fallback: bool,
    },
    /// Shed at admission.
    Shed {
        /// Shed cause label (`breaker-open`, `queue-full`, ...).
        reason: String,
    },
    /// Failed after admission.
    Failed {
        /// Failure cause label (`backend-panic`, ...).
        cause: String,
    },
}

/// Compact causal record for one decided request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSketch {
    /// Monte-Carlo trial index (0 for the serve path).
    pub trial: u64,
    /// Request id.
    pub id: u64,
    /// Request family (lane).
    pub family: u32,
    /// Arrival tick.
    pub arrival: u64,
    /// Effective deadline in ticks (after any brownout scaling).
    pub deadline: u64,
    /// Tick the final disposition was recorded.
    pub decided_at: u64,
    /// Final disposition.
    pub outcome: SketchOutcome,
    /// Attempts in launch order (empty for admission-time decisions).
    pub attempts: Vec<AttemptSketch>,
    /// Gate evidence, present iff the request was shed.
    pub gate: Option<ShedGate>,
}

/// Per-request index entry into the tracer's flat span store.
#[derive(Debug, Clone)]
pub struct RequestEntry {
    /// Request family (lane).
    pub family: u32,
    /// Offset of the request's spans in [`CausalTracer::spans`].
    pub span_start: usize,
    /// Number of spans the request owns.
    pub span_count: usize,
    /// Index into [`CausalTracer::paths`], when the request missed/shed.
    pub path: Option<usize>,
    /// Sorted, deduplicated replica indices touched by the request.
    pub replicas: Vec<u32>,
}

/// Deterministic causal tracer: accumulates span trees and critical paths
/// from request sketches.
#[derive(Debug, Clone, Default)]
pub struct CausalTracer {
    spans: Vec<CausalSpan>,
    paths: Vec<CriticalPath>,
    queue_waits: Vec<u64>,
    requests: u64,
    index: BTreeMap<u64, RequestEntry>,
}

/// splitmix64 finalizer — the same mixer the core crate uses for seed
/// derivation, reproduced here to keep span ids a pure local function.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic span id from (trial, request, attempt, stage).
/// Never returns 0, which is reserved for "no parent".
pub fn span_id(trial: u64, request: u64, attempt: u64, stage: u64) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for v in [trial, request, attempt, stage] {
        h = mix(h ^ v.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    }
    h | 1
}

impl CausalTracer {
    /// Fresh, empty tracer.
    pub fn new() -> Self {
        CausalTracer::default()
    }

    /// All spans, in request-decision order (tree nodes pre-order).
    pub fn spans(&self) -> &[CausalSpan] {
        &self.spans
    }

    /// All critical paths, in request-decision order.
    pub fn paths(&self) -> &[CriticalPath] {
        &self.paths
    }

    /// Winning-attempt queue waits, one per request that ran an attempt.
    pub fn queue_waits(&self) -> &[u64] {
        &self.queue_waits
    }

    /// Number of requests traced.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// True when no sketches have been recorded.
    pub fn is_empty(&self) -> bool {
        self.requests == 0
    }

    /// Index entry for a request, if it was traced.
    pub fn entry(&self, request: u64) -> Option<&RequestEntry> {
        self.index.get(&request)
    }

    /// Critical path for a request, if it missed its deadline or was shed.
    pub fn path_of(&self, request: u64) -> Option<&CriticalPath> {
        self.index
            .get(&request)
            .and_then(|e| e.path)
            .map(|i| &self.paths[i])
    }

    /// Spans belonging to a request, if it was traced.
    pub fn spans_of(&self, request: u64) -> &[CausalSpan] {
        match self.index.get(&request) {
            Some(e) => &self.spans[e.span_start..e.span_start + e.span_count],
            None => &[],
        }
    }

    /// Expand a sketch into its span tree, extract the critical path when
    /// the request missed its deadline or was shed, and index the result.
    pub fn record(&mut self, sketch: &RequestSketch) {
        let span_start = self.spans.len();
        let root_id = span_id(sketch.trial, sketch.id, u64::MAX, 0);
        let (outcome_label, latency, shed) = match &sketch.outcome {
            SketchOutcome::Served {
                fidelity,
                latency,
                fallback,
            } => {
                let label = if *fallback {
                    format!("served:{fidelity}:fallback")
                } else {
                    format!("served:{fidelity}")
                };
                (label, *latency, false)
            }
            SketchOutcome::Shed { reason } => (format!("shed:{reason}"), 0, true),
            SketchOutcome::Failed { cause } => (
                format!("failed:{cause}"),
                sketch.decided_at.saturating_sub(sketch.arrival),
                false,
            ),
        };

        self.spans.push(CausalSpan {
            span_id: root_id,
            parent_id: 0,
            request: sketch.id,
            kind: SpanKind::Request,
            start: sketch.arrival,
            end: sketch.decided_at,
            replica: 0,
            outcome: outcome_label.clone(),
        });
        self.spans.push(CausalSpan {
            span_id: span_id(sketch.trial, sketch.id, u64::MAX, 1),
            parent_id: root_id,
            request: sketch.id,
            kind: SpanKind::Admission,
            start: sketch.arrival,
            end: sketch.arrival,
            replica: 0,
            outcome: if shed {
                outcome_label.clone()
            } else if sketch.attempts.is_empty() {
                "cached".to_string()
            } else {
                "admitted".to_string()
            },
        });

        let mut replicas: Vec<u32> = Vec::new();
        let mut fallback_used =
            matches!(sketch.outcome, SketchOutcome::Served { fallback: true, .. });
        for (i, attempt) in sketch.attempts.iter().enumerate() {
            let attempt_ix = i as u64;
            let container_id = span_id(sketch.trial, sketch.id, attempt_ix, 2);
            let end = attempt.completed.unwrap_or(sketch.decided_at);
            let attempt_outcome = if attempt.won {
                "won"
            } else if attempt.failed {
                "failed"
            } else if attempt.completed.is_none() {
                "cancelled"
            } else {
                "lost"
            };
            self.spans.push(CausalSpan {
                span_id: container_id,
                parent_id: root_id,
                request: sketch.id,
                kind: attempt.kind.span_kind(),
                start: attempt.enqueued,
                end,
                replica: attempt.replica,
                outcome: attempt_outcome.to_string(),
            });
            match attempt.completed {
                Some(completed) => {
                    let svc_ticks = attempt.work.div_ceil(attempt.rate.max(1)).max(1);
                    let svc_start = completed.saturating_sub(svc_ticks).max(attempt.enqueued);
                    self.spans.push(CausalSpan {
                        span_id: span_id(sketch.trial, sketch.id, attempt_ix, 3),
                        parent_id: container_id,
                        request: sketch.id,
                        kind: SpanKind::QueueWait,
                        start: attempt.enqueued,
                        end: svc_start,
                        replica: attempt.replica,
                        outcome: "drained".to_string(),
                    });
                    self.spans.push(CausalSpan {
                        span_id: span_id(sketch.trial, sketch.id, attempt_ix, 4),
                        parent_id: container_id,
                        request: sketch.id,
                        kind: SpanKind::Service,
                        start: svc_start,
                        end: completed,
                        replica: attempt.replica,
                        outcome: if attempt.failed {
                            "failed"
                        } else {
                            "completed"
                        }
                        .to_string(),
                    });
                }
                None => {
                    self.spans.push(CausalSpan {
                        span_id: span_id(sketch.trial, sketch.id, attempt_ix, 3),
                        parent_id: container_id,
                        request: sketch.id,
                        kind: SpanKind::QueueWait,
                        start: attempt.enqueued,
                        end: sketch.decided_at,
                        replica: attempt.replica,
                        outcome: "cancelled".to_string(),
                    });
                }
            }
            if !replicas.contains(&attempt.replica) {
                replicas.push(attempt.replica);
            }
        }
        if fallback_used && sketch.attempts.is_empty() {
            // Admission-time cached answer: no fallback span, the
            // admission span already carries the outcome.
            fallback_used = false;
        }
        if fallback_used {
            self.spans.push(CausalSpan {
                span_id: span_id(sketch.trial, sketch.id, u64::MAX, 5),
                parent_id: root_id,
                request: sketch.id,
                kind: SpanKind::Fallback,
                start: sketch.decided_at,
                end: sketch.decided_at,
                replica: 0,
                outcome: "cached".to_string(),
            });
        }
        replicas.sort_unstable();

        if let Some(w) = winning_attempt(sketch) {
            let svc_ticks = w.work.div_ceil(w.rate.max(1)).max(1);
            let total = sketch.decided_at.saturating_sub(sketch.arrival);
            let retry = w.enqueued.saturating_sub(sketch.arrival);
            self.queue_waits
                .push(total.saturating_sub(retry + svc_ticks));
        }

        let missed = shed || latency > sketch.deadline;
        let path = if missed {
            let (deficit, blame, pole) = decompose(sketch, latency);
            self.paths.push(CriticalPath {
                request: sketch.id,
                family: sketch.family,
                decided_at: sketch.decided_at,
                outcome: if !shed && matches!(sketch.outcome, SketchOutcome::Served { .. }) {
                    format!("{outcome_label}:late")
                } else {
                    outcome_label
                },
                slack_deficit: deficit,
                longest_pole: pole,
                blame,
            });
            Some(self.paths.len() - 1)
        } else {
            None
        };

        self.requests += 1;
        self.index.insert(
            sketch.id,
            RequestEntry {
                family: sketch.family,
                span_start,
                span_count: self.spans.len() - span_start,
                path,
                replicas,
            },
        );
    }
}

/// The attempt that decided the request: the winner if any, else the last
/// completed attempt, else the last attempt.
fn winning_attempt(sketch: &RequestSketch) -> Option<&AttemptSketch> {
    sketch
        .attempts
        .iter()
        .find(|a| a.won)
        .or_else(|| sketch.attempts.iter().rev().find(|a| a.completed.is_some()))
        .or_else(|| sketch.attempts.last())
}

/// Exact blame decomposition for a missed/shed request. Returns
/// `(slack_deficit, blame, longest_pole)` with `blame.total() == deficit`.
fn decompose(sketch: &RequestSketch, latency: u64) -> (u64, Blame, BlameEdge) {
    // Raw edge magnitudes in canonical order:
    // [queue, breaker, gray, retry, intrinsic].
    let mut raw = [0u64; 5];
    let deficit;
    match (&sketch.gate, winning_attempt(sketch)) {
        (Some(ShedGate::BreakerOpen { open_since }), _) => {
            let dwell = sketch
                .decided_at
                .saturating_sub(open_since.unwrap_or(sketch.decided_at))
                .max(1);
            deficit = dwell;
            raw[1] = dwell;
        }
        (
            Some(ShedGate::QueueFull {
                backlog,
                aggregate_rate,
            }),
            _,
        ) => {
            let wait = backlog.div_ceil((*aggregate_rate).max(1)).max(1);
            deficit = wait;
            raw[0] = wait;
        }
        (
            Some(ShedGate::DeadlineUnmeetable {
                backlog,
                aggregate_rate,
                base_work,
                work,
            }),
            _,
        ) => {
            let agg = (*aggregate_rate).max(1);
            let est = backlog.saturating_add(*work).div_ceil(agg);
            deficit = est.saturating_sub(sketch.deadline).max(1);
            let svc = work.div_ceil(agg);
            let base = base_work.div_ceil(agg);
            raw[0] = backlog.div_ceil(agg);
            raw[2] = svc.saturating_sub(base);
            raw[4] = base;
        }
        (None, Some(w)) => {
            deficit = latency.saturating_sub(sketch.deadline).max(1);
            let svc_total = w.work.div_ceil(w.rate.max(1)).max(1);
            let base_svc = w.base_work.div_ceil(w.rate.max(1)).max(1);
            raw[3] = w.enqueued.saturating_sub(sketch.arrival);
            raw[2] = svc_total.saturating_sub(base_svc);
            raw[4] = base_svc;
            raw[0] = latency.saturating_sub(raw[3] + svc_total);
        }
        // Defensive: shed without gate evidence, or a miss with no
        // attempts. Blame the request's own work.
        _ => {
            deficit = latency.saturating_sub(sketch.deadline).max(1);
            raw[4] = deficit;
        }
    }

    const EDGES: [BlameEdge; 5] = [
        BlameEdge::QueueWait,
        BlameEdge::BreakerDwell,
        BlameEdge::GrayInflation,
        BlameEdge::RetryBackoff,
        BlameEdge::IntrinsicWork,
    ];
    // Longest pole: largest raw magnitude, canonical order breaking ties.
    let mut pole = BlameEdge::IntrinsicWork;
    let mut best = 0u64;
    for (i, &r) in raw.iter().enumerate() {
        if r > best {
            best = r;
            pole = EDGES[i];
        }
    }
    // Greedy exact assignment: charge edges in descending raw order until
    // the deficit is covered. Σraw >= deficit by construction for every
    // gate above; any defensive residue lands on intrinsic work so the
    // components always sum exactly to the deficit.
    let mut order: Vec<usize> = (0..5).collect();
    order.sort_by(|&a, &b| raw[b].cmp(&raw[a]).then(a.cmp(&b)));
    let mut blame = Blame::default();
    let mut remaining = deficit;
    for &i in &order {
        let take = raw[i].min(remaining);
        if take > 0 {
            blame.add(EDGES[i], take);
            remaining -= take;
        }
    }
    if remaining > 0 {
        blame.add(BlameEdge::IntrinsicWork, remaining);
    }
    (deficit, blame, pole)
}

/// Register the `critical_path_*` families and the queue-wait histogram
/// from an accumulated tracer. Called by the engines at end of run when
/// causal tracing was active, so the families are always present (possibly
/// zero) in traced expositions.
pub fn record_causal_metrics(registry: &mut MetricsRegistry, causal: &CausalTracer) {
    let mut totals = Blame::default();
    let mut deficit = 0u64;
    let mut poles = [0u64; 5];
    for p in causal.paths() {
        // Saturating: a saturated fault magnitude (`delay_ms` or
        // `gray_factor` at u64::MAX) leaves near-u64::MAX deficits.
        let (t, b) = (&mut totals, &p.blame);
        t.queue_wait = t.queue_wait.saturating_add(b.queue_wait);
        t.breaker_dwell = t.breaker_dwell.saturating_add(b.breaker_dwell);
        t.gray_inflation = t.gray_inflation.saturating_add(b.gray_inflation);
        t.retry_backoff = t.retry_backoff.saturating_add(b.retry_backoff);
        t.intrinsic_work = t.intrinsic_work.saturating_add(b.intrinsic_work);
        deficit = deficit.saturating_add(p.slack_deficit);
        let ix = match p.longest_pole {
            BlameEdge::QueueWait => 0,
            BlameEdge::BreakerDwell => 1,
            BlameEdge::GrayInflation => 2,
            BlameEdge::RetryBackoff => 3,
            BlameEdge::IntrinsicWork => 4,
        };
        poles[ix] += 1;
    }
    registry.inc_counter(
        "critical_path_requests_total",
        "Requests that missed their deadline or were shed, with an extracted critical path",
        causal.paths().len() as u64,
    );
    registry.inc_counter(
        "critical_path_slack_deficit_ticks_total",
        "Total slack deficit across all critical paths, in ticks",
        deficit,
    );
    registry.inc_counter(
        "critical_path_queue_wait_ticks_total",
        "Slack-deficit ticks blamed on bulkhead queue wait",
        totals.queue_wait,
    );
    registry.inc_counter(
        "critical_path_breaker_dwell_ticks_total",
        "Slack-deficit ticks blamed on breaker-open dwell",
        totals.breaker_dwell,
    );
    registry.inc_counter(
        "critical_path_gray_inflation_ticks_total",
        "Slack-deficit ticks blamed on gray-failure work inflation",
        totals.gray_inflation,
    );
    registry.inc_counter(
        "critical_path_retry_backoff_ticks_total",
        "Slack-deficit ticks blamed on hedge/failover launch delay",
        totals.retry_backoff,
    );
    registry.inc_counter(
        "critical_path_intrinsic_work_ticks_total",
        "Slack-deficit ticks blamed on the request's own base work",
        totals.intrinsic_work,
    );
    registry.inc_counter(
        "critical_path_pole_queue_wait_total",
        "Critical paths whose longest pole was queue wait",
        poles[0],
    );
    registry.inc_counter(
        "critical_path_pole_breaker_dwell_total",
        "Critical paths whose longest pole was breaker-open dwell",
        poles[1],
    );
    registry.inc_counter(
        "critical_path_pole_gray_inflation_total",
        "Critical paths whose longest pole was gray work inflation",
        poles[2],
    );
    registry.inc_counter(
        "critical_path_pole_retry_backoff_total",
        "Critical paths whose longest pole was retry backoff",
        poles[3],
    );
    registry.inc_counter(
        "critical_path_pole_intrinsic_work_total",
        "Critical paths whose longest pole was intrinsic work",
        poles[4],
    );
    for qw in causal.queue_waits() {
        registry.observe(
            "service_queue_wait_ticks",
            "Ticks winning attempts spent queued before service",
            &QUEUE_WAIT_BOUNDS,
            *qw as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served_sketch() -> RequestSketch {
        RequestSketch {
            trial: 0,
            id: 7,
            family: 1,
            arrival: 10,
            deadline: 4,
            decided_at: 19,
            outcome: SketchOutcome::Served {
                fidelity: "full".to_string(),
                latency: 9,
                fallback: false,
            },
            attempts: vec![AttemptSketch {
                replica: 0,
                kind: AttemptKind::Primary,
                enqueued: 10,
                base_work: 8,
                work: 24,
                rate: 8,
                completed: Some(19),
                won: true,
                failed: false,
            }],
            gate: None,
        }
    }

    #[test]
    fn span_tree_is_well_formed() {
        let mut tracer = CausalTracer::new();
        tracer.record(&served_sketch());
        let spans = tracer.spans_of(7);
        let roots: Vec<_> = spans.iter().filter(|s| s.parent_id == 0).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].kind, SpanKind::Request);
        for s in spans {
            assert!(s.start <= s.end, "span {s:?} inverted");
            if s.parent_id != 0 {
                let parent = spans
                    .iter()
                    .find(|p| p.span_id == s.parent_id)
                    .expect("parent exists");
                assert!(parent.start <= s.start && s.end <= parent.end);
            }
        }
    }

    #[test]
    fn blame_sums_to_deficit_for_late_request() {
        let mut tracer = CausalTracer::new();
        tracer.record(&served_sketch());
        let path = tracer.path_of(7).expect("missed deadline");
        assert_eq!(path.slack_deficit, 9 - 4);
        assert_eq!(path.blame.total(), path.slack_deficit);
        // 24 work at rate 8 = 3 service ticks, 8 base work = 1 tick, so
        // gray inflated by 2; queue wait = 9 - 0 - 3 = 6 -> longest pole.
        assert_eq!(path.longest_pole, BlameEdge::QueueWait);
        assert_eq!(path.blame.queue_wait, 5);
    }

    #[test]
    fn shed_gates_yield_exact_paths() {
        let mut tracer = CausalTracer::new();
        let mut s = served_sketch();
        s.id = 8;
        s.attempts.clear();
        s.decided_at = 10;
        s.outcome = SketchOutcome::Shed {
            reason: "queue-full".to_string(),
        };
        s.gate = Some(ShedGate::QueueFull {
            backlog: 33,
            aggregate_rate: 16,
        });
        tracer.record(&s);
        let path = tracer.path_of(8).expect("shed path");
        assert_eq!(path.slack_deficit, 3); // ceil(33/16)
        assert_eq!(path.blame.queue_wait, 3);
        assert_eq!(path.longest_pole, BlameEdge::QueueWait);
        assert_eq!(path.blame.total(), path.slack_deficit);
    }

    #[test]
    fn breaker_shed_blames_dwell() {
        let mut tracer = CausalTracer::new();
        let mut s = served_sketch();
        s.id = 9;
        s.attempts.clear();
        s.decided_at = 42;
        s.outcome = SketchOutcome::Shed {
            reason: "breaker-open".to_string(),
        };
        s.gate = Some(ShedGate::BreakerOpen {
            open_since: Some(30),
        });
        tracer.record(&s);
        let path = tracer.path_of(9).expect("shed path");
        assert_eq!(path.slack_deficit, 12);
        assert_eq!(path.blame.breaker_dwell, 12);
        assert_eq!(path.longest_pole, BlameEdge::BreakerDwell);
    }

    #[test]
    fn span_ids_are_deterministic_and_nonzero() {
        assert_eq!(span_id(0, 1, 2, 3), span_id(0, 1, 2, 3));
        assert_ne!(span_id(0, 1, 2, 3), span_id(0, 1, 2, 4));
        assert_ne!(span_id(0, 1, 2, 3), 0);
    }

    #[test]
    fn metrics_families_register_even_when_quiet() {
        let mut tracer = CausalTracer::new();
        let mut s = served_sketch();
        s.deadline = 100; // not missed
        tracer.record(&s);
        let mut reg = MetricsRegistry::new();
        record_causal_metrics(&mut reg, &tracer);
        let prom = reg.to_prometheus();
        assert!(prom.contains("critical_path_requests_total 0"));
        assert!(prom.contains("service_queue_wait_ticks_bucket"));
    }
}
