//! Structured, deterministic event tracing.
//!
//! A trace is a set of [`TraceEvent`]s, each a typed [`Event`] stamped
//! with a *logical* clock position: the tick it happened on, the lane
//! (worker / subsystem) that recorded it, and a per-lane sequence
//! number. Workers record into their own [`TraceBuffer`] — plain owned
//! `Vec` pushes, no locks, no atomics — and the buffers are merged by
//! sorting on `(tick, lane, seq)`. Because every component of the sort
//! key is a pure function of logical state (never of scheduling), the
//! merged trace is bit-identical for any thread budget.
//!
//! Wall-clock time never appears here.

use serde::{Deserialize, Serialize};

/// What the supervisor decided to do about a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanAction {
    /// Re-dispatch the trial (budget remaining).
    Retry,
    /// Abandon the trial (budget exhausted).
    GiveUp,
}

/// One typed telemetry event. Variants cover all four instrumented
/// layers: the supervised Monte Carlo runtime, the DCSP verification
/// engine, the serving layer, and the bench drivers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A trial failed an attempt and was re-dispatched by the
    /// supervisor (runtime layer).
    TrialRetried {
        /// Trial index within its stream.
        trial: u64,
        /// The attempt that failed (0-based).
        attempt: u32,
    },
    /// A trial exhausted its retry budget and was dropped from the
    /// fold (runtime layer).
    TrialLost {
        /// Trial index within its stream.
        trial: u64,
        /// Failure cause label (`FailureCause` display form).
        cause: String,
    },
    /// A MAPE-K *plan* step: what the supervisor decided after
    /// analyzing a failed attempt (runtime layer).
    SupervisorPlan {
        /// Trial index within its stream.
        trial: u64,
        /// Failures observed for this trial so far.
        failures: u32,
        /// The planned action.
        action: PlanAction,
    },
    /// A circuit breaker changed state (service layer).
    BreakerTransition {
        /// Family index.
        family: u32,
        /// State before (display form: `closed`/`open`/`half-open`).
        from: String,
        /// State after.
        to: String,
    },
    /// The brownout dimmer moved to a new level (service layer).
    BrownoutLevelChange {
        /// New level (0 = full, 1 = reduced, 2 = cached-only).
        level: u8,
    },
    /// A request passed admission control onto a bulkhead (service
    /// layer).
    RequestAdmitted {
        /// Request id.
        id: u64,
        /// Family index.
        family: u32,
        /// Fidelity admitted at (`full`/`reduced`).
        fidelity: String,
    },
    /// A request was served (service layer).
    RequestServed {
        /// Request id.
        id: u64,
        /// Family index.
        family: u32,
        /// Fidelity served at (`full`/`reduced`/`cached`).
        fidelity: String,
        /// Logical ticks from arrival to adjudication.
        latency: u64,
    },
    /// A request was shed at admission (service layer).
    RequestShed {
        /// Request id.
        id: u64,
        /// Family index.
        family: u32,
        /// Shed reason label.
        reason: String,
    },
    /// A request failed hard — degradation off only (service layer).
    RequestFailed {
        /// Request id.
        id: u64,
        /// Family index.
        family: u32,
        /// Failure cause label.
        cause: String,
    },
    /// A request was answered from the precomputed cache table
    /// (service layer).
    CacheHit {
        /// Family index.
        family: u32,
    },
    /// A request missed the cache and ran the backend computation
    /// (service layer).
    CacheMiss {
        /// Family index.
        family: u32,
    },
    /// A bulkhead's queue occupancy changed (service layer; emitted on
    /// change, not per tick, to keep traces compact).
    BulkheadOccupancy {
        /// Family index.
        family: u32,
        /// Jobs queued after the change.
        queued: u32,
        /// Queue capacity.
        capacity: u32,
    },
    /// One backward-BFS level of the maintainability model checker
    /// (DCSP layer).
    FrontierLevel {
        /// BFS depth (0 = the normal states themselves).
        depth: u32,
        /// States first reached at this depth.
        states: u64,
    },
    /// Transposition-cache summary of one verification run (DCSP
    /// layer; per-probe events would dwarf the trace, so the engine
    /// reports rank-ordered aggregate counts).
    VerifierCacheSummary {
        /// Memo probes that hit a finished entry.
        hits: u64,
        /// Memo probes that missed.
        misses: u64,
        /// Damage cases evaluated.
        states: u64,
    },
    /// A cascade ran to quiescence (cluster layer). Shed load is in
    /// milli-units so the streamed JSON fast path stays integer-only.
    ClusterCascade {
        /// Nodes dead at the trigger (exogenous kills plus surge
        /// overloads).
        trigger: u64,
        /// Nodes toppled by overload during propagation.
        toppled: u64,
        /// Propagation waves until quiescence.
        waves: u32,
        /// Load dropped from the system, in milli-units.
        shed_milli: u64,
    },
    /// Cross-node recovery summary of a cluster run (cluster layer).
    ClusterRecovery {
        /// Nodes revived by the MAPE-K supervisor.
        revived: u64,
        /// Nodes dead for good (retry budget exhausted or condemned).
        lost: u64,
    },
    /// Prescribed-burn summary of a cluster run (cluster layer).
    ClusterBurn {
        /// Burn firings.
        burns: u64,
        /// Nodes relieved across all burns.
        nodes: u64,
        /// Excess load removed, in milli-units.
        relieved_milli: u64,
    },
    /// The early-warning composite score changed (anticipation layer;
    /// emitted on change, not per tick, to keep traces compact).
    WarningScore {
        /// Composite warning score in milli-units (0–1000).
        score_milli: u64,
    },
    /// The anticipation loop switched operating mode (anticipation
    /// layer).
    ModeTransition {
        /// Mode left (display form: `normal`/`alert`/`emergency`).
        from: String,
        /// Mode entered.
        to: String,
        /// Warning score at the switch, in milli-units.
        score_milli: u64,
    },
    /// Per-tick census of cluster node operating modes (cluster layer;
    /// emitted on change only).
    ClusterModeCensus {
        /// Nodes in Alert.
        alert: u64,
        /// Nodes in Emergency.
        emergency: u64,
    },
    /// The replica router dispatched a request's primary attempt
    /// (replication layer).
    ReplicaRouted {
        /// Request id.
        id: u64,
        /// Family index.
        family: u32,
        /// Replica chosen as primary.
        replica: u32,
    },
    /// A hedge attempt was launched against a second replica
    /// (replication layer).
    HedgeLaunched {
        /// Request id.
        id: u64,
        /// Family index.
        family: u32,
        /// Replica the hedge runs on.
        replica: u32,
    },
    /// A hedge attempt beat the primary; the loser's unfinished work
    /// was reclaimed (replication layer).
    HedgeWon {
        /// Request id.
        id: u64,
        /// Family index.
        family: u32,
        /// Replica whose hedge won.
        replica: u32,
        /// Work units reclaimed from the cancelled loser.
        reclaimed: u64,
    },
    /// A request failed over from a dead replica to a spare
    /// (replication layer).
    ReplicaFailover {
        /// Request id.
        id: u64,
        /// Family index.
        family: u32,
        /// Replica that failed.
        from_replica: u32,
        /// Replica the retry was dispatched to.
        to_replica: u32,
    },
    /// A hedge or failover was rejected because the family's retry
    /// budget had no whole token (replication layer).
    RetryBudgetExhausted {
        /// Family index.
        family: u32,
        /// What was rejected: `hedge` or `failover`.
        kind: String,
    },
    /// The incident flight recorder snapshotted its lane rings
    /// (observability layer).
    IncidentSnapshot {
        /// What tripped the recorder: `mode-escalation`,
        /// `cascade-onset`, or `trial-loss`.
        trigger: String,
        /// Tick the trigger fired on its own clock.
        trigger_tick: u64,
        /// Request ids captured from the rings.
        captured: u64,
    },
}

/// An [`Event`] stamped with its logical position. The triple
/// `(tick, lane, seq)` is the total order of the merged trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Logical tick the event happened on (trial attempt number,
    /// service tick, or BFS depth — whatever the layer's clock is).
    pub tick: u64,
    /// Recording lane: a worker id or a subsystem id. Lanes only
    /// disambiguate concurrent recorders; they carry no wall-time.
    pub lane: u32,
    /// Per-lane monotonic sequence number.
    pub seq: u32,
    /// The event itself.
    pub event: Event,
}

impl TraceEvent {
    /// The deterministic merge key.
    pub fn key(&self) -> (u64, u32, u32) {
        (self.tick, self.lane, self.seq)
    }
}

/// A per-worker event buffer: owned by exactly one recorder, so pushes
/// are plain `Vec` appends — no locks on the hot path.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    lane: u32,
    next_seq: u32,
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// An empty buffer recording on `lane`.
    pub fn new(lane: u32) -> Self {
        TraceBuffer {
            lane,
            next_seq: 0,
            events: Vec::new(),
        }
    }

    /// The buffer's lane id.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Record `event` at logical `tick`. Events within a lane must be
    /// recorded in non-decreasing tick order for the merged trace to be
    /// totally ordered; the recorder's own logical clock guarantees
    /// this at every call site.
    pub fn record(&mut self, tick: u64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(TraceEvent {
            tick,
            lane: self.lane,
            seq,
            event,
        });
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The trace collector: hands out per-worker [`TraceBuffer`]s, absorbs
/// them back, and produces the deterministically merged event list.
#[derive(Debug, Default)]
pub struct Tracer {
    absorbed: Vec<TraceEvent>,
    /// Lane 0: the single-threaded recorder used by tick loops and
    /// post-run derivations.
    root: Option<TraceBuffer>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Tracer {
            absorbed: Vec::new(),
            root: Some(TraceBuffer::new(0)),
        }
    }

    /// Record on the tracer's own lane 0 (for single-threaded call
    /// sites: tick loops, post-run log walks).
    pub fn record(&mut self, tick: u64, event: Event) {
        self.root
            .get_or_insert_with(|| TraceBuffer::new(0))
            .record(tick, event);
    }

    /// A fresh buffer for worker `lane` (lane 0 is reserved for
    /// [`Tracer::record`]).
    pub fn lane_buffer(&self, lane: u32) -> TraceBuffer {
        TraceBuffer::new(lane)
    }

    /// Fold a worker's finished buffer back into the trace.
    pub fn absorb(&mut self, buffer: TraceBuffer) {
        self.absorbed.extend(buffer.events);
    }

    /// Total events recorded so far.
    pub fn len(&self) -> usize {
        self.absorbed.len() + self.root.as_ref().map_or(0, TraceBuffer::len)
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The merged trace, sorted by `(tick, lane, seq)` — bit-identical
    /// for any assignment of work to lanes as long as each lane's
    /// logical content is unchanged.
    pub fn merged(&self) -> Vec<TraceEvent> {
        let mut all = self.absorbed.clone();
        if let Some(root) = &self.root {
            all.extend(root.events.iter().cloned());
        }
        all.sort_by_key(TraceEvent::key);
        all
    }

    /// The merged trace rendered as deterministic compact JSON (one
    /// trailing newline), the `--trace-out` format. Compact, not
    /// pretty: traces are large machine-read artifacts, and rendering
    /// them is on the overhead budget `bench_smoke telemetry` enforces.
    ///
    /// Events are streamed straight into the output string instead of
    /// going through an intermediate `Value` tree — byte-identical to
    /// `serde_json::to_string` of the merged trace (pinned by test),
    /// at a fraction of the allocation traffic.
    pub fn to_json(&self) -> String {
        let merged = self.merged();
        let mut out = String::with_capacity(merged.len() * 128 + 16);
        if merged.is_empty() {
            out.push_str("[]");
        } else {
            out.push('[');
            for (i, ev) in merged.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_event_json(&mut out, ev);
            }
            out.push(']');
        }
        out.push('\n');
        out
    }
}

/// Stream one [`TraceEvent`] as compact JSON, byte-identical to the
/// generic `serde_json::to_string` rendering of its `Serialize` tree
/// (same field order, same escaping — the
/// `streamed_json_matches_the_generic_serializer` test pins this).
fn write_event_json(out: &mut String, ev: &TraceEvent) {
    use serde_json::{write_json_string as jstr, write_json_u64 as ju64};
    out.push_str("{\"tick\":");
    ju64(out, ev.tick);
    out.push_str(",\"lane\":");
    ju64(out, ev.lane as u64);
    out.push_str(",\"seq\":");
    ju64(out, ev.seq as u64);
    out.push_str(",\"event\":");
    match &ev.event {
        Event::TrialRetried { trial, attempt } => {
            out.push_str("{\"TrialRetried\":{\"trial\":");
            ju64(out, *trial);
            out.push_str(",\"attempt\":");
            ju64(out, *attempt as u64);
            out.push_str("}}");
        }
        Event::TrialLost { trial, cause } => {
            out.push_str("{\"TrialLost\":{\"trial\":");
            ju64(out, *trial);
            out.push_str(",\"cause\":");
            jstr(out, cause);
            out.push_str("}}");
        }
        Event::SupervisorPlan {
            trial,
            failures,
            action,
        } => {
            out.push_str("{\"SupervisorPlan\":{\"trial\":");
            ju64(out, *trial);
            out.push_str(",\"failures\":");
            ju64(out, *failures as u64);
            out.push_str(",\"action\":");
            jstr(
                out,
                match action {
                    PlanAction::Retry => "Retry",
                    PlanAction::GiveUp => "GiveUp",
                },
            );
            out.push_str("}}");
        }
        Event::BreakerTransition { family, from, to } => {
            out.push_str("{\"BreakerTransition\":{\"family\":");
            ju64(out, *family as u64);
            out.push_str(",\"from\":");
            jstr(out, from);
            out.push_str(",\"to\":");
            jstr(out, to);
            out.push_str("}}");
        }
        Event::BrownoutLevelChange { level } => {
            out.push_str("{\"BrownoutLevelChange\":{\"level\":");
            ju64(out, *level as u64);
            out.push_str("}}");
        }
        Event::RequestAdmitted {
            id,
            family,
            fidelity,
        } => {
            out.push_str("{\"RequestAdmitted\":{\"id\":");
            ju64(out, *id);
            out.push_str(",\"family\":");
            ju64(out, *family as u64);
            out.push_str(",\"fidelity\":");
            jstr(out, fidelity);
            out.push_str("}}");
        }
        Event::RequestServed {
            id,
            family,
            fidelity,
            latency,
        } => {
            out.push_str("{\"RequestServed\":{\"id\":");
            ju64(out, *id);
            out.push_str(",\"family\":");
            ju64(out, *family as u64);
            out.push_str(",\"fidelity\":");
            jstr(out, fidelity);
            out.push_str(",\"latency\":");
            ju64(out, *latency);
            out.push_str("}}");
        }
        Event::RequestShed { id, family, reason } => {
            out.push_str("{\"RequestShed\":{\"id\":");
            ju64(out, *id);
            out.push_str(",\"family\":");
            ju64(out, *family as u64);
            out.push_str(",\"reason\":");
            jstr(out, reason);
            out.push_str("}}");
        }
        Event::RequestFailed { id, family, cause } => {
            out.push_str("{\"RequestFailed\":{\"id\":");
            ju64(out, *id);
            out.push_str(",\"family\":");
            ju64(out, *family as u64);
            out.push_str(",\"cause\":");
            jstr(out, cause);
            out.push_str("}}");
        }
        Event::CacheHit { family } => {
            out.push_str("{\"CacheHit\":{\"family\":");
            ju64(out, *family as u64);
            out.push_str("}}");
        }
        Event::CacheMiss { family } => {
            out.push_str("{\"CacheMiss\":{\"family\":");
            ju64(out, *family as u64);
            out.push_str("}}");
        }
        Event::BulkheadOccupancy {
            family,
            queued,
            capacity,
        } => {
            out.push_str("{\"BulkheadOccupancy\":{\"family\":");
            ju64(out, *family as u64);
            out.push_str(",\"queued\":");
            ju64(out, *queued as u64);
            out.push_str(",\"capacity\":");
            ju64(out, *capacity as u64);
            out.push_str("}}");
        }
        Event::FrontierLevel { depth, states } => {
            out.push_str("{\"FrontierLevel\":{\"depth\":");
            ju64(out, *depth as u64);
            out.push_str(",\"states\":");
            ju64(out, *states);
            out.push_str("}}");
        }
        Event::VerifierCacheSummary {
            hits,
            misses,
            states,
        } => {
            out.push_str("{\"VerifierCacheSummary\":{\"hits\":");
            ju64(out, *hits);
            out.push_str(",\"misses\":");
            ju64(out, *misses);
            out.push_str(",\"states\":");
            ju64(out, *states);
            out.push_str("}}");
        }
        Event::ClusterCascade {
            trigger,
            toppled,
            waves,
            shed_milli,
        } => {
            out.push_str("{\"ClusterCascade\":{\"trigger\":");
            ju64(out, *trigger);
            out.push_str(",\"toppled\":");
            ju64(out, *toppled);
            out.push_str(",\"waves\":");
            ju64(out, *waves as u64);
            out.push_str(",\"shed_milli\":");
            ju64(out, *shed_milli);
            out.push_str("}}");
        }
        Event::ClusterRecovery { revived, lost } => {
            out.push_str("{\"ClusterRecovery\":{\"revived\":");
            ju64(out, *revived);
            out.push_str(",\"lost\":");
            ju64(out, *lost);
            out.push_str("}}");
        }
        Event::ClusterBurn {
            burns,
            nodes,
            relieved_milli,
        } => {
            out.push_str("{\"ClusterBurn\":{\"burns\":");
            ju64(out, *burns);
            out.push_str(",\"nodes\":");
            ju64(out, *nodes);
            out.push_str(",\"relieved_milli\":");
            ju64(out, *relieved_milli);
            out.push_str("}}");
        }
        Event::WarningScore { score_milli } => {
            out.push_str("{\"WarningScore\":{\"score_milli\":");
            ju64(out, *score_milli);
            out.push_str("}}");
        }
        Event::ModeTransition {
            from,
            to,
            score_milli,
        } => {
            out.push_str("{\"ModeTransition\":{\"from\":");
            jstr(out, from);
            out.push_str(",\"to\":");
            jstr(out, to);
            out.push_str(",\"score_milli\":");
            ju64(out, *score_milli);
            out.push_str("}}");
        }
        Event::ClusterModeCensus { alert, emergency } => {
            out.push_str("{\"ClusterModeCensus\":{\"alert\":");
            ju64(out, *alert);
            out.push_str(",\"emergency\":");
            ju64(out, *emergency);
            out.push_str("}}");
        }
        Event::ReplicaRouted {
            id,
            family,
            replica,
        } => {
            out.push_str("{\"ReplicaRouted\":{\"id\":");
            ju64(out, *id);
            out.push_str(",\"family\":");
            ju64(out, *family as u64);
            out.push_str(",\"replica\":");
            ju64(out, *replica as u64);
            out.push_str("}}");
        }
        Event::HedgeLaunched {
            id,
            family,
            replica,
        } => {
            out.push_str("{\"HedgeLaunched\":{\"id\":");
            ju64(out, *id);
            out.push_str(",\"family\":");
            ju64(out, *family as u64);
            out.push_str(",\"replica\":");
            ju64(out, *replica as u64);
            out.push_str("}}");
        }
        Event::HedgeWon {
            id,
            family,
            replica,
            reclaimed,
        } => {
            out.push_str("{\"HedgeWon\":{\"id\":");
            ju64(out, *id);
            out.push_str(",\"family\":");
            ju64(out, *family as u64);
            out.push_str(",\"replica\":");
            ju64(out, *replica as u64);
            out.push_str(",\"reclaimed\":");
            ju64(out, *reclaimed);
            out.push_str("}}");
        }
        Event::ReplicaFailover {
            id,
            family,
            from_replica,
            to_replica,
        } => {
            out.push_str("{\"ReplicaFailover\":{\"id\":");
            ju64(out, *id);
            out.push_str(",\"family\":");
            ju64(out, *family as u64);
            out.push_str(",\"from_replica\":");
            ju64(out, *from_replica as u64);
            out.push_str(",\"to_replica\":");
            ju64(out, *to_replica as u64);
            out.push_str("}}");
        }
        Event::RetryBudgetExhausted { family, kind } => {
            out.push_str("{\"RetryBudgetExhausted\":{\"family\":");
            ju64(out, *family as u64);
            out.push_str(",\"kind\":");
            jstr(out, kind);
            out.push_str("}}");
        }
        Event::IncidentSnapshot {
            trigger,
            trigger_tick,
            captured,
        } => {
            out.push_str("{\"IncidentSnapshot\":{\"trigger\":");
            jstr(out, trigger);
            out.push_str(",\"trigger_tick\":");
            ju64(out, *trigger_tick);
            out.push_str(",\"captured\":");
            ju64(out, *captured);
            out.push_str("}}");
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trial: u64, attempt: u32) -> Event {
        Event::TrialRetried { trial, attempt }
    }

    /// One event of every variant, with strings that exercise escaping.
    fn one_of_each() -> Vec<Event> {
        vec![
            Event::TrialRetried {
                trial: 7,
                attempt: 2,
            },
            Event::TrialLost {
                trial: u64::MAX,
                cause: "panicked: \"boom\"\n\ttab\\slash".to_string(),
            },
            Event::SupervisorPlan {
                trial: 3,
                failures: 1,
                action: PlanAction::Retry,
            },
            Event::SupervisorPlan {
                trial: 4,
                failures: 9,
                action: PlanAction::GiveUp,
            },
            Event::BreakerTransition {
                family: 0,
                from: "closed".to_string(),
                to: "open".to_string(),
            },
            Event::BrownoutLevelChange { level: 2 },
            Event::RequestAdmitted {
                id: 10,
                family: 1,
                fidelity: "full".to_string(),
            },
            Event::RequestServed {
                id: 11,
                family: 1,
                fidelity: "reduced".to_string(),
                latency: 5,
            },
            Event::RequestShed {
                id: 12,
                family: 2,
                reason: "queue-full".to_string(),
            },
            Event::RequestFailed {
                id: 13,
                family: 3,
                cause: "\u{1} control".to_string(),
            },
            Event::CacheHit { family: 4 },
            Event::CacheMiss { family: 5 },
            Event::BulkheadOccupancy {
                family: 6,
                queued: 3,
                capacity: 16,
            },
            Event::FrontierLevel {
                depth: 0,
                states: 64,
            },
            Event::VerifierCacheSummary {
                hits: 100,
                misses: 50,
                states: 75,
            },
            Event::ClusterCascade {
                trigger: 40,
                toppled: 17,
                waves: 3,
                shed_milli: 12_500,
            },
            Event::ClusterRecovery {
                revived: 30,
                lost: 4,
            },
            Event::ClusterBurn {
                burns: 5,
                nodes: 60,
                relieved_milli: 9_001,
            },
            Event::WarningScore { score_milli: 437 },
            Event::ModeTransition {
                from: "normal".to_string(),
                to: "alert".to_string(),
                score_milli: 512,
            },
            Event::ClusterModeCensus {
                alert: 12,
                emergency: 3,
            },
            Event::ReplicaRouted {
                id: 21,
                family: 1,
                replica: 0,
            },
            Event::HedgeLaunched {
                id: 21,
                family: 1,
                replica: 2,
            },
            Event::HedgeWon {
                id: 21,
                family: 1,
                replica: 2,
                reclaimed: 17,
            },
            Event::ReplicaFailover {
                id: 22,
                family: 3,
                from_replica: 1,
                to_replica: 0,
            },
            Event::RetryBudgetExhausted {
                family: 2,
                kind: "hedge".to_string(),
            },
            Event::IncidentSnapshot {
                trigger: "mode-escalation".to_string(),
                trigger_tick: 41,
                captured: 64,
            },
        ]
    }

    #[test]
    fn streamed_json_matches_the_generic_serializer() {
        let mut tracer = Tracer::new();
        for (i, event) in one_of_each().into_iter().enumerate() {
            tracer.record(i as u64, event);
        }
        let generic =
            serde_json::to_string(&tracer.merged()).expect("trace serializes generically");
        assert_eq!(
            tracer.to_json(),
            format!("{generic}\n"),
            "streamed rendering must be byte-identical to the derive path"
        );
        assert_eq!(Tracer::new().to_json(), "[]\n");
    }

    #[test]
    fn merge_is_partition_invariant() {
        // The same logical events recorded through 1 lane vs split
        // across 3 lanes in scrambled absorb order merge identically
        // when lane assignment is itself logical (here: trial % lanes).
        let mut one = Tracer::new();
        let mut buf = one.lane_buffer(1);
        for t in 0..30u64 {
            buf.record(t / 3, ev(t, 0));
        }
        one.absorb(buf);

        let mut three = Tracer::new();
        let mut bufs: Vec<TraceBuffer> = (1..=1).map(|l| three.lane_buffer(l)).collect();
        for t in 0..30u64 {
            bufs[0].record(t / 3, ev(t, 0));
        }
        for b in bufs.into_iter().rev() {
            three.absorb(b);
        }
        assert_eq!(one.to_json(), three.to_json());
    }

    #[test]
    fn merge_orders_by_tick_then_lane_then_seq() {
        let mut tr = Tracer::new();
        let mut a = tr.lane_buffer(2);
        a.record(5, ev(0, 0));
        a.record(7, ev(1, 0));
        let mut b = tr.lane_buffer(1);
        b.record(5, ev(2, 0));
        b.record(6, ev(3, 0));
        tr.absorb(a);
        tr.absorb(b);
        tr.record(5, ev(4, 0));
        let keys: Vec<_> = tr.merged().iter().map(TraceEvent::key).collect();
        assert_eq!(
            keys,
            vec![(5, 0, 0), (5, 1, 0), (5, 2, 0), (6, 1, 1), (7, 2, 1)]
        );
    }

    #[test]
    fn json_round_trips() {
        let mut tr = Tracer::new();
        tr.record(
            3,
            Event::RequestShed {
                id: 9,
                family: 1,
                reason: "queue-full".to_string(),
            },
        );
        let json = tr.to_json();
        let back: Vec<TraceEvent> = serde_json::from_str(json.trim()).expect("trace parses");
        assert_eq!(back, tr.merged());
    }
}
