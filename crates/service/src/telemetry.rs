//! Deriving a traced serve's telemetry after the run.
//!
//! The tick loop never touches a [`Telemetry`]. A traced serve keeps a
//! compact decision record of what the report does not carry — which
//! attempts were dispatched and which died, which retries the budget
//! refused, how each request settled, and how the queues moved. After
//! the run the record is folded, together with the report's
//! tick-stamped breaker, brownout, mode and warning-score histories,
//! into the tracer, the trajectory observer, the causal tracer and the
//! flight recorder. Within a tick the fold keeps the loop's order:
//! decisions, breaker transitions, brownout moves, mode transitions
//! with their incidents, the warning score, then queue occupancy. The
//! fold is a pure function of the record and the report, so every
//! exposition is as deterministic as the report itself.

use resilience_telemetry::causal::{AttemptKind, AttemptSketch, RequestSketch, SketchOutcome};
use resilience_telemetry::{
    record_causal_metrics, record_incident_metrics, DeficitCause, Event, MetricsRegistry,
    Telemetry, TriggerKind,
};

use crate::engine::{Attempt, Resolution, ServiceConfig, ServiceReport};
use crate::request::{Disposition, Fidelity, RequestTrace};

/// One decision of the tick loop that the report does not carry.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Note {
    /// An attempt of request `id` entered its replica's queue.
    Dispatched { id: u64, attempt: Attempt },
    /// The attempt of request `id` on `replica` died.
    Died { id: u64, replica: u32 },
    /// Family `fam`'s retry budget refused a hedge or a failover.
    Refused { fam: usize, kind: AttemptKind },
    /// Request `id` settled under its effective `deadline`, charging
    /// `penalty` to the tick's deficit.
    Settled {
        id: u64,
        deadline: u64,
        penalty: f64,
        how: Resolution,
    },
    /// Family `fam`'s queued depth, summed over its replicas, changed.
    Queued {
        fam: usize,
        queued: usize,
        capacity: usize,
    },
}

/// A traced serve's decisions as `(tick, note)`, in the order the loop
/// made them.
#[derive(Debug)]
pub(crate) struct DecisionRecord {
    notes: Vec<(u64, Note)>,
    /// Last noted queued depth per family: depth notes are kept on
    /// change only.
    depths: Vec<Option<usize>>,
}

impl DecisionRecord {
    pub(crate) fn new(families: usize) -> Self {
        DecisionRecord {
            notes: Vec::new(),
            depths: vec![None; families],
        }
    }

    pub(crate) fn push(&mut self, tick: u64, note: Note) {
        self.notes.push((tick, note));
    }

    /// Note family `fam`'s end-of-tick queued depth if it changed.
    pub(crate) fn queue_depth(&mut self, tick: u64, fam: usize, queued: usize, capacity: usize) {
        if self.depths[fam].replace(queued) != Some(queued) {
            let note = Note::Queued {
                fam,
                queued,
                capacity,
            };
            self.push(tick, note);
        }
    }
}

/// An attempt the fold tracks until its request settles.
struct Open {
    attempt: Attempt,
    /// Tick the attempt entered its queue.
    enqueued: u64,
    /// Tick its backend died, if it did.
    died: Option<u64>,
}

impl Open {
    /// Whether this is the still-live attempt on `replica`.
    fn live_on(&self, replica: u32) -> bool {
        self.died.is_none() && self.attempt.replica == replica
    }
}

/// The fold's state between notes.
struct Fold<'a> {
    tel: &'a mut Telemetry,
    report: &'a ServiceReport,
    trace: &'a RequestTrace,
    rate: u64,
    /// Attempts of each unsettled request, by request id.
    open: Vec<Vec<Open>>,
    /// Replica of the latest death: a failover note always follows the
    /// death it replaces.
    last_died: u32,
}

/// Fold a traced serve's decision record and report into `tel`, then
/// register the service, causal and incident metric families.
pub(crate) fn fold(
    tel: &mut Telemetry,
    cfg: &ServiceConfig,
    trace: &RequestTrace,
    report: &ServiceReport,
    record: &DecisionRecord,
) {
    let mut fold = Fold {
        tel,
        report,
        trace,
        rate: cfg.rate_per_server,
        open: (0..trace.len()).map(|_| Vec::new()).collect(),
        last_died: 0,
    };
    let mut rest = &record.notes[..];
    let mut breakers = vec![0; report.breaker_transitions.len()];
    let (mut brownout, mut modes) = (0, 0);
    let mut last_warning = None;
    for tick in 0..report.ticks {
        let (now, later) = rest.split_at(rest.partition_point(|&(t, _)| t == tick));
        rest = later;
        // Occupancy notes close the tick, after the state machines.
        let split = now.partition_point(|(_, n)| !matches!(n, Note::Queued { .. }));
        let mut adjudicated = 0;
        for &(_, note) in &now[..split] {
            adjudicated += u64::from(fold.decision(tick, note));
        }
        let tel = &mut *fold.tel;
        let mut record = |event| tel.tracer.record(tick, event);
        for (fam, (seen, all)) in breakers
            .iter_mut()
            .zip(&report.breaker_transitions)
            .enumerate()
        {
            for t in all[*seen..].iter().take_while(|t| t.tick <= tick) {
                record(Event::BreakerTransition {
                    family: fam as u32,
                    from: t.from.to_string(),
                    to: t.to.to_string(),
                });
                *seen += 1;
            }
        }
        for &(_, level) in report.brownout_history[brownout..]
            .iter()
            .take_while(|&&(t, _)| t <= tick)
        {
            record(Event::BrownoutLevelChange { level });
            brownout += 1;
        }
        for t in report.mode_transitions[modes..]
            .iter()
            .take_while(|t| t.tick <= tick)
        {
            record(Event::ModeTransition {
                from: t.from.to_string(),
                to: t.to.to_string(),
                score_milli: t.score_milli,
            });
            if t.is_escalation() {
                // Emergency escalation trips the flight recorder at the
                // transition's own tick.
                let trigger = TriggerKind::ModeEscalation;
                let detail = format!("{}->{}", t.from, t.to);
                let captured = tel
                    .incidents
                    .trigger(t.tick, trigger, t.score_milli, detail);
                record(Event::IncidentSnapshot {
                    trigger: trigger.as_str().to_string(),
                    trigger_tick: t.tick,
                    captured,
                });
            }
            modes += 1;
        }
        if let Some(&score_milli) = report.warning_scores.get(tick as usize) {
            if last_warning.replace(score_milli) != Some(score_milli) {
                record(Event::WarningScore { score_milli });
            }
        }
        for &(_, note) in &now[split..] {
            fold.decision(tick, note);
        }
        // The observer was charged in the engine's own settle order, so
        // its sample is bit-identical to the report's.
        let observed = fold.tel.trajectory.end_tick(adjudicated);
        debug_assert_eq!(
            observed.to_bits(),
            report.quality.samples()[tick as usize].to_bits()
        );
    }
    debug_assert!(rest.is_empty(), "every note folded");

    let tel = fold.tel;
    record_service_metrics(&mut tel.metrics, report);
    if !tel.causal.is_empty() {
        record_causal_metrics(&mut tel.metrics, &tel.causal);
        let incidents = tel.incidents.finalize(&tel.causal, &report.warning_scores);
        record_incident_metrics(&mut tel.metrics, &incidents);
    }
}

impl Fold<'_> {
    /// Fold one note of `tick`; true when it settled a request.
    fn decision(&mut self, tick: u64, note: Note) -> bool {
        let mut record = |event| self.tel.tracer.record(tick, event);
        match note {
            Note::Dispatched { id, attempt } => {
                let family = self.report.outcomes[slot(id)].family as u32;
                let replica = attempt.replica;
                match attempt.kind {
                    AttemptKind::Primary => {
                        if self.report.replication_active() {
                            record(Event::ReplicaRouted {
                                id,
                                family,
                                replica,
                            });
                        }
                        let fidelity = attempt.fidelity.to_string();
                        record(Event::RequestAdmitted {
                            id,
                            family,
                            fidelity,
                        });
                    }
                    AttemptKind::Hedge => record(Event::HedgeLaunched {
                        id,
                        family,
                        replica,
                    }),
                    AttemptKind::Failover => record(Event::ReplicaFailover {
                        id,
                        family,
                        from_replica: self.last_died,
                        to_replica: replica,
                    }),
                }
                self.open[slot(id)].push(Open {
                    attempt,
                    enqueued: tick,
                    died: None,
                });
            }
            Note::Died { id, replica } => {
                if let Some(o) = self.open[slot(id)].iter_mut().find(|o| o.live_on(replica)) {
                    o.died = Some(tick);
                }
                self.last_died = replica;
            }
            Note::Refused { fam, kind } => {
                let kind = match kind {
                    AttemptKind::Hedge => "hedge",
                    _ => "failover",
                };
                let (family, kind) = (fam as u32, kind.to_string());
                record(Event::RetryBudgetExhausted { family, kind });
            }
            Note::Settled {
                id,
                deadline,
                penalty,
                how,
            } => {
                self.settle(tick, id, deadline, penalty, how);
                return true;
            }
            Note::Queued {
                fam,
                queued,
                capacity,
            } => record(Event::BulkheadOccupancy {
                family: fam as u32,
                queued: queued as u32,
                capacity: capacity as u32,
            }),
        }
        false
    }

    /// Record a settled request's events, trajectory charge, causal
    /// sketch over every attempt it ran, and flight-recorder sighting.
    fn settle(&mut self, tick: u64, id: u64, deadline: u64, penalty: f64, how: Resolution) {
        let family = self.report.outcomes[slot(id)].family as u32;
        let attempts = std::mem::take(&mut self.open[slot(id)]);
        let tel = &mut *self.tel;
        let mut record = |event| tel.tracer.record(tick, event);
        let (winner, gate) = match how {
            Resolution::Admission(gate) => (None, gate),
            Resolution::Won { replica, reclaimed } => {
                let winner = attempts.iter().find(|o| o.live_on(replica));
                if winner.is_some_and(|o| o.attempt.kind == AttemptKind::Hedge) {
                    record(Event::HedgeWon {
                        id,
                        family,
                        replica,
                        reclaimed,
                    });
                }
                (Some(replica), None)
            }
            Resolution::Fallback => (None, None),
        };
        let (cause, outcome) = match &self.report.outcomes[slot(id)].disposition {
            &Disposition::Served {
                fidelity, latency, ..
            } => {
                record(Event::RequestServed {
                    id,
                    family,
                    fidelity: fidelity.to_string(),
                    latency,
                });
                record(match fidelity {
                    Fidelity::Cached => Event::CacheHit { family },
                    _ => Event::CacheMiss { family },
                });
                let fidelity = fidelity.to_string();
                let fallback = matches!(how, Resolution::Fallback);
                let outcome = SketchOutcome::Served {
                    fidelity,
                    latency,
                    fallback,
                };
                (DeficitCause::Degraded, outcome)
            }
            Disposition::Shed { reason } => {
                let reason = reason.to_string();
                let event = Event::RequestShed {
                    id,
                    family,
                    reason: reason.clone(),
                };
                record(event);
                (DeficitCause::Shed, SketchOutcome::Shed { reason })
            }
            Disposition::Failed { cause } => {
                let event = Event::RequestFailed {
                    id,
                    family,
                    cause: cause.clone(),
                };
                record(event);
                let cause = cause.clone();
                (DeficitCause::Failed, SketchOutcome::Failed { cause })
            }
        };
        tel.trajectory.charge(cause, penalty);
        // Dead attempts failed at their death tick, the winner won now,
        // a cancelled loser carries no completion tick.
        let mut sketches: Vec<AttemptSketch> = attempts
            .iter()
            .map(|o| {
                let won = winner.is_some_and(|r| o.live_on(r));
                AttemptSketch {
                    replica: o.attempt.replica,
                    kind: o.attempt.kind,
                    enqueued: o.enqueued,
                    base_work: o.attempt.base_work,
                    work: o.attempt.work,
                    rate: self.rate,
                    completed: if won { Some(tick) } else { o.died },
                    won,
                    failed: o.died.is_some(),
                }
            })
            .collect();
        sketches.sort_by_key(|a| (a.enqueued, a.replica));
        tel.causal.record(&RequestSketch {
            trial: 0,
            id,
            family,
            arrival: self.trace.requests[slot(id)].arrival,
            deadline,
            decided_at: tick,
            outcome,
            attempts: sketches,
            gate,
        });
        tel.incidents.observe(family, id);
    }
}

/// Register the service-layer metric families for `report` in
/// `registry`. Called by [`crate::ServiceEngine::serve_traced`] after the run;
/// public so drivers can score an existing report into a shared
/// registry. All values are pure functions of the report, so the
/// exposition is as deterministic as the report itself.
pub fn record_service_metrics(registry: &mut MetricsRegistry, report: &ServiceReport) {
    registry.inc_counter(
        "service_requests_total",
        "Requests adjudicated by the serving layer",
        report.total(),
    );
    registry.inc_counter(
        "service_served_full_total",
        "Requests served at full fidelity",
        report.per_family.iter().map(|f| f.served_full).sum(),
    );
    registry.inc_counter(
        "service_served_reduced_total",
        "Requests served at reduced fidelity",
        report.per_family.iter().map(|f| f.served_reduced).sum(),
    );
    registry.inc_counter(
        "service_served_cached_total",
        "Requests answered from the precomputed cache table",
        report.per_family.iter().map(|f| f.served_cached).sum(),
    );
    registry.inc_counter(
        "service_shed_total",
        "Requests shed at admission",
        report.shed(),
    );
    registry.inc_counter(
        "service_failed_total",
        "Requests failed hard (degradation off)",
        report.failed(),
    );
    registry.inc_counter(
        "service_breaker_transitions_total",
        "Circuit-breaker state changes across all families",
        report
            .breaker_transitions
            .iter()
            .map(|t| t.len() as u64)
            .sum(),
    );
    registry.inc_counter(
        "service_brownout_changes_total",
        "Brownout dimmer level changes",
        report.brownout_history.len() as u64,
    );
    registry.set_gauge(
        "service_ticks",
        "Logical ticks the run spanned",
        report.ticks as f64,
    );
    registry.set_gauge(
        "service_goodput",
        "Served fraction of all requests (any fidelity)",
        report.goodput(),
    );
    registry.set_gauge(
        "service_resilience_loss",
        "Bruneau resilience loss of the run's Q(t)",
        report.resilience_loss(),
    );
    for o in &report.outcomes {
        if let Disposition::Served { latency, .. } = o.disposition {
            registry.observe(
                "service_latency_ticks",
                "Served-request latency in logical ticks",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                latency as f64,
            );
        }
    }
    // Anticipation families only exist on anticipatory runs: an empty
    // warning-score log means the loop was off, and registering zeroed
    // families would change the reactive arm's exposition bytes.
    if !report.warning_scores.is_empty() {
        registry.inc_counter(
            "anticipate_mode_transitions_total",
            "Operating-mode changes of the anticipation loop",
            report.mode_transitions.len() as u64,
        );
        registry.set_gauge(
            "anticipate_alert_ticks",
            "Ticks spent in Alert mode",
            report.alert_ticks as f64,
        );
        registry.set_gauge(
            "anticipate_emergency_ticks",
            "Ticks spent in Emergency mode",
            report.emergency_ticks as f64,
        );
        registry.set_gauge(
            "anticipate_warning_score_milli",
            "Final warning score of the run, in milli-units",
            report.warning_scores.last().copied().unwrap_or(0) as f64,
        );
        for &score in &report.warning_scores {
            registry.observe(
                "anticipate_warning_score_ticks",
                "Per-tick warning score in milli-units",
                &[50.0, 100.0, 200.0, 350.0, 500.0, 750.0, 900.0],
                score as f64,
            );
        }
    }
    // Replication families only exist on replicated runs, mirroring
    // the anticipation gate above: registering zeroed families would
    // change the single-backend arm's exposition bytes.
    if report.replication_active() {
        registry.set_gauge(
            "replica_factor",
            "Replicas per family in the replicated serve path",
            report
                .replica_stats
                .first()
                .map_or(0.0, |s| s.replicas as f64),
        );
        registry.inc_counter(
            "replica_attempts_total",
            "Attempts dispatched to replicas (primaries + hedges + failovers)",
            report.replica_stats.iter().map(|s| s.routed).sum(),
        );
        registry.inc_counter(
            "replica_failovers_total",
            "Failovers dispatched after a replica failure",
            report.failovers(),
        );
        registry.inc_counter(
            "replica_correlated_hits_total",
            "Dispatched attempts felled by a correlated blast",
            report.replica_stats.iter().map(|s| s.correlated_hits).sum(),
        );
        registry.inc_counter(
            "replica_gray_slots_total",
            "Dispatched attempts that drew a gray fault",
            report.replica_stats.iter().map(|s| s.gray_slots).sum(),
        );
        registry.inc_counter(
            "hedge_launched_total",
            "Hedge attempts launched by the replica router",
            report.hedges_launched(),
        );
        registry.inc_counter(
            "hedge_won_total",
            "Hedge attempts that won their race",
            report.replica_stats.iter().map(|s| s.hedges_won).sum(),
        );
        registry.inc_counter(
            "hedge_reclaimed_work_total",
            "Work units reclaimed from cancelled hedge losers",
            report.replica_stats.iter().map(|s| s.reclaimed_work).sum(),
        );
        registry.inc_counter(
            "retry_budget_spent_total",
            "Retry-budget tokens spent on hedges and failovers",
            report.replica_stats.iter().map(|s| s.budget_spent).sum(),
        );
        registry.inc_counter(
            "retry_budget_exhausted_total",
            "Hedge/failover attempts rejected by an empty retry budget",
            report
                .replica_stats
                .iter()
                .map(|s| s.budget_exhausted)
                .sum(),
        );
    }
}

/// The per-request slot of request `id`.
fn slot(id: u64) -> usize {
    usize::try_from(id).expect("request id fits usize")
}
