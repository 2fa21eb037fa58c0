//! The graceful-degradation service engine.
//!
//! [`ServiceEngine::serve`] replays an open-loop [`RequestTrace`]
//! against the backend engines on a discrete logical clock. Every
//! request family is a [`ReplicaSet`] — one replica unless
//! [`ServiceConfig::replication`] asks for more — and one tick loop
//! serves every configuration. Per tick:
//!
//! 1. every replica bulkhead advances one tick of logical service;
//!    completed attempts execute their backend computation (a seeded
//!    Monte Carlo fold on the configured thread budget) and are
//!    adjudicated against the fault plan and the replica's circuit
//!    breaker — a failed attempt may fail over to a spare replica;
//! 2. the tick's arrivals pass admission control — breaker gates,
//!    the brownout dimmer, bulkhead bounds, and deadline feasibility
//!    — and are routed to a replica (possibly degraded, possibly
//!    hedged), answered from cache, or explicitly shed;
//! 3. the tick's quality sample `Q(t)` is recorded and fed back to the
//!    brownout controller (self-scored control) and, when configured,
//!    to the anticipation loop, whose operating mode sets the brownout
//!    bounds, breaker cooldowns, and admission deadlines in force.
//!
//! **Determinism contract.** Every decision reads only logical-clock
//! state: arrival ticks, work units, seeded fault lookups, and breaker/
//! dimmer state derived from them. The only parallelism is inside the
//! backend computation, which uses [`ParallelTrials`] and is therefore
//! bit-identical for any thread budget. Consequently the entire
//! per-request outcome log — dispositions, latencies, *and* backend
//! values — replays exactly for any `threads`, which is what the replay
//! tests assert.
//!
//! **Telemetry.** The loop records no telemetry. A traced serve
//! ([`ServiceEngine::serve_traced`]) runs the same loop and only appends
//! compact `(tick, note)` entries to a decision record; the trace, Q(t)
//! attribution, causal span trees and incidents are folded from that
//! record and the report after the run ([`crate::telemetry`]).
//!
//! **Q(t) definition.** For a tick with `n > 0` adjudications,
//! `Q(t) = 100 · (1 − deficit/n)` where each shed or failed request
//! contributes `1.0` to the deficit and each degraded response
//! contributes [`ServiceConfig::reduced_penalty`] or
//! [`ServiceConfig::cached_penalty`]; ticks with no adjudications
//! sample 100 (no demand went unserved). The run's resilience loss is
//! `bruneau::resilience_loss` over this trajectory — the service scores
//! its own resilience triangle.

use std::fmt;

use rand::Rng;
use resilience_anticipate::{
    AnticipationConfig, AnticipationController, LossWindow, ModeBandError, ModePolicy,
    ModeTransition, OperatingMode,
};
use resilience_core::bruneau::resilience_loss;
use resilience_core::faults::{FaultKind, FaultPlan};
use resilience_core::quality::{QualityTrajectory, FULL_QUALITY};
use resilience_core::rng::derive_seed;
use resilience_core::runtime::ParallelTrials;
use resilience_telemetry::causal::{AttemptKind, ShedGate};
use resilience_telemetry::Telemetry;

use crate::breaker::{BreakerState, BreakerTransition, CircuitBreaker};
use crate::brownout::{BrownoutConfig, BrownoutController};
use crate::bulkhead::Job;
use crate::replica::{
    ReplicaFamilyStats, ReplicaOutcome, ReplicaRouter, ReplicaSet, ReplicationConfig, RetryBudget,
};
use crate::request::{Disposition, Fidelity, Request, RequestOutcome, RequestTrace, ShedReason};
use crate::telemetry::{DecisionRecord, Note};

/// Tuning of the serving layer. All quantities are logical-clock units;
/// `threads` is the only physical knob and never changes any output.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Logical servers dedicated to each family bulkhead.
    pub servers_per_family: usize,
    /// Work units one logical server retires per tick.
    pub rate_per_server: u64,
    /// Queue slots per family bulkhead.
    pub queue_capacity: usize,
    /// Consecutive backend failures that trip a family's breaker.
    pub breaker_threshold: u32,
    /// Ticks a tripped breaker stays open before probing.
    pub breaker_cooldown: u64,
    /// Whether graceful degradation (brownout + cached fallbacks) is on.
    /// Off, the service can only serve at full fidelity or say no — the
    /// ablation arm of the BENCH_4 comparison.
    pub degradation: bool,
    /// Brownout controller tuning (unused when `degradation` is off).
    pub brownout: BrownoutConfig,
    /// Quality deficit charged for a reduced-fidelity response.
    pub reduced_penalty: f64,
    /// Quality deficit charged for a cached response.
    pub cached_penalty: f64,
    /// Monte Carlo trials per work unit in the backend computation.
    pub trials_per_work_unit: u64,
    /// Physical worker threads for backend computations.
    pub threads: usize,
    /// The anticipation loop: early-warning detection over the live
    /// deficit stream plus Normal/Alert/Emergency policy switching.
    /// `None` (the default) serves purely reactively. Composes with
    /// `replication`: the mode policy in force sets every replica
    /// breaker's cooldown and the deadline that admission, hedging and
    /// failover use.
    pub anticipation: Option<AnticipationConfig>,
    /// The replication layer: per-family replica sets with
    /// deterministic routing, hedged requests, failover, and a retry
    /// budget. `None` (the default) serves each family from a single
    /// backend — a set of one replica that draws the slot's own fault.
    pub replication: Option<ReplicationConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            servers_per_family: 2,
            rate_per_server: 8,
            queue_capacity: 16,
            breaker_threshold: 3,
            breaker_cooldown: 30,
            degradation: true,
            brownout: BrownoutConfig::default(),
            reduced_penalty: 0.25,
            cached_penalty: 0.5,
            trials_per_work_unit: 16,
            threads: 1,
            anticipation: None,
            replication: None,
        }
    }
}

/// Per-family tallies in the final report.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct FamilyStats {
    /// Requests addressed to the family.
    pub arrivals: u64,
    /// Served at full fidelity.
    pub served_full: u64,
    /// Served reduced.
    pub served_reduced: u64,
    /// Served from cache.
    pub served_cached: u64,
    /// Shed at admission.
    pub shed: u64,
    /// Hard backend failures (degradation off only).
    pub failed: u64,
}

/// The run's complete, deterministic self-measurement.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ServiceReport {
    /// Per-request outcomes in request-id order; the replayable log.
    pub outcomes: Vec<RequestOutcome>,
    /// Per-family tallies, indexed like the trace's family table.
    pub per_family: Vec<FamilyStats>,
    /// Breaker transitions per family.
    pub breaker_transitions: Vec<Vec<BreakerTransition>>,
    /// Brownout level changes `(tick, level)`.
    pub brownout_history: Vec<(u64, u8)>,
    /// Operating-mode transitions of the anticipation loop (empty when
    /// anticipation is off; bounded by its configured cap).
    pub mode_transitions: Vec<ModeTransition>,
    /// Per-tick warning score in milli-units (empty when anticipation
    /// is off).
    pub warning_scores: Vec<u64>,
    /// Ticks spent in Alert.
    pub alert_ticks: u64,
    /// Ticks spent in Emergency.
    pub emergency_ticks: u64,
    /// Which replica served each dispatched request, in request-id
    /// order (empty when replication is off). Requests answered at
    /// admission (cached or shed) have no entry — no replica served
    /// them.
    pub replica_log: Vec<crate::replica::ReplicaOutcome>,
    /// Per-family replication tallies (empty when replication is off).
    pub replica_stats: Vec<crate::replica::ReplicaFamilyStats>,
    /// The Q(t) trajectory (dt = 1 tick).
    pub quality: QualityTrajectory,
    /// Logical ticks the run spanned.
    pub ticks: u64,
}

impl ServiceReport {
    /// The run's Bruneau resilience loss `R = ∫ [100 − Q(t)] dt`.
    pub fn resilience_loss(&self) -> f64 {
        resilience_loss(&self.quality)
    }

    /// Whether this report came from a serve with replication
    /// configured.
    pub fn replication_active(&self) -> bool {
        !self.replica_stats.is_empty()
    }

    /// Hedge attempts launched across all families (0 when replication
    /// is off).
    pub fn hedges_launched(&self) -> u64 {
        self.replica_stats.iter().map(|s| s.hedges_launched).sum()
    }

    /// Failovers dispatched across all families.
    pub fn failovers(&self) -> u64 {
        self.replica_stats.iter().map(|s| s.failovers).sum()
    }

    /// Requests served at any fidelity.
    pub fn served(&self) -> u64 {
        self.per_family
            .iter()
            .map(|f| f.served_full + f.served_reduced + f.served_cached)
            .sum()
    }

    /// Requests served degraded (reduced or cached).
    pub fn degraded(&self) -> u64 {
        self.per_family
            .iter()
            .map(|f| f.served_reduced + f.served_cached)
            .sum()
    }

    /// Requests shed at admission.
    pub fn shed(&self) -> u64 {
        self.per_family.iter().map(|f| f.shed).sum()
    }

    /// Hard backend failures (always 0 with degradation on).
    pub fn failed(&self) -> u64 {
        self.per_family.iter().map(|f| f.failed).sum()
    }

    /// Total requests adjudicated.
    pub fn total(&self) -> u64 {
        self.per_family.iter().map(|f| f.arrivals).sum()
    }

    /// Served fraction of all requests (any fidelity).
    pub fn goodput(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        self.served() as f64 / total as f64
    }

    /// Shed fraction of all requests.
    pub fn shed_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.shed() as f64 / total as f64
    }

    /// Mean latency over served requests in ticks (0 if none served).
    pub fn mean_latency(&self) -> f64 {
        let mut sum = 0u64;
        let mut n = 0u64;
        for o in &self.outcomes {
            if let Disposition::Served { latency, .. } = o.disposition {
                sum += latency;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

/// The serving front end: per-family replica sets (bulkheads and
/// breakers), the brownout dimmer, and the optional anticipation and
/// replication layers over a set of backend families.
#[derive(Debug)]
pub struct ServiceEngine {
    pub(crate) config: ServiceConfig,
}

/// Why [`ServiceEngine::try_new`] rejected a [`ServiceConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `threads == 0`.
    ZeroThreads,
    /// A replication config asks for zero replicas.
    ZeroReplicas,
    /// The anticipation loop's mode-switch bands are invalid.
    ModeBands(ModeBandError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroThreads => write!(f, "thread budget must be at least 1"),
            ConfigError::ZeroReplicas => write!(f, "a replica set needs at least one replica"),
            ConfigError::ModeBands(e) => write!(f, "anticipation {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::ModeBands(e) => Some(e),
            _ => None,
        }
    }
}

impl ServiceEngine {
    /// An engine with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message where
    /// [`ServiceEngine::try_new`] would return one, or if
    /// `servers_per_family == 0` or `rate_per_server == 0` (delegated to
    /// the bulkhead constructor).
    pub fn new(config: ServiceConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// An engine with the given tuning, validated once here so the tick
    /// loop never re-checks it.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroThreads`] if `threads == 0`,
    /// [`ConfigError::ZeroReplicas`] if a replication config asks for
    /// zero replicas, and [`ConfigError::ModeBands`] if the anticipation
    /// loop's mode-switch bands fail [`ModeSwitchConfig::validate`].
    ///
    /// [`ModeSwitchConfig::validate`]: resilience_anticipate::ModeSwitchConfig::validate
    pub fn try_new(config: ServiceConfig) -> Result<Self, ConfigError> {
        if config.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if config.replication.as_ref().is_some_and(|r| r.replicas == 0) {
            return Err(ConfigError::ZeroReplicas);
        }
        if let Some(acfg) = &config.anticipation {
            acfg.switch.validate().map_err(ConfigError::ModeBands)?;
        }
        Ok(ServiceEngine { config })
    }

    /// Replay `trace` under `plan`, returning the deterministic report.
    ///
    /// The plan is keyed by `(family label, trace seed, request id)` —
    /// the same slot-key scheme as the Monte Carlo supervisor — so a
    /// given chaos plan damages the same requests no matter how the
    /// service schedules them.
    pub fn serve(&self, trace: &RequestTrace, plan: &FaultPlan) -> ServiceReport {
        Serve::new(&self.config, trace, plan, false).run().0
    }

    /// [`ServiceEngine::serve`] with the telemetry spine attached. The
    /// same tick loop runs, additionally keeping a compact decision
    /// record; after the run [`crate::telemetry`] folds that record
    /// together with the report's tick-stamped histories into
    /// `telemetry`: every admission verdict, disposition, cache
    /// hit/miss, breaker transition, brownout move, and bulkhead
    /// occupancy change lands on the tick it happened, the trajectory
    /// observer is charged in the exact order the engine accumulated its
    /// own deficit (so the observed Q(t) is bit-identical to the
    /// report's), and the service metric families are registered.
    ///
    /// The returned report is byte-identical to what [`serve`]
    /// (telemetry off) produces for the same inputs — recording only
    /// observes, it never steers.
    ///
    /// [`serve`]: ServiceEngine::serve
    pub fn serve_traced(
        &self,
        trace: &RequestTrace,
        plan: &FaultPlan,
        telemetry: &mut Telemetry,
    ) -> ServiceReport {
        let (report, record) = Serve::new(&self.config, trace, plan, true).run();
        if let Some(record) = record {
            crate::telemetry::fold(telemetry, &self.config, trace, &report, &record);
        }
        report
    }

    /// Work units actually scheduled for a request at `fidelity`.
    fn effective_work(cfg: &ServiceConfig, cost: u64, fidelity: Fidelity) -> u64 {
        match fidelity {
            Fidelity::Full => cost.max(1),
            Fidelity::Reduced => (cost / cfg.brownout.reduced_divisor.max(1)).max(1),
            Fidelity::Cached => 0,
        }
    }

    /// The backend computation: an XOR fold of seeded Monte Carlo
    /// draws on the physical thread pool — bit-identical for any thread
    /// budget by the runtime's determinism contract.
    fn backend_value(pool: &ParallelTrials, seed: u64, trials: u64) -> u64 {
        pool.run(
            trials,
            seed,
            |idx, rng| idx.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ rng.gen::<u64>(),
            0u64,
            |acc, x| acc ^ x,
        )
    }
}

/// One dispatched attempt of an in-flight request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attempt {
    pub(crate) replica: u32,
    pub(crate) kind: AttemptKind,
    pub(crate) fidelity: Fidelity,
    fault: Option<FaultKind>,
    correlated: bool,
    /// Scheduled work before fault inflation.
    pub(crate) base_work: u64,
    /// Scheduled work after fault inflation (delay/gray).
    pub(crate) work: u64,
}

impl Attempt {
    /// Whether the attempt's backend dies instead of answering. Delay
    /// and gray faults only inflate the logical service time: a gray
    /// backend is slow, not wrong, which is exactly why the breaker
    /// never sees it.
    fn dies(&self) -> bool {
        self.correlated || matches!(self.fault, Some(FaultKind::Panic | FaultKind::Poison))
    }
}

/// A request admitted to its family's replica set, waiting for a
/// logical completion.
#[derive(Debug, Clone, Copy)]
struct Flight {
    request: Request,
    /// Effective deadline at admission (after anticipatory scaling).
    deadline: u64,
    /// Racing attempts: a primary and possibly its hedge, or a single
    /// failover. Never more than two are live at once.
    live: [Option<Attempt>; 2],
    hedged: bool,
    failed_over: bool,
}

/// How a request was settled — the shape of its causal sketch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Resolution {
    /// At admission: shed or answered from cache, with the evidence of
    /// the gate that shed it.
    Admission(Option<ShedGate>),
    /// The attempt on `replica` answered; its racing sibling, if any,
    /// was cancelled and `reclaimed` work units with it.
    Won { replica: u32, reclaimed: u64 },
    /// Every attempt died: the cached answer stood in, or, with
    /// degradation off, the request failed.
    Fallback,
}

/// One serve: the state of the tick loop over a trace.
///
/// Every family is a [`ReplicaSet`]; without replication it is a set of
/// one replica that draws the slot's own fault
/// ([`FaultPlan::slot_fault`]) and no correlated blast, so it never
/// hedges or fails over. With replication each replica draws
/// [`FaultPlan::replica_fault`] plus the [`FaultPlan::correlated_hit`]
/// of its diversity class.
struct Serve<'a> {
    cfg: &'a ServiceConfig,
    trace: &'a RequestTrace,
    plan: &'a FaultPlan,
    /// The decision record, kept only by a traced serve.
    record: Option<DecisionRecord>,
    /// Whether a replication config is set (and the replica outputs of
    /// the report exist).
    replicated: bool,
    hedge_fraction_milli: u64,
    pool: ParallelTrials,
    backend_master: u64,
    /// Precomputed per-family cache tables: the level-2 / fallback
    /// answer.
    cached_values: Vec<u64>,
    delay_work: u64,
    sets: Vec<ReplicaSet>,
    budgets: Vec<RetryBudget>,
    rstats: Vec<ReplicaFamilyStats>,
    brownout: BrownoutController,
    /// Admission deadline multiplier of the anticipation policy in
    /// force, in milli-units (1000 when anticipation is off).
    deadline_scale_milli: u64,
    flights: Vec<Option<Flight>>,
    outcomes: Vec<Option<RequestOutcome>>,
    replica_log: Vec<Option<ReplicaOutcome>>,
    per_family: Vec<FamilyStats>,
    quality: QualityTrajectory,
    pending: u64,
    /// This tick's quality deficit.
    deficit: f64,
    /// This tick's sheds and hard failures — the involuntary part of
    /// the deficit. The brownout controller must steer by this (plus
    /// occupancy), not the full deficit: counting its own planned
    /// degradation as pressure would be a positive feedback loop that
    /// never lets the dimmer recover (at level 2 every response charges
    /// `cached_penalty`, which would hold the pressure above the raise
    /// threshold forever).
    hard: u64,
    /// This tick's adjudications.
    adjudicated: u64,
    /// Reused per-admission buffers: breaker verdicts, ranked replicas,
    /// and the ranked replicas' fault draws.
    allowed: Vec<bool>,
    ranked: Vec<u32>,
    draws: Vec<(Option<FaultKind>, bool)>,
}

impl<'a> Serve<'a> {
    fn new(
        cfg: &'a ServiceConfig,
        trace: &'a RequestTrace,
        plan: &'a FaultPlan,
        traced: bool,
    ) -> Self {
        let n_families = trace.families.len().max(1);
        let pool = ParallelTrials::new(cfg.threads);
        let backend_master = derive_seed(trace.seed, 0xbac0);
        // Deterministic (seeded) and computed before the clock starts,
        // so cache hits cost zero backend work during the run.
        let cached_values = (0..n_families)
            .map(|fam| {
                let seed = derive_seed(backend_master, 0xcafe + fam as u64);
                ServiceEngine::backend_value(&pool, seed, 64)
            })
            .collect();
        let rcfg = cfg.replication.clone().unwrap_or(ReplicationConfig {
            replicas: 1,
            ..ReplicationConfig::default()
        });
        let sets = (0..n_families)
            .map(|_| {
                ReplicaSet::new(
                    &rcfg,
                    cfg.servers_per_family,
                    cfg.rate_per_server,
                    cfg.queue_capacity,
                    cfg.breaker_threshold,
                    cfg.breaker_cooldown,
                )
            })
            .collect();
        let replicated = cfg.replication.is_some();
        Serve {
            cfg,
            trace,
            plan,
            record: traced.then(|| DecisionRecord::new(n_families)),
            replicated,
            hedge_fraction_milli: rcfg.hedge_fraction_milli,
            pool,
            backend_master,
            cached_values,
            delay_work: (plan.delay.as_millis() as u64).saturating_mul(cfg.rate_per_server),
            sets,
            budgets: vec![
                RetryBudget::new(rcfg.budget_capacity, rcfg.budget_refill_milli);
                n_families
            ],
            rstats: vec![
                ReplicaFamilyStats {
                    replicas: rcfg.replicas as u32,
                    ..ReplicaFamilyStats::default()
                };
                n_families
            ],
            brownout: BrownoutController::new(cfg.brownout.clone()),
            deadline_scale_milli: 1000,
            flights: vec![None; trace.len()],
            outcomes: vec![None; trace.len()],
            replica_log: if replicated {
                vec![None; trace.len()]
            } else {
                Vec::new()
            },
            per_family: vec![FamilyStats::default(); n_families],
            quality: QualityTrajectory::new(1.0),
            pending: trace.len() as u64,
            deficit: 0.0,
            hard: 0,
            adjudicated: 0,
            allowed: Vec::with_capacity(rcfg.replicas),
            ranked: Vec::with_capacity(rcfg.replicas),
            draws: Vec::with_capacity(rcfg.replicas),
        }
    }

    /// The tick loop. Per tick: refill the retry budgets; advance every
    /// replica's bulkhead and adjudicate completions; admit the tick's
    /// arrivals in trace order; sample Q(t) and feed the brownout and
    /// anticipation controllers. Returns the report and, for a traced
    /// serve, the decision record.
    fn run(mut self) -> (ServiceReport, Option<DecisionRecord>) {
        let cfg = self.cfg;
        let trace = self.trace;
        let n_families = self.sets.len();
        // The anticipation loop: a warning detector over the raw
        // pressure signal, the mode state machine, and the loss window
        // behind heavy-tail-aware provisioning.
        let mut anticipation = cfg.anticipation.as_ref().map(|a| {
            (
                AnticipationController::new(a.clone()),
                LossWindow::new(a.loss_window),
            )
        });
        // The controller starts in Normal, so Normal's policy set
        // applies from tick 0 — not only after the first transition.
        let mut pressure_bias: f64 = 0.0;
        if let Some(acfg) = &cfg.anticipation {
            self.apply_policy(0, &acfg.normal);
        }
        let mut warning_scores: Vec<u64> = Vec::new();

        let mut next_arrival = 0usize;
        let mut tick = 0u64;
        // Hard ceiling so a logic bug can never hang the run. Up to
        // three dispatches per request (primary, hedge, failover), each
        // possibly gray-inflated — the ceiling only guards against
        // non-convergence bugs, so it is deliberately generous.
        let total_work: u64 = trace.requests.iter().map(|r| r.cost).sum();
        let tick_ceiling = trace
            .horizon()
            .saturating_add(
                total_work
                    .saturating_mul(3)
                    .saturating_mul(self.plan.gray_factor.max(1)),
            )
            .saturating_add((trace.len() as u64).saturating_mul(self.delay_work.saturating_mul(3)))
            .saturating_add(cfg.breaker_cooldown + 1000);
        let mut completed = Vec::new();

        while self.pending > 0 {
            assert!(
                tick <= tick_ceiling,
                "service engine failed to converge by tick {tick}"
            );
            self.deficit = 0.0;
            self.hard = 0;
            self.adjudicated = 0;
            if self.replicated {
                // A single-backend family never spends a token.
                for budget in self.budgets.iter_mut() {
                    budget.tick();
                }
            }

            // --- 1. Advance service; adjudicate completions. ---------
            // Replicas advance in (family, replica, server) order — a
            // pure function of logical state, so when both attempts of
            // a hedged request complete on the same tick the winner is
            // always the lower replica index.
            for fam in 0..n_families {
                for r in 0..self.sets[fam].len() {
                    self.sets[fam].bulkheads[r].tick_into(&mut completed);
                    for job in completed.drain(..) {
                        self.complete(fam, r as u32, job.id, tick);
                    }
                }
            }

            // --- 2. Admit this tick's arrivals, in trace order. ------
            while next_arrival < trace.len() && trace.requests[next_arrival].arrival == tick {
                let request = trace.requests[next_arrival];
                next_arrival += 1;
                self.arrive(request, tick);
            }

            // --- 3. Sample Q(t); feed the self-scored controllers. ---
            let adjudicated = self.adjudicated;
            let q = if adjudicated == 0 {
                FULL_QUALITY
            } else {
                FULL_QUALITY * (1.0 - self.deficit / adjudicated as f64)
            };
            self.quality.push(q);
            let occupancy = self
                .sets
                .iter()
                .map(ReplicaSet::occupancy)
                .fold(0.0f64, f64::max);
            let hard_deficit = if adjudicated == 0 {
                0.0
            } else {
                self.hard as f64 / adjudicated as f64
            };
            if cfg.degradation {
                // `pressure_bias` is the anticipatory provisioning
                // estimate (0 in Normal): the dimmer steers by the
                // larger of what is being lost now and what the loss
                // distribution says to provision for.
                self.brownout
                    .observe(tick, hard_deficit.max(pressure_bias), occupancy);
            }
            if let Some((controller, losses)) = anticipation.as_mut() {
                if adjudicated > 0 && self.deficit > 0.0 {
                    losses.record(self.deficit / adjudicated as f64);
                }
                let before = controller.mode();
                let mode = controller.observe(tick, hard_deficit.max(occupancy));
                warning_scores.push(controller.score_milli());
                if mode != before {
                    let acfg = controller.config();
                    self.apply_policy(tick, acfg.policy(mode));
                    // Provisioning is re-estimated at mode changes (not
                    // every tick): the quantile sort stays off the hot
                    // path and the bias is constant within a mode.
                    pressure_bias = match mode {
                        OperatingMode::Normal => 0.0,
                        _ => losses
                            .provision(
                                acfg.policy(mode).provisioning,
                                acfg.quantile_milli,
                                acfg.heavy_tail_alpha,
                            )
                            .clamp(0.0, 1.0),
                    };
                }
            }
            if let Some(record) = self.record.as_mut() {
                for (fam, set) in self.sets.iter().enumerate() {
                    let (queued, capacity) = set.queued_and_capacity();
                    record.queue_depth(tick, fam, queued, capacity);
                }
            }
            tick += 1;
        }

        for (stats, budget) in self.rstats.iter_mut().zip(&self.budgets) {
            stats.budget_spent = budget.spent();
            stats.budget_exhausted = budget.exhausted();
        }
        let (mode_transitions, alert_ticks, emergency_ticks) = match &anticipation {
            Some((controller, _)) => (
                controller.transitions().to_vec(),
                controller.alert_ticks(),
                controller.emergency_ticks(),
            ),
            None => (Vec::new(), 0, 0),
        };
        let report = ServiceReport {
            outcomes: self
                .outcomes
                .into_iter()
                .map(|o| o.expect("every request adjudicated"))
                .collect(),
            per_family: self.per_family,
            breaker_transitions: self.sets.iter().map(ReplicaSet::transitions).collect(),
            brownout_history: self.brownout.history().to_vec(),
            mode_transitions,
            warning_scores,
            alert_ticks,
            emergency_ticks,
            replica_log: self.replica_log.into_iter().flatten().collect(),
            replica_stats: if self.replicated {
                self.rstats
            } else {
                Vec::new()
            },
            quality: self.quality,
            ticks: tick,
        };
        (report, self.record)
    }

    /// Put an anticipation mode's policy set in force: brownout floor
    /// and ceiling, every replica breaker's cooldown, and the admission
    /// deadline scale.
    fn apply_policy(&mut self, tick: u64, policy: &ModePolicy) {
        self.brownout.set_floor(tick, policy.brownout_floor);
        self.brownout.set_ceiling(tick, policy.brownout_ceiling);
        let cooldown = self
            .cfg
            .breaker_cooldown
            .saturating_mul(policy.cooldown_scale_milli)
            / 1000;
        for breaker in self.sets.iter_mut().flat_map(|s| s.breakers.iter_mut()) {
            breaker.set_cooldown(cooldown);
        }
        self.deadline_scale_milli = policy.deadline_scale_milli;
    }

    /// One arrival: admit it to a replica or decide it on the spot.
    fn arrive(&mut self, request: Request, tick: u64) {
        let fam = request.family.min(self.sets.len() - 1);
        self.per_family[fam].arrivals += 1;
        // The anticipation policy in force may tighten deadlines
        // (scale < 1000): marginal requests degrade or shed at
        // admission instead of piling onto queues the warning says are
        // about to stop draining. Integer milli-scaling keeps the
        // effective deadline a pure function of logical state.
        let deadline = request.deadline.saturating_mul(self.deadline_scale_milli) / 1000;
        if let Some((disposition, gate)) = self.admit(&request, fam, deadline, tick) {
            let how = Resolution::Admission(gate);
            self.decide(&request, fam, deadline, tick, disposition, how);
        }
    }

    /// Admission control for one arrival: breaker gates (every replica,
    /// in index order) → brownout level → queue room → deadline
    /// feasibility, then route the primary to the best-ranked replica
    /// that fits and possibly launch a hedge. Returns the immediate
    /// disposition (cached answer or shed) and, for sheds, the gate
    /// evidence the critical-path extractor blames — or `None` when the
    /// request was dispatched.
    fn admit(
        &mut self,
        request: &Request,
        fam: usize,
        deadline: u64,
        tick: u64,
    ) -> Option<(Disposition, Option<ShedGate>)> {
        let cfg = self.cfg;
        let cached = (
            Disposition::Served {
                fidelity: Fidelity::Cached,
                latency: 0,
                value: self.cached_values[fam],
            },
            None,
        );
        // The gate is mutating: a half-open breaker admits exactly one
        // probe.
        self.allowed.clear();
        for breaker in self.sets[fam].breakers.iter_mut() {
            self.allowed.push(breaker.allow(tick));
        }
        if !self.allowed.contains(&true) {
            if cfg.degradation {
                // Brownout the failure: answer from cache rather than
                // turning the caller away.
                return Some(cached);
            }
            // Dwell anchor: the lock-out became total when the last
            // replica's breaker opened.
            let open_since = self.sets[fam]
                .breakers
                .iter()
                .filter_map(last_open_tick)
                .max();
            return Some((
                Disposition::Shed {
                    reason: ShedReason::BreakerOpen,
                },
                Some(ShedGate::BreakerOpen { open_since }),
            ));
        }

        // Candidate fidelities, cheapest-last: the dimmer level picks
        // the starting fidelity; under pressure admission may degrade
        // one step further to fit the deadline, and level 2 answers
        // from cache outright.
        let candidates: &[Fidelity] = match (cfg.degradation, self.brownout.level()) {
            (false, _) => &[Fidelity::Full],
            (true, 0) => &[Fidelity::Full, Fidelity::Reduced],
            (true, 1) => &[Fidelity::Reduced],
            (true, _) => return Some(cached),
        };

        // Family-aggregate drain rate: the blame model for gate sheds
        // reasons about the family's total capacity.
        let aggregate_rate = cfg.rate_per_server * cfg.servers_per_family as u64;
        ReplicaRouter::rank_into(&self.sets[fam], &self.allowed, tick, &mut self.ranked);
        if self.ranked.is_empty() {
            return Some((
                Disposition::Shed {
                    reason: ShedReason::QueueFull,
                },
                Some(ShedGate::QueueFull {
                    backlog: self.sets[fam].backlog(),
                    aggregate_rate,
                }),
            ));
        }
        self.draws.clear();
        for i in 0..self.ranked.len() {
            let draw = self.draw(fam, request.id, self.ranked[i]);
            self.draws.push(draw);
        }
        let mut last_candidate = (0u64, 0u64); // (base work, inflated work)
        for &fidelity in candidates {
            let base_work = ServiceEngine::effective_work(cfg, request.cost, fidelity);
            for i in 0..self.ranked.len() {
                let (r, (fault, correlated)) = (self.ranked[i], self.draws[i]);
                let work = self.inflate(base_work, fault);
                let est = self.sets[fam].bulkheads[r as usize].estimated_completion_ticks(work);
                if est > deadline {
                    last_candidate = (base_work, work);
                    continue;
                }
                let primary = Attempt {
                    replica: r,
                    kind: AttemptKind::Primary,
                    fidelity,
                    fault,
                    correlated,
                    base_work,
                    work,
                };
                self.dispatch(fam, request.id, primary, tick);
                let mut flight = Flight {
                    request: *request,
                    deadline,
                    live: [Some(primary), None],
                    hedged: false,
                    failed_over: false,
                };
                self.maybe_hedge(&mut flight, fam, est, tick);
                self.flights[slot_of(request.id)] = Some(flight);
                return None;
            }
        }
        Some((
            Disposition::Shed {
                reason: ShedReason::DeadlineUnmeetable,
            },
            Some(ShedGate::DeadlineUnmeetable {
                backlog: self.sets[fam].backlog(),
                aggregate_rate,
                base_work: last_candidate.0,
                work: last_candidate.1,
            }),
        ))
    }

    /// Launch a hedge attempt when the primary's projected completion
    /// eats more than `hedge_fraction_milli` of the deadline. Probe
    /// safety: both the primary and the hedge target must *peek*
    /// Closed — hedging a half-open probe (or onto one) could cancel
    /// the probe and wedge the breaker's half-open state forever.
    fn maybe_hedge(&mut self, flight: &mut Flight, fam: usize, primary_est: u64, tick: u64) {
        let primary = flight.live[0].expect("a fresh flight carries its primary");
        if self.sets[fam].len() < 2
            || primary_est.saturating_mul(1000)
                <= self.hedge_fraction_milli.saturating_mul(flight.deadline)
            || self.sets[fam].breakers[primary.replica as usize].peek_state(tick)
                != BreakerState::Closed
        {
            return;
        }
        let Some(hedge) = self.spare(
            fam,
            &flight.request,
            primary.fidelity,
            flight.deadline,
            tick,
            primary.replica,
            AttemptKind::Hedge,
        ) else {
            return;
        };
        if !self.budgets[fam].try_spend() {
            self.note(
                tick,
                Note::Refused {
                    fam,
                    kind: AttemptKind::Hedge,
                },
            );
            return;
        }
        self.dispatch(fam, flight.request.id, hedge, tick);
        self.rstats[fam].hedges_launched += 1;
        flight.live[1] = Some(hedge);
        flight.hedged = true;
    }

    /// A spare replica for a hedge or failover: peek-Closed (never
    /// disturb a half-open probe), not `exclude`, queue room, and a
    /// completion estimate inside `deadline` ticks from now — ranked by
    /// the router's load-aware key.
    #[allow(clippy::too_many_arguments)]
    fn spare(
        &mut self,
        fam: usize,
        request: &Request,
        fidelity: Fidelity,
        deadline: u64,
        tick: u64,
        exclude: u32,
        kind: AttemptKind,
    ) -> Option<Attempt> {
        let set = &self.sets[fam];
        self.allowed.clear();
        for (r, breaker) in set.breakers.iter().enumerate() {
            self.allowed
                .push(r != exclude as usize && breaker.peek_state(tick) == BreakerState::Closed);
        }
        ReplicaRouter::rank_into(set, &self.allowed, tick, &mut self.ranked);
        let base_work = ServiceEngine::effective_work(self.cfg, request.cost, fidelity);
        for i in 0..self.ranked.len() {
            let r = self.ranked[i];
            let (fault, correlated) = self.draw(fam, request.id, r);
            let work = self.inflate(base_work, fault);
            if self.sets[fam].bulkheads[r as usize].estimated_completion_ticks(work) <= deadline {
                return Some(Attempt {
                    replica: r,
                    kind,
                    fidelity,
                    fault,
                    correlated,
                    base_work,
                    work,
                });
            }
        }
        None
    }

    /// The fault and correlated-blast draws of request `id` on
    /// `replica` — a pure function of the plan, the trace identity and,
    /// with replication, the replica and its diversity class.
    fn draw(&self, fam: usize, id: u64, replica: u32) -> (Option<FaultKind>, bool) {
        let (label, seed) = (&self.trace.families[fam], self.trace.seed);
        if !self.replicated {
            return (self.plan.slot_fault(label, seed, id).map(|f| f.kind), false);
        }
        (
            self.plan
                .replica_fault(label, seed, id, replica)
                .map(|f| f.kind),
            self.plan
                .correlated_hit(label, seed, id, self.sets[fam].class_of(replica)),
        )
    }

    /// Scheduled work after fault inflation: delay faults add the
    /// plan's fixed delay work; a gray backend still answers, just
    /// slower, so its work is multiplied by `gray_factor`.
    fn inflate(&self, base_work: u64, fault: Option<FaultKind>) -> u64 {
        base_work.saturating_add(match fault {
            Some(FaultKind::Delay) => self.delay_work,
            Some(FaultKind::Gray) => base_work.saturating_mul(self.plan.gray_factor.max(1) - 1),
            _ => 0,
        })
    }

    /// Enqueue `attempt` on its replica at `tick`, count it, and note it.
    fn dispatch(&mut self, fam: usize, id: u64, attempt: Attempt, tick: u64) {
        let r = attempt.replica as usize;
        self.sets[fam].bulkheads[r].admit(Job {
            id,
            work: attempt.work,
        });
        self.sets[fam].breakers[r].on_admitted();
        let stats = &mut self.rstats[fam];
        stats.routed += 1;
        stats.correlated_hits += u64::from(attempt.correlated);
        stats.gray_slots += u64::from(attempt.fault == Some(FaultKind::Gray));
        self.note(tick, Note::Dispatched { id, attempt });
    }

    /// Append `note` to the decision record of a traced serve.
    fn note(&mut self, tick: u64, note: Note) {
        if let Some(record) = self.record.as_mut() {
            record.push(tick, note);
        }
    }

    /// Adjudicate one completed attempt of request `id` on `replica`:
    /// the first success wins and its sibling is cancelled; a death
    /// keeps the sibling racing, fails over once, or falls back to the
    /// cached answer (a hard failure with degradation off).
    fn complete(&mut self, fam: usize, replica: u32, id: u64, tick: u64) {
        let idx = slot_of(id);
        let Some(mut flight) = self.flights[idx] else {
            // The sibling attempt won earlier this same tick; this
            // completion is an orphan and must not touch the breaker.
            return;
        };
        let cfg = self.cfg;
        let request = flight.request;
        let latency = tick.saturating_sub(request.arrival);
        let pos = flight
            .live
            .iter()
            .position(|a| a.is_some_and(|a| a.replica == replica))
            .expect("completed job has a live attempt");
        let slot = flight.live[pos].take().expect("position found it");
        let sibling = flight.live[1 - pos];

        if !slot.dies() {
            self.flights[idx] = None;
            self.sets[fam].breakers[replica as usize].record_success(tick);
            let value = ServiceEngine::backend_value(
                &self.pool,
                derive_seed(self.backend_master, id),
                slot.base_work * cfg.trials_per_work_unit,
            );
            // First success wins: reclaim the loser's unfinished work.
            let reclaimed = sibling
                .and_then(|other| self.sets[fam].bulkheads[other.replica as usize].cancel(id))
                .map_or(0, |job| job.work);
            self.rstats[fam].reclaimed_work += reclaimed;
            let hedge_won = slot.kind == AttemptKind::Hedge;
            self.rstats[fam].hedges_won += u64::from(hedge_won);
            if self.replicated {
                self.replica_log[idx] = Some(ReplicaOutcome {
                    id,
                    replica,
                    hedged: flight.hedged,
                    hedge_won,
                    failed_over: flight.failed_over,
                });
            }
            let disposition = Disposition::Served {
                fidelity: slot.fidelity,
                latency,
                value,
            };
            let how = Resolution::Won { replica, reclaimed };
            self.decide(&request, fam, flight.deadline, tick, disposition, how);
            return;
        }

        // The attempt died: record the failure, then keep racing, fail
        // over, or fall back.
        self.sets[fam].breakers[replica as usize].record_failure(tick);
        self.note(tick, Note::Died { id, replica });
        if sibling.is_some() {
            // The sibling attempt is still racing — the request's fate
            // rides on it now.
            self.flights[idx] = Some(flight);
            return;
        }
        if !flight.failed_over && self.sets[fam].len() > 1 {
            // Target first, token second: a hopeless failover (no
            // viable replica) must not drain the budget.
            let remaining = request
                .arrival
                .saturating_add(flight.deadline)
                .saturating_sub(tick);
            let target = self.spare(
                fam,
                &request,
                slot.fidelity,
                remaining,
                tick,
                replica,
                AttemptKind::Failover,
            );
            if let Some(failover) = target {
                if self.budgets[fam].try_spend() {
                    self.dispatch(fam, id, failover, tick);
                    self.rstats[fam].failovers += 1;
                    flight.failed_over = true;
                    flight.live = [Some(failover), None];
                    self.flights[idx] = Some(flight);
                    return;
                }
                self.note(
                    tick,
                    Note::Refused {
                        fam,
                        kind: AttemptKind::Failover,
                    },
                );
            }
        }
        // No replica left to try: degrade to the cached answer, or fail
        // hard with degradation off.
        self.flights[idx] = None;
        let disposition = if cfg.degradation {
            Disposition::Served {
                fidelity: Fidelity::Cached,
                latency,
                value: self.cached_values[fam],
            }
        } else {
            let cause = if slot.correlated {
                "correlated-failure"
            } else if slot.fault == Some(FaultKind::Panic) {
                "backend-panic"
            } else {
                "poisoned-result"
            };
            Disposition::Failed {
                cause: cause.to_string(),
            }
        };
        let how = Resolution::Fallback;
        self.decide(&request, fam, flight.deadline, tick, disposition, how);
    }

    /// Settle `request`: tally it, charge its penalty to this tick's
    /// Q(t) — nothing at full fidelity, the configured penalty when
    /// degraded, the whole request when shed or failed — log its
    /// outcome, and note how it was resolved.
    fn decide(
        &mut self,
        request: &Request,
        fam: usize,
        deadline: u64,
        tick: u64,
        disposition: Disposition,
        how: Resolution,
    ) {
        let stats = &mut self.per_family[fam];
        let (count, penalty) = match &disposition {
            Disposition::Served { fidelity, .. } => match fidelity {
                Fidelity::Full => (&mut stats.served_full, 0.0),
                Fidelity::Reduced => (&mut stats.served_reduced, self.cfg.reduced_penalty),
                Fidelity::Cached => (&mut stats.served_cached, self.cfg.cached_penalty),
            },
            Disposition::Shed { .. } => (&mut stats.shed, 1.0),
            Disposition::Failed { .. } => (&mut stats.failed, 1.0),
        };
        *count += 1;
        self.hard += u64::from(!matches!(disposition, Disposition::Served { .. }));
        let id = request.id;
        self.note(
            tick,
            Note::Settled {
                id,
                deadline,
                penalty,
                how,
            },
        );
        self.outcomes[slot_of(id)] = Some(RequestOutcome {
            id,
            family: fam,
            decided_at: tick,
            disposition,
        });
        self.deficit += penalty;
        self.adjudicated += 1;
        self.pending -= 1;
    }
}

/// The per-request slot of request `id` in the outcome and flight logs.
fn slot_of(id: u64) -> usize {
    usize::try_from(id).expect("request id fits usize")
}

/// Tick the breaker last entered `Open`, if it ever has — the dwell
/// anchor the extractor blames breaker-open sheds on.
fn last_open_tick(breaker: &CircuitBreaker) -> Option<u64> {
    breaker
        .transitions()
        .iter()
        .rev()
        .find(|t| t.to == BreakerState::Open)
        .map(|t| t.tick)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::ReplicationConfig;
    use resilience_anticipate::ModeSwitchConfig;

    fn anticipatory(switch: ModeSwitchConfig) -> ServiceConfig {
        ServiceConfig {
            anticipation: Some(AnticipationConfig {
                switch,
                ..AnticipationConfig::default()
            }),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn try_new_rejects_zero_threads_and_zero_replicas() {
        let no_threads = ServiceConfig {
            threads: 0,
            ..ServiceConfig::default()
        };
        assert!(matches!(
            ServiceEngine::try_new(no_threads),
            Err(ConfigError::ZeroThreads)
        ));
        let no_replicas = ServiceConfig {
            replication: Some(ReplicationConfig {
                replicas: 0,
                ..ReplicationConfig::default()
            }),
            ..ServiceConfig::default()
        };
        assert!(matches!(
            ServiceEngine::try_new(no_replicas),
            Err(ConfigError::ZeroReplicas)
        ));
        assert!(ServiceEngine::try_new(anticipatory(ModeSwitchConfig::default())).is_ok());
    }

    #[test]
    fn try_new_rejects_a_flapping_band_and_a_nan_band() {
        let flapping = anticipatory(ModeSwitchConfig {
            alert_on: 1.0,
            alert_off: 2.0,
            ..ModeSwitchConfig::default()
        });
        assert!(matches!(
            ServiceEngine::try_new(flapping),
            Err(ConfigError::ModeBands(
                ModeBandError::ReleaseAboveEntry { .. }
            ))
        ));
        let nan = anticipatory(ModeSwitchConfig {
            alert_on: f64::NAN,
            ..ModeSwitchConfig::default()
        });
        assert!(matches!(
            ServiceEngine::try_new(nan),
            Err(ConfigError::ModeBands(ModeBandError::NonFinite {
                band: "alert_on",
                ..
            }))
        ));
    }

    #[test]
    #[should_panic(expected = "thread budget must be at least 1")]
    fn new_keeps_its_zero_threads_panic() {
        let _ = ServiceEngine::new(ServiceConfig {
            threads: 0,
            ..ServiceConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "a replica set needs at least one replica")]
    fn new_keeps_its_zero_replicas_panic() {
        let _ = ServiceEngine::new(ServiceConfig {
            replication: Some(ReplicationConfig {
                replicas: 0,
                ..ReplicationConfig::default()
            }),
            ..ServiceConfig::default()
        });
    }
}
