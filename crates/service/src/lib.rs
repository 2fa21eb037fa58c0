//! Graceful-degradation serving layer for the Systems Resilience engines.
//!
//! The paper argues that resilient systems must *degrade rather than
//! collapse*: under a type-`D` shock the system sacrifices optional
//! quality to keep its essential function alive, and its recovery is
//! scored by the Bruneau resilience triangle `R = ∫ [100 − Q(t)] dt`
//! (Fig. 3). This crate turns the workspace's own Monte Carlo engines
//! into a serving system that lives those principles:
//!
//! * [`request`] — seeded open-loop request traces (arrivals do not slow
//!   down when the service struggles) and the per-request outcome log.
//! * [`bulkhead`] — per-experiment-family compartments: bounded queues
//!   over dedicated logical servers, so a poisoned family exhausts only
//!   its own capacity.
//! * [`breaker`] — per-backend circuit breakers (closed → open →
//!   half-open) on the logical clock.
//! * [`brownout`] — a self-scored dimmer: its pressure signal is the
//!   same per-tick quality deficit that the Bruneau integral scores, so
//!   the controller steers by the metric it is judged on.
//! * [`replica`] — per-family replica sets with deterministic
//!   load-aware routing, hedging, failover, retry budgets, and
//!   diversity classes.
//! * [`engine`] — the one admission-control tick loop composing all of
//!   the above (plus the optional anticipation loop) over the
//!   deterministic parallel runtime, producing a [`ServiceReport`] with
//!   the run's Q(t) trajectory and `R`. Every configuration runs through
//!   it: without replication each family is a set of one replica.
//! * [`telemetry`] — a traced serve's trace, Q(t) attribution, causal
//!   span trees, incidents and metrics, folded after the run from the
//!   loop's decision record and the report.
//!
//! Everything is driven by a logical clock and seeded randomness: a run
//! under a given trace and [`FaultPlan`](resilience_core::faults::FaultPlan)
//! replays bit-identically for any `--threads` budget.
//!
//! # Example
//!
//! ```
//! use resilience_service::{
//!     RequestTrace, ServiceConfig, ServiceEngine, TraceSpec,
//! };
//! use resilience_core::faults::FaultPlan;
//!
//! let trace = RequestTrace::generate(&TraceSpec::new(200, 42));
//! let engine = ServiceEngine::new(ServiceConfig::default());
//! let report = engine.serve(&trace, &FaultPlan::none());
//! assert_eq!(report.total(), 200);
//! // With graceful degradation on, requests are served (possibly
//! // degraded) or explicitly shed — never silently failed.
//! assert_eq!(report.failed(), 0);
//! assert!(report.resilience_loss().is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod breaker;
pub mod brownout;
pub mod bulkhead;
pub mod engine;
pub mod replica;
pub mod request;
pub mod telemetry;

pub use breaker::{BreakerState, BreakerTransition, CircuitBreaker};
pub use brownout::{BrownoutConfig, BrownoutController};
pub use bulkhead::{Bulkhead, BulkheadProbe, Job};
pub use engine::{FamilyStats, ServiceConfig, ServiceEngine, ServiceReport};
pub use replica::{
    ReplicaFamilyStats, ReplicaOutcome, ReplicaRouter, ReplicaSet, ReplicationConfig, RetryBudget,
};
pub use request::{
    Disposition, Fidelity, Request, RequestOutcome, RequestTrace, ShedReason, TraceSpec,
};
pub use telemetry::record_service_metrics;
