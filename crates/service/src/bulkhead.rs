//! Per-family bulkheads: bounded queues over dedicated logical servers.
//!
//! A bulkhead gives each experiment family its own admission queue and
//! its own slice of logical service capacity, so a poisoned or slow
//! family exhausts only its own compartment — the other families'
//! queues, servers, and breakers never see the damage. Service progress
//! is measured purely on the logical clock (work units per tick), which
//! keeps every scheduling decision independent of wall time and thread
//! count.

use std::collections::VecDeque;

/// A job admitted to a bulkhead: the request index plus the work the
/// logical servers still owe it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Trace-wide request id.
    pub id: u64,
    /// Remaining work units (set to the effective, possibly degraded,
    /// cost at admission; injected delay faults inflate it).
    pub work: u64,
}

/// A non-mutating snapshot of one bulkhead's load, taken by
/// [`Bulkhead::peek_backlog`]. All fields describe the same instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BulkheadProbe {
    /// Jobs waiting in the queue (not yet in service).
    pub queued: usize,
    /// Servers currently working a job.
    pub in_service: usize,
    /// Total work still owed: queued plus in-service remainders.
    pub backlog: u64,
    /// Whether the queue has no free slot.
    pub queue_full: bool,
    /// Queue occupancy in `[0, 1]`.
    pub occupancy: f64,
}

/// One family's compartment: a bounded FIFO queue feeding `servers`
/// logical servers that each retire `rate` work units per tick.
#[derive(Debug, Clone)]
pub struct Bulkhead {
    capacity: usize,
    servers: usize,
    rate: u64,
    queue: VecDeque<Job>,
    in_service: Vec<Option<Job>>,
}

impl Bulkhead {
    /// A bulkhead with `capacity` queue slots over `servers` logical
    /// servers of `rate` work units per tick.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `rate == 0`.
    pub fn new(capacity: usize, servers: usize, rate: u64) -> Self {
        assert!(servers >= 1, "a bulkhead needs at least one server");
        assert!(rate >= 1, "service rate must be at least 1 work unit/tick");
        Bulkhead {
            capacity,
            servers,
            rate,
            queue: VecDeque::new(),
            in_service: vec![None; servers],
        }
    }

    /// Queue occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            return if self.queue.is_empty() { 0.0 } else { 1.0 };
        }
        self.queue.len() as f64 / self.capacity as f64
    }

    /// Whether the queue has no free slot.
    pub fn queue_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Jobs currently queued (not yet in service).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Queue slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total work still owed: queued plus in-service remainders.
    pub fn backlog(&self) -> u64 {
        let queued: u64 = self.queue.iter().map(|j| j.work).sum();
        let serving: u64 = self.in_service.iter().flatten().map(|j| j.work).sum();
        queued + serving
    }

    /// Whether any request is queued or in service.
    pub fn is_busy(&self) -> bool {
        !self.queue.is_empty() || self.in_service.iter().any(Option::is_some)
    }

    /// Ticks until a request of `work` units admitted *now* would
    /// complete, assuming FIFO drain at full aggregate rate. The
    /// aggregate-rate approximation can only underestimate server
    /// idleness, never the backlog, so admission decisions based on it
    /// are conservative in the safe direction (a request admitted on
    /// this bound may finish early, never pathologically late).
    pub fn estimated_completion_ticks(&self, work: u64) -> u64 {
        let aggregate = self.rate * self.servers as u64;
        self.backlog().saturating_add(work).div_ceil(aggregate)
    }

    /// One coherent, non-mutating snapshot of the compartment's load —
    /// the replica router's scoring input. Mirrors
    /// [`CircuitBreaker::peek_state`](crate::CircuitBreaker::peek_state):
    /// scoring a candidate must never perturb its admission state, so
    /// everything here is read straight off the structures with no side
    /// effects (and the fields agree bit-for-bit with the individual
    /// accessors they summarize).
    pub fn peek_backlog(&self) -> BulkheadProbe {
        BulkheadProbe {
            queued: self.queue.len(),
            in_service: self.in_service.iter().flatten().count(),
            backlog: self.backlog(),
            queue_full: self.queue_full(),
            occupancy: self.occupancy(),
        }
    }

    /// Admit a job to the queue.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — callers must check
    /// [`Bulkhead::queue_full`] first (admission control is the caller's
    /// policy decision, the bulkhead only enforces the bound).
    pub fn admit(&mut self, job: Job) {
        assert!(!self.queue_full(), "admit called on a full bulkhead queue");
        self.queue.push_back(job);
    }

    /// Cancel job `id` wherever it sits — queued or mid-service — and
    /// return it with its *remaining* work (the reclaimed capacity).
    /// This is the hedge-reclaim primitive: when one attempt of a hedged
    /// request wins, the loser's unfinished work is pulled back so
    /// redundancy costs only the work actually raced, not the full
    /// duplicate. A freed server stays idle until the next tick's
    /// refill, keeping dispatch order purely tick-driven. Returns `None`
    /// if no such job is present.
    pub fn cancel(&mut self, id: u64) -> Option<Job> {
        if let Some(pos) = self.queue.iter().position(|j| j.id == id) {
            return self.queue.remove(pos);
        }
        for slot in &mut self.in_service {
            if slot.is_some_and(|j| j.id == id) {
                return slot.take();
            }
        }
        None
    }

    /// Advance one logical tick: each server retires up to `rate` work
    /// units, completed jobs are returned (in server order, which is
    /// itself deterministic FIFO dispatch order), and freed servers pull
    /// the next queued jobs. A single job's leftover tick capacity does
    /// not spill into the next queued job — one job per server per tick
    /// keeps the model simple and strictly deterministic.
    pub fn tick(&mut self) -> Vec<Job> {
        let mut completed = Vec::new();
        self.tick_into(&mut completed);
        completed
    }

    /// [`Bulkhead::tick`], appending the completed jobs to a reused
    /// buffer.
    pub(crate) fn tick_into(&mut self, completed: &mut Vec<Job>) {
        for slot in &mut self.in_service {
            if let Some(job) = slot {
                job.work = job.work.saturating_sub(self.rate);
                if job.work == 0 {
                    completed.push(*job);
                    *slot = None;
                }
            }
        }
        for slot in &mut self.in_service {
            if slot.is_none() {
                match self.queue.pop_front() {
                    Some(job) => *slot = Some(job),
                    None => break,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_fifo_and_reports_completions() {
        let mut b = Bulkhead::new(4, 1, 10);
        b.admit(Job { id: 0, work: 10 });
        b.admit(Job { id: 1, work: 10 });
        assert!(b.is_busy());
        // Tick 1: nothing in service yet; the server picks up job 0.
        assert!(b.tick().is_empty());
        // Tick 2: job 0 retires, job 1 enters service.
        let done = b.tick();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 0);
        let done = b.tick();
        assert_eq!(done[0].id, 1);
        assert!(!b.is_busy());
    }

    #[test]
    fn parallel_servers_complete_in_server_order() {
        let mut b = Bulkhead::new(4, 2, 5);
        b.admit(Job { id: 7, work: 5 });
        b.admit(Job { id: 8, work: 5 });
        b.tick(); // both enter service
        let done = b.tick();
        assert_eq!(done.iter().map(|j| j.id).collect::<Vec<_>>(), vec![7, 8]);
    }

    #[test]
    fn queue_bound_is_enforced() {
        let mut b = Bulkhead::new(2, 1, 1);
        b.admit(Job { id: 0, work: 1 });
        b.admit(Job { id: 1, work: 1 });
        assert!(b.queue_full());
        assert!((b.occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "full bulkhead")]
    fn admitting_past_capacity_panics() {
        let mut b = Bulkhead::new(1, 1, 1);
        b.admit(Job { id: 0, work: 1 });
        b.admit(Job { id: 1, work: 1 });
    }

    #[test]
    fn completion_estimate_covers_backlog() {
        let mut b = Bulkhead::new(8, 2, 4);
        b.admit(Job { id: 0, work: 16 });
        b.admit(Job { id: 1, work: 16 });
        // Backlog 32 + own 8 = 40 work over aggregate rate 8 → 5 ticks.
        assert_eq!(b.estimated_completion_ticks(8), 5);
        assert_eq!(b.backlog(), 32);
    }

    #[test]
    fn zero_capacity_bulkhead_is_always_full() {
        let b = Bulkhead::new(0, 1, 1);
        assert!(b.queue_full());
        assert_eq!(b.occupancy(), 0.0);
    }

    #[test]
    fn peek_backlog_is_a_coherent_non_mutating_snapshot() {
        let mut b = Bulkhead::new(2, 1, 4);
        b.admit(Job { id: 0, work: 8 });
        b.admit(Job { id: 1, work: 4 });
        b.tick(); // job 0 enters service with 4 work left
        let probe = b.peek_backlog();
        assert_eq!(probe.queued, b.queued());
        assert_eq!(probe.in_service, 1);
        assert_eq!(probe.backlog, b.backlog());
        assert_eq!(probe.queue_full, b.queue_full());
        assert!((probe.occupancy - b.occupancy()).abs() < 1e-12);
        // Peeking changed nothing: the next probe is identical.
        assert_eq!(probe, b.peek_backlog());
    }

    #[test]
    fn cancel_reclaims_queued_and_in_service_work() {
        let mut b = Bulkhead::new(4, 1, 4);
        b.admit(Job { id: 0, work: 12 });
        b.admit(Job { id: 1, work: 6 });
        b.tick(); // job 0 enters service
        b.tick(); // job 0 retires 4 units: 8 work left
        let queued = b.cancel(1).expect("queued job cancels");
        assert_eq!(queued.work, 6, "queued work untouched before cancel");
        let serving = b.cancel(0).expect("in-service job cancels");
        assert_eq!(serving.work, 8, "only the remaining work is reclaimed");
        assert!(b.cancel(0).is_none(), "a job cancels at most once");
        assert!(!b.is_busy());
        assert_eq!(b.backlog(), 0);
    }

    #[test]
    fn cancelled_server_slot_refills_on_the_next_tick() {
        let mut b = Bulkhead::new(4, 1, 10);
        b.admit(Job { id: 0, work: 25 });
        b.admit(Job { id: 1, work: 10 });
        b.tick(); // job 0 in service
        b.cancel(0);
        // The freed server stays idle this tick; job 1 is picked up on
        // the next tick and completes on the one after.
        let done = b.tick();
        assert!(done.is_empty());
        let done = b.tick();
        assert_eq!(done.iter().map(|j| j.id).collect::<Vec<_>>(), vec![1]);
    }
}
