//! *K*-maintainability (the paper's §4.3, after Baral & Eiter 2004).
//!
//! "We say that a system is K-maintainable if, for any non-normal state of
//! the system, there exists a sequence of actions (i.e., events controllable
//! by a system administrator) that move the system back to one of the normal
//! states within k steps."
//!
//! [`TransitionSystem`] is an explicit-state model with *controllable*
//! actions (the administrator's moves) and *exogenous* transitions (the
//! environment's moves). Internally the adjacency lists are mirrored into
//! compressed-sparse-row (CSR) arrays — forward and reverse edges packed
//! into flat `u32` offset/target vectors — built once on first analysis and
//! invalidated when edges change. Two analyses are provided:
//!
//! * [`TransitionSystem::analyze`] — the paper's definition: the
//!   environment stays quiet during repair. Backward BFS (word-packed
//!   bitset frontiers over the reverse CSR) from the normal states yields,
//!   for every state, the minimum number of controllable steps to
//!   normality, and a [`MaintenancePolicy`] achieving it. This is the
//!   polynomial-time construction of Baral & Eiter.
//! * [`TransitionSystem::analyze_adversarial`] — a strictly stronger
//!   variant in which after every administrator action the environment may
//!   take one worst-case exogenous step; computed as a min-max fixed point
//!   by Jacobi (snapshot) value iteration, parallelizable over state
//!   ranges ([`TransitionSystem::analyze_adversarial_threads`]) with
//!   thread-invariant output.
//!
//! For bit-string DCSPs the explicit construction
//! ([`TransitionSystem::from_bit_dcsp`]) materializes all `2^n` states and
//! is capped at 20 bits; the *implicit* checkers [`analyze_bit_dcsp`] and
//! [`analyze_bit_dcsp_adversarial`] generate single-bit-flip moves on the
//! fly and scale past `2^20` states while producing byte-identical
//! reports. The implicit dense paths cap at 24 bits (typed
//! [`CoreError::StateSpaceTooLarge`] via the `try_` variants); beyond
//! that, the *compressed-frontier* engines
//! ([`analyze_bit_dcsp_frontiers`],
//! [`analyze_bit_dcsp_adversarial_frontiers`]) trade the per-state level
//! array and policy for word-packed frontier bitsets and streamed
//! per-depth counts ([`FrontierSummary`]), reaching `2^30` states in less
//! memory than the dense `2^24` run; [`analyze_bit_dcsp_auto`] routes by
//! size.
//!
//! Policy tie-breaking is canonical in every analysis path: among the
//! controllable successors achieving the optimal value, the one inserted
//! first is chosen (for bit DCSPs, the lowest flipped bit). This makes the
//! fast paths, the retained references, and the implicit generators agree
//! exactly, which the test suite checks.

use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::bitwords::{count_words, one_flip_dilation_word, xor_shifted_word, BitWords};
use resilience_core::{Config, Constraint, CoreError};

/// "Unreachable / unbounded" sentinel for adversarial values. Kept well
/// below `usize::MAX` so `best + 1` cannot overflow.
const INF: usize = usize::MAX / 4;

/// BFS "not yet visited" sentinel; valid levels are `<= n_states < u32::MAX`.
const UNSET: u32 = u32::MAX;

/// Explicit-state transition system with controllable and exogenous moves.
#[derive(Debug, Clone)]
pub struct TransitionSystem {
    n_states: usize,
    normal: Vec<bool>,
    /// `controllable[s]` = administrator moves available in `s`.
    controllable: Vec<Vec<usize>>,
    /// `exogenous[s]` = environment moves possible from `s`.
    exogenous: Vec<Vec<usize>>,
    /// CSR mirror of the adjacency lists, built lazily on first analysis
    /// and dropped whenever an edge is added.
    csr: OnceLock<Csr>,
}

/// One adjacency relation in compressed-sparse-row form: the neighbors of
/// `s` are `targets[offsets[s] .. offsets[s + 1]]`, in insertion order.
#[derive(Debug, Clone)]
struct EdgeList {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl EdgeList {
    fn forward(adj: &[Vec<usize>]) -> Self {
        let n_edges: usize = adj.iter().map(Vec::len).sum();
        assert!(
            n_edges < u32::MAX as usize,
            "edge count exceeds CSR capacity"
        );
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut targets = Vec::with_capacity(n_edges);
        offsets.push(0u32);
        for tos in adj {
            targets.extend(tos.iter().map(|&t| t as u32));
            offsets.push(targets.len() as u32);
        }
        EdgeList { offsets, targets }
    }

    /// Reverse adjacency via stable counting sort: each state's
    /// predecessors appear in ascending (source, insertion) order.
    fn reversed(adj: &[Vec<usize>]) -> Self {
        let n = adj.len();
        let n_edges: usize = adj.iter().map(Vec::len).sum();
        assert!(
            n_edges < u32::MAX as usize,
            "edge count exceeds CSR capacity"
        );
        let mut counts = vec![0u32; n + 1];
        for tos in adj {
            for &t in tos {
                counts[t + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; n_edges];
        for (from, tos) in adj.iter().enumerate() {
            for &t in tos {
                targets[cursor[t] as usize] = from as u32;
                cursor[t] += 1;
            }
        }
        EdgeList { offsets, targets }
    }

    fn neighbors(&self, s: usize) -> &[u32] {
        &self.targets[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

#[derive(Debug, Clone)]
struct Csr {
    /// Forward controllable edges.
    ctrl: EdgeList,
    /// Reverse controllable edges (for the backward BFS).
    ctrl_rev: EdgeList,
    /// Forward exogenous edges (for the adversarial worst-case reply).
    exo: EdgeList,
}

impl Csr {
    fn build(controllable: &[Vec<usize>], exogenous: &[Vec<usize>]) -> Self {
        assert!(
            controllable.len() < u32::MAX as usize,
            "state count exceeds CSR capacity"
        );
        Csr {
            ctrl: EdgeList::forward(controllable),
            ctrl_rev: EdgeList::reversed(controllable),
            exo: EdgeList::forward(exogenous),
        }
    }
}

/// Split `out` into `threads` contiguous chunks and fill each on its own
/// thread. Chunk boundaries cannot affect the result — every element is a
/// pure function of its index and shared read-only state — so the output
/// is identical for any thread count.
fn run_chunks<T: Send, F>(out: &mut [T], threads: usize, fill: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() {
        return;
    }
    if threads <= 1 {
        fill(0, out);
        return;
    }
    let chunk_len = out.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for (c, chunk) in out.chunks_mut(chunk_len).enumerate() {
            let fill = &fill;
            scope.spawn(move || fill(c * chunk_len, chunk));
        }
    });
}

/// A memoryless repair policy: for each state, the controllable successor
/// to move to (or `None` for normal/hopeless states).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintenancePolicy {
    action: Vec<Option<usize>>,
}

impl MaintenancePolicy {
    /// The successor this policy chooses in `state`, if any.
    pub fn next_state(&self, state: usize) -> Option<usize> {
        self.action.get(state).copied().flatten()
    }

    /// Execute the policy from `state` for at most `budget` steps over
    /// `system`, returning the visited states (including the start).
    pub fn execute(&self, system: &TransitionSystem, state: usize, budget: usize) -> Vec<usize> {
        let mut path = vec![state];
        let mut cur = state;
        for _ in 0..budget {
            if system.is_normal(cur) {
                break;
            }
            match self.next_state(cur) {
                Some(next) => {
                    path.push(next);
                    cur = next;
                }
                None => break,
            }
        }
        path
    }
}

/// Result of a maintainability analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintainabilityReport {
    /// `levels[s]` = minimum controllable steps from `s` to a normal state
    /// (`None` if unreachable — the system is not maintainable from `s`).
    pub levels: Vec<Option<usize>>,
    /// The constructed policy.
    pub policy: MaintenancePolicy,
}

impl MaintainabilityReport {
    /// The smallest `k` such that the system is k-maintainable, or `None`
    /// if some state can never reach normality.
    pub fn min_k(&self) -> Option<usize> {
        let mut max = 0;
        for lvl in &self.levels {
            match lvl {
                Some(l) => max = max.max(*l),
                None => return None,
            }
        }
        Some(max)
    }

    /// Whether every state reaches a normal state within `k` controllable
    /// steps.
    pub fn is_k_maintainable(&self, k: usize) -> bool {
        self.levels.iter().all(|l| matches!(l, Some(x) if *x <= k))
    }

    /// States from which normality is unreachable.
    pub fn hopeless_states(&self) -> Vec<usize> {
        self.levels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.is_none().then_some(i))
            .collect()
    }

    /// Number of states first reached at each BFS depth: element `d` is
    /// the size of the backward-search frontier at distance `d` from the
    /// normal set. Hopeless states (level `None`) are excluded. Derived
    /// from `levels`, so it is identical however the BFS was scheduled.
    pub fn frontier_sizes(&self) -> Vec<u64> {
        let mut sizes = Vec::new();
        for lvl in self.levels.iter().flatten() {
            if *lvl >= sizes.len() {
                sizes.resize(*lvl + 1, 0u64);
            }
            sizes[*lvl] += 1;
        }
        sizes
    }
}

/// Backward BFS from the normal states over the reverse edge list, with
/// word-packed bitset frontiers. Returns raw `u32` levels (`UNSET` =
/// unreachable).
fn bfs_levels(n_states: usize, normal: &[bool], rev: &EdgeList) -> Vec<u32> {
    let mut levels = vec![UNSET; n_states];
    let mut frontier = BitWords::new(n_states);
    let mut next = BitWords::new(n_states);
    for (s, &is_normal) in normal.iter().enumerate() {
        if is_normal {
            levels[s] = 0;
            frontier.set(s);
        }
    }
    let mut depth: u32 = 0;
    loop {
        let mut any = false;
        frontier.for_each_one(|s| {
            for &p in rev.neighbors(s) {
                let p = p as usize;
                if levels[p] == UNSET {
                    levels[p] = depth + 1;
                    next.set(p);
                    any = true;
                }
            }
        });
        if !any {
            break;
        }
        depth += 1;
        std::mem::swap(&mut frontier, &mut next);
        next.clear_all();
    }
    levels
}

impl TransitionSystem {
    /// Empty system with `n_states` states, no moves, no normal states.
    pub fn new(n_states: usize) -> Self {
        TransitionSystem {
            n_states,
            normal: vec![false; n_states],
            controllable: vec![Vec::new(); n_states],
            exogenous: vec![Vec::new(); n_states],
            csr: OnceLock::new(),
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.n_states
    }

    /// Whether the system has no states.
    pub fn is_empty(&self) -> bool {
        self.n_states == 0
    }

    /// Mark `state` as normal.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn mark_normal(&mut self, state: usize) {
        self.normal[state] = true;
    }

    /// Whether `state` is normal.
    pub fn is_normal(&self, state: usize) -> bool {
        self.normal[state]
    }

    /// Add a controllable (administrator) move `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_controllable(&mut self, from: usize, to: usize) {
        assert!(from < self.n_states && to < self.n_states);
        self.controllable[from].push(to);
        self.csr.take();
    }

    /// Add an exogenous (environment) move `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_exogenous(&mut self, from: usize, to: usize) {
        assert!(from < self.n_states && to < self.n_states);
        self.exogenous[from].push(to);
        self.csr.take();
    }

    /// Controllable successors of `state`.
    pub fn controllable_moves(&self, state: usize) -> &[usize] {
        &self.controllable[state]
    }

    /// Exogenous successors of `state`.
    pub fn exogenous_moves(&self, state: usize) -> &[usize] {
        &self.exogenous[state]
    }

    fn csr(&self) -> &Csr {
        self.csr
            .get_or_init(|| Csr::build(&self.controllable, &self.exogenous))
    }

    /// Canonical policy from computed levels: for each non-normal state
    /// with level `L`, the first controllable successor in insertion order
    /// at level `L - 1`. Order-free with respect to how the levels were
    /// computed, so every analysis path yields the same policy.
    fn policy_from_levels(&self, levels: &[Option<usize>]) -> MaintenancePolicy {
        let mut action = vec![None; self.n_states];
        for (s, slot) in action.iter_mut().enumerate() {
            if self.normal[s] {
                continue;
            }
            if let Some(l) = levels[s] {
                *slot = self.controllable[s]
                    .iter()
                    .copied()
                    .find(|&t| levels[t] == Some(l - 1));
            }
        }
        MaintenancePolicy { action }
    }

    /// Canonical adversarial policy from converged values `v` and the
    /// per-state worst-case reply values `worst`: the first controllable
    /// successor in insertion order achieving the optimal `v[s] - 1`.
    fn adversarial_policy(&self, v: &[usize], worst: &[usize]) -> MaintenancePolicy {
        let mut action = vec![None; self.n_states];
        for (s, slot) in action.iter_mut().enumerate() {
            if self.normal[s] || v[s] >= INF {
                continue;
            }
            let target = v[s] - 1;
            *slot = self.controllable[s]
                .iter()
                .copied()
                .find(|&t| worst[t] == target);
        }
        MaintenancePolicy { action }
    }

    /// Fill `worst[t] = max(v[t], max over exogenous replies u of v[u])`
    /// for every state, chunked over `threads` threads.
    fn worst_pass(csr: &Csr, v: &[usize], worst: &mut [usize], threads: usize) {
        run_chunks(worst, threads, |start, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                let t = start + i;
                let mut w = v[t];
                for &u in csr.exo.neighbors(t) {
                    w = w.max(v[u as usize]);
                }
                *slot = w;
            }
        });
    }

    /// Build the full `2^n`-state transition system of an `n`-bit DCSP:
    /// states are configurations (encoded as integers), controllable moves
    /// are single-bit flips, normal states are those satisfying `env`, and
    /// exogenous moves are all damages of up to `max_damage` bit flips from
    /// a *normal* state (shocks strike fit systems).
    ///
    /// # Panics
    ///
    /// Panics if `n_bits > 20` (the explicit state space would exceed ~1M
    /// states). Use [`analyze_bit_dcsp`] / [`analyze_bit_dcsp_adversarial`]
    /// for larger spaces.
    pub fn from_bit_dcsp(n_bits: usize, env: &dyn Constraint, max_damage: usize) -> Self {
        assert!(n_bits <= 20, "explicit construction limited to 20 bits");
        let n_states = 1usize << n_bits;
        let mut ts = TransitionSystem::new(n_states);
        let mut probe = Config::zeros(n_bits);
        for s in 0..n_states {
            probe.set_from_u64(s as u64);
            if env.is_fit(&probe) {
                ts.mark_normal(s);
            }
            for b in 0..n_bits {
                ts.add_controllable(s, s ^ (1 << b));
            }
        }
        // Exogenous damage: from each normal state, every ≤ max_damage
        // flip. Dedup via a bitset reset per source through the `touched`
        // list; discovery order (frontier order × bit order) is unchanged,
        // so the edge lists are identical to a naive linear-scan dedup.
        let mut seen = BitWords::new(n_states);
        let mut touched: Vec<usize> = Vec::new();
        let mut frontier: Vec<usize> = Vec::new();
        let mut next: Vec<usize> = Vec::new();
        for s in 0..n_states {
            if !ts.normal[s] {
                continue;
            }
            frontier.clear();
            frontier.push(s);
            seen.set(s);
            touched.push(s);
            for _ in 0..max_damage {
                next.clear();
                for &f in &frontier {
                    for b in 0..n_bits {
                        let t = f ^ (1 << b);
                        if !seen.get(t) {
                            seen.set(t);
                            touched.push(t);
                            next.push(t);
                            ts.add_exogenous(s, t);
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
            }
            for &t in &touched {
                seen.clear(t);
            }
            touched.clear();
        }
        ts
    }

    /// The paper's K-maintainability: backward BFS from the normal states
    /// over reversed controllable edges, `O(states + edges)` — the
    /// polynomial-time construction the paper cites from Baral & Eiter.
    /// Runs over the cached CSR with bitset frontiers; the report is
    /// identical to [`TransitionSystem::analyze_reference`].
    pub fn analyze(&self) -> MaintainabilityReport {
        let csr = self.csr();
        let raw = bfs_levels(self.n_states, &self.normal, &csr.ctrl_rev);
        let levels: Vec<Option<usize>> = raw
            .into_iter()
            .map(|l| (l != UNSET).then_some(l as usize))
            .collect();
        MaintainabilityReport {
            policy: self.policy_from_levels(&levels),
            levels,
        }
    }

    /// Reference implementation of [`TransitionSystem::analyze`], retained
    /// for differential testing: pointer-chasing `Vec<Vec<_>>` reverse
    /// adjacency built per call and a FIFO BFS. Produces an identical
    /// report to the CSR path.
    pub fn analyze_reference(&self) -> MaintainabilityReport {
        let mut levels: Vec<Option<usize>> = vec![None; self.n_states];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); self.n_states];
        for (from, tos) in self.controllable.iter().enumerate() {
            for &to in tos {
                rev[to].push(from);
            }
        }
        let mut queue = VecDeque::new();
        for (s, lvl) in levels.iter_mut().enumerate() {
            if self.normal[s] {
                *lvl = Some(0);
                queue.push_back(s);
            }
        }
        while let Some(s) = queue.pop_front() {
            let next_level = levels[s].expect("queued states have levels") + 1;
            for &p in &rev[s] {
                if levels[p].is_none() {
                    levels[p] = Some(next_level);
                    queue.push_back(p);
                }
            }
        }
        MaintainabilityReport {
            policy: self.policy_from_levels(&levels),
            levels,
        }
    }

    /// Adversarial maintainability: after each administrator action landing
    /// in `t`, the environment may take one exogenous move out of `t` (or
    /// stay). `levels[s]` is the worst-case number of administrator steps
    /// needed; computed by value iteration on the min-max recurrence
    /// `V(s) = 1 + min_a max_{u ∈ {t_a} ∪ exo(t_a)} V(u)`, `V = 0` on
    /// normal states. Single-threaded; see
    /// [`TransitionSystem::analyze_adversarial_threads`].
    pub fn analyze_adversarial(&self) -> MaintainabilityReport {
        self.analyze_adversarial_threads(1)
    }

    /// [`TransitionSystem::analyze_adversarial`] with the min-max fixed
    /// point parallelized by state-range sweeps. Each Jacobi sweep reads a
    /// snapshot `v_prev` and writes `v_next`, so every element is a pure
    /// function of the previous sweep and the output is identical for any
    /// `threads` (and identical to the Gauss-Seidel
    /// [`TransitionSystem::analyze_adversarial_reference`]: both iterate a
    /// monotone operator down from ⊤ to the same greatest fixed point, and
    /// finite values — all `≤ n_states` — settle within `n_states` sweeps).
    pub fn analyze_adversarial_threads(&self, threads: usize) -> MaintainabilityReport {
        let threads = threads.max(1);
        let csr = self.csr();
        let mut v = vec![INF; self.n_states];
        for (s, value) in v.iter_mut().enumerate() {
            if self.normal[s] {
                *value = 0;
            }
        }
        let mut v_next = v.clone();
        let mut worst = vec![INF; self.n_states];
        for _ in 0..self.n_states {
            Self::worst_pass(csr, &v, &mut worst, threads);
            {
                let (v_ref, worst_ref, normal) = (&v, &worst, &self.normal);
                run_chunks(&mut v_next, threads, |start, chunk| {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        let s = start + i;
                        *slot = if normal[s] {
                            0
                        } else {
                            let mut best = INF;
                            for &t in csr.ctrl.neighbors(s) {
                                best = best.min(worst_ref[t as usize]);
                            }
                            if best >= INF {
                                v_ref[s]
                            } else {
                                v_ref[s].min(best + 1)
                            }
                        };
                    }
                });
            }
            let changed = v_next != v;
            std::mem::swap(&mut v, &mut v_next);
            if !changed {
                break;
            }
        }
        // Recompute the replies from the converged values for the policy.
        Self::worst_pass(csr, &v, &mut worst, threads);
        let policy = self.adversarial_policy(&v, &worst);
        let levels = v
            .into_iter()
            .map(|x| if x >= INF { None } else { Some(x) })
            .collect();
        MaintainabilityReport { levels, policy }
    }

    /// Reference implementation of
    /// [`TransitionSystem::analyze_adversarial`], retained for differential
    /// testing: in-place Gauss-Seidel value iteration over the raw
    /// adjacency lists. Produces an identical report to the Jacobi path.
    pub fn analyze_adversarial_reference(&self) -> MaintainabilityReport {
        let mut v = vec![INF; self.n_states];
        for (s, value) in v.iter_mut().enumerate() {
            if self.normal[s] {
                *value = 0;
            }
        }
        // Value iteration: at most n_states sweeps are needed because
        // levels only take values in 0..n_states.
        for _ in 0..self.n_states {
            let mut changed = false;
            for s in 0..self.n_states {
                if self.normal[s] {
                    continue;
                }
                let mut best = INF;
                for &t in &self.controllable[s] {
                    // Worst case over the environment's reply.
                    let mut worst = v[t];
                    for &u in &self.exogenous[t] {
                        worst = worst.max(v[u]);
                    }
                    best = best.min(worst);
                }
                let candidate = if best >= INF { INF } else { best + 1 };
                if candidate < v[s] {
                    v[s] = candidate;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut worst = vec![INF; self.n_states];
        Self::worst_pass(self.csr(), &v, &mut worst, 1);
        let policy = self.adversarial_policy(&v, &worst);
        let levels = v
            .into_iter()
            .map(|x| if x >= INF { None } else { Some(x) })
            .collect();
        MaintainabilityReport { levels, policy }
    }
}

/// Evaluate `env` on every state of an `n`-bit space into a bitset.
fn normal_bitset(n_bits: usize, env: &dyn Constraint) -> BitWords {
    let n_states = 1usize << n_bits;
    let mut normal = BitWords::new(n_states);
    let mut probe = Config::zeros(n_bits);
    for s in 0..n_states {
        probe.set_from_u64(s as u64);
        if env.is_fit(&probe) {
            normal.set(s);
        }
    }
    normal
}

/// Largest `n_bits` the dense implicit analyses accept: beyond `2^24`
/// states the per-state level and policy arrays dominate memory (the
/// compressed [`analyze_bit_dcsp_frontiers`] path reaches `2^30` in less
/// space than the dense `2^24` run).
const DENSE_BIT_LIMIT: usize = 24;

/// K-maintainability of an `n`-bit DCSP without materializing the
/// transition system: states are configurations, controllable moves are
/// single-bit flips (involutions, so the backward BFS walks forward
/// neighbors), and normal states are those satisfying `env`. Produces a
/// report identical to
/// `TransitionSystem::from_bit_dcsp(n_bits, env, _).analyze()` while
/// scaling past `2^20` states (the quiet analysis ignores exogenous edges,
/// so no damage bound is taken).
///
/// # Panics
///
/// Panics if `n_bits > 24` (the per-state level and policy arrays for
/// `2^24` states already cost hundreds of MiB). Use
/// [`try_analyze_bit_dcsp`] for a typed error, or
/// [`analyze_bit_dcsp_auto`] to route oversized instances through the
/// compressed-frontier path automatically.
pub fn analyze_bit_dcsp(n_bits: usize, env: &dyn Constraint) -> MaintainabilityReport {
    match try_analyze_bit_dcsp(n_bits, env) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// [`analyze_bit_dcsp`] with the size cap surfaced as a typed error
/// ([`CoreError::StateSpaceTooLarge`]) instead of a panic, so callers can
/// fall back to the compressed path.
///
/// # Errors
///
/// Returns [`CoreError::StateSpaceTooLarge`] when `n_bits` exceeds the
/// dense limit of 24 bits.
pub fn try_analyze_bit_dcsp(
    n_bits: usize,
    env: &dyn Constraint,
) -> Result<MaintainabilityReport, CoreError> {
    if n_bits > DENSE_BIT_LIMIT {
        return Err(CoreError::StateSpaceTooLarge {
            n_bits,
            limit: DENSE_BIT_LIMIT,
        });
    }
    let n_states = 1usize << n_bits;
    let normal = normal_bitset(n_bits, env);
    let mut levels = vec![UNSET; n_states];
    let mut frontier = normal.clone();
    let mut next = BitWords::new(n_states);
    normal.for_each_one(|s| {
        levels[s] = 0;
    });
    let mut depth: u32 = 0;
    loop {
        let mut any = false;
        frontier.for_each_one(|s| {
            for b in 0..n_bits {
                let p = s ^ (1 << b);
                if levels[p] == UNSET {
                    levels[p] = depth + 1;
                    next.set(p);
                    any = true;
                }
            }
        });
        if !any {
            break;
        }
        depth += 1;
        std::mem::swap(&mut frontier, &mut next);
        next.clear_all();
    }
    let mut action = vec![None; n_states];
    for (s, slot) in action.iter_mut().enumerate() {
        if normal.get(s) || levels[s] == UNSET {
            continue;
        }
        let l = levels[s];
        *slot = (0..n_bits)
            .map(|b| s ^ (1 << b))
            .find(|&t| levels[t] + 1 == l);
    }
    Ok(MaintainabilityReport {
        levels: levels
            .into_iter()
            .map(|l| (l != UNSET).then_some(l as usize))
            .collect(),
        policy: MaintenancePolicy { action },
    })
}

/// Adversarial K-maintainability of an `n`-bit DCSP with on-the-fly move
/// generation: controllable moves are single-bit flips; from every
/// *normal* state the environment may damage up to `max_damage` bits (the
/// same shock model as [`TransitionSystem::from_bit_dcsp`]). The min-max
/// fixed point runs as thread-chunked Jacobi sweeps; output is identical
/// for any `threads` and to
/// `TransitionSystem::from_bit_dcsp(n_bits, env, max_damage)
///     .analyze_adversarial()`.
///
/// # Panics
///
/// Panics if `n_bits > 24`. Use [`try_analyze_bit_dcsp_adversarial`] for
/// a typed error, or [`analyze_bit_dcsp_adversarial_frontiers`] for the
/// compressed path.
pub fn analyze_bit_dcsp_adversarial(
    n_bits: usize,
    env: &dyn Constraint,
    max_damage: usize,
    threads: usize,
) -> MaintainabilityReport {
    match try_analyze_bit_dcsp_adversarial(n_bits, env, max_damage, threads) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// [`analyze_bit_dcsp_adversarial`] with the size cap surfaced as a typed
/// error instead of a panic.
///
/// # Errors
///
/// Returns [`CoreError::StateSpaceTooLarge`] when `n_bits` exceeds the
/// dense limit of 24 bits.
pub fn try_analyze_bit_dcsp_adversarial(
    n_bits: usize,
    env: &dyn Constraint,
    max_damage: usize,
    threads: usize,
) -> Result<MaintainabilityReport, CoreError> {
    if n_bits > DENSE_BIT_LIMIT {
        return Err(CoreError::StateSpaceTooLarge {
            n_bits,
            limit: DENSE_BIT_LIMIT,
        });
    }
    let threads = threads.max(1);
    let n_states = 1usize << n_bits;
    let normal = normal_bitset(n_bits, env);
    // All damage patterns as XOR masks (order irrelevant: only the max
    // over the ball is taken).
    let masks: Vec<usize> = (1..n_states)
        .filter(|m| (m.count_ones() as usize) <= max_damage)
        .collect();
    let mut v = vec![INF; n_states];
    for (s, value) in v.iter_mut().enumerate() {
        if normal.get(s) {
            *value = 0;
        }
    }
    let mut v_next = v.clone();
    let mut worst = vec![INF; n_states];
    let worst_pass = |v: &[usize], worst: &mut [usize]| {
        run_chunks(worst, threads, |start, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                let t = start + i;
                *slot = if normal.get(t) {
                    // v[t] = 0; the environment picks the worst state in
                    // the damage ball around t.
                    let mut w = 0;
                    for &m in &masks {
                        w = w.max(v[t ^ m]);
                    }
                    w
                } else {
                    v[t]
                };
            }
        });
    };
    for _ in 0..n_states {
        worst_pass(&v, &mut worst);
        {
            let (v_ref, worst_ref, normal) = (&v, &worst, &normal);
            run_chunks(&mut v_next, threads, |start, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let s = start + i;
                    *slot = if normal.get(s) {
                        0
                    } else {
                        let mut best = INF;
                        for b in 0..n_bits {
                            best = best.min(worst_ref[s ^ (1 << b)]);
                        }
                        if best >= INF {
                            v_ref[s]
                        } else {
                            v_ref[s].min(best + 1)
                        }
                    };
                }
            });
        }
        let changed = v_next != v;
        std::mem::swap(&mut v, &mut v_next);
        if !changed {
            break;
        }
    }
    worst_pass(&v, &mut worst);
    let mut action = vec![None; n_states];
    for (s, slot) in action.iter_mut().enumerate() {
        if normal.get(s) || v[s] >= INF {
            continue;
        }
        let target = v[s] - 1;
        *slot = (0..n_bits)
            .map(|b| s ^ (1 << b))
            .find(|&t| worst[t] == target);
    }
    Ok(MaintainabilityReport {
        levels: v
            .into_iter()
            .map(|x| if x >= INF { None } else { Some(x) })
            .collect(),
        policy: MaintenancePolicy { action },
    })
}

/// Compressed-frontier summary of an implicit maintainability analysis:
/// per-depth frontier sizes and the hopeless-state count, streamed level
/// by level instead of materialized as a per-state array. This is the
/// whole observable output of the frontier engines — everything a
/// [`MaintainabilityReport`] derives about *sizes* (min-k, k-maintainable,
/// frontier histogram) without the per-state levels and policy whose
/// storage caps the dense path at `2^24` states.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct FrontierSummary {
    /// Number of state bits; the space has `2^n_bits` states.
    pub n_bits: usize,
    /// `frontier_sizes[d]` = number of states first reached at depth `d`
    /// (depth 0 = the normal set). Empty when there are no normal states.
    pub frontier_sizes: Vec<u64>,
    /// Number of states from which normality is unreachable.
    pub hopeless: u64,
}

impl FrontierSummary {
    /// The smallest `k` such that the system is k-maintainable, or `None`
    /// if some state can never reach normality. Matches
    /// [`MaintainabilityReport::min_k`] on the same instance.
    pub fn min_k(&self) -> Option<usize> {
        (self.hopeless == 0 && !self.frontier_sizes.is_empty())
            .then(|| self.frontier_sizes.len() - 1)
    }

    /// Whether every state reaches a normal state within `k` steps.
    pub fn is_k_maintainable(&self, k: usize) -> bool {
        matches!(self.min_k(), Some(m) if m <= k)
    }

    /// Largest single frontier — the peak working-set size of the search.
    pub fn frontier_peak(&self) -> u64 {
        self.frontier_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Total number of states in the space.
    pub fn total_states(&self) -> u64 {
        1u64 << self.n_bits
    }
}

/// Fill `out` (word-packed over `2^n_bits` states, state `s` = bit
/// `s % 64` of word `s / 64`) with the fitness of every state, chunked
/// over `threads`.
///
/// Fast path: when the constraint declares a single interchangeability
/// class covering every bit ([`Constraint::symmetry_classes`]), fitness
/// is a function of the popcount alone, so `n_bits + 1` probes of prefix
/// configurations build a lookup table and each state costs one hardware
/// popcount instead of a `Config` round-trip — this is what makes the
/// `2^30` normal-set construction tractable.
fn normal_words(n_bits: usize, env: &dyn Constraint, threads: usize, out: &mut [u64]) {
    let popcount_table = env.symmetry_classes().and_then(|classes| {
        (classes.len() == n_bits && classes.iter().all(|&c| c == classes[0])).then(|| {
            let mut probe = Config::zeros(n_bits);
            let mut table = vec![env.is_fit(&probe)];
            for b in 0..n_bits {
                probe.flip(b);
                table.push(env.is_fit(&probe));
            }
            table
        })
    });
    run_chunks(out, threads, |start, chunk| {
        let mut probe = Config::zeros(n_bits);
        for (i, slot) in chunk.iter_mut().enumerate() {
            let base = ((start + i) as u64) << 6;
            let mut word = 0u64;
            for bit in 0..64u64 {
                let s = base | bit;
                let fit = match &popcount_table {
                    Some(table) => table[s.count_ones() as usize],
                    None => {
                        probe.set_from_u64(s);
                        env.is_fit(&probe)
                    }
                };
                if fit {
                    word |= 1 << bit;
                }
            }
            *slot = word;
        }
    });
}

/// K-maintainability frontiers of an `n`-bit DCSP on the compressed
/// path: three word-packed bitsets (current frontier, next frontier,
/// visited — `2^n / 8` bytes each, carved from a single arena) replace
/// the dense per-state level array, and neighbor generation is a
/// word-level XOR gather — bit `p` of a frontier word maps to bit
/// `p ^ m` under flip mask `m`, so low flips permute bits inside a word
/// and high flips re-index words
/// ([`crate::bitwords::one_flip_dilation_word`] gathers all `n` flips of
/// a word in one pass, and a fully visited word is skipped). Each gather
/// advances 64 sibling states per instruction. Levels are streamed into
/// per-depth counts, never stored per state, which lifts the implicit
/// ceiling from `2^24` dense states to `2^30` — in less memory than the
/// dense `2^24` run.
///
/// The per-depth counts equal
/// [`MaintainabilityReport::frontier_sizes`] of the dense path on the
/// same instance, for any `threads` (chunk boundaries cannot affect a
/// BFS level: every next-frontier word is a pure function of the current
/// frontier).
///
/// # Panics
///
/// Panics unless `6 <= n_bits <= 30` (below 6 bits a state space does
/// not fill one word; above 30 the bitsets pass 128 MiB each — use the
/// dense path below and sampling above).
pub fn analyze_bit_dcsp_frontiers(
    n_bits: usize,
    env: &dyn Constraint,
    threads: usize,
) -> FrontierSummary {
    assert!(
        (6..=30).contains(&n_bits),
        "compressed frontiers support 6..=30 bits"
    );
    let threads = threads.max(1);
    let n_states = 1usize << n_bits;
    let words = n_states >> 6;
    // One arena, three equal buffers: A/B ping-pong as current/next
    // frontier, the third accumulates visited states.
    let mut arena = vec![0u64; 3 * words];
    let (buf_a, rest) = arena.split_at_mut(words);
    let (buf_b, visited) = rest.split_at_mut(words);
    normal_words(n_bits, env, threads, visited);
    buf_a.copy_from_slice(visited);
    let first = count_words(visited);
    if first == 0 {
        return FrontierSummary {
            n_bits,
            frontier_sizes: Vec::new(),
            hopeless: n_states as u64,
        };
    }
    let mut frontier_sizes = vec![first];
    let mut reached = first;
    let mut depth = 0usize;
    loop {
        let (cur, next) = if depth.is_multiple_of(2) {
            (&*buf_a, &mut *buf_b)
        } else {
            (&*buf_b, &mut *buf_a)
        };
        run_chunks(next, threads, |start, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                let w = start + i;
                let seen = visited[w];
                // A fully visited word has no state left to discover.
                *slot = if seen == u64::MAX {
                    0
                } else {
                    one_flip_dilation_word(cur, w, n_bits) & !seen
                };
            }
        });
        let next = if depth.is_multiple_of(2) {
            &*buf_b
        } else {
            &*buf_a
        };
        let mut newly = 0u64;
        for (v, n) in visited.iter_mut().zip(next.iter()) {
            *v |= *n;
            newly += n.count_ones() as u64;
        }
        if newly == 0 {
            break;
        }
        frontier_sizes.push(newly);
        reached += newly;
        depth += 1;
    }
    FrontierSummary {
        n_bits,
        frontier_sizes,
        hopeless: n_states as u64 - reached,
    }
}

/// Collect every non-zero damage mask of popcount ≤ `max_damage` over
/// `n_bits` bits (ascending-bit DFS; order is irrelevant downstream —
/// only intersections over the whole ball are taken).
fn damage_masks(n_bits: usize, max_damage: usize, from: usize, cur: usize, out: &mut Vec<usize>) {
    if max_damage == 0 {
        return;
    }
    for b in from..n_bits {
        let m = cur | (1 << b);
        out.push(m);
        damage_masks(n_bits, max_damage - 1, b + 1, m, out);
    }
}

/// Adversarial K-maintainability frontiers on the compressed path: the
/// min-max fixed point of [`analyze_bit_dcsp_adversarial`] computed as
/// monotone level sets from below instead of per-state value iteration.
/// With `V_d` = states of adversarial value ≤ `d`:
///
/// * `V_0` = the normal set;
/// * `W_d` (states whose worst-case environment reply stays in `V_d`) =
///   non-normal members of `V_d`, plus normal states whose whole damage
///   ball lies in `V_d` — an *erosion* of `V_d` by the mask set;
/// * `V_{d+1}` = normal ∪ one-flip *dilation* of `W_d`.
///
/// Erosion and dilation are word-level XOR gathers, so each level is a
/// few linear passes over three `2^n / 8`-byte bitsets. The per-depth
/// counts `|V_d| − |V_{d−1}|` equal the dense adversarial report's
/// [`MaintainabilityReport::frontier_sizes`], for any `threads`.
///
/// # Panics
///
/// Panics unless `6 <= n_bits <= 30`.
pub fn analyze_bit_dcsp_adversarial_frontiers(
    n_bits: usize,
    env: &dyn Constraint,
    max_damage: usize,
    threads: usize,
) -> FrontierSummary {
    assert!(
        (6..=30).contains(&n_bits),
        "compressed frontiers support 6..=30 bits"
    );
    let threads = threads.max(1);
    let n_states = 1usize << n_bits;
    let words = n_states >> 6;
    let mut masks = Vec::new();
    damage_masks(n_bits, max_damage, 0, 0, &mut masks);
    let mut arena = vec![0u64; 3 * words];
    let (normal, rest) = arena.split_at_mut(words);
    let (vd, scratch) = rest.split_at_mut(words);
    normal_words(n_bits, env, threads, normal);
    vd.copy_from_slice(normal);
    let first = count_words(vd);
    if first == 0 {
        return FrontierSummary {
            n_bits,
            frontier_sizes: Vec::new(),
            hopeless: n_states as u64,
        };
    }
    let mut frontier_sizes = vec![first];
    let mut reached = first;
    loop {
        // W_d into `scratch`: erosion of V_d by the damage ball on the
        // normal states, V_d itself elsewhere.
        // The erosion only ever clears bits of `V_d ∩ normal`, so a word
        // with none skips the mask loop, and the loop stops once every
        // candidate is cleared.
        run_chunks(scratch, threads, |start, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                let w = start + i;
                let mut ero = vd[w] & normal[w];
                for &m in &masks {
                    if ero == 0 {
                        break;
                    }
                    ero &= xor_shifted_word(vd, w, m);
                }
                *slot = (vd[w] & !normal[w]) | ero;
            }
        });
        // V_{d+1} in place: normal ∪ V_d ∪ one-flip dilation of W_d (the
        // V_d term is index-local, so in-place writes are safe). A word
        // already full cannot grow, so it skips the dilation.
        run_chunks(vd, threads, |start, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                let w = start + i;
                let kept = *slot | normal[w];
                *slot = if kept == u64::MAX {
                    kept
                } else {
                    kept | one_flip_dilation_word(scratch, w, n_bits)
                };
            }
        });
        let total = count_words(vd);
        let newly = total - reached;
        if newly == 0 {
            break;
        }
        frontier_sizes.push(newly);
        reached = total;
    }
    FrontierSummary {
        n_bits,
        frontier_sizes,
        hopeless: n_states as u64 - reached,
    }
}

/// Route an implicit quiet analysis to the right engine for its size:
/// dense ([`try_analyze_bit_dcsp`], full report summarized) up to 24
/// bits, compressed frontiers above. `threads` only affects the
/// compressed branch; the summary is identical either way on instances
/// both engines accept.
pub fn analyze_bit_dcsp_auto(
    n_bits: usize,
    env: &dyn Constraint,
    threads: usize,
) -> FrontierSummary {
    match try_analyze_bit_dcsp(n_bits, env) {
        Ok(report) => FrontierSummary {
            n_bits,
            frontier_sizes: report.frontier_sizes(),
            hopeless: report.hopeless_states().len() as u64,
        },
        Err(_) => analyze_bit_dcsp_frontiers(n_bits, env, threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use resilience_core::{seeded_rng, AllOnes, AtLeastOnes, ExplicitSet, PredicateConstraint};

    /// A 4-state chain: 3 → 2 → 1 → 0(normal), controllable steps.
    fn chain() -> TransitionSystem {
        let mut ts = TransitionSystem::new(4);
        ts.mark_normal(0);
        ts.add_controllable(1, 0);
        ts.add_controllable(2, 1);
        ts.add_controllable(3, 2);
        ts
    }

    #[test]
    fn chain_levels_and_policy() {
        let report = chain().analyze();
        assert_eq!(report.levels, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(report.min_k(), Some(3));
        assert!(report.is_k_maintainable(3));
        assert!(!report.is_k_maintainable(2));
        assert_eq!(report.policy.next_state(3), Some(2));
        assert_eq!(report.policy.next_state(0), None);
        let ts = chain();
        assert_eq!(report.policy.execute(&ts, 3, 10), vec![3, 2, 1, 0]);
    }

    #[test]
    fn unreachable_state_blocks_maintainability() {
        let mut ts = chain();
        // Add an isolated state 4? n_states fixed at 4; rebuild with 5.
        let mut ts5 = TransitionSystem::new(5);
        ts5.mark_normal(0);
        ts5.add_controllable(1, 0);
        // State 2,3,4 have no moves.
        ts5.add_controllable(3, 4);
        let report = ts5.analyze();
        assert_eq!(report.min_k(), None);
        assert_eq!(report.hopeless_states(), vec![2, 3, 4]);
        assert!(!report.is_k_maintainable(100));
        // The original chain has no hopeless states.
        assert!(chain().analyze().hopeless_states().is_empty());
        ts.add_exogenous(0, 3); // exogenous moves don't affect plain analysis
        assert_eq!(ts.analyze().min_k(), Some(3));
    }

    #[test]
    fn policy_chooses_shortest_route() {
        // Diamond: 3 →{1,2}, 1→0, 2→0, and a long detour 3→4→...→0.
        let mut ts = TransitionSystem::new(5);
        ts.mark_normal(0);
        ts.add_controllable(3, 4);
        ts.add_controllable(4, 1);
        ts.add_controllable(3, 1);
        ts.add_controllable(1, 0);
        ts.add_controllable(2, 0);
        let report = ts.analyze();
        assert_eq!(report.levels[3], Some(2));
        // Policy from 3 must go via 1 (level 1), not 4 (level 2).
        assert_eq!(report.policy.next_state(3), Some(1));
    }

    #[test]
    fn bit_dcsp_min_k_equals_max_damage_for_all_ones() {
        // The spacecraft: from 1^n, ≤ d failures, one repair per step.
        // Every state with z zeros is z steps from normal, so the worst
        // reachable state after a shock is d away — but analyze() covers
        // ALL states, whose worst is n. Restrict to the shocked set by
        // checking the level of each exogenous successor of the normal
        // state.
        let n = 6;
        let d = 2;
        let env = AllOnes::new(n);
        let ts = TransitionSystem::from_bit_dcsp(n, &env, d);
        let report = ts.analyze();
        let normal = (1usize << n) - 1; // all ones encoded
        assert!(ts.is_normal(normal));
        let worst = ts
            .exogenous_moves(normal)
            .iter()
            .map(|&s| report.levels[s].unwrap())
            .max()
            .unwrap();
        assert_eq!(worst, d);
        // Global min_k is n (the all-zeros state).
        assert_eq!(report.min_k(), Some(n));
    }

    #[test]
    fn bit_dcsp_tolerant_constraint_shrinks_levels() {
        let n = 6;
        let env = AtLeastOnes::new(n, 4);
        let ts = TransitionSystem::from_bit_dcsp(n, &env, 2);
        let report = ts.analyze();
        // All-zeros needs exactly 4 set bits.
        assert_eq!(report.levels[0], Some(4));
        assert_eq!(report.min_k(), Some(4));
    }

    #[test]
    fn adversarial_is_at_least_plain() {
        let n = 5;
        let env = AtLeastOnes::new(n, 3);
        let ts = TransitionSystem::from_bit_dcsp(n, &env, 1);
        let plain = ts.analyze();
        let adv = ts.analyze_adversarial();
        for s in 0..ts.len() {
            match (plain.levels[s], adv.levels[s]) {
                (Some(p), Some(a)) => assert!(a >= p, "state {s}: adv {a} < plain {p}"),
                (None, Some(_)) => panic!("adversarial easier than plain at {s}"),
                _ => {}
            }
        }
    }

    #[test]
    fn adversarial_with_hostile_environment_can_be_unwinnable() {
        // 0 normal; 1 →ctrl 0 but exo(0) = {1}: the environment undoes
        // every repair, so adversarially the system never stabilizes…
        // Actually V(1) = 1 + max(V(0), V(1-after-exo)): the exo move out
        // of the *target* 0 goes back to 1, so V(1) = 1 + max(0, V(1)) ⇒
        // unbounded ⇒ None.
        let mut ts = TransitionSystem::new(2);
        ts.mark_normal(0);
        ts.add_controllable(1, 0);
        ts.add_exogenous(0, 1);
        let adv = ts.analyze_adversarial();
        assert_eq!(adv.levels[1], None);
        // Plain analysis (quiet environment) says 1 step.
        assert_eq!(ts.analyze().levels[1], Some(1));
    }

    #[test]
    fn adversarial_quiet_environment_matches_plain() {
        let ts = chain();
        let plain = ts.analyze();
        let adv = ts.analyze_adversarial();
        assert_eq!(plain.levels, adv.levels);
    }

    #[test]
    #[should_panic(expected = "20 bits")]
    fn from_bit_dcsp_rejects_huge_spaces() {
        let env = AllOnes::new(25);
        let _ = TransitionSystem::from_bit_dcsp(25, &env, 1);
    }

    #[test]
    fn empty_system() {
        let ts = TransitionSystem::new(0);
        assert!(ts.is_empty());
        let report = ts.analyze();
        assert_eq!(report.min_k(), Some(0));
        assert_eq!(ts.analyze_adversarial().min_k(), Some(0));
    }

    /// Seeded random system: sparse normal set, random controllable and
    /// exogenous edges (duplicates and self-loops allowed on purpose).
    fn random_system(seed: u64, n: usize) -> TransitionSystem {
        let mut rng = seeded_rng(seed);
        let mut ts = TransitionSystem::new(n);
        for s in 0..n {
            if rng.gen_bool(0.2) {
                ts.mark_normal(s);
            }
        }
        for _ in 0..n * 3 {
            ts.add_controllable(rng.gen_range(0..n), rng.gen_range(0..n));
            if rng.gen_bool(0.5) {
                ts.add_exogenous(rng.gen_range(0..n), rng.gen_range(0..n));
            }
        }
        ts
    }

    #[test]
    fn csr_analyze_matches_reference_on_random_systems() {
        for seed in 0..20 {
            let ts = random_system(seed, 30 + (seed as usize % 17));
            assert_eq!(ts.analyze(), ts.analyze_reference(), "seed {seed}");
        }
    }

    #[test]
    fn adversarial_matches_reference_and_is_thread_invariant() {
        for seed in 0..12 {
            let ts = random_system(100 + seed, 40);
            let new = ts.analyze_adversarial();
            assert_eq!(new, ts.analyze_adversarial_reference(), "seed {seed}");
            for threads in [2, 4, 7] {
                assert_eq!(
                    new,
                    ts.analyze_adversarial_threads(threads),
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn edge_mutation_invalidates_cached_csr() {
        let mut ts = TransitionSystem::new(3);
        ts.mark_normal(0);
        assert_eq!(ts.analyze().levels[2], None);
        ts.add_controllable(2, 0);
        let after = ts.analyze();
        assert_eq!(after.levels[2], Some(1));
        assert_eq!(after.policy.next_state(2), Some(0));
        // The environment undoing the repair flips the adversarial answer.
        assert_eq!(ts.analyze_adversarial().levels[2], Some(1));
        ts.add_exogenous(0, 2);
        assert_eq!(ts.analyze_adversarial().levels[2], None);
    }

    #[test]
    fn implicit_bit_dcsp_matches_explicit() {
        for (n, need, d) in [(5, 3, 1), (6, 4, 2), (4, 4, 2)] {
            let env = AtLeastOnes::new(n, need);
            let ts = TransitionSystem::from_bit_dcsp(n, &env, d);
            assert_eq!(
                analyze_bit_dcsp(n, &env),
                ts.analyze(),
                "plain n={n} need={need}"
            );
            let adv = ts.analyze_adversarial();
            assert_eq!(
                analyze_bit_dcsp_adversarial(n, &env, d, 1),
                adv,
                "adversarial n={n} need={need} d={d}"
            );
            assert_eq!(
                analyze_bit_dcsp_adversarial(n, &env, d, 4),
                adv,
                "threaded adversarial n={n} need={need} d={d}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "2^24")]
    fn implicit_rejects_huge_spaces() {
        let env = AllOnes::new(30);
        let _ = analyze_bit_dcsp(30, &env);
    }

    #[test]
    fn oversized_dense_requests_yield_typed_errors() {
        let env = AllOnes::new(30);
        let err = try_analyze_bit_dcsp(30, &env).expect_err("over the dense limit");
        assert!(matches!(
            err,
            CoreError::StateSpaceTooLarge {
                n_bits: 30,
                limit: 24
            }
        ));
        let msg = err.to_string();
        assert!(msg.contains("2^30") && msg.contains("2^24"), "{msg}");
        assert!(try_analyze_bit_dcsp_adversarial(27, &env, 1, 2).is_err());
        // In-range requests succeed through the fallible entry points.
        let small = AtLeastOnes::new(8, 5);
        assert_eq!(
            try_analyze_bit_dcsp(8, &small).expect("in range"),
            analyze_bit_dcsp(8, &small)
        );
    }

    #[test]
    fn compressed_frontiers_match_dense_quiet_analysis() {
        let all = AllOnes::new(10);
        let atleast = AtLeastOnes::new(10, 6);
        let envs: [&dyn Constraint; 2] = [&all, &atleast];
        for env in envs {
            let dense = analyze_bit_dcsp(10, env);
            for threads in [1usize, 3, 4] {
                let summary = analyze_bit_dcsp_frontiers(10, env, threads);
                assert_eq!(summary.frontier_sizes, dense.frontier_sizes());
                assert_eq!(summary.hopeless, dense.hopeless_states().len() as u64);
                assert_eq!(summary.min_k(), dense.min_k(), "threads={threads}");
                assert_eq!(summary.total_states(), 1 << 10);
            }
        }
        // Single-bit flips reach every state, so hopeless states require
        // an empty normal set.
        let never = ExplicitSet::new(Vec::<Config>::new());
        let summary = analyze_bit_dcsp_frontiers(6, &never, 2);
        assert_eq!(summary.hopeless, 64);
        assert_eq!(summary.min_k(), None);
        assert!(!summary.is_k_maintainable(100));
        assert_eq!(summary.frontier_peak(), 0);
    }

    #[test]
    fn compressed_adversarial_matches_dense_level_histogram() {
        for (n, need, d) in [(6usize, 4usize, 1usize), (8, 6, 2), (10, 7, 1)] {
            let env = AtLeastOnes::new(n, need);
            let dense = analyze_bit_dcsp_adversarial(n, &env, d, 1);
            let hopeless = dense.hopeless_states().len() as u64;
            for threads in [1usize, 4] {
                let summary = analyze_bit_dcsp_adversarial_frontiers(n, &env, d, threads);
                assert_eq!(
                    summary.frontier_sizes,
                    dense.frontier_sizes(),
                    "n={n} need={need} d={d} threads={threads}"
                );
                assert_eq!(summary.hopeless, hopeless);
                assert_eq!(summary.min_k(), dense.min_k());
            }
        }
        // Hostile case: AllOnes with any damage keeps knocking the system
        // out of its single normal state; values stay finite because the
        // environment only strikes normal states and repair outruns a
        // bounded ball — compare against the dense oracle either way.
        let env = AllOnes::new(7);
        let dense = analyze_bit_dcsp_adversarial(7, &env, 2, 1);
        let summary = analyze_bit_dcsp_adversarial_frontiers(7, &env, 2, 2);
        assert_eq!(summary.frontier_sizes, dense.frontier_sizes());
        assert_eq!(summary.hopeless, dense.hopeless_states().len() as u64);
    }

    #[test]
    fn auto_routes_by_size() {
        let env = AtLeastOnes::new(9, 5);
        let auto = analyze_bit_dcsp_auto(9, &env, 2);
        let dense = analyze_bit_dcsp(9, &env);
        assert_eq!(auto.frontier_sizes, dense.frontier_sizes());
        assert_eq!(auto.hopeless, 0);
        // The compressed branch agrees with the dense-derived summary.
        assert_eq!(auto, analyze_bit_dcsp_frontiers(9, &env, 2));
    }

    #[test]
    fn popcount_fast_path_matches_generic_probing() {
        // AtLeastOnes declares full symmetry (popcount table); an
        // equivalent PredicateConstraint does not, so it takes the
        // per-state probe path. Same fit set → same normal words.
        let n = 8;
        let words = (1usize << n) >> 6;
        let sym = AtLeastOnes::new(n, 5);
        let opaque = PredicateConstraint::new("at-least-5", move |c: &Config| c.count_ones() >= 5);
        let mut a = vec![0u64; words];
        let mut b = vec![0u64; words];
        normal_words(n, &sym, 2, &mut a);
        normal_words(n, &opaque, 2, &mut b);
        assert_eq!(a, b);
    }
}
