//! Token-passing execution runtime.
//!
//! The original CDSChecker runs on one core, and so — typically — does
//! this reproduction's CI environment. A dedicated controller thread
//! would cost two context switches per visible operation; instead, the
//! scheduling decision is made *inline by whichever worker parks last*:
//!
//! * every modeled thread, at a visible operation, locks the shared
//!   [`ExecState`], records its pending op, and decrements the running
//!   count;
//! * the worker that brings the running count to zero runs the scheduler:
//!   it picks the next runnable thread (per the DFS replay script, with
//!   sleep-set filtering), applies that thread's operation against the
//!   memory-model engine, and deposits the reply;
//! * if the chosen thread is *itself* — the common case, since the
//!   default schedule prefers the currently running thread — it simply
//!   continues: **zero context switches**. Otherwise it wakes the chosen
//!   worker's condvar and parks.
//!
//! The explorer thread only participates at execution boundaries.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cdsspec_c11::{EventId, LocId, Tid, Trace};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::Config;
use crate::memstate::MemState;
use crate::msg::{Op, Reply, RmwKind};
use crate::report::Bug;
use crate::worker::{DieMarker, Job, Pool};

/// One recorded choice point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChoiceRec {
    /// Index taken.
    pub picked: usize,
    /// Number of alternatives that existed.
    pub num_options: usize,
}

/// How an execution ended.
#[derive(Clone, Debug)]
pub(crate) enum RunOutcome {
    /// All threads finished; the trace is a feasible execution.
    Completed,
    /// A defect was detected; the trace is the (partial) witness.
    BugFound(Bug),
    /// Step/spin/futile-read bound exceeded — pruned, counted infeasible.
    Diverged,
    /// Every runnable thread was asleep — a redundant interleaving.
    SleepPruned,
    /// The engine itself failed (e.g. the OS thread pool exhausted its
    /// bounded respawn budget). The execution is void and the campaign
    /// stops with [`crate::StopReason::Errored`].
    EngineError(String),
}

/// Result of one execution.
pub(crate) struct RunResult {
    pub outcome: RunOutcome,
    pub trace: Trace,
    pub choices: Vec<ChoiceRec>,
    /// The execution wedged an OS worker that had to be leaked (the
    /// watchdog aborted, but one job never exited). The per-execution
    /// arena is intentionally kept alive in this case.
    pub hung: bool,
    /// Choice-tree branches suppressed by rf-equivalence pruning at
    /// decision points this execution visited for the first time (see
    /// [`ExecState::at_fresh_node`]). Summing these over an exploration
    /// counts each suppressed branch exactly once, independent of worker
    /// count and checkpoint partitioning.
    pub pruned: u64,
}

/// Futile-read state for one `(thread, location)` pair: the rf observed by
/// the last load and how many consecutive loads have observed it.
type FutileSlot = Option<(Option<EventId>, u32)>;

/// The mutable heart of one execution, guarded by [`Shared::inner`].
pub(crate) struct ExecState {
    pub mem: MemState,
    config: Config,
    script: Vec<usize>,
    cursor: usize,
    choices: Vec<ChoiceRec>,

    /// Announced-but-unprocessed op per thread.
    pending: Vec<Option<Op>>,
    /// Deposited replies awaiting pickup.
    replies: Vec<Option<Reply>>,
    /// Spawned and not finished.
    alive: Vec<bool>,
    /// Modeled threads currently executing user code.
    running: usize,
    /// OS jobs that have not returned to the pool yet (arena safety).
    active_jobs: usize,
    /// Sleep set.
    sleep: Vec<bool>,
    /// Total spin hints per thread.
    spins: Vec<u32>,
    /// Futile-read tracking per (thread, location). Indexed by `loc.idx()`
    /// — location ids are dense per execution and few, so a flat `Vec`
    /// beats hashing on every load (this lookup is on the per-event hot
    /// path).
    futile: Vec<Vec<FutileSlot>>,
    /// Thread scheduled most recently (preferred by the default schedule).
    last_sched: Tid,
    /// Execution verdict; set exactly once.
    outcome: Option<RunOutcome>,
    /// Abort in progress: remaining workers unwind on wakeup.
    dying: bool,
    /// When set, choice points past the replay script are resolved by
    /// this PRNG instead of depth-first (deadline-degraded sampling).
    sampler: Option<StdRng>,
    /// Reusable rf-candidate buffer: refilled by every load decision, so
    /// candidate enumeration allocates only while the high-water mark
    /// still grows.
    cand_buf: Vec<Option<EventId>>,
    /// Reusable RMW-outcome buffer (same discipline as `cand_buf`).
    rmw_buf: Vec<crate::memstate::RfChoice>,
    /// Scratch backing the failing-CAS candidate scan inside
    /// [`MemState::rmw_candidates_into`].
    cand_scratch: Vec<Option<EventId>>,
    /// Reusable runnable-thread buffer for [`schedule`]: two `Vec<Tid>`
    /// collects per scheduling decision was the single largest remaining
    /// allocation source after the rf-candidate buffers moved here.
    sched_buf: Vec<Tid>,
    /// Branches suppressed by rf-equivalence pruning at fresh decision
    /// points of *this* execution (reset per execution, surfaced through
    /// [`RunResult::pruned`]).
    pruned: u64,
    /// Per-thread rf floor set when a *sleeping* thread whose pending op
    /// is a non-SC load (or a CAS with a non-SC failure ordering) of
    /// `loc` is woken by a write to `loc`: the already-explored sibling
    /// subtree (the reason the thread slept) covered every pre-write
    /// candidate, so the woken read only needs candidates `>=` the waking
    /// write in mo. Cleared when the read executes; slot reuse mirrors
    /// `futile`. Soundness requires the mapping to point at strictly
    /// DFS-earlier branches — see the exploration-identity contract in
    /// `ARCHITECTURE.md`.
    wake_floor: Vec<Option<(LocId, EventId)>>,
}

/// Shared handle between the explorer, the workers, and the user-facing
/// primitives.
pub(crate) struct Shared {
    pub inner: Mutex<ExecState>,
    /// Heartbeat counter: bumped on every scheduling decision (and by
    /// `crate::api::progress_hint`). Watchdogs abort the execution when
    /// it stops moving for `Config::hang_timeout`. Lives on `Shared` as
    /// a lock-free atomic — not in `ExecState` — because the fiber
    /// watchdog's monitor thread must sample it while a wedged host may
    /// never release `inner`.
    pub(crate) progress: std::sync::atomic::AtomicU64,
    /// Per-modeled-thread wakeups (indexed by tid; grown under the lock).
    cvs: Mutex<Vec<Arc<Condvar>>>,
    /// Explorer wakeup: outcome decided and all jobs drained.
    done: Condvar,
    /// Worker-side detected bug (data race), honored at the next decision.
    pub pending_bug: Mutex<Option<Bug>>,
    /// Fast-path guard for `pending_bug`: the scheduler checks this atomic
    /// on every decision and only touches the mutex when a bug was
    /// actually posted (set with `Release` by [`Shared::post_bug`], read
    /// with `Acquire`). The posting thread holds the running token, so the
    /// next scheduling decision is always ordered after the store.
    pending_bug_flag: std::sync::atomic::AtomicBool,
    /// Per-execution allocations (freed by the explorer after `done`).
    pub arena: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
    /// The worker pool (needed by spawn).
    pool: Arc<Mutex<Pool>>,
}

impl Shared {
    fn cv(&self, tid: Tid) -> Arc<Condvar> {
        self.cvs.lock()[tid.idx()].clone()
    }

    /// Make sure a condvar exists for `tid`, reusing one left over from an
    /// earlier execution of this `Shared` (condvars are stateless between
    /// executions).
    fn ensure_cv(&self, tid: Tid) {
        let mut cvs = self.cvs.lock();
        if cvs.len() <= tid.idx() {
            cvs.push(Arc::new(Condvar::new()));
        }
    }

    /// Post a worker-side detected bug; honored at the next scheduling
    /// decision.
    pub(crate) fn post_bug(&self, bug: Bug) {
        *self.pending_bug.lock() = Some(bug);
        self.pending_bug_flag
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Feed the watchdogs (see the `progress` field).
    pub(crate) fn heartbeat(&self) {
        self.progress
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl ExecState {
    fn choose(&mut self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let picked = if self.cursor < self.script.len() {
            self.script[self.cursor]
        } else if let Some(rng) = &mut self.sampler {
            rng.gen_range(0..n)
        } else {
            0
        };
        assert!(
            picked < n,
            "replay divergence: script wants option {picked} of {n} at choice {} — \
             the test closure is nondeterministic",
            self.cursor
        );
        self.choices.push(ChoiceRec {
            picked,
            num_options: n,
        });
        self.cursor += 1;
        picked
    }

    fn register_thread(&mut self) -> Tid {
        let idx = self.pending.len();
        self.pending.push(None);
        self.replies.push(None);
        self.alive.push(true);
        self.sleep.push(false);
        self.spins.push(0);
        // `futile` is not truncated by `reset`, so slot reuse here keeps
        // the per-thread inner buffers across executions.
        if self.futile.len() <= idx {
            self.futile.push(Default::default());
        } else {
            self.futile[idx].clear();
        }
        if self.wake_floor.len() <= idx {
            self.wake_floor.push(None);
        } else {
            self.wake_floor[idx] = None;
        }
        Tid(idx as u32)
    }

    /// Rewind to a pristine pre-execution state, retaining every buffer
    /// capacity earlier executions grew — the point of handing the whole
    /// `Shared` back through [`Reuse`]. The `config` is deliberately kept:
    /// a `Reuse` never crosses explorers, and an explorer's config is
    /// fixed for its lifetime.
    fn reset(&mut self, script: &[usize], sampler: Option<StdRng>, recycle: Trace) {
        self.mem.reset(recycle);
        self.script.clear();
        self.script.extend_from_slice(script);
        self.cursor = 0;
        self.choices.clear();
        self.pending.clear();
        self.replies.clear();
        self.alive.clear();
        self.running = 0;
        self.active_jobs = 0;
        self.sleep.clear();
        self.spins.clear();
        self.last_sched = Tid::MAIN;
        self.outcome = None;
        self.dying = false;
        self.sampler = sampler;
        self.pruned = 0;
    }

    /// Render the watchdog bug for this execution: the *configured*
    /// limit (not the measured stall — measured values differ run to run
    /// and would defeat bug-string dedup and fiber/pool equivalence),
    /// the `wedged` thread, and the last-committed trace event as a
    /// human-readable anchor. The fiber rescue path knows the wedged
    /// fiber exactly (the signal handler recorded it); the OS-thread
    /// watchdog passes `last_sched`, its best estimate — a freshly
    /// spawned job wedging before its first visible op was never
    /// scheduled and can be misattributed there.
    fn hang_bug(&self, limit: Duration, wedged: Tid) -> Bug {
        Bug::InternalHang {
            stalled_ms: limit.as_millis() as u64,
            tid: wedged,
            last_op: last_op_tag(&self.mem.trace),
        }
    }

    /// True when the current decision point is being visited for the first
    /// time across the whole exploration: not a script replay (`cursor`
    /// still inside the script) and not a random sample. Generated scripts
    /// always end in an incremented entry, so for every decision-point
    /// prefix exactly one executed script satisfies this — pruning
    /// counters bumped under this guard count each suppressed branch once,
    /// regardless of worker count or checkpoint partitioning.
    fn at_fresh_node(&self) -> bool {
        self.sampler.is_none() && self.cursor >= self.script.len()
    }

    /// Eager futile-read rejection (`Config::rf_prune`): when `(t, loc)`
    /// already sits at the futile-read bound, drop load candidates equal
    /// to the previously observed rf — choosing one would immediately
    /// divergence-abort in [`ExecState::track_read`], so the branch is
    /// rejected before scheduling descends under it. Only
    /// already-diverging branches are removed, leaving the bug set and
    /// the feasible executions untouched.
    fn reject_futile_loads(&mut self, t: Tid, loc: LocId) -> Result<(), RunOutcome> {
        let cap = self.config.max_futile_reads;
        let Some(slot) = self.futile.get(t.idx()).and_then(|f| f.get(loc.idx())) else {
            return Ok(());
        };
        let Some((prev, n)) = *slot else {
            return Ok(());
        };
        if n < cap {
            return Ok(());
        }
        let before = self.cand_buf.len();
        self.cand_buf.retain(|&c| c != prev);
        let removed = (before - self.cand_buf.len()) as u64;
        if removed > 0 && self.at_fresh_node() {
            self.pruned += removed;
        }
        if self.cand_buf.is_empty() {
            return Err(RunOutcome::Diverged);
        }
        Ok(())
    }

    /// As [`ExecState::reject_futile_loads`] for RMW decisions: only
    /// *failing* reads are tracked by the futile counter, so successful
    /// RMW outcomes are never removed.
    fn reject_futile_rmws(&mut self, t: Tid, loc: LocId) -> Result<(), RunOutcome> {
        let cap = self.config.max_futile_reads;
        let Some(slot) = self.futile.get(t.idx()).and_then(|f| f.get(loc.idx())) else {
            return Ok(());
        };
        let Some((prev, n)) = *slot else {
            return Ok(());
        };
        if n < cap {
            return Ok(());
        }
        let before = self.rmw_buf.len();
        self.rmw_buf.retain(|c| c.success || c.rf != prev);
        let removed = (before - self.rmw_buf.len()) as u64;
        if removed > 0 && self.at_fresh_node() {
            self.pruned += removed;
        }
        if self.rmw_buf.is_empty() {
            return Err(RunOutcome::Diverged);
        }
        Ok(())
    }

    /// Record a read for futile-read tracking; `true` = prune.
    fn track_read(&mut self, t: Tid, loc: LocId, rf: Option<EventId>) -> bool {
        let cap = self.config.max_futile_reads;
        let f = &mut self.futile[t.idx()];
        if f.len() <= loc.idx() {
            f.resize(loc.idx() + 1, None);
        }
        match &mut f[loc.idx()] {
            Some((prev, n)) if *prev == rf => {
                *n += 1;
                *n > cap
            }
            slot => {
                *slot = Some((rf, 1));
                false
            }
        }
    }

    /// Forget futile-read state for `(t, loc)` — a store to `loc` resets
    /// the streak.
    fn clear_futile(&mut self, t: Tid, loc: LocId) {
        if let Some(slot) = self.futile[t.idx()].get_mut(loc.idx()) {
            *slot = None;
        }
    }

    /// Apply one visible operation; `Err(outcome)` aborts the execution.
    fn process(&mut self, t: Tid, op: &Op) -> Result<Reply, RunOutcome> {
        match *op {
            Op::Load { loc, ord } => {
                self.mem
                    .load_candidates_into(t, loc, ord, &mut self.cand_buf);
                if self.config.rf_prune {
                    self.reject_futile_loads(t, loc)?;
                    if let Some((fl, fev)) = self.wake_floor[t.idx()].take() {
                        if fl == loc && !ord.is_seq_cst() {
                            let before = self.cand_buf.len();
                            self.cand_buf.retain(|c| matches!(c, Some(w) if *w >= fev));
                            let removed = (before - self.cand_buf.len()) as u64;
                            if removed > 0 && self.at_fresh_node() {
                                self.pruned += removed;
                            }
                            // The waking write itself is always in this
                            // thread's window (the thread has not run since
                            // before the write committed, so its coherence
                            // floor predates it) and is never the futile
                            // `prev` (which was read before the sleep).
                            debug_assert!(!self.cand_buf.is_empty());
                            if self.cand_buf.is_empty() {
                                return Err(RunOutcome::Diverged);
                            }
                        }
                    }
                }
                let idx = self.choose(self.cand_buf.len());
                let rf = self.cand_buf[idx];
                let val = self.mem.apply_load(t, loc, ord, rf);
                if rf.is_none() {
                    return Err(RunOutcome::BugFound(Bug::UninitLoad { loc, tid: t }));
                }
                if self.track_read(t, loc, rf) {
                    return Err(RunOutcome::Diverged);
                }
                Ok(Reply::Val(val))
            }
            Op::Store { loc, ord, val } => {
                self.mem.apply_store(t, loc, ord, val);
                self.clear_futile(t, loc);
                Ok(Reply::Ok)
            }
            Op::Rmw { loc, ord, kind } => {
                self.mem.rmw_candidates_into(
                    t,
                    loc,
                    ord,
                    kind,
                    &mut self.rmw_buf,
                    &mut self.cand_scratch,
                );
                if self.config.rf_prune {
                    self.reject_futile_rmws(t, loc)?;
                    if let Some((fl, fev)) = self.wake_floor[t.idx()].take() {
                        if fl == loc {
                            let before = self.rmw_buf.len();
                            // Success choices read the mo-maximal store
                            // (`>=` the waking write by construction), so
                            // only stale *failure* reads are floored.
                            self.rmw_buf
                                .retain(|c| c.success || matches!(c.rf, Some(w) if w >= fev));
                            let removed = (before - self.rmw_buf.len()) as u64;
                            if removed > 0 && self.at_fresh_node() {
                                self.pruned += removed;
                            }
                            // The fail-or-succeed choice on the current
                            // mo-maximal store always survives the floor.
                            debug_assert!(!self.rmw_buf.is_empty());
                            if self.rmw_buf.is_empty() {
                                return Err(RunOutcome::Diverged);
                            }
                        }
                    }
                }
                let idx = self.choose(self.rmw_buf.len());
                let choice = self.rmw_buf[idx];
                let (old, success) = self.mem.apply_rmw(t, loc, ord, kind, choice);
                if choice.rf.is_none() {
                    return Err(RunOutcome::BugFound(Bug::UninitLoad { loc, tid: t }));
                }
                if success {
                    self.clear_futile(t, loc);
                } else if self.track_read(t, loc, choice.rf) {
                    return Err(RunOutcome::Diverged);
                }
                Ok(Reply::Rmw { old, success })
            }
            Op::Fence { ord } => {
                self.mem.apply_fence(t, ord);
                Ok(Reply::Ok)
            }
            Op::Join { target } => {
                self.mem.apply_join(t, target);
                Ok(Reply::Ok)
            }
            Op::Spin => {
                self.spins[t.idx()] += 1;
                if self.spins[t.idx()] > self.config.max_spins {
                    return Err(RunOutcome::Diverged);
                }
                Ok(Reply::Ok)
            }
            Op::Yield => Ok(Reply::Ok),
        }
    }
}

/// Run the scheduler: called under the lock whenever `running` drops to 0
/// and the execution has not ended. Deposits exactly one reply (possibly
/// `Die` for everyone on abort). `caller` is the thread running this call
/// inline — when it schedules itself (the common case under the
/// continue-last-thread default), the wakeup notify is skipped: the caller
/// finds its reply on the way out of `visible_op` without ever parking.
fn schedule(shared: &Shared, st: &mut ExecState, caller: Tid) {
    debug_assert_eq!(st.running, 0);
    if st.outcome.is_some() {
        return;
    }
    shared.heartbeat();

    // Worker-side race found since the last decision? (Atomic fast path:
    // the mutex is only touched when a bug was actually posted.)
    if shared
        .pending_bug_flag
        .load(std::sync::atomic::Ordering::Acquire)
    {
        shared
            .pending_bug_flag
            .store(false, std::sync::atomic::Ordering::Relaxed);
        if let Some(bug) = shared.pending_bug.lock().take() {
            return abort(shared, st, RunOutcome::BugFound(bug));
        }
    }

    if st.alive.iter().all(|a| !a) {
        st.outcome = Some(RunOutcome::Completed);
        return;
    }

    // Enabled: alive, announced, and (for joins) target finished. Built
    // into the reusable buffer — the take/put-back dance keeps the borrow
    // checker happy while `st` is read inside the loop; the abort paths
    // restore the buffer too, so even they don't leak its capacity.
    let mut runnable = std::mem::take(&mut st.sched_buf);
    runnable.clear();
    for i in 0..st.alive.len() {
        let enabled = st.alive[i]
            && match &st.pending[i] {
                Some(Op::Join { target }) => st.mem.threads[target.idx()].finished,
                Some(_) => true,
                None => false,
            };
        if enabled {
            runnable.push(Tid(i as u32));
        }
    }
    if runnable.is_empty() {
        st.sched_buf = runnable;
        let blocked: Vec<Tid> = (0..st.alive.len())
            .filter(|&i| st.alive[i])
            .map(|i| Tid(i as u32))
            .collect();
        return abort(shared, st, RunOutcome::BugFound(Bug::Deadlock { blocked }));
    }

    if st.config.sleep_sets {
        let sleep = &st.sleep;
        runnable.retain(|t| !sleep[t.idx()]);
    }
    if runnable.is_empty() {
        st.sched_buf = runnable;
        return abort(shared, st, RunOutcome::SleepPruned);
    }
    // Prefer continuing the last-scheduled thread: fewer context switches
    // and more natural default executions.
    if let Some(pos) = runnable.iter().position(|&t| t == st.last_sched) {
        runnable.swap(0, pos);
    }
    // Explore floorable readers before writers (`Config::rf_prune`): the
    // rf floor only prunes a reader that *slept* through the waking write,
    // i.e. one explored as an earlier sibling. Readers-first makes that
    // the common case. Stable, so the last-scheduled preference survives
    // within each group — a deterministic ordering heuristic, not a
    // correctness condition.
    if st.config.rf_prune && runnable.len() > 1 {
        let pending = &st.pending;
        runnable.sort_by_key(|&t| {
            let floorable = matches!(
                &pending[t.idx()],
                Some(Op::Load { ord, .. }) if !ord.is_seq_cst()
            );
            !floorable
        });
    }

    let pick = st.choose(runnable.len());
    let t = runnable[pick];
    for &u in &runnable[..pick] {
        st.sleep[u.idx()] = true;
    }
    st.sched_buf = runnable;
    st.sleep[t.idx()] = false;
    st.last_sched = t;

    let op = st.pending[t.idx()]
        .take()
        .expect("runnable thread has a pending op");
    match st.process(t, &op) {
        Ok(reply) => {
            // Dynamic dependence (`Config::rf_prune`): a CAS that failed
            // wrote nothing — as executed it is a plain load with the
            // failure ordering. Downgrading it tightens the sleep-set wake
            // rule: sleeping readers stay asleep across failed CASes. A
            // *spurious* weak-CAS failure (read value == expected) stays a
            // full RMW: the fail-on-expected branch is only enumerated for
            // the mo-maximal store, so it does not survive commutation
            // with a later write the way a value-mismatch failure does.
            let eff_op: Op = match (&op, &reply) {
                (
                    Op::Rmw {
                        loc,
                        kind:
                            RmwKind::Cas {
                                expected, fail_ord, ..
                            },
                        ..
                    },
                    Reply::Rmw {
                        old,
                        success: false,
                    },
                ) if st.config.rf_prune && old != expected => Op::Load {
                    loc: *loc,
                    ord: *fail_ord,
                },
                _ => op.clone(),
            };
            if st.config.sleep_sets {
                // If the op committed a write, sleeping non-SC loads of
                // that location wake with an rf floor: everything mo-older
                // than this write was already explored in the subtree that
                // put them to sleep (see `ExecState::wake_floor`).
                let wake_write: Option<(LocId, EventId)> = if st.config.rf_prune && eff_op.writes()
                {
                    eff_op
                        .loc()
                        .and_then(|l| st.mem.last_store(l).map(|e| (l, e)))
                } else {
                    None
                };
                for i in 0..st.sleep.len() {
                    if st.sleep[i] {
                        if let Some(p) = &st.pending[i] {
                            if p.dependent(&eff_op) {
                                st.sleep[i] = false;
                                if let Some((l, e)) = wake_write {
                                    // Non-SC read ordering is what makes
                                    // the commutation S-preserving; a CAS
                                    // reads with its failure ordering.
                                    let floors = match p {
                                        Op::Load { loc, ord } => *loc == l && !ord.is_seq_cst(),
                                        Op::Rmw {
                                            loc,
                                            kind: RmwKind::Cas { fail_ord, .. },
                                            ..
                                        } => *loc == l && !fail_ord.is_seq_cst(),
                                        _ => false,
                                    };
                                    if floors {
                                        st.wake_floor[i] = Some((l, e));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if st.mem.threads[t.idx()].steps > st.config.max_steps_per_thread {
                return abort(shared, st, RunOutcome::Diverged);
            }
            st.replies[t.idx()] = Some(reply);
            // Under fiber hosting nobody waits on condvars: the parked
            // fiber that ran this decision finds the reply itself and
            // stack-switches to its owner (see `fiber_next`).
            if t != caller && !crate::fiber::active() {
                shared.cv(t).notify_one();
            }
        }
        Err(outcome) => abort(shared, st, outcome),
    }
}

/// Abandon the execution: record the outcome and hand every live thread a
/// `Die` reply (they unwind on wakeup; job-exit accounting signals the
/// explorer once all are gone).
fn abort(shared: &Shared, st: &mut ExecState, outcome: RunOutcome) {
    if st.outcome.is_none() {
        st.outcome = Some(outcome);
    }
    st.dying = true;
    let fiber_mode = crate::fiber::active();
    for i in 0..st.alive.len() {
        if st.alive[i] {
            st.replies[i] = Some(Reply::Die);
            // Fiber-hosted threads drain via `fiber_next` transfers, not
            // condvar wakeups — nobody parks on a condvar in fiber mode,
            // including the host-side watchdog-rescue abort (which runs
            // with `fiber::active()` still true and drains the survivors
            // through `run_execution`'s switch loop).
            if !fiber_mode {
                shared.cv(Tid(i as u32)).notify_one();
            }
        }
    }
}

/// Human-readable anchor for hang reports: the last event committed to
/// the trace, rendered `event-id:kind@thread` (e.g. `e7:Store@T2`).
fn last_op_tag(trace: &Trace) -> Option<String> {
    if trace.is_empty() {
        return None;
    }
    let id = EventId(trace.len() as u32 - 1);
    Some(format!("{id}:{:?}@{}", trace.tag(id), trace.tid(id)))
}

/// Repair the scheduler's accounting after a signal rescue abandoned the
/// wedged fiber `wedged` mid-flight, and abort the execution with the
/// corresponding bug. Called by `fiber::run_execution` on the host, with
/// the wedged fiber already marked dead+abandoned.
///
/// The preemption gate guarantees the rescue interrupted *user* code —
/// i.e. the wedged thread held the running token — so it is counted in
/// `running` (unless it had already passed `thread_finished`, in which
/// case `alive` is false and there is nothing to undo). Its pending op
/// and reply are cleared so no stale state can steer `fiber_next`, and
/// its job-exit is accounted here (the fiber's root will never run
/// `job_exited`).
pub(crate) fn fiber_rescued(
    shared: &Arc<Shared>,
    wedged: Tid,
    overflow: bool,
    limit: Option<Duration>,
) {
    let _gate = crate::fiber::engine_section();
    let mut st = shared.inner.lock();
    if st.alive.get(wedged.idx()).copied().unwrap_or(false) {
        st.alive[wedged.idx()] = false;
        st.running = st.running.saturating_sub(1);
    }
    if let Some(p) = st.pending.get_mut(wedged.idx()) {
        *p = None;
    }
    if let Some(r) = st.replies.get_mut(wedged.idx()) {
        *r = None;
    }
    st.active_jobs = st.active_jobs.saturating_sub(1);
    if st.outcome.is_none() {
        let bug = if overflow {
            Bug::StackOverflow { tid: wedged }
        } else {
            // `wedged` came from the signal handler: exact even for a
            // fiber that wedged before its first visible op (which
            // `last_sched` would misattribute).
            st.hang_bug(limit.unwrap_or_default(), wedged)
        };
        abort(shared, &mut st, RunOutcome::BugFound(bug));
    }
    if st.active_jobs == 0 {
        shared.done.notify_all();
    }
    drop(st);
    // Critical: reset the monitor's stall clock. The rescue itself bumps
    // no progress, so without this the monitor would re-request a rescue
    // immediately and could preempt a *draining* (unwinding) fiber in a
    // gate-open window; with it, the drain gets a full fresh timeout —
    // and a genuinely wedged drain still gets rescued after one.
    shared.heartbeat();
}

/// In fiber mode: the fiber a parking (or exiting) fiber must transfer
/// control to — the thread whose deposited reply is waiting to be picked
/// up, else the lowest spawned-but-never-run fiber (which still holds a
/// running token, so the next scheduling decision cannot happen until it
/// posts its first operation). `None` only when the execution has fully
/// drained and control belongs back to the explorer.
pub(crate) fn fiber_next(st: &ExecState) -> Option<Tid> {
    // The `alive` filter is belt and braces: replies are only ever
    // deposited for live threads and cleared when a thread dies, but a
    // stale one slipping through would transfer control into a dead
    // fiber's stack — keep the memory-safety margin explicit.
    st.replies
        .iter()
        .zip(&st.alive)
        .position(|(r, &alive)| r.is_some() && alive)
        .map(|i| Tid(i as u32))
        .or_else(crate::fiber::first_unstarted)
}

// ---------------------------------------------------------------------
// Worker-side entry points (called from the public primitives).
// ---------------------------------------------------------------------

/// Perform a visible operation as modeled thread `me`.
pub(crate) fn visible_op(shared: &Shared, me: Tid, op: Op) -> Reply {
    // Close the preemption gate: a signal rescue must never abandon a
    // fiber holding `inner` or mid-bookkeeping. (The gate is per-fiber —
    // saved/restored across the suspension inside `switch_to`.)
    let _gate = crate::fiber::engine_section();
    let mut st = shared.inner.lock();
    if st.dying {
        drop(st);
        std::panic::panic_any(DieMarker);
    }
    st.pending[me.idx()] = Some(op);
    st.running -= 1;
    if st.running == 0 {
        schedule(shared, &mut st, me);
    }
    // The condvar is fetched lazily: when the scheduler picked `me` again
    // (the common case), the reply is already deposited and the cvs lock
    // is never touched. Fetching under `inner` follows the established
    // inner→cvs lock order (see `spawn_thread` and `schedule`).
    let fiber_mode = crate::fiber::active();
    let mut cv = None;
    loop {
        if let Some(reply) = st.replies[me.idx()].take() {
            if matches!(reply, Reply::Die) {
                drop(st);
                std::panic::panic_any(DieMarker);
            }
            st.running += 1;
            return reply;
        }
        if fiber_mode {
            // No reply for this thread yet: hand the CPU straight to the
            // fiber that can make progress instead of parking an OS
            // thread. Control comes back (with the lock released) once
            // some later decision deposits this thread's reply and a
            // parking fiber switches here.
            let next =
                fiber_next(&st).expect("fiber host: a parked thread has no runnable successor");
            drop(st);
            crate::fiber::switch_to(next);
            st = shared.inner.lock();
        } else {
            cv.get_or_insert_with(|| shared.cv(me)).wait(&mut st);
        }
    }
}

/// Spawn a modeled child thread.
pub(crate) fn spawn_thread(
    shared: &Arc<Shared>,
    me: Tid,
    closure: Box<dyn FnOnce() + Send + 'static>,
) -> Tid {
    let _gate = crate::fiber::engine_section();
    let mut st = shared.inner.lock();
    if st.dying {
        drop(st);
        std::panic::panic_any(DieMarker);
    }
    if st.pending.len() >= st.config.max_threads as usize {
        let bug = Bug::UserPanic {
            tid: me,
            message: "max_threads exceeded".into(),
        };
        abort(shared, &mut st, RunOutcome::BugFound(bug));
        drop(st);
        std::panic::panic_any(DieMarker);
    }
    let child = st.register_thread();
    shared.heartbeat();
    shared.ensure_cv(child);
    st.mem.spawn_thread(me);
    st.running += 1; // the child runs until its first visible op
    st.active_jobs += 1;
    if crate::fiber::active() {
        // Fiber hosting: the child becomes a fiber of this OS thread. It
        // runs when a parking fiber picks it via `fiber_next` (it holds a
        // running token until its first visible op, so that is guaranteed
        // before the next scheduling decision). Creation cannot fail —
        // there is no pool to exhaust.
        drop(st);
        crate::fiber::spawn_fiber(child, Arc::clone(shared), closure);
        return child;
    }
    let pool = Arc::clone(&shared.pool);
    drop(st);
    let dispatched = pool.lock().dispatch(Job {
        tid: child,
        shared: Arc::clone(shared),
        closure,
    });
    if !dispatched {
        // The pool could not keep a worker alive for the child (bounded
        // respawns exhausted). Undo the child's accounting and abort the
        // execution as an engine error — the spawning thread unwinds like
        // any other abandoned execution.
        let mut st = shared.inner.lock();
        st.alive[child.idx()] = false;
        st.running -= 1;
        st.active_jobs -= 1;
        abort(
            shared,
            &mut st,
            RunOutcome::EngineError(format!(
                "worker pool exhausted its respawn budget dispatching {child}"
            )),
        );
        drop(st);
        std::panic::panic_any(DieMarker);
    }
    child
}

/// Called by the job wrapper when the closure returns normally.
pub(crate) fn thread_finished(shared: &Shared, me: Tid) {
    let _gate = crate::fiber::engine_section();
    let mut st = shared.inner.lock();
    if st.alive[me.idx()] {
        st.mem.apply_finish(me);
        st.alive[me.idx()] = false;
        st.running -= 1;
        if st.running == 0 {
            schedule(shared, &mut st, me);
        }
    }
}

/// Called by the job wrapper when the closure unwound with [`DieMarker`].
pub(crate) fn thread_aborted(shared: &Shared, me: Tid) {
    let _gate = crate::fiber::engine_section();
    let mut st = shared.inner.lock();
    if st.alive[me.idx()] {
        st.alive[me.idx()] = false;
        // A dying thread was counted running iff it held the token; it
        // panicked out of visible_op/spawn before re-incrementing, so it
        // is *not* counted in `running` here. Nothing to decrement.
    }
    // A thread that died *without starting* (spawned, then the execution
    // aborted before its first visible op) never picked up the `Die` the
    // abort deposited for it. Clear it: a stale reply for a dead thread
    // would otherwise steer `fiber_next` into a dead fiber.
    st.replies[me.idx()] = None;
}

/// Called by the job wrapper when the closure panicked for real.
pub(crate) fn thread_panicked(shared: &Shared, me: Tid, message: String) {
    let _gate = crate::fiber::engine_section();
    let mut st = shared.inner.lock();
    if st.alive[me.idx()] {
        st.alive[me.idx()] = false;
        st.running -= 1;
        let bug = Bug::UserPanic { tid: me, message };
        abort(shared, &mut st, RunOutcome::BugFound(bug));
    }
    // See `thread_aborted`: no stale reply may outlive its thread.
    st.replies[me.idx()] = None;
}

/// Job-exit accounting: the last job out signals the explorer.
pub(crate) fn job_exited(shared: &Shared) {
    let _gate = crate::fiber::engine_section();
    let mut st = shared.inner.lock();
    st.active_jobs -= 1;
    if st.active_jobs == 0 && st.outcome.is_some() {
        shared.done.notify_all();
    }
    // Liveness guard: if every job exited but no outcome was decided, the
    // execution stalled (should be impossible); mark it so the explorer
    // is not left hanging.
    if st.active_jobs == 0 && st.outcome.is_none() && st.alive.iter().all(|a| !a) {
        st.outcome = Some(RunOutcome::Completed);
        shared.done.notify_all();
    }
}

// ---------------------------------------------------------------------
// Explorer-side driver.
// ---------------------------------------------------------------------

/// Execution-harness state carried between the executions of one
/// exploration campaign: the `Shared` handle (with every buffer at its
/// high-water capacity) and the recycled trace buffer of the previous
/// execution. Per-execution setup cost — a fresh `Arc<Shared>`, every
/// `Vec` regrowing from zero, one `Arc<Condvar>` per modeled thread —
/// is a large share of short executions, so `run_once` rewinds this
/// state in place instead of rebuilding it.
///
/// One `Reuse` belongs to exactly one explorer (and therefore one
/// `Config`); it must not be shared across campaigns with different
/// configs.
#[derive(Default)]
pub(crate) struct Reuse {
    shared: Option<Arc<Shared>>,
    /// Trace buffer handed back by the explorer once the plugins are done
    /// with the previous execution's trace.
    pub trace: Option<Trace>,
}

/// Execute the test closure once, replaying `script`. With a `sampler`,
/// choice points beyond the script are resolved randomly instead of
/// depth-first (deadline-degraded sampling). `reuse` carries the harness
/// across executions; after a *hung* execution the `Shared` is abandoned
/// (the wedged job may still touch it) and the next call builds afresh.
pub(crate) fn run_once(
    config: &Config,
    pool: &Arc<Mutex<Pool>>,
    script: &[usize],
    test: Arc<dyn Fn() + Send + Sync>,
    sampler: Option<StdRng>,
    reuse: &mut Reuse,
) -> RunResult {
    let mut recycle = reuse.trace.take().unwrap_or_default();
    // sw-edge recording feeds the post-hoc oracle's delta cross-check; it
    // is only consumed by the validating test suites, so tie it to the
    // same flag. `Trace::clear` preserves the setting across reuse.
    recycle.record_sw = config.validate_axioms;
    let shared = match reuse.shared.take() {
        Some(shared) => {
            shared.inner.lock().reset(script, sampler, recycle);
            // A bug posted right before an abort-for-another-reason could
            // survive the previous execution; it must not leak into this
            // one.
            *shared.pending_bug.lock() = None;
            shared
                .pending_bug_flag
                .store(false, std::sync::atomic::Ordering::Relaxed);
            shared
        }
        None => Arc::new(Shared {
            inner: Mutex::new(ExecState {
                mem: {
                    let mut mem = MemState::new();
                    mem.trace.record_sw = config.validate_axioms;
                    mem
                },
                config: config.clone(),
                script: script.to_vec(),
                cursor: 0,
                choices: Vec::new(),
                pending: Vec::new(),
                replies: Vec::new(),
                alive: Vec::new(),
                running: 0,
                active_jobs: 0,
                sleep: Vec::new(),
                spins: Vec::new(),
                futile: Vec::new(),
                last_sched: Tid::MAIN,
                outcome: None,
                dying: false,
                sampler,
                cand_buf: Vec::new(),
                rmw_buf: Vec::new(),
                cand_scratch: Vec::new(),
                sched_buf: Vec::new(),
                pruned: 0,
                wake_floor: Vec::new(),
            }),
            progress: std::sync::atomic::AtomicU64::new(0),
            cvs: Mutex::new(Vec::new()),
            done: Condvar::new(),
            pending_bug: Mutex::new(None),
            pending_bug_flag: std::sync::atomic::AtomicBool::new(false),
            arena: Mutex::new(Vec::new()),
            pool: Arc::clone(pool),
        }),
    };

    {
        let mut st = shared.inner.lock();
        let main = st.register_thread();
        debug_assert_eq!(main, Tid::MAIN);
        shared.ensure_cv(main);
        st.running = 1;
        st.active_jobs = 1;
    }
    let t2 = Arc::clone(&test);
    // Host selection is centralized in `fiber::host_choice` (shared with
    // `fiber::enabled_here` so the gating logic cannot drift). Fibers run
    // *every* modeled thread of the execution on this (explorer) thread
    // with userspace stack switches — zero kernel handshakes per token
    // transfer — and, with a hang_timeout, arm the monitor-thread
    // watchdog for signal-directed rescue. The OS-thread pool, the
    // reference host, covers the rest (notably nested explorations).
    match crate::fiber::host_choice(config) {
        crate::fiber::HostChoice::Fiber => {
            crate::fiber::run_execution(
                &shared,
                Box::new(move || t2()),
                config.hang_timeout,
                config.fiber_stack,
            );
        }
        crate::fiber::HostChoice::Pool => {
            let dispatched = pool.lock().dispatch(Job {
                tid: Tid::MAIN,
                shared: Arc::clone(&shared),
                closure: Box::new(move || t2()),
            });
            if !dispatched {
                // No worker could host even the main modeled thread: void
                // the execution up front instead of waiting on a job that
                // will never run.
                let mut st = shared.inner.lock();
                st.alive[Tid::MAIN.idx()] = false;
                st.running -= 1;
                st.active_jobs -= 1;
                st.outcome = Some(RunOutcome::EngineError(
                    "worker pool exhausted its respawn budget dispatching the main thread".into(),
                ));
                shared.done.notify_all();
            }
        }
    }

    // Wait for the verdict + full job drain (arena safety). With a
    // hang_timeout, a watchdog polls the heartbeat counter: an execution
    // whose scheduler makes no progress for the configured interval is
    // aborted (`Bug::InternalHang`), and if the wedged job still refuses
    // to exit, it is leaked rather than parking the explorer forever.
    let (outcome, trace, choices, hung, pruned) = {
        let mut st = shared.inner.lock();
        let mut hung = false;
        match config.hang_timeout {
            None => {
                while !(st.outcome.is_some() && st.active_jobs == 0) {
                    shared.done.wait(&mut st);
                }
            }
            Some(limit) => {
                // Fiber-hosted executions return from `run_execution`
                // fully drained (their watchdog lives on the monitor
                // thread), so this loop exits on its first check there;
                // the polling below is the OS-thread path's watchdog.
                let slice = (limit / 4).max(Duration::from_millis(10));
                let progress = || shared.progress.load(std::sync::atomic::Ordering::Relaxed);
                let mut last_progress = progress();
                let mut last_change = Instant::now();
                loop {
                    if st.outcome.is_some() && st.active_jobs == 0 {
                        break;
                    }
                    shared.done.wait_for(&mut st, slice);
                    let now_progress = progress();
                    if now_progress != last_progress {
                        last_progress = now_progress;
                        last_change = Instant::now();
                        continue;
                    }
                    let stalled = last_change.elapsed();
                    if stalled < limit {
                        continue;
                    }
                    if st.outcome.is_none() {
                        let wedged = st.last_sched;
                        let bug = st.hang_bug(limit, wedged);
                        abort(&shared, &mut st, RunOutcome::BugFound(bug));
                        // Fresh grace period for the surviving jobs to
                        // unwind and drain.
                        last_change = Instant::now();
                    } else {
                        // Already aborted, still not drained: a job is
                        // wedged in user code and will never exit.
                        hung = true;
                        break;
                    }
                }
            }
        }
        (
            st.outcome.clone().expect("decided"),
            std::mem::take(&mut st.mem.trace),
            std::mem::take(&mut st.choices),
            hung,
            st.pruned,
        )
    };
    if !hung {
        shared.arena.lock().clear();
        // All jobs have drained (`active_jobs == 0`), so nothing touches
        // the execution state again: the harness can be rewound and
        // reused by the next execution.
        reuse.shared = Some(shared);
    }
    // On a hang the arena stays alive deliberately: the wedged thread may
    // still dereference per-execution allocations, and its thread-local
    // context keeps `shared` (and thus the arena) reachable. The leak is
    // bounded by one wedged execution per InternalHang report.
    RunResult {
        outcome,
        trace,
        choices,
        hung,
        pruned,
    }
}
