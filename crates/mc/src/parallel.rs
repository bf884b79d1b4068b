//! The frontier-sharded exploration engine, at any worker count.
//!
//! `N = Config::workers` independent [`Explorer`] instances (each with its
//! own modeled-thread pool, its own statistics, and — via
//! [`crate::explore_factory`] — its own plugins) drain a shared queue of
//! [`ShardSpec`] frontier shards. Worker 0 runs on the calling thread, so
//! a one-worker run spawns no thread; workers `1..N` run on scoped
//! threads. The choice tree is deterministic, so any partition of its
//! leaves yields the same per-leaf outcomes; the engine only has to
//! guarantee the shards *are* a partition:
//!
//! 1. **Shard**: exploration starts from the resolved initial shards
//!    (usually the single root shard `{floor: 0, script: []}`).
//! 2. **Steal**: a worker that finds the queue empty goes *hungry*; busy
//!    workers check for hunger between executions and donate by splitting
//!    their own frontier ([`crate::explore::split_frontier`]) — the
//!    donated sibling subtrees become fresh shards on the queue, and the
//!    donor raises its floor so it can never re-enter them. A lone worker
//!    is never hungry while busy, so it explores its shards in order: the
//!    plain DFS.
//! 3. **Merge**: counters sum, [`StopReason`]s combine worst-of, bugs
//!    dedup by rendered message, and every abandoned shard — in-flight or
//!    still queued — lands in [`Stats::shard_frontiers`] so an
//!    interrupted run resumes exactly. Several workers' bugs and shards
//!    are sorted, so the merged order does not depend on thread timing;
//!    one worker's lists keep their DFS order.
//!
//! Termination: work only ever enters the queue from a busy worker, so
//! "every worker idle and the queue empty" is stable and final. A global
//! halt (first bug, execution cap, deadline, error) wakes all waiters and
//! makes each busy worker park its current frontier as a leftover shard —
//! as sibling subtrees along its DFS path when the halt is the
//! execution cap ([`crate::explore::stop_frontier`]). A worker that
//! panics halts the run with [`StopReason::Errored`] as it unwinds, so
//! the others never wait for work it can no longer donate.
//!
//! The execution cap is enforced via a global atomic counter checked
//! between executions; concurrent workers may overshoot the cap by up to
//! `workers - 1` executions (each may be mid-execution when the counter
//! crosses). Exhausted runs are unaffected — the cap never fires.
//!
//! See `ARCHITECTURE.md` for the full protocol, a sequence diagram, and
//! the determinism argument.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::config::Config;
use crate::explore::{next_script_into, split_frontier, stop_frontier, Explorer};
use crate::plugin::Plugin;
use crate::report::{ShardSpec, Stats, StopReason};
use crate::worker::run_shard_threads;

/// Queue + termination state, guarded by the coordinator's mutex.
struct CoordState {
    /// Shards awaiting a worker.
    queue: VecDeque<ShardSpec>,
    /// Workers currently blocked waiting for work.
    idle: usize,
    /// Workers that would accept stolen work right now (identical to
    /// `idle` today; kept separate so donation pressure reads as intent).
    hungry: usize,
    /// Set once a stop condition fires anywhere; all workers abandon.
    halt: Option<StopReason>,
    /// All workers idle with an empty queue: exploration is complete.
    done: bool,
}

/// Shared coordination for one exploration.
struct Coordinator {
    state: Mutex<CoordState>,
    cv: Condvar,
    /// Executions performed by this run, across all workers; the cap
    /// applies to this count, not to a resumed run's total.
    executions: AtomicU64,
    workers: usize,
    steal_batch: usize,
    max_executions: u64,
    deadline: Option<Instant>,
}

impl Coordinator {
    /// Block until a shard is available; `None` means the run is over
    /// (completed or halted).
    fn next_shard(&self) -> Option<ShardSpec> {
        let mut st = self.state.lock();
        loop {
            if st.halt.is_some() || st.done {
                return None;
            }
            if let Some(s) = st.queue.pop_front() {
                return Some(s);
            }
            st.idle += 1;
            st.hungry += 1;
            if st.idle == self.workers {
                // Nobody is left to produce work: natural completion.
                st.done = true;
                self.cv.notify_all();
                return None;
            }
            self.cv.wait(&mut st);
            st.idle -= 1;
            st.hungry -= 1;
        }
    }

    /// Order a global stop, keeping the worst reason if several race.
    fn halt(&self, reason: StopReason) {
        let mut st = self.state.lock();
        st.halt = Some(st.halt.map_or(reason, |h| h.worst(reason)));
        self.cv.notify_all();
    }

    /// Between executions: the halt reason if the run was stopped, else
    /// donate part of the caller's frontier if anyone is hungry and the
    /// queue cannot already feed them. Raises `floor` past every donated
    /// depth so the donor never re-explores what it gave away.
    fn check_in(
        &self,
        frontier: &[usize],
        choices: &[crate::runtime::ChoiceRec],
        floor: &mut usize,
    ) -> Option<StopReason> {
        let mut st = self.state.lock();
        if st.halt.is_some() || st.hungry == 0 || st.queue.len() >= st.hungry {
            return st.halt;
        }
        let (thieves, new_floor) = split_frontier(frontier, choices, *floor, self.steal_batch);
        if !thieves.is_empty() {
            *floor = new_floor;
            st.queue.extend(thieves);
            self.cv.notify_all();
        }
        None
    }
}

/// Halts the run when the worker holding it unwinds, so a dead worker
/// cannot leave the others waiting for a donation that never comes.
struct HaltOnUnwind<'a>(&'a Coordinator);

impl Drop for HaltOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halt(StopReason::Errored);
        }
    }
}

/// One worker's campaign: drain shards until the run completes or halts.
/// Returns the explorer (its statistics, and its plugins for deadline
/// sampling) plus any shards it had to abandon.
fn shard_worker(coord: &Coordinator, mut ex: Explorer) -> (Explorer, Vec<ShardSpec>) {
    let mut leftovers = Vec::new();
    'shards: while let Some(shard) = coord.next_shard() {
        ex.shard_start = shard.script.clone();
        let mut floor = shard.floor;
        let mut script = shard.script;
        loop {
            let stop = ex.step(&script, None);
            let total = coord.executions.fetch_add(1, Ordering::Relaxed) + 1;
            // Where DFS would go next — recorded before deciding to stop,
            // so an interrupted run always knows its frontier. The script
            // just run is overwritten in place.
            let more = next_script_into(ex.choices(), floor, &mut script);

            if let Some(reason) = stop {
                ex.stats.stop = ex.stats.stop.worst(reason);
                coord.halt(reason);
                if more {
                    leftovers.push(ShardSpec { floor, script });
                }
                break 'shards;
            }
            // Exhaustion outranks the resource limits: a cap or deadline
            // that fires on the final leaf did not truncate anything.
            if !more {
                continue 'shards; // shard exhausted; fetch the next one
            }
            // The deadline is only checked between executions: partition
            // counts stay exact across checkpoint/resume.
            let limit = if total >= coord.max_executions {
                Some(StopReason::ExecutionCap)
            } else if coord.deadline.is_some_and(|d| Instant::now() >= d) {
                Some(StopReason::Deadline)
            } else {
                None
            };
            if let Some(reason) = limit {
                coord.halt(reason);
            }
            // This worker's own limit, or someone else stopped the run:
            // park the frontier and go.
            if let Some(reason) =
                limit.or_else(|| coord.check_in(&script, ex.choices(), &mut floor))
            {
                ex.stats.stop = ex.stats.stop.worst(reason);
                leftovers.extend(stop_frontier(reason, script, ex.choices(), floor));
                break 'shards;
            }
        }
    }
    (ex, leftovers)
}

/// Run the engine from the `initial` shard set, worker `w` checking with
/// `plugins[w]` (one list per worker). The caller accounts `elapsed`.
pub(crate) fn explore_shards(
    config: &Config,
    initial: Vec<ShardSpec>,
    plugins: Vec<Vec<Box<dyn Plugin>>>,
    test: Arc<dyn Fn() + Send + Sync>,
) -> Stats {
    let workers = config.effective_workers();
    let coord = Coordinator {
        state: Mutex::new(CoordState {
            queue: initial.into(),
            idle: 0,
            hungry: 0,
            halt: None,
            done: false,
        }),
        cv: Condvar::new(),
        executions: AtomicU64::new(0),
        workers,
        steal_batch: config.steal_batch.max(1),
        max_executions: config.max_executions,
        deadline: config.time_budget.map(|b| Instant::now() + b),
    };

    let mut results = run_shard_threads(plugins, |w, plugins| {
        let _halt = HaltOnUnwind(&coord);
        let ex = Explorer::new(config.clone(), Arc::clone(&test), plugins, w);
        shard_worker(&coord, ex)
    });

    let unclaimed = coord.state.into_inner().queue;
    let mut merged = merge_results(&mut results, unclaimed);
    // Deadline degradation only knows how to march a single unfloored
    // script across the remaining tree.
    if merged.stop == StopReason::Deadline
        && config.deadline_samples > 0
        && matches!(merged.shard_frontiers.as_slice(), [s] if s.floor == 0)
    {
        if let Some(Ok((ex, _))) = results.first_mut() {
            ex.sample_remaining(&mut merged);
        }
    }
    merged
}

/// Deterministic merge of the workers' results.
fn merge_results(
    results: &mut [std::thread::Result<(Explorer, Vec<ShardSpec>)>],
    unclaimed: VecDeque<ShardSpec>,
) -> Stats {
    let mut merged = Stats::default();
    let mut seen = HashSet::new();
    let mut fresh_bugs = Vec::new();
    let mut leftovers = Vec::new();
    for r in results.iter_mut() {
        match r {
            Ok((ex, rem)) => {
                let mut stats = std::mem::take(&mut ex.stats);
                // Move the classes: into an empty set (a fresh run's first
                // worker) that costs no allocation at all.
                merged.rf_classes.append(&mut stats.rf_classes);
                merged.add_counters(&stats);
                merged.stop = merged.stop.worst(stats.stop);
                fresh_bugs.extend(
                    stats
                        .bugs
                        .into_iter()
                        .filter(|b| seen.insert(b.bug.to_string())),
                );
                leftovers.append(rem);
            }
            // A dead worker is an engine failure; its shard is
            // unrecoverable, so the run must not claim completeness.
            Err(_) => merged.stop = merged.stop.worst(StopReason::Errored),
        }
    }
    leftovers.extend(unclaimed);
    // Several workers report in an order that depends on thread timing:
    // sort new bugs by message and leftover shards by script, so the
    // merged lists are a function of the sets. One worker's lists are
    // already in DFS order.
    if results.len() > 1 {
        fresh_bugs.sort_by_key(|b| b.bug.to_string());
        leftovers.sort_by(|a, b| a.script.cmp(&b.script).then(a.floor.cmp(&b.floor)));
    }
    merged.push_bugs(fresh_bugs);
    merged.shard_frontiers = leftovers;
    merged
}
