//! The parallel frontier-sharded exploration engine.
//!
//! `N = Config::workers` independent [`Explorer`] instances (each with its
//! own modeled-thread pool, its own statistics, and — via
//! [`crate::explore_factory`] — its own plugins) drain a shared queue of
//! [`ShardSpec`] frontier shards. The choice tree is deterministic, so any
//! partition of its leaves yields the same per-leaf outcomes; the engine
//! only has to guarantee the shards *are* a partition:
//!
//! 1. **Shard**: exploration starts from the resolved initial shards
//!    (usually the single root shard `{floor: 0, script: []}`).
//! 2. **Steal**: a worker that finds the queue empty goes *hungry*; busy
//!    workers check for hunger between executions and donate by splitting
//!    their own frontier ([`crate::explore::split_frontier`]) — the
//!    donated sibling subtrees become fresh shards on the queue, and the
//!    donor raises its floor so it can never re-enter them.
//! 3. **Merge**: counters sum, [`StopReason`]s combine worst-of, bugs
//!    dedup by rendered message (then sort, so the merged order does not
//!    depend on thread timing), and every abandoned shard — in-flight or
//!    still queued — lands in [`Stats::shard_frontiers`] so an
//!    interrupted parallel run resumes exactly.
//!
//! Termination: work only ever enters the queue from a busy worker, so
//! "every worker idle and the queue empty" is stable and final. A global
//! halt (first bug, execution cap, deadline, error) wakes all waiters and
//! makes each busy worker park its current frontier as a leftover shard —
//! as sibling subtrees along its DFS path when the halt is the
//! execution cap ([`crate::explore::stop_frontier`]).
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
use crate::explore::{
    next_script_bounded, split_frontier, stop_frontier, Explorer, PluginSet, PluginSource,
    MAX_BUG_RECORDS,
};
use crate::report::{FoundBug, ShardSpec, Stats, StopReason};
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

/// Shared coordination for one parallel exploration.
struct Coordinator {
    state: Mutex<CoordState>,
    cv: Condvar,
    /// Executions performed by this run, across all workers (the global
    /// analog of the sequential engine's `local_executions`).
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

    fn halted(&self) -> Option<StopReason> {
        self.state.lock().halt
    }

    /// Donate part of the caller's frontier if anyone is hungry and the
    /// queue cannot already feed them. Raises `floor` past every donated
    /// depth so the donor never re-explores what it gave away.
    fn maybe_donate(
        &self,
        frontier: &[usize],
        choices: &[crate::runtime::ChoiceRec],
        floor: &mut usize,
    ) {
        let mut st = self.state.lock();
        if st.halt.is_some() || st.hungry == 0 || st.queue.len() >= st.hungry {
            return;
        }
        let (thieves, new_floor) = split_frontier(frontier, choices, *floor, self.steal_batch);
        if thieves.is_empty() {
            return;
        }
        *floor = new_floor;
        st.queue.extend(thieves);
        self.cv.notify_all();
    }
}

/// One worker's campaign: drain shards until the run completes or halts.
/// Returns the worker's statistics plus any shards it had to abandon.
fn shard_worker(
    w: usize,
    coord: &Coordinator,
    config: &Config,
    prior_bugs: &[String],
    plugins: &mut PluginSet,
    test: &Arc<dyn Fn() + Send + Sync>,
) -> (Stats, Vec<ShardSpec>) {
    let mut ex = Explorer::for_worker(config.clone(), prior_bugs, Arc::clone(test), w);
    let mut leftovers = Vec::new();
    'shards: while let Some(shard) = coord.next_shard() {
        ex.shard_start = shard.script.clone();
        let mut floor = shard.floor;
        let mut script = shard.script;
        loop {
            let (result, stop) = ex.step(plugins, &script, None);
            let total = coord.executions.fetch_add(1, Ordering::Relaxed) + 1;
            let frontier = next_script_bounded(&result.choices, floor);

            if let Some(reason) = stop {
                ex.stats.stop = ex.stats.stop.worst(reason);
                coord.halt(reason);
                leftovers.extend(frontier.map(|script| ShardSpec { floor, script }));
                break 'shards;
            }
            let Some(next) = frontier else {
                continue 'shards; // shard exhausted; fetch the next one
            };
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
            if let Some(reason) = limit.or_else(|| coord.halted()) {
                ex.stats.stop = ex.stats.stop.worst(reason);
                leftovers.extend(stop_frontier(reason, next, &result.choices, floor));
                break 'shards;
            }
            coord.maybe_donate(&next, &result.choices, &mut floor);
            script = next;
        }
    }
    (ex.stats, leftovers)
}

/// Run the parallel engine. `prior` is the checkpointed base the merged
/// result accumulates onto; `initial` is the starting shard set. The
/// caller accounts `elapsed`.
pub(crate) fn explore_parallel(
    config: &Config,
    prior: Stats,
    initial: Vec<ShardSpec>,
    plugins: PluginSource,
    test: Arc<dyn Fn() + Send + Sync>,
    workers: usize,
) -> Stats {
    let coord = Coordinator {
        state: Mutex::new(CoordState {
            queue: initial.into_iter().collect(),
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
    let prior_bugs: Vec<String> = prior.bugs.iter().map(|b| b.bug.to_string()).collect();

    // One plugin set per worker: factory-made sets are exclusive; a plain
    // `Vec` is shared behind a mutex (serialized checking — documented on
    // `explore_with_plugins`).
    let sets: Vec<Mutex<Option<PluginSet>>> = match plugins {
        PluginSource::Factory(f) => (0..workers)
            .map(|_| Mutex::new(Some(PluginSet::Owned(f()))))
            .collect(),
        PluginSource::Direct(v) if v.is_empty() => (0..workers)
            .map(|_| Mutex::new(Some(PluginSet::Owned(Vec::new()))))
            .collect(),
        PluginSource::Direct(v) => {
            let shared = Arc::new(Mutex::new(v));
            (0..workers)
                .map(|_| Mutex::new(Some(PluginSet::Shared(Arc::clone(&shared)))))
                .collect()
        }
    };

    let results = run_shard_threads(workers, |w| {
        let mut set = sets[w].lock().take().expect("plugin set taken once");
        shard_worker(w, &coord, config, &prior_bugs, &mut set, &test)
    });

    let unclaimed = coord.state.into_inner().queue;
    merge_results(prior, results, unclaimed)
}

/// Deterministic merge of the workers' results onto the checkpointed base.
fn merge_results(
    prior: Stats,
    results: Vec<std::thread::Result<(Stats, Vec<ShardSpec>)>>,
    unclaimed: VecDeque<ShardSpec>,
) -> Stats {
    let mut merged = prior;
    merged.stop = StopReason::Exhausted;
    let mut seen: HashSet<String> = merged.bugs.iter().map(|b| b.bug.to_string()).collect();
    let mut fresh_bugs: Vec<FoundBug> = Vec::new();
    let mut leftovers: Vec<ShardSpec> = unclaimed.into_iter().collect();
    for r in results {
        match r {
            Ok((stats, rem)) => {
                merged.add_counters(&stats);
                merged.stop = merged.stop.worst(stats.stop);
                for b in stats.bugs {
                    if seen.insert(b.bug.to_string()) {
                        fresh_bugs.push(b);
                    }
                }
                leftovers.extend(rem);
            }
            // A dead worker thread is an engine failure; its shard is
            // unrecoverable, so the run must not claim completeness.
            Err(_) => merged.stop = merged.stop.worst(StopReason::Errored),
        }
    }
    // Sort new bugs by message so the merged record order is a function of
    // the bug *set*, not of which worker reported first.
    fresh_bugs.sort_by_key(|b| b.bug.to_string());
    for b in fresh_bugs {
        if merged.bugs.len() >= MAX_BUG_RECORDS {
            break;
        }
        merged.bugs.push(b);
    }
    // Sort leftover shards for stable checkpoint text.
    leftovers.sort_by(|a, b| a.script.cmp(&b.script).then(a.floor.cmp(&b.floor)));
    merged.set_frontier_shards(leftovers);
    merged
}
