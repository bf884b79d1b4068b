//! The stateless DFS explorer.
//!
//! Re-executes the test closure, replaying a prefix of recorded choices and
//! deviating at the deepest choice point that still has unexplored
//! alternatives — the classic stateless-model-checking loop (CDSChecker,
//! CHESS). Terminates when the whole choice tree is exhausted, the
//! execution cap is hit, or the wall-clock budget expires.
//!
//! ## Resumability
//!
//! The replay script *is* the explorer's complete state: `next_script`
//! computes the first unexplored leaf from the last execution's choices,
//! and a run cut short by the cap or the deadline records that script as
//! its [`Stats::frontier`]. [`explore_from`] restarts DFS at a
//! [`Checkpoint`]'s frontier and visits exactly the leaves the original
//! run had left, so execution counts partition:
//! `executions(full) == executions(to checkpoint) + executions(resumed)`.
//!
//! ## Parallel exploration
//!
//! With `Config::workers > 1` the frontier is split into disjoint
//! [`ShardSpec`] subtrees explored concurrently by independent explorer
//! instances, with dynamic work-stealing between them; results merge
//! deterministically back into one [`Stats`]. The coordinator lives in
//! `crate::parallel`; the shard representation (`floor`-bounded DFS via
//! `next_script_bounded`) and the splitting rule (`split_frontier`)
//! live here, next to the sequential loop they generalize. See
//! `ARCHITECTURE.md` for the shard→steal→merge protocol and the
//! determinism argument.
//!
//! ## Deadline degradation
//!
//! With `Config::deadline_samples > 0`, a sequential run that hits its
//! deadline additionally probes the *unexplored* region with seeded
//! random-walk executions (each replays the frontier prefix, then resolves
//! choice points by PRNG) — deterministic per `Config::sample_seed`, and
//! the DFS frontier is advanced past each probed subtree so samples spread
//! across the remaining tree instead of clustering under one branch.
//! (Parallel runs skip the degradation phase: their frontier is a shard
//! *set*, which the single-script random walk cannot probe coherently.)

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use crate::config::Config;
use crate::plugin::{Plugin, PluginFactory};
use crate::report::{Bug, Checkpoint, FoundBug, ShardSpec, Stats, StopReason};
use crate::runtime::{run_once, ChoiceRec, Reuse, RunOutcome, RunResult};
use crate::worker::{panic_message, Pool};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Version of the exploration tree: which schedules, rf choices and
/// therefore execution counters a fixed [`Config`] produces. Bump it
/// whenever a change alters which schedules a fixed `Config` visits (the
/// dependence relation, pruning rules, scheduling order) or which leaves
/// a frontier shard stands for. Result caches and campaign journals key
/// on it, so results of an older tree stop matching; `--checkpoint`
/// frontiers cut under an older tree must not be resumed, and the attach
/// handshake turns away a worker of another tree.
///
/// Version 2: a suite frontier shard stands for its own subtree only,
/// where a version-1 shard also covered every later suite part.
pub const TREE_VERSION: u64 = 2;

/// Maximum distinct bug records retained (duplicates across executions are
/// folded; exploration statistics still count every occurrence).
pub(crate) const MAX_BUG_RECORDS: usize = 24;

/// The plugins one explorer instance checks feasible executions with.
///
/// `Owned` is the fast path: the explorer has exclusive plugins (the
/// sequential engine, or a parallel worker whose plugins came from a
/// [`PluginFactory`]). `Shared` is the compatibility fallback for a plain
/// plugin `Vec` handed to the *parallel* engine: every worker serializes
/// its checking through one mutex, which is correct but contended —
/// prefer [`explore_factory`] for parallel specification checking.
pub(crate) enum PluginSet {
    Owned(Vec<Box<dyn Plugin>>),
    Shared(Arc<Mutex<Vec<Box<dyn Plugin>>>>),
}

impl PluginSet {
    fn with<R>(&mut self, f: impl FnOnce(&mut [Box<dyn Plugin>]) -> R) -> R {
        match self {
            PluginSet::Owned(v) => f(v),
            PluginSet::Shared(m) => f(&mut m.lock()),
        }
    }
}

/// Where an exploration's plugins come from: a one-shot list, or a factory
/// that can mint an independent list per parallel worker.
pub(crate) enum PluginSource {
    Direct(Vec<Box<dyn Plugin>>),
    Factory(PluginFactory),
}

/// How one shard's DFS ended.
pub(crate) enum ShardEnd {
    /// Every leaf of the shard's subtree was visited.
    Exhausted,
    /// Stopped early; carries the shard's remaining frontier (empty when
    /// the stop fired on the shard's final leaf).
    Stopped(StopReason, Vec<ShardSpec>),
}

/// One DFS campaign over a test closure's choice tree (or a shard of it).
pub(crate) struct Explorer {
    pub(crate) config: Config,
    pool: Arc<Mutex<Pool>>,
    test: Arc<dyn Fn() + Send + Sync>,
    pub(crate) stats: Stats,
    /// Rendered messages of every bug seen (the dedup key).
    pub(crate) seen_bugs: HashSet<String>,
    /// Executions performed by *this* run (`stats.executions` may include
    /// a resumed checkpoint's prior count; the cap applies locally).
    local_executions: u64,
    deadline: Option<Instant>,
    /// Worker index stamped onto found bugs (0 for the sequential engine).
    pub(crate) worker: usize,
    /// Start script of the shard currently being explored, stamped onto
    /// found bugs so parallel repros stay debuggable.
    pub(crate) shard_start: Vec<usize>,
    /// Execution harness carried between runs: `run_once` rewinds it in
    /// place instead of rebuilding the shared state per execution.
    reuse: Reuse,
}

impl Explorer {
    pub(crate) fn new(config: Config, prior: Stats, test: Arc<dyn Fn() + Send + Sync>) -> Self {
        let deadline = config.time_budget.map(|b| Instant::now() + b);
        let seen_bugs = prior.bugs.iter().map(|b| b.bug.to_string()).collect();
        Explorer {
            config,
            pool: Arc::new(Mutex::new(Pool::new())),
            test,
            stats: prior,
            seen_bugs,
            local_executions: 0,
            deadline,
            worker: 0,
            shard_start: Vec::new(),
            reuse: Reuse::default(),
        }
    }

    /// An explorer for parallel worker `worker`: zeroed statistics (the
    /// checkpointed prior lives once, in the merge base), but with the
    /// prior run's bug messages pre-seeded so resumed bugs stay
    /// deduplicated.
    pub(crate) fn for_worker(
        config: Config,
        seen: &[String],
        test: Arc<dyn Fn() + Send + Sync>,
        worker: usize,
    ) -> Self {
        let mut ex = Explorer::new(config, Stats::default(), test);
        ex.seen_bugs = seen.iter().cloned().collect();
        ex.worker = worker;
        ex
    }

    /// Record one bug occurrence, deduplicated by rendered message.
    fn record_bug(&mut self, bug: Bug, trace: &cdsspec_c11::Trace) {
        let key = bug.to_string();
        if self.seen_bugs.insert(key) && self.stats.bugs.len() < MAX_BUG_RECORDS {
            self.stats.bugs.push(FoundBug {
                bug,
                execution: self.stats.executions - 1,
                trace: trace.render(),
                worker: self.worker,
                shard: self.shard_start.clone(),
            });
        }
    }

    /// Run one execution and fold its outcome into the stats. Returns the
    /// choice record (for DFS backtracking) plus `Some(reason)` when the
    /// campaign must stop because of what happened *inside* the execution
    /// (a bug with `stop_on_first_bug`, or a crashed checker).
    pub(crate) fn step(
        &mut self,
        plugins: &mut PluginSet,
        script: &[usize],
        sampler: Option<StdRng>,
    ) -> (RunResult, Option<StopReason>) {
        let mut result = run_once(
            &self.config,
            &self.pool,
            script,
            Arc::clone(&self.test),
            sampler,
            &mut self.reuse,
        );
        self.stats.executions += 1;
        self.local_executions += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(result.choices.len() as u64);
        self.stats.executions_pruned += result.pruned;

        if self.config.verbose {
            eprintln!(
                "== execution {} ({:?}{}) ==\n{}",
                self.stats.executions,
                result.outcome,
                if result.hung {
                    ", wedged worker leaked"
                } else {
                    ""
                },
                result.trace.render()
            );
        }

        let mut stop = None;
        match &result.outcome {
            RunOutcome::Completed => {
                self.stats.feasible += 1;
                // Class accounting uses completed traces only: a partial
                // (bug-aborted) trace's signature would depend on where
                // the abort cut it, which is scheduling noise.
                self.stats
                    .rf_classes
                    .insert(cdsspec_c11::relations::rf_signature(&result.trace));
                // Two-tier axiom checking: `validate_axioms` runs the full
                // independent oracle (O(n²) hb closure, clock cross-check);
                // otherwise `debug_audit` runs the fast auditor that trusts
                // the trace's incremental indexes. Both produce identical
                // error strings for the violations they can both see.
                let errors = if self.config.validate_axioms {
                    cdsspec_c11::relations::validate(&result.trace, true)
                } else if self.config.debug_audit {
                    cdsspec_c11::relations::audit(&result.trace)
                } else {
                    Vec::new()
                };
                for err in errors {
                    self.record_bug(
                        Bug::AxiomViolation {
                            message: err.to_string(),
                        },
                        &result.trace,
                    );
                    stop = Some(StopReason::FirstBug);
                }
                let config_stop_on_first = self.config.stop_on_first_bug;
                plugins.with(|plugins| {
                    for plugin in plugins.iter_mut() {
                        // A buggy checker must not take the campaign down
                        // with it: contain the panic, report it as a plugin
                        // bug, and stop with `Errored` so callers see the
                        // run is incomplete rather than silently clean.
                        let name = plugin.name();
                        let checked =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                plugin.check(&result.trace)
                            }));
                        let found = match checked {
                            Ok(found) => found,
                            Err(payload) => {
                                let message =
                                    format!("checker panicked: {}", panic_message(&payload));
                                self.record_bug(
                                    Bug::Plugin {
                                        plugin: name,
                                        message,
                                    },
                                    &result.trace,
                                );
                                stop = Some(StopReason::Errored);
                                continue;
                            }
                        };
                        if !found.is_empty() && config_stop_on_first {
                            stop = Some(StopReason::FirstBug);
                        }
                        for bug in found {
                            self.record_bug(bug, &result.trace);
                        }
                    }
                });
            }
            RunOutcome::BugFound(bug) => {
                self.stats.feasible += 1; // a buggy execution is a real behavior
                self.record_bug(bug.clone(), &result.trace);
                if self.config.stop_on_first_bug {
                    stop = Some(StopReason::FirstBug);
                }
            }
            RunOutcome::Diverged => self.stats.diverged += 1,
            RunOutcome::SleepPruned => self.stats.sleep_pruned += 1,
            RunOutcome::EngineError(message) => {
                // Not a property of the modeled code: the engine could not
                // run the execution (e.g. the pool's respawn budget ran
                // out). Record it so the report explains itself, and stop
                // with `Errored` so the run never claims completeness.
                self.record_bug(
                    Bug::EngineFailure {
                        message: message.clone(),
                    },
                    &result.trace,
                );
                stop = Some(StopReason::Errored);
            }
        }
        // The plugins are done with the trace: hand the buffer back to the
        // harness so the next execution's event/mo/sc vectors start at
        // their high-water capacity. Callers of `step` only consume the
        // outcome and the choice record.
        self.reuse.trace = Some(std::mem::take(&mut result.trace));
        (result, stop)
    }

    /// The DFS phase over one shard: explore leaves depth-first from the
    /// shard's script, never backtracking above its floor, until the
    /// subtree is exhausted or a stop condition fires.
    fn dfs_shard(&mut self, plugins: &mut PluginSet, shard: ShardSpec) -> ShardEnd {
        self.shard_start = shard.script.clone();
        let floor = shard.floor;
        let mut script = shard.script;
        loop {
            let (result, stop) = self.step(plugins, &script, None);
            // Where DFS would go next — recorded before deciding to stop,
            // so an interrupted run always knows its frontier.
            let frontier = next_script_bounded(&result.choices, floor);

            if let Some(reason) = stop {
                let rem = frontier.map(|script| ShardSpec { floor, script });
                return ShardEnd::Stopped(reason, rem.into_iter().collect());
            }
            // Exhaustion outranks the resource limits: a cap or deadline
            // that fires on the final leaf did not truncate anything, and
            // `ExecutionCap`/`Deadline` always imply a resumable frontier.
            let Some(next) = frontier else {
                return ShardEnd::Exhausted;
            };
            // The deadline is only checked between executions: partition
            // counts stay exact across checkpoint/resume.
            let limit = if self.local_executions >= self.config.max_executions {
                Some(StopReason::ExecutionCap)
            } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
                Some(StopReason::Deadline)
            } else {
                None
            };
            if let Some(reason) = limit {
                let rem = stop_frontier(reason, next, &result.choices, floor);
                return ShardEnd::Stopped(reason, rem);
            }
            script = next;
        }
    }

    /// Deadline degradation: probe the unexplored region with seeded
    /// random walks. Each sample replays the current frontier prefix and
    /// resolves further choices by PRNG, then the frontier advances past
    /// that subtree so successive samples march across the remaining tree.
    fn sample_remaining(&mut self, plugins: &mut PluginSet) {
        for i in 0..self.config.deadline_samples {
            let Some(prefix) = self.stats.frontier.clone() else {
                break;
            };
            let rng = StdRng::seed_from_u64(self.config.sample_seed.wrapping_add(i));
            let (result, stop) = self.step(plugins, &prefix, Some(rng));
            self.stats.sampled += 1;
            if stop.is_some() {
                // Keep `Deadline` as the overall stop reason unless the
                // sample errored — sampling is best-effort extra coverage.
                if stop == Some(StopReason::Errored) {
                    self.stats.stop = StopReason::Errored;
                }
                break;
            }
            // Advance the DFS frontier past the prefix we just probed.
            // Only the scripted prefix is deterministic; the random tail
            // must not leak into the stored frontier.
            let prefix_len = prefix.len();
            let replayed = &result.choices[..prefix_len.min(result.choices.len())];
            let advanced = next_script(replayed);
            self.stats.set_frontier_shards(
                advanced
                    .map(|s| vec![ShardSpec::from_script(s)])
                    .unwrap_or_default(),
            );
        }
    }
}

/// Exhaustively explore `test` under `config`, invoking `plugins` on every
/// feasible execution.
///
/// With `Config::workers > 1` and a non-empty plugin list, checking is
/// serialized through a mutex shared by all workers; use
/// [`explore_factory`] to give each worker independent plugins instead.
pub fn explore_with_plugins<F>(config: Config, plugins: Vec<Box<dyn Plugin>>, test: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    explore_from_with_plugins(config, Checkpoint::root(), plugins, test)
}

/// Resume an interrupted exploration from `checkpoint` (see
/// [`Stats::checkpoint`]): statistics continue accumulating on top of
/// the checkpointed counts, previously reported bugs stay deduplicated,
/// and DFS restarts at the checkpointed frontier
/// — every frontier shard of it, when the checkpoint came from an
/// interrupted parallel run.
///
/// The two halves of an interrupted run partition the choice tree exactly:
///
/// ```
/// use cdsspec_mc as mc;
/// use mc::MemOrd::Relaxed;
///
/// fn test() {
///     let x = mc::Atomic::new(0i32);
///     let t = mc::thread::spawn(move || x.store(1, Relaxed));
///     let _ = x.load(Relaxed);
///     t.join();
/// }
///
/// let seq = mc::Config { workers: 1, ..mc::Config::default() };
/// let full = mc::explore(seq.clone(), test);
///
/// // Cut the same exploration after one execution…
/// let cut = mc::explore(mc::Config { max_executions: 1, ..seq.clone() }, test);
/// let ck = cut.checkpoint().expect("interrupted run leaves a frontier");
///
/// // …and resume it: the halves partition the tree, so the resumed
/// // total equals the uninterrupted run's count exactly.
/// let resumed = mc::explore_from(seq, ck, test);
/// assert_eq!(resumed.executions, full.executions);
/// ```
pub fn explore_from<F>(config: Config, checkpoint: Checkpoint, test: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    explore_from_with_plugins(config, checkpoint, Vec::new(), test)
}

/// [`explore_from`] with plugins.
pub fn explore_from_with_plugins<F>(
    config: Config,
    checkpoint: Checkpoint,
    plugins: Vec<Box<dyn Plugin>>,
    test: F,
) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    explore_impl(
        config,
        checkpoint,
        PluginSource::Direct(plugins),
        Arc::new(test),
    )
}

/// Explore with per-worker plugin construction: `factory` is invoked once
/// per explorer worker, so each worker checks its shard with plugins it
/// owns exclusively — specification checking stays race-free without any
/// cross-worker locking. The sequential engine (`workers == 1`) invokes
/// the factory exactly once; behavior is then identical to
/// [`explore_with_plugins`].
pub fn explore_factory<F>(config: Config, factory: PluginFactory, test: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    explore_from_factory(config, Checkpoint::root(), factory, test)
}

/// [`explore_factory`] resuming from a checkpoint (see [`explore_from`]).
pub fn explore_from_factory<F>(
    config: Config,
    checkpoint: Checkpoint,
    factory: PluginFactory,
    test: F,
) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    explore_impl(
        config,
        checkpoint,
        PluginSource::Factory(factory),
        Arc::new(test),
    )
}

/// Resolve where exploration starts: the checkpoint's shard set when the
/// checkpoint has content, else shards/script smuggled through the config
/// (the only channel available to callers holding a plain
/// `fn(Config) -> Stats`, like the benchmark registry), else the root.
fn initial_shards(config: &Config, checkpoint: &Checkpoint) -> Vec<ShardSpec> {
    if !checkpoint.script.is_empty() || !checkpoint.stats.shard_frontiers.is_empty() {
        let shards = checkpoint.stats.frontier_shards();
        // Trust the shard list only when it agrees with the script — they
        // are always written together; a hand-built checkpoint with a
        // bare script keeps the PR 1 contract (the script wins).
        if shards.first().map(|s| &s.script) == Some(&checkpoint.script) {
            shards
        } else {
            vec![ShardSpec::from_script(checkpoint.script.clone())]
        }
    } else if let Some(shards) = &config.resume_shards {
        if shards.is_empty() {
            vec![ShardSpec::root()]
        } else {
            shards.clone()
        }
    } else if let Some(script) = &config.resume_script {
        vec![ShardSpec::from_script(script.clone())]
    } else {
        vec![ShardSpec::root()]
    }
}

/// Common implementation: resolve the starting shards, pick the engine by
/// `Config::workers`, and account wall-clock on top of the prior elapsed.
fn explore_impl(
    config: Config,
    checkpoint: Checkpoint,
    plugins: PluginSource,
    test: Arc<dyn Fn() + Send + Sync>,
) -> Stats {
    let start = Instant::now();
    let initial = initial_shards(&config, &checkpoint);
    let prior = checkpoint.stats;
    let prior_elapsed = prior.elapsed;
    let workers = config.effective_workers();

    let mut stats = if workers <= 1 {
        let owned = match plugins {
            PluginSource::Direct(v) => v,
            PluginSource::Factory(f) => f(),
        };
        sequential_explore(config, prior, initial, owned, test)
    } else {
        crate::parallel::explore_parallel(&config, prior, initial, plugins, test, workers)
    };
    stats.elapsed = prior_elapsed + start.elapsed();
    stats
}

/// The classic sequential engine, generalized to drain a queue of frontier
/// shards (a single root shard for a fresh run). A stop condition abandons
/// the current shard *and* every queued one; all of them are recorded in
/// [`Stats::shard_frontiers`] so nothing is lost across the interruption.
fn sequential_explore(
    config: Config,
    prior: Stats,
    initial: Vec<ShardSpec>,
    plugins: Vec<Box<dyn Plugin>>,
    test: Arc<dyn Fn() + Send + Sync>,
) -> Stats {
    let mut plugins = PluginSet::Owned(plugins);
    let mut explorer = Explorer::new(config, prior, test);
    explorer.stats.elapsed = std::time::Duration::ZERO; // tracked by explore_impl
    let mut queue: VecDeque<ShardSpec> = initial.into();
    let mut remaining: Vec<ShardSpec> = Vec::new();
    let mut stop = StopReason::Exhausted;
    while let Some(shard) = queue.pop_front() {
        match explorer.dfs_shard(&mut plugins, shard) {
            ShardEnd::Exhausted => {}
            ShardEnd::Stopped(reason, rem) => {
                stop = reason;
                remaining.extend(rem);
                remaining.extend(queue.drain(..));
                break;
            }
        }
    }
    explorer.stats.stop = stop;
    explorer.stats.set_frontier_shards(remaining);
    // Deadline degradation only knows how to march a single unfloored
    // script across the remaining tree.
    if explorer.stats.stop == StopReason::Deadline
        && explorer.config.deadline_samples > 0
        && matches!(explorer.stats.shard_frontiers.as_slice(), [s] if s.floor == 0)
    {
        explorer.sample_remaining(&mut plugins);
    }
    explorer.stats
}

/// Compute the replay script for the next DFS leaf, or `None` when the
/// tree is exhausted.
fn next_script(choices: &[ChoiceRec]) -> Option<Vec<usize>> {
    next_script_bounded(choices, 0)
}

/// [`next_script`] restricted to a shard: backtrack only at depths
/// `>= floor`. Returns `None` when the shard's subtree is exhausted —
/// alternatives above the floor belong to other shards.
pub(crate) fn next_script_bounded(choices: &[ChoiceRec], floor: usize) -> Option<Vec<usize>> {
    let mut i = choices.len();
    loop {
        if i <= floor {
            return None;
        }
        i -= 1;
        if choices[i].picked + 1 < choices[i].num_options {
            break;
        }
    }
    let mut script: Vec<usize> = choices[..i].iter().map(|c| c.picked).collect();
    script.push(choices[i].picked + 1);
    Some(script)
}

/// Sibling subtrees a capped shard splits off its DFS path, at most.
/// The shallowest siblings are the biggest; the deeper ones stay in the
/// branch shard, since each shard is one campaign task (a dispatch, and
/// a journal sync) and a deep sibling is too small to pay for its own.
/// Four keeps two workers busy on `campaign-net` while a journaled
/// registry campaign at `--split 4` makes 60 tasks, not 120.
const CAP_SIBLINGS: usize = 4;

/// The remaining frontier of a shard that stopped for `reason` before
/// its next leaf `next` (with `choices`, the record of the execution that
/// led there).
///
/// An `ExecutionCap` stop reports the remainder as disjoint subtrees: the
/// [`CAP_SIBLINGS`] shallowest sibling subtrees along the DFS path to
/// `next` ([`split_frontier`]), and the branch under `next` with its
/// floor raised past them, which keeps every deeper sibling. The branch
/// comes first, then the siblings deepest to shallowest. That is DFS
/// order, so draining the list visits the leaves the single
/// `{ floor, next }` shard would have, in the same order, and the first
/// script ([`Stats::frontier`]) still resumes the whole remainder from
/// floor 0. A campaign fans the list out as one task per shard. Every
/// other stop keeps the single shard: deadline sampling marches one
/// unfloored script across the remainder.
pub(crate) fn stop_frontier(
    reason: StopReason,
    next: Vec<usize>,
    choices: &[ChoiceRec],
    floor: usize,
) -> Vec<ShardSpec> {
    if reason != StopReason::ExecutionCap {
        return vec![ShardSpec {
            floor,
            script: next,
        }];
    }
    let (siblings, branch_floor) = split_frontier(&next, choices, floor, CAP_SIBLINGS);
    let mut shards = vec![ShardSpec {
        floor: branch_floor,
        script: next,
    }];
    shards.extend(siblings.into_iter().rev());
    shards
}

/// Split a donor's frontier for work-stealing: scan the frontier
/// shallowest-first from the donor's floor and, at each depth that still
/// has unexplored sibling options, carve those siblings off as a thief
/// shard `{ floor: depth, script: frontier[..depth] ++ [frontier[depth]+1] }`,
/// raising the donor's floor past the donated depth. Up to `batch` thief
/// shards are produced; the donor keeps exactly its current branch below
/// the new floor.
///
/// Shallowest-first donation hands the thief the *largest* available
/// subtree (the Cilk steal heuristic), minimizing steal frequency. The
/// ISSUE sketch says "deepest unexplored backtrack point"; we deliberately
/// donate the shallowest instead — the deepest point is the donor's own
/// next stop, so donating it would maximize contention and minimize the
/// stolen subtree. `ARCHITECTURE.md` documents the trade-off and the
/// partition argument (the depths skipped between the old floor and the
/// donated depth have no unexplored siblings, so raising the floor loses
/// nothing).
pub(crate) fn split_frontier(
    frontier: &[usize],
    choices: &[ChoiceRec],
    floor: usize,
    batch: usize,
) -> (Vec<ShardSpec>, usize) {
    let mut thieves = Vec::new();
    let mut new_floor = floor;
    let depths = frontier.len().min(choices.len());
    for j in floor..depths {
        if thieves.len() == batch {
            break;
        }
        if frontier[j] + 1 < choices[j].num_options {
            let mut script = frontier[..j].to_vec();
            script.push(frontier[j] + 1);
            thieves.push(ShardSpec { floor: j, script });
            new_floor = j + 1;
        }
    }
    (thieves, new_floor)
}

/// Explore with the default configuration and no plugins; panic if any bug
/// is found (loom-style assertion for tests).
pub fn model<F>(test: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    let stats = explore_with_plugins(Config::default(), Vec::new(), test);
    if stats.buggy() {
        let b = &stats.bugs[0];
        panic!("model checking found a bug: {}\ntrace:\n{}", b.bug, b.trace);
    }
    stats
}

/// Explore with a custom config and no plugins, returning the stats
/// without panicking.
pub fn explore<F>(config: Config, test: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    explore_with_plugins(config, Vec::new(), test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(picked: usize, num: usize) -> ChoiceRec {
        ChoiceRec {
            picked,
            num_options: num,
        }
    }

    #[test]
    fn next_script_increments_deepest() {
        let choices = vec![rec(0, 2), rec(1, 3), rec(0, 2)];
        assert_eq!(next_script(&choices), Some(vec![0, 1, 1]));
    }

    #[test]
    fn next_script_pops_exhausted_suffix() {
        let choices = vec![rec(0, 2), rec(2, 3), rec(1, 2)];
        assert_eq!(next_script(&choices), Some(vec![1]));
    }

    #[test]
    fn next_script_none_when_exhausted() {
        assert_eq!(next_script(&[]), None);
        assert_eq!(next_script(&[rec(1, 2), rec(2, 3)]), None);
    }

    #[test]
    fn bounded_next_script_respects_floor() {
        // Alternatives exist at depths 0 and 1, but a floor of 2 owns
        // neither: the shard is exhausted.
        let choices = vec![rec(0, 2), rec(1, 3), rec(1, 2)];
        assert_eq!(next_script_bounded(&choices, 0), Some(vec![0, 2]));
        assert_eq!(next_script_bounded(&choices, 1), Some(vec![0, 2]));
        assert_eq!(next_script_bounded(&choices, 2), None);
        assert_eq!(next_script_bounded(&choices, 99), None);
    }

    #[test]
    fn bounded_next_script_floor_zero_matches_unbounded() {
        let cases = [
            vec![rec(0, 2), rec(1, 3), rec(0, 2)],
            vec![rec(0, 2), rec(2, 3), rec(1, 2)],
            vec![rec(1, 2), rec(2, 3)],
            vec![],
        ];
        for choices in &cases {
            assert_eq!(next_script_bounded(choices, 0), next_script(choices));
        }
    }

    #[test]
    fn split_donates_shallowest_and_raises_floor() {
        // Frontier 0,1,0 with siblings available at depths 0 and 1.
        let frontier = vec![0, 1, 0];
        let choices = vec![rec(0, 2), rec(1, 3), rec(0, 1)];
        let (thieves, floor) = split_frontier(&frontier, &choices, 0, 1);
        assert_eq!(
            thieves,
            vec![ShardSpec {
                floor: 0,
                script: vec![1]
            }]
        );
        assert_eq!(floor, 1, "donor keeps its branch below the donated depth");

        // A second split (new floor 1) donates the depth-1 siblings.
        let (thieves, floor) = split_frontier(&frontier, &choices, floor, 1);
        assert_eq!(
            thieves,
            vec![ShardSpec {
                floor: 1,
                script: vec![0, 2]
            }]
        );
        assert_eq!(floor, 2);

        // Nothing left to donate at depths >= 2.
        let (thieves, floor) = split_frontier(&frontier, &choices, floor, 1);
        assert!(thieves.is_empty());
        assert_eq!(floor, 2);
    }

    #[test]
    fn split_batches_multiple_depths() {
        let frontier = vec![0, 1, 0];
        let choices = vec![rec(0, 2), rec(1, 3), rec(0, 1)];
        let (thieves, floor) = split_frontier(&frontier, &choices, 0, 8);
        assert_eq!(thieves.len(), 2);
        assert_eq!(
            thieves[0],
            ShardSpec {
                floor: 0,
                script: vec![1]
            }
        );
        assert_eq!(
            thieves[1],
            ShardSpec {
                floor: 1,
                script: vec![0, 2]
            }
        );
        assert_eq!(floor, 2);
    }

    /// The donated shards plus the donor's kept branch cover exactly the
    /// leaves the donor owned before the split — checked by brute-force
    /// enumeration of a small synthetic tree.
    #[test]
    fn split_partitions_synthetic_tree_exactly() {
        // A uniform tree: depth 3, 3 options per node. Leaves are scripts.
        fn leaves_of(shard: &ShardSpec) -> Vec<Vec<usize>> {
            // Enumerate by simulating bounded DFS over the uniform tree.
            let mut out = Vec::new();
            let mut script = shard.script.clone();
            loop {
                // "Execute": extend the script to a full leaf (depth 3),
                // picking option 0 for unscripted choices.
                let mut choices: Vec<ChoiceRec> = script.iter().map(|&p| rec(p, 3)).collect();
                while choices.len() < 3 {
                    choices.push(rec(0, 3));
                }
                out.push(choices.iter().map(|c| c.picked).collect());
                match next_script_bounded(&choices, shard.floor) {
                    Some(next) => script = next,
                    None => return out,
                }
            }
        }

        let root = ShardSpec::root();
        let all = leaves_of(&root);
        assert_eq!(all.len(), 27);

        // Split at an arbitrary frontier mid-walk.
        let frontier = vec![1, 0, 2];
        let choices: Vec<ChoiceRec> = frontier.iter().map(|&p| rec(p, 3)).collect();
        let (thieves, new_floor) = split_frontier(&frontier, &choices, 0, 8);
        // Depths 0 and 1 have unexplored siblings; depth 2 is on its last
        // option and cannot be donated.
        assert_eq!(thieves.len(), 2);

        // Donor continues at the frontier with the raised floor; thieves
        // explore their shards. Together: every leaf >= frontier, once.
        let mut covered = leaves_of(&ShardSpec {
            floor: new_floor,
            script: frontier.clone(),
        });
        for t in &thieves {
            covered.extend(leaves_of(t));
        }
        let expected: Vec<Vec<usize>> = all
            .iter()
            .filter(|l| l.as_slice() >= frontier.as_slice())
            .cloned()
            .collect();
        covered.sort();
        let mut expected = expected;
        expected.sort();
        assert_eq!(covered, expected, "split must not lose or duplicate leaves");
    }
}
