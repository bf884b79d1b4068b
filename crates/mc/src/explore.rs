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
//! and a run cut short by the cap or the deadline records its remainder
//! as [`Stats::shard_frontiers`]. Exploring those shards again
//! (`Config::resume_shards`) visits exactly the leaves the original run
//! had left, and [`Stats::continue_with`] folds the continuation onto the
//! cut run, so execution counts partition:
//! `executions(full) == executions(to the cut) + executions(resumed)`.
//!
//! ## One engine at any worker count
//!
//! Every run drains a queue of disjoint [`ShardSpec`] subtrees with
//! `Config::workers` explorer instances, worker 0 on the calling thread
//! and the rest on scoped threads, with dynamic work-stealing between
//! them; results merge deterministically back into one [`Stats`]. One
//! worker is the plain DFS: nobody is hungry, so nothing is donated and
//! the shards are explored in order. The coordinator lives in
//! `crate::parallel`; the shard representation (`floor`-bounded DFS via
//! `next_script_bounded`) and the splitting rule (`split_frontier`)
//! live here. See `ARCHITECTURE.md` for the shard→steal→merge protocol
//! and the determinism argument.
//!
//! ## Deadline degradation
//!
//! With `Config::deadline_samples > 0`, a run that hits its deadline with
//! a single floor-0 shard left additionally probes the *unexplored*
//! region with seeded random-walk executions (each replays the frontier
//! prefix, then resolves choice points by PRNG) — deterministic per
//! `Config::sample_seed`, and the DFS frontier is advanced past each
//! probed subtree so samples spread across the remaining tree instead of
//! clustering under one branch. (A frontier of several shards skips the
//! degradation phase: the single-script random walk cannot probe a shard
//! *set* coherently.)

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use crate::config::Config;
use crate::plugin::{Plugin, PluginFactory};
use crate::report::{Bug, FoundBug, ShardSpec, Stats, StopReason, MAX_BUG_RECORDS};
use crate::runtime::{run_once, ChoiceRec, Reuse, RunOutcome};
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
///
/// Version 3: with sleep sets on, a thread whose pending op is invisible
/// (a join, spin, yield or non-SC fence) runs first without branching,
/// its decision recorded with one option unless the execution ends
/// before the next one; and
/// `rf_signature` hashes with a one-multiply mixer instead of FNV-1a, so
/// signatures persisted under version 2 do not compare with new ones.
pub const TREE_VERSION: u64 = 3;

/// One explorer worker: a DFS over the shards the coordinator hands it.
pub(crate) struct Explorer {
    config: Config,
    pool: Arc<Mutex<Pool>>,
    test: Arc<dyn Fn() + Send + Sync>,
    plugins: Vec<Box<dyn Plugin>>,
    /// This worker's own statistics.
    pub(crate) stats: Stats,
    /// Rendered messages of every bug seen (the dedup key).
    seen_bugs: HashSet<String>,
    /// Executions before this worker's first one: nonzero only while
    /// deadline sampling numbers its bugs after the merged run's.
    prior_executions: u64,
    /// Worker index stamped onto found bugs.
    worker: usize,
    /// Start script of the shard currently being explored, stamped onto
    /// found bugs so parallel repros stay debuggable.
    pub(crate) shard_start: Vec<usize>,
    /// Execution harness carried between runs: `run_once` rewinds it in
    /// place instead of rebuilding the shared state per execution.
    reuse: Reuse,
}

impl Explorer {
    /// Worker `worker` of a run, checking with `plugins`.
    pub(crate) fn new(
        config: Config,
        test: Arc<dyn Fn() + Send + Sync>,
        plugins: Vec<Box<dyn Plugin>>,
        worker: usize,
    ) -> Self {
        Explorer {
            config,
            pool: Arc::new(Mutex::new(Pool::new())),
            test,
            plugins,
            stats: Stats::default(),
            seen_bugs: HashSet::new(),
            prior_executions: 0,
            worker,
            shard_start: Vec::new(),
            reuse: Reuse::default(),
        }
    }

    /// Record one bug occurrence, deduplicated by rendered message.
    fn record_bug(&mut self, bug: Bug, trace: &cdsspec_c11::Trace) {
        let key = bug.to_string();
        if self.seen_bugs.insert(key) && self.stats.bugs.len() < MAX_BUG_RECORDS {
            self.stats.bugs.push(FoundBug {
                bug,
                execution: self.prior_executions + self.stats.executions - 1,
                trace: trace.render(),
                worker: self.worker,
                shard: self.shard_start.clone(),
            });
        }
    }

    /// The choice record of the last execution [`Explorer::step`] ran
    /// (for DFS backtracking).
    pub(crate) fn choices(&self) -> &[ChoiceRec] {
        &self.reuse.choices
    }

    /// Run one execution and fold its outcome into the stats. Returns
    /// `Some(reason)` when the campaign must stop because of what happened
    /// *inside* the execution (a bug with `stop_on_first_bug`, or a
    /// crashed checker).
    pub(crate) fn step(&mut self, script: &[usize], sampler: Option<StdRng>) -> Option<StopReason> {
        let result = run_once(
            &self.config,
            &self.pool,
            script,
            Arc::clone(&self.test),
            sampler,
            &mut self.reuse,
        );
        self.stats.executions += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.reuse.choices.len() as u64);
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
                // Two-tier axiom checking, one set of axiom checks:
                // `validate_axioms` recomputes hb (O(n²) closure) and
                // cross-checks the clocks against it; otherwise
                // `debug_audit` answers hb from the clocks.
                let errors = if self.config.validate_axioms {
                    cdsspec_c11::relations::validate(&result.trace)
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
                // Out of `self` for the loop, so it can record bugs.
                let mut plugins = std::mem::take(&mut self.plugins);
                for plugin in plugins.iter_mut() {
                    // A buggy checker must not take the campaign down with
                    // it: contain the panic, report it as a plugin bug, and
                    // stop with `Errored` so callers see the run is
                    // incomplete rather than silently clean.
                    let name = plugin.name();
                    let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        plugin.check(&result.trace)
                    }));
                    let found = match checked {
                        Ok(found) => found,
                        Err(payload) => {
                            let message = format!("checker panicked: {}", panic_message(&payload));
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
                self.plugins = plugins;
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
        // their high-water capacity.
        self.reuse.trace = Some(result.trace);
        stop
    }

    /// Deadline degradation, run after the merge on worker 0: probe the
    /// unexplored region with seeded random walks. Each sample replays the
    /// current frontier prefix and resolves further choices by PRNG, then
    /// the frontier advances past that subtree so successive samples
    /// march across the remaining tree. The samples fold into `merged`.
    pub(crate) fn sample_remaining(&mut self, merged: &mut Stats) {
        self.stats = Stats::default();
        self.prior_executions = merged.executions;
        self.seen_bugs
            .extend(merged.bugs.iter().map(|b| b.bug.to_string()));
        let mut frontier = merged.frontier().map(<[usize]>::to_vec);
        for i in 0..self.config.deadline_samples {
            let Some(prefix) = frontier.take() else {
                break;
            };
            let rng = StdRng::seed_from_u64(self.config.sample_seed.wrapping_add(i));
            let stop = self.step(&prefix, Some(rng));
            self.stats.sampled += 1;
            if stop.is_some() {
                // Keep `Deadline` as the overall stop reason unless the
                // sample errored — sampling is best-effort extra coverage.
                if stop == Some(StopReason::Errored) {
                    merged.stop = StopReason::Errored;
                }
                frontier = Some(prefix);
                break;
            }
            // Advance the DFS frontier past the prefix we just probed.
            // Only the scripted prefix is deterministic; the random tail
            // must not leak into the stored frontier.
            let choices = self.choices();
            let replayed = &choices[..prefix.len().min(choices.len())];
            frontier = next_script(replayed);
        }
        merged.add_counters(&self.stats);
        merged.push_bugs(std::mem::take(&mut self.stats.bugs));
        merged.shard_frontiers = frontier.map(ShardSpec::from_script).into_iter().collect();
    }
}

/// Explore with per-worker plugin construction: `factory` is invoked once
/// per explorer worker, so each worker checks its shards with plugins it
/// owns exclusively — specification checking stays race-free without any
/// cross-worker locking. A one-worker run invokes the factory exactly
/// once. Plugins that must see every execution of a multi-worker run
/// share their state through an `Arc` the factory clones into each list.
///
/// The run starts at `Config::resume_shards` (or `Config::resume_script`)
/// when set; see there for resuming a cut run.
pub fn explore_factory<F>(config: Config, factory: PluginFactory, test: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    explore_impl(config, &*factory, Arc::new(test))
}

/// Where exploration starts: the shard set or script resumed through the
/// config, else the root.
fn initial_shards(config: &Config) -> Vec<ShardSpec> {
    match (&config.resume_shards, &config.resume_script) {
        (Some(shards), _) if !shards.is_empty() => shards.clone(),
        (None, Some(script)) => vec![ShardSpec::from_script(script.clone())],
        _ => vec![ShardSpec::root()],
    }
}

/// Common implementation: build one plugin list per worker, run the
/// engine from the initial shards, and account wall-clock.
fn explore_impl(
    config: Config,
    factory: &dyn Fn() -> Vec<Box<dyn Plugin>>,
    test: Arc<dyn Fn() + Send + Sync>,
) -> Stats {
    let start = Instant::now();
    let initial = initial_shards(&config);
    let plugins = (0..config.effective_workers()).map(|_| factory()).collect();
    let mut stats = crate::parallel::explore_shards(&config, initial, plugins, test);
    stats.elapsed = start.elapsed();
    stats
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
    let mut script = Vec::new();
    next_script_into(choices, floor, &mut script).then_some(script)
}

/// [`next_script_bounded`] into a reused buffer: overwrite `script` with
/// the next script and return `true`, or leave it alone and return
/// `false` when the shard is exhausted.
pub(crate) fn next_script_into(
    choices: &[ChoiceRec],
    floor: usize,
    script: &mut Vec<usize>,
) -> bool {
    let Some(i) = (floor..choices.len())
        .rev()
        .find(|&i| choices[i].picked + 1 < choices[i].num_options)
    else {
        return false;
    };
    script.clear();
    script.extend(choices[..i].iter().map(|c| c.picked));
    script.push(choices[i].picked + 1);
    true
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
    let stats = explore(Config::default(), test);
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
    explore_impl(config, &Vec::new, Arc::new(test))
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
