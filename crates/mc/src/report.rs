//! Exploration outcomes: bug kinds, found-bug records, aggregate stats,
//! stop reasons, and serializable checkpoints for resumable campaigns.

use crate::explore::TREE_VERSION;
use cdsspec_c11::{DataId, LocId, Tid};
use std::collections::BTreeSet;
use std::time::Duration;

/// A defect detected during exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bug {
    /// Two unordered accesses to a non-atomic location, at least one a
    /// write (CDSChecker built-in check).
    DataRace {
        /// The racy non-atomic cell.
        loc: DataId,
        /// Thread of the earlier access.
        first: Tid,
        /// Thread of the unordered later access.
        second: Tid,
        /// Whether the later access was a write.
        second_is_write: bool,
    },
    /// An atomic load could observe the location before any initialization
    /// (CDSChecker built-in check).
    UninitLoad {
        /// The atomic location read.
        loc: LocId,
        /// The reading thread.
        tid: Tid,
    },
    /// No thread can make progress but some have not finished.
    Deadlock {
        /// The threads still blocked when progress stopped.
        blocked: Vec<Tid>,
    },
    /// A modeled thread panicked (includes `mc_assert!` failures).
    UserPanic {
        /// The panicking thread.
        tid: Tid,
        /// Rendered panic payload.
        message: String,
    },
    /// A plugin (e.g. the CDSSpec checker) rejected the execution.
    Plugin {
        /// The rejecting plugin's display name.
        plugin: &'static str,
        /// The plugin's diagnostic.
        message: String,
    },
    /// The offline axiom validator rejected a trace the online checker
    /// produced — an internal consistency failure, never expected.
    AxiomViolation {
        /// The validator's diagnostic.
        message: String,
    },
    /// An execution made no scheduling progress for `stalled_ms`
    /// milliseconds and was aborted by the watchdog — the modeled code
    /// wedged its host (e.g. an unannotated infinite non-atomic loop).
    InternalHang {
        /// The configured stall threshold that was exceeded. The
        /// *configured* value, not the measured wall-clock stall, so the
        /// rendered message — the bug dedup key — is deterministic.
        stalled_ms: u64,
        /// The modeled thread last granted the scheduling token before
        /// progress stopped. Under fiber hosting this is exactly the
        /// wedged fiber; under the OS-thread pool it is the runtime's
        /// best estimate (several threads may hold running tokens).
        /// `None` only for hangs reported before any thread ran.
        tid: Option<Tid>,
        /// Short tag of the last visible operation committed before the
        /// stall (`event-id:kind@thread`), when any event was committed.
        last_op: Option<String>,
    },
    /// A modeled closure overran its fiber stack. On Linux the `PROT_NONE`
    /// guard region below the stack converts the overflow into this clean
    /// report; elsewhere a canary word checked at every fiber switch
    /// catches it (best-effort — the guard page is the hard stop).
    StackOverflow {
        /// The overflowing modeled thread.
        tid: Tid,
    },
    /// The exploration engine itself failed (e.g. the OS thread pool could
    /// not keep workers alive after bounded respawn attempts). Not a
    /// defect in the modeled code: the run is incomplete and stops with
    /// [`StopReason::Errored`].
    EngineFailure {
        /// What the engine could not do.
        message: String,
    },
    /// A bug deserialized from a [`Checkpoint`]: only its category and
    /// rendered message survive the round trip.
    Restored {
        /// The original bug's category.
        category: BugCategory,
        /// The original bug's rendered message.
        message: String,
    },
}

impl Bug {
    /// Coarse category used by the fault-injection experiment (Figure 8).
    pub fn category(&self) -> BugCategory {
        match self {
            Bug::DataRace { .. } | Bug::UninitLoad { .. } => BugCategory::BuiltIn,
            Bug::Deadlock { .. } | Bug::UserPanic { .. } => BugCategory::BuiltIn,
            Bug::Plugin { message, .. } => {
                if message.starts_with("admissibility") {
                    BugCategory::Admissibility
                } else {
                    BugCategory::Assertion
                }
            }
            Bug::AxiomViolation { .. } => BugCategory::Internal,
            Bug::EngineFailure { .. } => BugCategory::Internal,
            Bug::InternalHang { .. } => BugCategory::BuiltIn,
            Bug::StackOverflow { .. } => BugCategory::BuiltIn,
            Bug::Restored { category, .. } => *category,
        }
    }
}

impl std::fmt::Display for Bug {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bug::DataRace {
                loc,
                first,
                second,
                second_is_write,
            } => write!(
                f,
                "data race on {loc}: {first} and {second} unordered ({} second access)",
                if *second_is_write { "write" } else { "read" }
            ),
            Bug::UninitLoad { loc, tid } => {
                write!(f, "uninitialized atomic load of {loc} by {tid}")
            }
            Bug::Deadlock { blocked } => write!(f, "deadlock: {blocked:?} blocked forever"),
            Bug::UserPanic { tid, message } => write!(f, "panic in {tid}: {message}"),
            Bug::Plugin { plugin, message } => write!(f, "[{plugin}] {message}"),
            Bug::AxiomViolation { message } => write!(f, "AXIOM VIOLATION (internal): {message}"),
            Bug::EngineFailure { message } => write!(f, "engine failure: {message}"),
            Bug::InternalHang {
                stalled_ms,
                tid,
                last_op,
            } => {
                write!(
                    f,
                    "internal hang: no scheduling progress for {stalled_ms} ms"
                )?;
                if let Some(tid) = tid {
                    write!(f, " ({tid} wedged")?;
                    if let Some(op) = last_op {
                        write!(f, " after {op}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Bug::StackOverflow { tid } => {
                write!(f, "stack overflow: {tid} overran its fiber stack")
            }
            // Print the message verbatim: the dedup key of a restored bug
            // must equal the key of the live bug it was serialized from.
            Bug::Restored { message, .. } => write!(f, "{message}"),
        }
    }
}

/// The paper's Figure 8 detection buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BugCategory {
    /// CDSChecker built-in checks (races, uninitialized loads) plus
    /// deadlocks/panics/hangs.
    BuiltIn,
    /// CDSSpec admissibility-condition failures.
    Admissibility,
    /// CDSSpec assertion (specification) violations.
    Assertion,
    /// Internal consistency failure of the checker itself.
    Internal,
}

impl BugCategory {
    fn label(&self) -> &'static str {
        match self {
            BugCategory::BuiltIn => "builtin",
            BugCategory::Admissibility => "admissibility",
            BugCategory::Assertion => "assertion",
            BugCategory::Internal => "internal",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "builtin" => BugCategory::BuiltIn,
            "admissibility" => BugCategory::Admissibility,
            "assertion" => BugCategory::Assertion,
            "internal" => BugCategory::Internal,
            _ => return None,
        })
    }
}

/// One bug occurrence, with the trace that exhibited it.
#[derive(Clone, Debug)]
pub struct FoundBug {
    /// What went wrong.
    pub bug: Bug,
    /// 0-based index of the execution that exhibited it. Sequential runs
    /// count globally; parallel runs count per worker (the index is only
    /// meaningful together with [`FoundBug::worker`]).
    pub execution: u64,
    /// Rendered trace for diagnostics.
    pub trace: String,
    /// Index of the explorer worker that found the bug (0 in sequential
    /// runs) — printed by `known_bugs` so parallel repros stay debuggable.
    pub worker: usize,
    /// Replay script of the frontier shard the finding worker was
    /// exploring when it hit the bug (empty = the root shard).
    pub shard: Vec<usize>,
}

/// Why an exploration run returned.
///
/// Ordered by "badness": [`Stats::merge`] keeps the worst reason of the
/// two runs, so a suite of sub-runs reports `Deadline` if any sub-run was
/// cut short by the clock, and `Errored` if any sub-run crashed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The whole choice tree was explored.
    #[default]
    Exhausted,
    /// `Config::stop_on_first_bug` ended the run at the first defect.
    FirstBug,
    /// `Config::max_executions` was reached.
    ExecutionCap,
    /// `Config::time_budget` expired before exhaustion.
    Deadline,
    /// The run aborted abnormally (e.g. a checker plugin panicked).
    Errored,
}

impl StopReason {
    fn severity(self) -> u8 {
        match self {
            StopReason::Exhausted => 0,
            StopReason::FirstBug => 1,
            StopReason::ExecutionCap => 2,
            StopReason::Deadline => 3,
            StopReason::Errored => 4,
        }
    }

    /// The worse (more truncated) of two reasons.
    pub fn worst(self, other: StopReason) -> StopReason {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }

    fn label(&self) -> &'static str {
        match self {
            StopReason::Exhausted => "exhausted",
            StopReason::FirstBug => "first-bug",
            StopReason::ExecutionCap => "execution-cap",
            StopReason::Deadline => "deadline",
            StopReason::Errored => "errored",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "exhausted" => StopReason::Exhausted,
            "first-bug" => StopReason::FirstBug,
            "execution-cap" => StopReason::ExecutionCap,
            "deadline" => StopReason::Deadline,
            "errored" => StopReason::Errored,
            _ => return None,
        })
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One shard of the DFS frontier: a subtree of the choice tree owned by
/// exactly one explorer.
///
/// `script` is the replay script of the shard's next unexplored leaf
/// (PR 1's checkpoint representation, reused verbatim). `floor` is the
/// *depth floor*: the shard owns only the backtrack points at depths
/// `>= floor`, so its DFS never climbs above the subtree it was handed.
/// A plain (unsharded) exploration is the single shard
/// `{ floor: 0, script: [] }` — the whole tree.
///
/// Work-stealing splits a shard in two: the donor keeps its current
/// branch with a raised floor, the thief gets the sibling alternatives at
/// the split depth (see `ARCHITECTURE.md` for the partition argument).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardSpec {
    /// Lowest depth at which this shard may backtrack.
    pub floor: usize,
    /// Replay script of the shard's next unexplored leaf.
    pub script: Vec<usize>,
}

impl ShardSpec {
    /// The root shard: the whole choice tree.
    pub fn root() -> Self {
        ShardSpec::default()
    }

    /// A floor-0 shard starting at `script` (the shape of every PR 1
    /// checkpoint, which always owned the whole remaining tree).
    pub fn from_script(script: Vec<usize>) -> Self {
        ShardSpec { floor: 0, script }
    }
}

/// Aggregate result of a [`crate::explore()`] run.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Total executions attempted (feasible + pruned), the analog of the
    /// paper's "# Executions" column.
    pub executions: u64,
    /// Executions that ran to completion and satisfied the memory model —
    /// the paper's "# Feasible" column. Bug-exhibiting executions count:
    /// they are real behaviors.
    pub feasible: u64,
    /// Branches pruned by the step/spin bounds.
    pub diverged: u64,
    /// Branches pruned by sleep sets (redundant interleavings).
    pub sleep_pruned: u64,
    /// Executions contributed by deadline-degraded random-walk sampling
    /// (a subset of `executions`; see `Config::deadline_samples`).
    pub sampled: u64,
    /// Choice-tree branches suppressed by rf-equivalence pruning
    /// (`Config::rf_prune`): deferred redundant reader schedules plus
    /// eagerly rejected futile rf candidates. Counted once per suppressed
    /// branch at its unique fresh visit, so the total is deterministic
    /// across worker counts and sums exactly across checkpoint
    /// partitions. `0` when pruning is disabled.
    pub executions_pruned: u64,
    /// rf-signatures of the distinct execution identities observed among
    /// completed executions (see `cdsspec_c11::relations::rf_signature`):
    /// the abstract (per-thread ops, rf, mo, SC) graph with scheduling
    /// noise canonicalized away. Pruned and unpruned explorations of the
    /// same closure cover the same set — that is the pruning soundness
    /// invariant the differential tests check. Merging unions the sets.
    pub rf_classes: BTreeSet<u64>,
    /// Deepest DFS frontier reached: the maximum number of recorded
    /// choice points in any single execution. Deterministic across worker
    /// counts (the set of explored executions is identical), so it can be
    /// diffed like the execution counters.
    pub peak_depth: u64,
    /// Bugs found (deduplicated per (category, message) pair).
    pub bugs: Vec<FoundBug>,
    /// Wall-clock time of the whole exploration.
    pub elapsed: Duration,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Replay script of the first unexplored DFS leaf, when the run
    /// stopped before exhausting the tree — the seed of a [`Checkpoint`].
    /// Equal to the script of the first entry of
    /// [`Stats::shard_frontiers`] whenever that list is non-empty.
    pub frontier: Option<Vec<usize>>,
    /// The complete unexplored frontier as a list of disjoint shards.
    ///
    /// A sequential run that stops early leaves exactly one floor-0 shard
    /// here (mirroring [`Stats::frontier`]); an interrupted *parallel*
    /// run leaves one shard per in-flight worker plus any shards still
    /// queued for stealing. Resuming every listed shard visits exactly
    /// the leaves the interrupted run had left — the partition invariant
    /// extended to shard sets.
    pub shard_frontiers: Vec<ShardSpec>,
}

impl Stats {
    /// Did exploration find any defect?
    pub fn buggy(&self) -> bool {
        !self.bugs.is_empty()
    }

    /// First bug of a given category, if any.
    pub fn first_of(&self, cat: BugCategory) -> Option<&FoundBug> {
        self.bugs.iter().find(|b| b.bug.category() == cat)
    }

    /// Compatibility accessor for the pre-`StopReason` API: was the run
    /// cut short by a resource limit? (`FirstBug` is deliberate stopping,
    /// not truncation — matching the old `truncated: bool` semantics,
    /// which only covered the execution cap.)
    pub fn truncated(&self) -> bool {
        matches!(
            self.stop,
            StopReason::ExecutionCap | StopReason::Deadline | StopReason::Errored
        )
    }

    /// Set the unexplored frontier from a shard list, keeping
    /// [`Stats::frontier`] (the first shard's script) in sync. An empty
    /// list clears both — the tree is exhausted.
    pub fn set_frontier_shards(&mut self, shards: Vec<ShardSpec>) {
        self.frontier = shards.first().map(|s| s.script.clone());
        self.shard_frontiers = shards;
    }

    /// The complete frontier as shards: [`Stats::shard_frontiers`] when
    /// populated, else the single floor-0 shard implied by
    /// [`Stats::frontier`] (the PR 1 representation).
    pub fn frontier_shards(&self) -> Vec<ShardSpec> {
        if !self.shard_frontiers.is_empty() {
            self.shard_frontiers.clone()
        } else {
            self.frontier
                .as_ref()
                .map(|s| vec![ShardSpec::from_script(s.clone())])
                .unwrap_or_default()
        }
    }

    /// A checkpoint from which [`crate::explore_from`] can resume, when
    /// the run left part of the tree unexplored.
    pub fn checkpoint(&self) -> Option<Checkpoint> {
        self.frontier.as_ref().map(|script| Checkpoint {
            script: script.clone(),
            stats: self.clone(),
        })
    }

    /// Merge another run's statistics into this one (used when a
    /// benchmark's standard check is a *suite* of unit tests, as the
    /// paper's §6.4 corner-case tests are). Keeps the worst stop reason
    /// and the other run's frontier, if any.
    pub fn merge(&mut self, other: Stats) {
        self.executions += other.executions;
        self.feasible += other.feasible;
        self.diverged += other.diverged;
        self.sleep_pruned += other.sleep_pruned;
        self.sampled += other.sampled;
        self.executions_pruned += other.executions_pruned;
        self.rf_classes.extend(other.rf_classes.iter().copied());
        self.peak_depth = self.peak_depth.max(other.peak_depth);
        self.elapsed += other.elapsed;
        self.stop = self.stop.worst(other.stop);
        if other.frontier.is_some() {
            self.frontier = other.frontier;
            self.shard_frontiers = other.shard_frontiers;
        }
        self.bugs.extend(other.bugs);
    }

    /// Fold a resumed run's statistics into checkpointed ones. Counters
    /// accumulate like [`Stats::merge`], but the continuation's stop
    /// reason and frontier *replace* the originals: the checkpoint's
    /// `Deadline`/`ExecutionCap` describes the interruption, not the
    /// combined run's fate.
    pub fn continue_with(&mut self, continuation: Stats) {
        let stop = continuation.stop;
        let frontier = continuation.frontier.clone();
        let shards = continuation.shard_frontiers.clone();
        self.merge(continuation);
        self.stop = stop;
        self.frontier = frontier;
        self.shard_frontiers = shards;
    }

    /// Executions per wall-clock second (`0.0` when no time was recorded,
    /// e.g. on a hand-built `Stats`).
    pub fn exec_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.executions as f64 / secs
        } else {
            0.0
        }
    }

    /// One-line summary (used by the evaluation harness).
    pub fn summary(&self) -> String {
        format!(
            "{} executions ({} feasible, {} diverged, {} sleep-pruned, {} rf-pruned, \
             {} rf classes), {} bug(s), {:.2?} ({:.0} exec/s), peak depth {}, stop: {}",
            self.executions,
            self.feasible,
            self.diverged,
            self.sleep_pruned,
            self.executions_pruned,
            self.rf_classes.len(),
            self.bugs.len(),
            self.elapsed,
            self.exec_per_sec(),
            self.peak_depth,
            self.stop
        )
    }
}

/// A resumable exploration position: the replay script of the first
/// unexplored DFS leaf plus the statistics accumulated so far.
///
/// The DFS explorer's replay script *is* its complete state — re-running
/// from `script` visits exactly the leaves a straight-through run would
/// have visited after the interruption point, so
/// `executions(full) == executions(to checkpoint) + executions(resumed)`.
/// A *parallel* run's checkpoint additionally carries one
/// [`ShardSpec`] per abandoned subtree in its statistics; together the
/// shards partition the unexplored remainder, so the same identity holds
/// at any worker count.
///
/// Checkpoints survive process restarts through a line-oriented text
/// form:
///
/// ```
/// use cdsspec_mc::{Checkpoint, ShardSpec};
///
/// let mut ckpt = Checkpoint::root();
/// ckpt.script = vec![0, 2, 1];
/// ckpt.stats.executions = 7;
/// let back = Checkpoint::from_text(&ckpt.to_text()).unwrap();
/// assert_eq!(back.script, vec![0, 2, 1]);
/// assert_eq!(back.stats.executions, 7);
/// // A single-script checkpoint parses back as one floor-0 shard — the
/// // degenerate partition a sequential cut leaves behind.
/// assert_eq!(
///     back.stats.frontier_shards(),
///     vec![ShardSpec { floor: 0, script: vec![0, 2, 1] }],
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct Checkpoint {
    /// Replay script of the next unexplored leaf.
    pub script: Vec<usize>,
    /// Statistics accumulated before the interruption.
    pub stats: Stats,
}

impl Checkpoint {
    /// The checkpoint at the root of the tree: resuming from it explores
    /// everything from scratch.
    pub fn root() -> Self {
        Checkpoint::default()
    }

    /// Serialize to a line-oriented text format (see [`Checkpoint::from_text`]),
    /// with one `shard <floor> <script>` line per frontier shard.
    pub fn to_text(&self) -> String {
        let mut out = tree_header(CHECKPOINT_FORMAT);
        out.push('\n');
        let render = |script: &[usize]| {
            if script.is_empty() {
                "-".to_string()
            } else {
                script
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            }
        };
        out.push_str(&format!("script {}\n", render(&self.script)));
        for s in &self.stats.frontier_shards() {
            out.push_str(&format!("shard {} {}\n", s.floor, render(&s.script)));
        }
        out.push_str(&format!(
            "counts {} {} {} {} {}\n",
            self.stats.executions,
            self.stats.feasible,
            self.stats.diverged,
            self.stats.sleep_pruned,
            self.stats.sampled
        ));
        out.push_str(&format!("elapsed_ns {}\n", self.stats.elapsed.as_nanos()));
        if self.stats.peak_depth != 0 {
            out.push_str(&format!("peak_depth {}\n", self.stats.peak_depth));
        }
        // Lines for counters that are zero or empty are omitted.
        if self.stats.executions_pruned != 0 {
            out.push_str(&format!(
                "executions_pruned {}\n",
                self.stats.executions_pruned
            ));
        }
        if !self.stats.rf_classes.is_empty() {
            let classes = self
                .stats
                .rf_classes
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!("rf_classes {classes}\n"));
        }
        out.push_str(&format!("stop {}\n", self.stats.stop));
        for b in &self.stats.bugs {
            out.push_str(&format!(
                "bug {} {} {}\n",
                b.bug.category().label(),
                b.execution,
                escape(&b.bug.to_string())
            ));
        }
        out.push_str("end\n");
        out
    }

    /// Parse the format produced by [`Checkpoint::to_text`]. Bugs come
    /// back as [`Bug::Restored`] (category + message only). Returns a
    /// human-readable error for malformed input, or for a checkpoint cut
    /// from another exploration tree.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        check_tree_header(CHECKPOINT_FORMAT, lines.next())?;
        let parse_script = |s: &str| -> Result<Vec<usize>, String> {
            if s == "-" {
                return Ok(Vec::new());
            }
            s.split(',')
                .map(|c| {
                    c.parse()
                        .map_err(|e| format!("bad script entry {c:?}: {e}"))
                })
                .collect()
        };
        let mut ck = Checkpoint::root();
        let mut saw_end = false;
        for line in lines {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "script" => {
                    ck.script = parse_script(rest)?;
                }
                "shard" => {
                    let (floor, script) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("malformed shard line {rest:?}"))?;
                    let floor: usize = floor
                        .parse()
                        .map_err(|e| format!("bad shard floor {floor:?}: {e}"))?;
                    ck.stats.shard_frontiers.push(ShardSpec {
                        floor,
                        script: parse_script(script)?,
                    });
                }
                "counts" => {
                    let nums: Vec<u64> = rest
                        .split_whitespace()
                        .map(|c| c.parse().map_err(|e| format!("bad count {c:?}: {e}")))
                        .collect::<Result<_, _>>()?;
                    if nums.len() != 5 {
                        return Err(format!("expected 5 counters, got {}", nums.len()));
                    }
                    ck.stats.executions = nums[0];
                    ck.stats.feasible = nums[1];
                    ck.stats.diverged = nums[2];
                    ck.stats.sleep_pruned = nums[3];
                    ck.stats.sampled = nums[4];
                }
                "elapsed_ns" => {
                    let ns: u128 = rest
                        .parse()
                        .map_err(|e| format!("bad elapsed_ns {rest:?}: {e}"))?;
                    ck.stats.elapsed = Duration::from_nanos(ns.min(u64::MAX as u128) as u64);
                }
                "peak_depth" => {
                    ck.stats.peak_depth = rest
                        .parse()
                        .map_err(|e| format!("bad peak_depth {rest:?}: {e}"))?;
                }
                "executions_pruned" => {
                    ck.stats.executions_pruned = rest
                        .parse()
                        .map_err(|e| format!("bad executions_pruned {rest:?}: {e}"))?;
                }
                "rf_classes" => {
                    ck.stats.rf_classes = rest
                        .split(',')
                        .filter(|c| !c.is_empty())
                        .map(|c| c.parse().map_err(|e| format!("bad rf class {c:?}: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "stop" => {
                    ck.stats.stop = StopReason::from_label(rest)
                        .ok_or_else(|| format!("unknown stop reason {rest:?}"))?;
                }
                "bug" => {
                    let mut parts = rest.splitn(3, ' ');
                    let cat = parts
                        .next()
                        .and_then(BugCategory::from_label)
                        .ok_or_else(|| format!("bad bug category in {rest:?}"))?;
                    let execution: u64 = parts
                        .next()
                        .and_then(|e| e.parse().ok())
                        .ok_or_else(|| format!("bad bug execution in {rest:?}"))?;
                    let message = unescape(parts.next().unwrap_or(""));
                    ck.stats.bugs.push(FoundBug {
                        bug: Bug::Restored {
                            category: cat,
                            message,
                        },
                        execution,
                        trace: String::new(),
                        worker: 0,
                        shard: Vec::new(),
                    });
                }
                "end" => {
                    saw_end = true;
                    break;
                }
                other => return Err(format!("unknown checkpoint line {other:?}")),
            }
        }
        if !saw_end {
            return Err("truncated checkpoint (missing end line)".into());
        }
        // A checkpointed run by definition has unexplored work, so the
        // frontier is the script itself. Without `shard` lines it is the
        // single floor-0 shard rooted at that script.
        ck.stats.frontier = Some(ck.script.clone());
        if ck.stats.shard_frontiers.is_empty() {
            ck.stats.shard_frontiers = vec![ShardSpec::from_script(ck.script.clone())];
        }
        Ok(ck)
    }
}

/// Format name and version of [`Checkpoint::to_text`].
const CHECKPOINT_FORMAT: &str = "cdsspec-checkpoint v3";

/// The header line of a resume file in `format`, stamped with the
/// [`TREE_VERSION`] it was cut from: a choice script, and the counters
/// gathered along it, mean something only on the tree that made them.
pub fn tree_header(format: &str) -> String {
    format!("{format} tree {TREE_VERSION}")
}

/// Check that `line` is this build's [`tree_header`] for `format`.
pub fn check_tree_header(format: &str, line: Option<&str>) -> Result<(), String> {
    let line = line.unwrap_or_default();
    match line
        .strip_prefix(format)
        .and_then(|v| v.strip_prefix(" tree "))
    {
        Some(v) if v == TREE_VERSION.to_string() => Ok(()),
        Some(v) => Err(format!(
            "{format} file from exploration tree version {v}, but this build \
             explores tree version {TREE_VERSION}"
        )),
        None => Err(format!("not a {format} file (header {line:?})")),
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories() {
        let race = Bug::DataRace {
            loc: DataId(0),
            first: Tid(0),
            second: Tid(1),
            second_is_write: true,
        };
        assert_eq!(race.category(), BugCategory::BuiltIn);
        let adm = Bug::Plugin {
            plugin: "cdsspec",
            message: "admissibility: x".into(),
        };
        assert_eq!(adm.category(), BugCategory::Admissibility);
        let spec = Bug::Plugin {
            plugin: "cdsspec",
            message: "postcondition failed".into(),
        };
        assert_eq!(spec.category(), BugCategory::Assertion);
        let hang = Bug::InternalHang {
            stalled_ms: 250,
            tid: Some(Tid(2)),
            last_op: Some("e7:Store@T2".into()),
        };
        assert_eq!(hang.category(), BugCategory::BuiltIn);
        assert_eq!(
            hang.to_string(),
            "internal hang: no scheduling progress for 250 ms (T2 wedged after e7:Store@T2)"
        );
        let bare = Bug::InternalHang {
            stalled_ms: 250,
            tid: None,
            last_op: None,
        };
        assert_eq!(
            bare.to_string(),
            "internal hang: no scheduling progress for 250 ms"
        );
        let overflow = Bug::StackOverflow { tid: Tid(1) };
        assert_eq!(overflow.category(), BugCategory::BuiltIn);
        assert!(overflow.to_string().contains("T1"));
    }

    #[test]
    fn display_is_informative() {
        let b = Bug::UninitLoad {
            loc: LocId(3),
            tid: Tid(1),
        };
        assert!(b.to_string().contains("a3"));
        assert!(b.to_string().contains("T1"));
    }

    #[test]
    fn stats_queries() {
        let mut s = Stats::default();
        assert!(!s.buggy());
        s.bugs.push(FoundBug {
            bug: Bug::Deadlock {
                blocked: vec![Tid(1)],
            },
            execution: 0,
            trace: String::new(),
            worker: 0,
            shard: Vec::new(),
        });
        assert!(s.buggy());
        assert!(s.first_of(BugCategory::BuiltIn).is_some());
        assert!(s.first_of(BugCategory::Assertion).is_none());
        assert!(s.summary().contains("bug"));
    }

    #[test]
    fn stop_reason_worst_of() {
        use StopReason::*;
        assert_eq!(Exhausted.worst(Deadline), Deadline);
        assert_eq!(Deadline.worst(Exhausted), Deadline);
        assert_eq!(FirstBug.worst(ExecutionCap), ExecutionCap);
        assert_eq!(Errored.worst(Deadline), Errored);
        assert_eq!(Exhausted.worst(Exhausted), Exhausted);
    }

    #[test]
    fn truncated_compat_semantics() {
        let mut s = Stats::default();
        assert!(!s.truncated());
        s.stop = StopReason::FirstBug;
        assert!(!s.truncated(), "stopping at a bug is not truncation");
        for stop in [
            StopReason::ExecutionCap,
            StopReason::Deadline,
            StopReason::Errored,
        ] {
            s.stop = stop;
            assert!(s.truncated(), "{stop} should count as truncated");
        }
    }

    #[test]
    fn merge_keeps_worst_stop_and_latest_frontier() {
        let mut a = Stats {
            executions: 10,
            stop: StopReason::Deadline,
            frontier: Some(vec![0, 1]),
            ..Stats::default()
        };
        let b = Stats {
            executions: 5,
            stop: StopReason::FirstBug,
            ..Stats::default()
        };
        a.merge(b);
        assert_eq!(a.executions, 15);
        assert_eq!(a.stop, StopReason::Deadline);
        assert_eq!(
            a.frontier,
            Some(vec![0, 1]),
            "no new frontier keeps the old one"
        );

        let c = Stats {
            executions: 2,
            stop: StopReason::Errored,
            frontier: Some(vec![3]),
            ..Stats::default()
        };
        a.merge(c);
        assert_eq!(a.stop, StopReason::Errored);
        assert_eq!(a.frontier, Some(vec![3]));
    }

    #[test]
    fn continue_with_takes_continuation_fate() {
        let mut prior = Stats {
            executions: 10,
            stop: StopReason::Deadline,
            frontier: Some(vec![0, 1]),
            ..Stats::default()
        };
        let resumed = Stats {
            executions: 7,
            stop: StopReason::Exhausted,
            ..Stats::default()
        };
        prior.continue_with(resumed);
        assert_eq!(prior.executions, 17);
        assert_eq!(prior.stop, StopReason::Exhausted);
        assert_eq!(prior.frontier, None);
    }

    #[test]
    fn checkpoint_round_trips() {
        let stats = Stats {
            executions: 42,
            feasible: 30,
            diverged: 7,
            sleep_pruned: 5,
            sampled: 3,
            executions_pruned: 6,
            rf_classes: [4u64, u64::MAX - 3].into_iter().collect(),
            peak_depth: 9,
            elapsed: Duration::from_millis(1234),
            stop: StopReason::Deadline,
            frontier: Some(vec![0, 2, 1]),
            bugs: vec![FoundBug {
                bug: Bug::UserPanic {
                    tid: Tid(2),
                    message: "boom\nwith newline".into(),
                },
                execution: 17,
                trace: "irrelevant".into(),
                worker: 0,
                shard: Vec::new(),
            }],
            ..Stats::default()
        };
        let ck = stats.checkpoint().expect("has frontier");
        let text = ck.to_text();
        let back = Checkpoint::from_text(&text).expect("parses");
        assert_eq!(back.script, vec![0, 2, 1]);
        assert_eq!(back.stats.executions, 42);
        assert_eq!(back.stats.feasible, 30);
        assert_eq!(back.stats.diverged, 7);
        assert_eq!(back.stats.sleep_pruned, 5);
        assert_eq!(back.stats.sampled, 3);
        assert_eq!(back.stats.executions_pruned, 6);
        assert_eq!(back.stats.rf_classes, stats.rf_classes);
        assert_eq!(back.stats.peak_depth, 9);
        // Elapsed must round-trip exactly: resumed throughput summaries
        // divide by accumulated *active* time, so a checkpoint that
        // dropped or re-derived it would fold suspension gaps into the
        // reported exec/s rate.
        assert_eq!(back.stats.elapsed, stats.elapsed);
        assert_eq!(back.stats.stop, StopReason::Deadline);
        assert_eq!(back.stats.bugs.len(), 1);
        // The restored bug renders identically, so dedup on resume works.
        assert_eq!(
            back.stats.bugs[0].bug.to_string(),
            stats.bugs[0].bug.to_string()
        );
        assert_eq!(back.stats.bugs[0].bug.category(), BugCategory::BuiltIn);
        assert_eq!(back.stats.bugs[0].execution, 17);
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        assert!(Checkpoint::from_text("").is_err());
        assert!(Checkpoint::from_text("not a checkpoint\nend\n").is_err());
        let header = tree_header(CHECKPOINT_FORMAT);
        assert!(Checkpoint::from_text(&format!("{header}\nscript 0,1\n")).is_err());
        assert!(Checkpoint::from_text(&format!("{header}\nstop nonsense\nend\n")).is_err());
    }

    /// A choice script is meaningless on another tree: a checkpoint cut
    /// from one, or from a build that predates tree stamps, is refused.
    #[test]
    fn checkpoint_from_another_tree_is_rejected() {
        let text = Checkpoint::root().to_text();
        let other = TREE_VERSION + 1;
        let moved = text.replacen(
            &format!("tree {TREE_VERSION}\n"),
            &format!("tree {other}\n"),
            1,
        );
        let err = Checkpoint::from_text(&moved).unwrap_err();
        assert!(
            err.contains(&format!("tree version {other}"))
                && err.contains(&format!("tree version {TREE_VERSION}")),
            "{err}"
        );
        let unstamped = "cdsspec-checkpoint v1\nscript -\nstop deadline\nend\n";
        assert!(Checkpoint::from_text(unstamped).is_err());
    }

    #[test]
    fn empty_script_round_trips() {
        let ck = Checkpoint::root();
        let back = Checkpoint::from_text(&ck.to_text()).unwrap();
        assert!(back.script.is_empty());
    }

    #[test]
    fn multi_shard_checkpoint_round_trips() {
        let mut stats = Stats {
            executions: 9,
            stop: StopReason::Deadline,
            ..Stats::default()
        };
        let shards = vec![
            ShardSpec {
                floor: 2,
                script: vec![0, 1, 3],
            },
            ShardSpec {
                floor: 1,
                script: vec![2],
            },
            ShardSpec {
                floor: 0,
                script: vec![],
            },
        ];
        stats.set_frontier_shards(shards.clone());
        let ck = stats.checkpoint().expect("has frontier");
        let back = Checkpoint::from_text(&ck.to_text()).expect("parses");
        assert_eq!(back.stats.shard_frontiers, shards);
        assert_eq!(back.script, vec![0, 1, 3]);
        assert_eq!(back.stats.frontier, Some(vec![0, 1, 3]));
    }

    #[test]
    fn raised_floor_round_trips() {
        let mut stats = Stats::default();
        stats.set_frontier_shards(vec![ShardSpec {
            floor: 1,
            script: vec![0, 2],
        }]);
        let text = stats.checkpoint().unwrap().to_text();
        let back = Checkpoint::from_text(&text).unwrap();
        assert_eq!(back.stats.shard_frontiers[0].floor, 1);
    }
}
