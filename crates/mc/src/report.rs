//! Exploration outcomes: bug kinds, found-bug records, aggregate stats,
//! stop reasons, and the frontier shards a cut run resumes from.

use cdsspec_c11::{DataId, LocId, Tid};
use std::collections::{BTreeSet, HashSet};
use std::time::Duration;

/// Maximum distinct bug records retained (duplicates across executions are
/// folded; exploration statistics still count every occurrence).
pub(crate) const MAX_BUG_RECORDS: usize = 24;

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
        tid: Tid,
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
    /// A bug deserialized from a resume journal or the campaign wire: only
    /// its category and rendered message survive the round trip.
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
                    "internal hang: no scheduling progress for {stalled_ms} ms ({tid} wedged"
                )?;
                if let Some(op) = last_op {
                    write!(f, " after {op}")?;
                }
                write!(f, ")")
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
    /// Stable lower-case name of the category, as resume files and the
    /// campaign wire spell it.
    pub fn label(&self) -> &'static str {
        match self {
            BugCategory::BuiltIn => "builtin",
            BugCategory::Admissibility => "admissibility",
            BugCategory::Assertion => "assertion",
            BugCategory::Internal => "internal",
        }
    }

    /// Inverse of [`BugCategory::label`].
    pub fn from_label(s: &str) -> Option<Self> {
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
    /// 0-based index of the execution that exhibited it: the finding
    /// worker's own executions in order, after those of every run folded
    /// in before it by [`Stats::merge`]. A one-worker run counts
    /// globally; with several workers the index is only meaningful
    /// together with [`FoundBug::worker`].
    pub execution: u64,
    /// Rendered trace for diagnostics.
    pub trace: String,
    /// Index of the explorer worker that found the bug (0 in one-worker
    /// runs) — printed by `known_bugs` so parallel repros stay debuggable.
    pub worker: usize,
    /// Replay script of the frontier shard the finding worker was
    /// exploring when it hit the bug (empty = the root shard).
    pub shard: Vec<usize>,
}

/// Why an exploration run returned.
///
/// Ordered by "badness" ([`StopReason::worst`]): a run of several
/// workers, or a campaign row split into shard tasks, reports `Deadline`
/// if any part was cut short by the clock, and `Errored` if any part
/// crashed.
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

    /// Stable name of the reason; also its `Display` form.
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::Exhausted => "exhausted",
            StopReason::FirstBug => "first-bug",
            StopReason::ExecutionCap => "execution-cap",
            StopReason::Deadline => "deadline",
            StopReason::Errored => "errored",
        }
    }

    /// Inverse of [`StopReason::label`].
    pub fn from_label(s: &str) -> Option<Self> {
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
/// `script` is the replay script of the shard's next unexplored leaf.
/// `floor` is the *depth floor*: the shard owns only the backtrack points
/// at depths `>= floor`, so its DFS never climbs above the subtree it was
/// handed.
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

    /// A floor-0 shard starting at `script`: it owns the whole tree from
    /// that leaf on.
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
    /// The complete unexplored frontier as a list of disjoint shards;
    /// empty when the run exhausted the tree.
    ///
    /// A one-worker run stopped by a deadline or a bug leaves exactly one
    /// floor-0 shard here; an interrupted run of several workers leaves
    /// one shard per in-flight worker plus any shards still queued for
    /// stealing. A shard cut by the execution cap is listed as sibling
    /// subtrees along its DFS path, deepest first. Resuming every listed
    /// shard visits exactly the leaves the interrupted run had left — the
    /// partition invariant extended to shard sets — and each shard can
    /// also be explored on its own.
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

    /// Replay script of the first unexplored DFS leaf (the first shard's
    /// script), when the run stopped before exhausting the tree.
    pub fn frontier(&self) -> Option<&[usize]> {
        self.shard_frontiers.first().map(|s| s.script.as_slice())
    }

    /// Fold another run's counters into these: the execution counters
    /// sum, the rf-class sets union and `peak_depth` keeps the maximum.
    /// Elapsed time, stop reason, bugs and frontier are left to the
    /// caller, because every merge has its own rule for them.
    pub(crate) fn add_counters(&mut self, other: &Stats) {
        self.executions += other.executions;
        self.feasible += other.feasible;
        self.diverged += other.diverged;
        self.sleep_pruned += other.sleep_pruned;
        self.sampled += other.sampled;
        self.executions_pruned += other.executions_pruned;
        self.rf_classes.extend(other.rf_classes.iter().copied());
        self.peak_depth = self.peak_depth.max(other.peak_depth);
    }

    /// Fold a later run into this one in DFS order, so the pair reads as
    /// one run: the execution counters sum, the rf-class sets union,
    /// `peak_depth` keeps the maximum and elapsed times add. The later
    /// run's bugs number their execution after these executions; a bug
    /// already reported here is dropped and the list keeps its cap of
    /// distinct records. The stop reason and the frontier are left to the
    /// caller, because every fold has its own rule for them.
    pub fn merge(&mut self, mut later: Stats) {
        let offset = self.executions;
        let mut seen: HashSet<String> = self.bugs.iter().map(|b| b.bug.to_string()).collect();
        let fresh = std::mem::take(&mut later.bugs)
            .into_iter()
            .filter(|b| seen.insert(b.bug.to_string()))
            .map(|b| FoundBug {
                execution: b.execution + offset,
                ..b
            })
            .collect();
        self.add_counters(&later);
        self.elapsed += later.elapsed;
        self.push_bugs(fresh);
    }

    /// Fold a resumed run's statistics into the interrupted run's, so the
    /// pair reads as one straight run: [`Stats::merge`], then the
    /// continuation's stop reason and frontier *replace* the originals,
    /// because the cut's `Deadline`/`ExecutionCap` describes the
    /// interruption, not the combined run's fate.
    pub fn continue_with(&mut self, mut continuation: Stats) {
        self.stop = continuation.stop;
        self.shard_frontiers = std::mem::take(&mut continuation.shard_frontiers);
        self.merge(continuation);
    }

    /// Append fresh bug records, up to [`MAX_BUG_RECORDS`] in all.
    pub(crate) fn push_bugs(&mut self, bugs: Vec<FoundBug>) {
        let room = MAX_BUG_RECORDS.saturating_sub(self.bugs.len());
        self.bugs.extend(bugs.into_iter().take(room));
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
            tid: Tid(2),
            last_op: Some("e7:Store@T2".into()),
        };
        assert_eq!(hang.category(), BugCategory::BuiltIn);
        assert_eq!(
            hang.to_string(),
            "internal hang: no scheduling progress for 250 ms (T2 wedged after e7:Store@T2)"
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
    fn merge_leaves_stop_and_frontier_to_the_caller() {
        let mut a = Stats {
            executions: 10,
            elapsed: Duration::from_millis(3),
            stop: StopReason::Deadline,
            shard_frontiers: vec![ShardSpec::from_script(vec![0, 1])],
            ..Stats::default()
        };
        a.merge(Stats {
            executions: 5,
            elapsed: Duration::from_millis(4),
            stop: StopReason::Errored,
            shard_frontiers: vec![ShardSpec::from_script(vec![3])],
            ..Stats::default()
        });
        assert_eq!(a.executions, 15);
        assert_eq!(a.elapsed, Duration::from_millis(7));
        assert_eq!(a.stop, StopReason::Deadline);
        assert_eq!(a.frontier(), Some(&[0, 1][..]));
    }

    #[test]
    fn continue_with_takes_continuation_fate() {
        let mut prior = Stats {
            executions: 10,
            stop: StopReason::Deadline,
            shard_frontiers: vec![ShardSpec::from_script(vec![0, 1])],
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
        assert_eq!(prior.frontier(), None);
    }

    #[test]
    fn continue_with_numbers_dedups_and_caps_bugs() {
        let bug = |message: String, execution| FoundBug {
            bug: Bug::UserPanic {
                tid: Tid(0),
                message,
            },
            execution,
            trace: String::new(),
            worker: 0,
            shard: Vec::new(),
        };
        let mut prior = Stats {
            executions: 10,
            bugs: vec![bug("seen".into(), 3)],
            ..Stats::default()
        };
        let fresh = (0..MAX_BUG_RECORDS as u64).map(|i| bug(format!("new {i}"), i));
        prior.continue_with(Stats {
            executions: 40,
            bugs: std::iter::once(bug("seen".into(), 0))
                .chain(fresh)
                .collect(),
            ..Stats::default()
        });
        let got: Vec<(String, u64)> = prior
            .bugs
            .iter()
            .map(|b| (b.bug.to_string(), b.execution))
            .collect();
        assert_eq!(got.len(), MAX_BUG_RECORDS, "{got:?}");
        assert_eq!(
            got[0],
            ("panic in T0: seen".into(), 3),
            "the cut's record stays"
        );
        assert_eq!(
            got[1],
            ("panic in T0: new 0".into(), 10),
            "numbered after the cut"
        );
        assert_eq!(got.iter().filter(|(m, _)| m.ends_with("seen")).count(), 1);
    }
}
