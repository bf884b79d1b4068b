//! Exploration configuration.

use crate::report::ShardSpec;
use std::time::Duration;

/// Tuning knobs for [`crate::explore()`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Hard bound on visible operations per modeled thread. Executions that
    /// exceed it are pruned and counted as *diverged* (the analog of
    /// CDSChecker's infeasible executions).
    pub max_steps_per_thread: u32,
    /// Bound on **total** [`crate::spin_loop`] hints by one thread in one
    /// execution before the branch is pruned as a futile spin. Cumulative
    /// (not consecutive): retry loops that write on every iteration
    /// (compensating RMWs, CAS loops) never look "futile" to the read
    /// tracker, and any behavior reachable through a long wait is also
    /// reachable through a shorter schedule at unit-test scale — the same
    /// bounded-fairness stance CDSChecker takes.
    pub max_spins: u32,
    /// Bound on consecutive loads of the *same location reading the same
    /// store* by one thread. This automatically prunes the stale-read
    /// chains of unannotated spin loops, which would otherwise branch
    /// exponentially until the step bound.
    pub max_futile_reads: u32,
    /// Safety valve: stop exploring after this many executions. A resumed
    /// run's cap bounds its own executions, not the interrupted run's
    /// total.
    pub max_executions: u64,
    /// Wall-clock budget for the whole exploration. Checked between
    /// executions (never mid-execution, so checkpointed partition counts
    /// stay exact); on expiry the run stops with `StopReason::Deadline`
    /// and a resumable frontier. `None` = unlimited.
    pub time_budget: Option<Duration>,
    /// Watchdog: abort an execution that makes no scheduling progress for
    /// this long (a wedged modeled thread, e.g. an infinite non-atomic
    /// loop), reporting `Bug::InternalHang`. `None` disables the watchdog
    /// and restores the old park-forever behavior.
    pub hang_timeout: Option<Duration>,
    /// When the deadline fires before exhaustion, additionally probe this
    /// many random-walk executions of the *unexplored* part of the choice
    /// tree (seeded by `sample_seed`, fully deterministic). 0 disables
    /// the degradation mode.
    pub deadline_samples: u64,
    /// PRNG seed for deadline-degraded sampling.
    pub sample_seed: u64,
    /// Start DFS from this replay script instead of the tree root: a
    /// floor-0 shard that owns every leaf from the script on, such as
    /// `Stats::frontier` of an interrupted one-shard run. Ignored when
    /// `resume_shards` is set. `None`/empty = the root.
    pub resume_script: Option<Vec<usize>>,
    /// Resume exploration from a set of frontier shards — the
    /// `Stats::shard_frontiers` of an interrupted run, at any worker
    /// count — exploring exactly the leaves they list. This is how every
    /// caller resumes, including APIs that only accept a `Config` (e.g.
    /// the benchmark registry's `check` function pointers). A resumed run
    /// counts only its own executions; fold it onto the interrupted run
    /// with [`crate::Stats::continue_with`]. The two halves partition the
    /// choice tree exactly:
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
    /// let mut total = mc::explore(mc::Config { max_executions: 1, ..seq.clone() }, test);
    /// // The first execution left no untried sibling above the next leaf,
    /// // so the remainder is one floor-0 shard.
    /// assert_eq!(total.shard_frontiers.len(), 1);
    /// assert_eq!(total.shard_frontiers[0].floor, 0);
    ///
    /// // …and resume it: the halves partition the tree, so the resumed
    /// // total equals the uninterrupted run's count exactly.
    /// let resume = mc::Config { resume_shards: Some(total.shard_frontiers.clone()), ..seq };
    /// total.continue_with(mc::explore(resume, test));
    /// assert_eq!(total.executions, full.executions);
    /// assert!(total.shard_frontiers.is_empty());
    /// ```
    ///
    /// Takes precedence over `resume_script`. `None`/empty = start from
    /// the root (or from `resume_script`).
    pub resume_shards: Option<Vec<ShardSpec>>,
    /// Number of explorer workers draining the shard queue. Worker 0 runs
    /// on the calling thread and the rest on scoped threads, so `1` is
    /// the plain DFS on the caller, with no thread spawned; `0` =
    /// auto-detect (`std::thread::available_parallelism`). Every count
    /// runs the same engine. The default is `1`, overridable
    /// process-wide by setting the `CDSSPEC_WORKERS` environment variable
    /// (used by CI to run the whole tier-1 suite at two workers).
    pub workers: usize,
    /// How many frontier shards an idle worker tries to steal per request
    /// (it receives fewer when the donor has less to give). Must be ≥ 1.
    pub steal_batch: usize,
    /// Maximum modeled threads per execution.
    pub max_threads: u32,
    /// Enable sleep-set partial-order reduction (on by default; the
    /// ablation bench toggles it).
    pub sleep_sets: bool,
    /// Enable rf-equivalence pruning (on by default; `--no-rf-prune`
    /// toggles it in the bench harnesses). Treats the reads-from
    /// assignment — not the interleaving — as the execution's identity:
    /// non-SC loads are deferred behind co-enabled same-location writes
    /// (the read-then-write order is rf-equivalent to write-then-read
    /// with the same candidate window), and rf candidates that would
    /// immediately trip the futile-read bound are rejected eagerly,
    /// before scheduling descends under them. Shard frontiers are only
    /// valid under the same setting they were produced with — the same
    /// contract `sleep_sets` already has.
    /// See ARCHITECTURE.md "Exploration identity and rf-equivalence
    /// pruning" for the soundness and determinism argument.
    pub rf_prune: bool,
    /// Stop at the first bug instead of enumerating all buggy executions.
    pub stop_on_first_bug: bool,
    /// Run the offline axiom validator on every feasible execution
    /// (expensive; used by the property-test suite).
    pub validate_axioms: bool,
    /// Run the fast index-trusting axiom auditor
    /// ([`cdsspec_c11::relations::audit`]) on every feasible execution.
    /// Unlike `validate_axioms` it performs no O(n²) closure — it trusts
    /// the trace's incremental clocks and indexes — so it is cheap enough
    /// to leave on by default. Bench probes turn it off to measure the
    /// bare engine. Ignored (subsumed) when `validate_axioms` is set.
    pub debug_audit: bool,
    /// Host every modeled thread of an execution on userspace fibers of
    /// the explorer thread where the target supports it (see
    /// `crate::fiber`). Purely a hosting-mechanism switch: the explored
    /// tree, counters, and bug reports are identical either way (pinned
    /// by `tests/fiber_equivalence.rs`), so — like `workers` — it is
    /// excluded from the campaign layer's semantic config hash. `false`
    /// forces the OS-thread pool, which the equivalence suites and the
    /// A/B benchmark rows use as the reference host. The default is
    /// `true`, overridable process-wide with `CDSSPEC_FIBER_HOSTING=0`
    /// (used to re-run whole suites against the reference host without
    /// code changes).
    pub fiber_hosting: bool,
    /// Usable stack size, in bytes, of each fiber when `fiber_hosting`
    /// is in effect (the guard region is extra). Rounded up to a whole
    /// number of pages and clamped to a 64 KiB floor at use; `0` means
    /// "the built-in default" (1 MiB). Like `workers` and
    /// `fiber_hosting` this is a hosting-mechanism knob — the explored
    /// tree is identical at any size that doesn't overflow — so it is
    /// excluded from the campaign layer's semantic config hash. The
    /// default is overridable process-wide with `CDSSPEC_FIBER_STACK`
    /// (a byte count, e.g. `262144`).
    pub fiber_stack: usize,
    /// Print every explored trace (debugging).
    pub verbose: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_steps_per_thread: 500,
            max_spins: 4,
            max_futile_reads: 3,
            max_executions: 20_000_000,
            time_budget: None,
            hang_timeout: Some(Duration::from_secs(10)),
            deadline_samples: 0,
            sample_seed: 0xCD55_9EC5,
            resume_script: None,
            resume_shards: None,
            workers: std::env::var("CDSSPEC_WORKERS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(1),
            steal_batch: 1,
            max_threads: 32,
            sleep_sets: true,
            rf_prune: true,
            stop_on_first_bug: true,
            validate_axioms: false,
            debug_audit: true,
            fiber_hosting: std::env::var("CDSSPEC_FIBER_HOSTING")
                .map(|v| v != "0")
                .unwrap_or(true),
            fiber_stack: std::env::var("CDSSPEC_FIBER_STACK")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(crate::fiber::DEFAULT_STACK_SIZE),
            verbose: false,
        }
    }
}

impl Config {
    /// Preset used by the test suites: exhaustive, with online axiom
    /// validation enabled.
    pub fn validating() -> Self {
        Config {
            validate_axioms: true,
            ..Config::default()
        }
    }

    /// The concrete worker count this config resolves to: `workers`
    /// itself, or the machine's available parallelism when `workers == 0`.
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Config::default();
        assert!(c.max_steps_per_thread >= 100);
        assert!(c.sleep_sets);
        assert!(c.rf_prune, "rf-equivalence pruning on by default");
        assert!(!c.validate_axioms);
        assert!(c.debug_audit, "fast auditor on by default");
        assert!(Config::validating().validate_axioms);
        assert!(c.time_budget.is_none(), "no deadline unless asked");
        assert!(c.hang_timeout.is_some(), "watchdog on by default");
        // `fiber_hosting` defaults to the env override so whole suites can
        // be re-run against the reference host; assert the resolution rule
        // rather than a fixed value so the test itself survives that mode.
        let want = std::env::var("CDSSPEC_FIBER_HOSTING")
            .map(|v| v != "0")
            .unwrap_or(true);
        assert_eq!(c.fiber_hosting, want, "fiber hosting on unless overridden");
        let want_stack = std::env::var("CDSSPEC_FIBER_STACK")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(crate::fiber::DEFAULT_STACK_SIZE);
        assert_eq!(c.fiber_stack, want_stack, "stack default env-resolved");
        assert_eq!(c.deadline_samples, 0, "sampling degradation is opt-in");
        assert!(c.resume_script.is_none());
        assert!(c.resume_shards.is_none());
        assert!(c.steal_batch >= 1);
        assert!(c.effective_workers() >= 1, "0 resolves to >= 1");
    }
}
