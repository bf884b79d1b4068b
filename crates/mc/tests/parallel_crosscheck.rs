//! Cross-check: a run at any worker count must produce the same merged
//! report as the one-worker run.
//!
//! The choice tree is deterministic, so any shard partition visits the
//! same leaves with the same per-leaf outcomes; these tests enforce the
//! consequences end-to-end:
//!
//! * **Exhausted identity**: for runs that explore the whole tree, every
//!   counter and the deduplicated bug set are identical at any worker
//!   count.
//! * **Truncation soundness**: a run cut by the execution cap or the
//!   deadline leaves frontier shards that resume to *exactly* the
//!   one-worker total — no leaf lost, none duplicated — at any worker
//!   count and any cut point (the partition invariant, extended from a
//!   single checkpoint script to shard sets).
//! * **Failure**: a worker that panics out of its shard loop ends the run
//!   as `Errored` at any worker count, without stranding the others.
//!
//! Plus a property test: any k-way resume of any cap-induced shard split
//! reproduces the one-worker totals, including when the resumed half is
//! itself interrupted and resumed again. Every resume goes through
//! `Config::resume_shards` and `Stats::continue_with`, the way the
//! figure binaries and `check_suite` resume.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use cdsspec_mc as mc;
use mc::MemOrd::*;
use mc::{mc_assert, Atomic, Bug, Config, Plugin, PluginFactory, Stats, StopReason};
use proptest::prelude::*;

/// Baseline: the one-worker run, explicitly pinned so `CDSSPEC_WORKERS`
/// (the CI parallel job) cannot change the reference side of the
/// comparison.
fn seq_config() -> Config {
    Config {
        workers: 1,
        ..Config::default()
    }
}

/// Store buffering with relaxed orderings: a small tree with real
/// reads-from branching.
fn sb_relaxed() {
    let x = Atomic::new(0i64);
    let y = Atomic::new(0i64);
    let t = mc::thread::spawn(move || {
        x.store(1, Relaxed);
        let _ = y.load(Relaxed);
    });
    y.store(1, Relaxed);
    let _ = x.load(Relaxed);
    t.join();
}

/// Message passing with an interleaving-sensitive spin: a deeper tree.
fn mp_release_acquire() {
    let data = Atomic::new(0i64);
    let flag = Atomic::new(0i64);
    let t = mc::thread::spawn(move || {
        data.store(42, Relaxed);
        flag.store(1, Release);
    });
    if flag.load(Acquire) == 1 {
        mc_assert!(data.load(Relaxed) == 42);
    }
    t.join();
}

/// Three threads over two locations: a wider tree (hundreds of leaves).
fn three_thread_mix() {
    let x = Atomic::new(0i64);
    let y = Atomic::new(0i64);
    let t1 = mc::thread::spawn(move || {
        x.store(1, Relaxed);
        let _ = y.fetch_add(1, AcqRel);
    });
    let t2 = mc::thread::spawn(move || {
        y.store(5, Release);
        let _ = x.load(Acquire);
    });
    let _ = x.fetch_add(2, SeqCst);
    t1.join();
    t2.join();
}

/// A buggy workload (racy assertion) for bug-set comparisons.
fn buggy_mp_relaxed() {
    let data = Atomic::new(0i64);
    let flag = Atomic::new(0i64);
    let t = mc::thread::spawn(move || {
        data.store(42, Relaxed);
        flag.store(1, Relaxed); // missing release: assertion can fail
    });
    if flag.load(Relaxed) == 1 {
        mc_assert!(data.load(Relaxed) == 42);
    }
    t.join();
}

const WORKLOADS: &[(&str, fn())] = &[
    ("sb_relaxed", sb_relaxed),
    ("mp_release_acquire", mp_release_acquire),
    ("three_thread_mix", three_thread_mix),
];

/// Explore the frontier `cut` left under `config` and fold the
/// continuation onto `cut`.
fn resume(config: Config, cut: &Stats, test: fn()) -> Stats {
    let mut total = cut.clone();
    let config = Config {
        resume_shards: Some(cut.shard_frontiers.clone()),
        ..config
    };
    total.continue_with(mc::explore(config, test));
    total
}

fn bug_set(stats: &Stats) -> BTreeSet<String> {
    stats.bugs.iter().map(|b| b.bug.to_string()).collect()
}

/// Digit-for-digit comparison of everything except wall-clock.
fn assert_identical(name: &str, workers: usize, seq: &Stats, par: &Stats) {
    assert_eq!(
        seq.executions, par.executions,
        "{name} w={workers}: executions"
    );
    assert_eq!(seq.feasible, par.feasible, "{name} w={workers}: feasible");
    assert_eq!(seq.diverged, par.diverged, "{name} w={workers}: diverged");
    assert_eq!(
        seq.sleep_pruned, par.sleep_pruned,
        "{name} w={workers}: sleep_pruned"
    );
    assert_eq!(seq.stop, par.stop, "{name} w={workers}: stop reason");
    assert_eq!(
        bug_set(seq),
        bug_set(par),
        "{name} w={workers}: deduplicated bug set"
    );
    assert_eq!(
        seq.frontier().is_some(),
        par.frontier().is_some(),
        "{name} w={workers}: frontier presence"
    );
}

#[test]
fn exhausted_runs_identical_at_any_worker_count() {
    for &(name, test) in WORKLOADS {
        let seq = mc::explore(seq_config(), test);
        assert_eq!(seq.stop, mc::StopReason::Exhausted, "{name}: baseline");
        for workers in [2, 3, 4] {
            let par = mc::explore(
                Config {
                    workers,
                    ..seq_config()
                },
                test,
            );
            assert_identical(name, workers, &seq, &par);
        }
    }
}

#[test]
fn steal_batch_does_not_change_results() {
    let seq = mc::explore(seq_config(), three_thread_mix);
    for steal_batch in [1, 2, 8] {
        let par = mc::explore(
            Config {
                workers: 4,
                steal_batch,
                ..seq_config()
            },
            three_thread_mix,
        );
        assert_identical("three_thread_mix", 4, &seq, &par);
    }
}

#[test]
fn buggy_run_bug_sets_identical_when_enumerating_all() {
    // stop_on_first_bug would make the winner timing-dependent in the
    // parallel engine; full enumeration makes the bug *set* an invariant.
    let full = Config {
        stop_on_first_bug: false,
        ..seq_config()
    };
    let seq = mc::explore(full.clone(), buggy_mp_relaxed);
    assert!(seq.buggy(), "workload must actually be buggy");
    for workers in [2, 4] {
        let par = mc::explore(
            Config {
                workers,
                ..full.clone()
            },
            buggy_mp_relaxed,
        );
        assert_identical("buggy_mp_relaxed", workers, &seq, &par);
    }
}

#[test]
fn buggy_run_with_stop_on_first_bug_agrees_on_bugginess() {
    let seq = mc::explore(seq_config(), buggy_mp_relaxed);
    assert!(seq.buggy());
    let par = mc::explore(
        Config {
            workers: 4,
            ..seq_config()
        },
        buggy_mp_relaxed,
    );
    // Which buggy leaf is reached first is timing-dependent, but whether
    // any exists is not.
    assert!(par.buggy(), "parallel run must find the bug too");
    assert_eq!(par.stop, mc::StopReason::FirstBug);
    // Attribution: a parallel-found bug names a valid worker index.
    assert!(par.bugs.iter().all(|b| b.worker < 4));
}

/// Interrupt a parallel run with the execution cap, then resume its shard
/// frontier to completion: totals must land exactly on the one-worker
/// count.
#[test]
fn capped_parallel_run_resumes_to_exact_total() {
    let seq = mc::explore(seq_config(), three_thread_mix);
    for workers in [2, 4] {
        for cap in [1u64, 5, 17, 50] {
            let cut = mc::explore(
                Config {
                    workers,
                    max_executions: cap,
                    ..seq_config()
                },
                three_thread_mix,
            );
            if cut.stop == mc::StopReason::Exhausted {
                assert_eq!(cut.executions, seq.executions);
                continue;
            }
            assert_eq!(cut.stop, mc::StopReason::ExecutionCap);
            assert!(!cut.shard_frontiers.is_empty(), "cap implies a frontier");
            // Resume on one worker: the cut's counts carry, so the resumed
            // total is directly comparable to the uninterrupted run.
            let resumed = resume(seq_config(), &cut, three_thread_mix);
            assert_eq!(resumed.stop, mc::StopReason::Exhausted);
            assert_eq!(
                resumed.executions, seq.executions,
                "workers={workers} cap={cap}: shards must partition the tree"
            );
            assert_eq!(resumed.feasible, seq.feasible);
            assert_eq!(resumed.diverged, seq.diverged);
            assert_eq!(resumed.sleep_pruned, seq.sleep_pruned);
        }
    }
}

/// Same partition invariant when the *resume* side runs in parallel.
#[test]
fn sequential_cut_resumed_in_parallel_is_exact() {
    let seq = mc::explore(seq_config(), three_thread_mix);
    for cap in [3u64, 20] {
        let cut = mc::explore(
            Config {
                max_executions: cap,
                ..seq_config()
            },
            three_thread_mix,
        );
        assert_eq!(cut.stop, mc::StopReason::ExecutionCap);
        assert!(!cut.shard_frontiers.is_empty());
        let resumed = resume(
            Config {
                workers: 4,
                ..seq_config()
            },
            &cut,
            three_thread_mix,
        );
        assert_eq!(resumed.stop, mc::StopReason::Exhausted);
        assert_eq!(resumed.executions, seq.executions, "cap={cap}");
        assert_eq!(resumed.feasible, seq.feasible);
    }
}

/// A zero deadline truncates immediately (after at most one execution per
/// worker); resuming the abandoned shards must still reach the exact
/// one-worker totals.
#[test]
fn deadline_truncated_parallel_run_resumes_to_exact_total() {
    let seq = mc::explore(seq_config(), three_thread_mix);
    for workers in [1, 2, 4] {
        let cut = mc::explore(
            Config {
                workers,
                time_budget: Some(std::time::Duration::ZERO),
                ..seq_config()
            },
            three_thread_mix,
        );
        if cut.stop == mc::StopReason::Exhausted {
            continue; // tree finished inside the first poll window
        }
        assert_eq!(cut.stop, mc::StopReason::Deadline, "workers={workers}");
        assert!(
            !cut.shard_frontiers.is_empty(),
            "deadline leaves a frontier"
        );
        let resumed = resume(seq_config(), &cut, three_thread_mix);
        assert_eq!(resumed.stop, mc::StopReason::Exhausted);
        assert_eq!(resumed.executions, seq.executions, "workers={workers}");
        assert_eq!(resumed.feasible, seq.feasible);
        assert_eq!(resumed.diverged, seq.diverged);
        assert_eq!(resumed.sleep_pruned, seq.sleep_pruned);
    }
}

/// Three threads checked by a plugin that flags every execution: with
/// `stop_on_first_bug: false` the same bug turns up on both sides of any
/// cut.
fn flag_every_execution(config: Config) -> Stats {
    let factory: PluginFactory = Arc::new(|| {
        vec![Box::new(mc::FnPlugin::new("every", |_trace| {
            vec![Bug::Plugin {
                plugin: "every",
                message: "flagged".into(),
            }]
        })) as Box<dyn Plugin>]
    });
    // Without sleep sets every execution completes and meets the plugin.
    let config = Config {
        stop_on_first_bug: false,
        sleep_sets: false,
        ..config
    };
    mc::explore_factory(config, factory, three_thread_mix)
}

/// A cut run resumed through `Config::resume_shards` and folded back with
/// `Stats::continue_with` reads as the straight run: the same counters and
/// rf classes, each bug reported once, and — at one worker — each bug
/// numbered by the execution the straight run found it in.
#[test]
fn resumed_bugs_dedup_and_number_like_the_straight_run() {
    let straight = flag_every_execution(seq_config());
    let numbered = |s: &Stats| -> Vec<(String, u64)> {
        s.bugs
            .iter()
            .map(|b| (b.bug.to_string(), b.execution))
            .collect()
    };
    let sorted = |s: &Stats| {
        let mut bugs: Vec<String> = s.bugs.iter().map(|b| b.bug.to_string()).collect();
        bugs.sort();
        bugs
    };
    assert_eq!(straight.stop, StopReason::Exhausted);
    assert_eq!(straight.bugs.len(), 1, "{}", straight.summary());
    for workers in [1, 2] {
        for cap in 1..straight.executions {
            let config = Config {
                workers,
                ..seq_config()
            };
            let cut = flag_every_execution(Config {
                max_executions: cap,
                ..config.clone()
            });
            if cut.shard_frontiers.is_empty() {
                continue; // a second worker's overshoot finished the tree
            }
            let rest = flag_every_execution(Config {
                resume_shards: Some(cut.shard_frontiers.clone()),
                ..config
            });
            let flagged = |s: &Stats| {
                s.bugs
                    .iter()
                    .any(|b| b.bug.to_string() == "[every] flagged")
            };
            assert!(flagged(&cut) && flagged(&rest), "w={workers} cap={cap}");
            let mut total = cut;
            total.continue_with(rest);
            let at = format!("w={workers} cap={cap}");
            assert_eq!(total.stop, StopReason::Exhausted, "{at}");
            assert_eq!(total.executions, straight.executions, "{at}");
            assert_eq!(total.feasible, straight.feasible, "{at}");
            assert_eq!(total.rf_classes, straight.rf_classes, "{at}");
            assert_eq!(sorted(&total), sorted(&straight), "{at}");
            if workers == 1 {
                assert_eq!(numbered(&total), numbered(&straight), "{at}");
            }
        }
    }
}

/// A plugin whose `name()` panics the first time any instance is asked.
/// The explorer reads the name outside its containment of `check`, so the
/// panic escapes the worker's shard loop.
struct NamePanicsOnce(Arc<AtomicBool>);

impl Plugin for NamePanicsOnce {
    fn name(&self) -> &'static str {
        if !self.0.swap(true, Ordering::SeqCst) {
            panic!("plugin name() panicked");
        }
        "name-panics-once"
    }
    fn check(&mut self, _trace: &mc::c11::Trace) -> Vec<Bug> {
        Vec::new()
    }
}

/// A worker that dies mid-run errors the run, at one worker as at
/// several: the panic is caught where the worker runs, and it halts the
/// others instead of leaving them waiting for work forever. The run is
/// driven from a helper thread so a hang fails the test instead of
/// wedging the suite.
#[test]
fn a_panicking_worker_errors_the_run_at_any_worker_count() {
    for workers in [1, 2, 3] {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let fired = Arc::new(AtomicBool::new(false));
            let factory: PluginFactory = Arc::new(move || {
                vec![Box::new(NamePanicsOnce(Arc::clone(&fired))) as Box<dyn Plugin>]
            });
            let config = Config {
                workers,
                ..seq_config()
            };
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                mc::explore_factory(config, factory, three_thread_mix).stop
            }));
            let _ = tx.send(run.map_err(|_| "the panic escaped the exploration"));
        });
        let stop = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("workers={workers}: the run did not return"));
        assert_eq!(stop, Ok(StopReason::Errored), "workers={workers}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any cut point, any worker count on either side of the cut, and
    /// optionally a *second* interruption of the resumed half: the final
    /// totals always equal the uninterrupted one-worker run's.
    #[test]
    fn any_shard_split_resumes_exactly(
        cap in 1u64..60,
        cut_workers in 1usize..5,
        resume_workers in 1usize..5,
        second_cap in prop::option::of(1u64..30),
    ) {
        let seq = mc::explore(seq_config(), three_thread_mix);
        let cut = mc::explore(
            Config { workers: cut_workers, max_executions: cap, ..seq_config() },
            three_thread_mix,
        );
        prop_assert!(cut.executions >= cap.min(seq.executions));
        if cut.shard_frontiers.is_empty() {
            // Exhausted under the cap: the counters must already agree.
            prop_assert_eq!(cut.executions, seq.executions);
            return;
        }

        // Optionally interrupt the resumed half too, then finish it.
        let cut = match second_cap {
            Some(cap2) => {
                let mid = resume(
                    Config { workers: resume_workers, max_executions: cap2, ..seq_config() },
                    &cut,
                    three_thread_mix,
                );
                if mid.shard_frontiers.is_empty() {
                    prop_assert_eq!(mid.executions, seq.executions);
                    return;
                }
                mid
            }
            None => cut,
        };

        let fin = resume(
            Config { workers: resume_workers, ..seq_config() },
            &cut,
            three_thread_mix,
        );
        prop_assert_eq!(fin.stop, mc::StopReason::Exhausted);
        prop_assert_eq!(fin.executions, seq.executions);
        prop_assert_eq!(fin.feasible, seq.feasible);
        prop_assert_eq!(fin.diverged, seq.diverged);
        prop_assert_eq!(fin.sleep_pruned, seq.sleep_pruned);
        prop_assert_eq!(bug_set(&fin), bug_set(&seq));
    }

    /// Bug sets survive sharded full enumeration at any worker count.
    #[test]
    fn bug_sets_stable_under_any_split(workers in 1usize..5, steal_batch in 1usize..4) {
        let full = Config { stop_on_first_bug: false, ..seq_config() };
        let seq = mc::explore(full.clone(), buggy_mp_relaxed);
        let par = mc::explore(
            Config { workers, steal_batch, ..full.clone() },
            buggy_mp_relaxed,
        );
        prop_assert_eq!(seq.executions, par.executions);
        prop_assert_eq!(bug_set(&seq), bug_set(&par));
    }
}
