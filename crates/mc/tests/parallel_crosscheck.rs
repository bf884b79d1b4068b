//! Cross-check: the parallel frontier-sharded engine must produce the
//! same merged report as the sequential engine.
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
//!   sequential total — no leaf lost, none duplicated — at any worker
//!   count and any cut point (the partition invariant, extended from
//!   PR 1's single checkpoint script to shard sets).
//!
//! Plus a property test: any k-way resume of any cap-induced shard split
//! reproduces the sequential totals, including when the resumed half is
//! itself interrupted and resumed again.

use std::collections::BTreeSet;

use cdsspec_mc as mc;
use mc::MemOrd::*;
use mc::{mc_assert, Atomic, Config, Stats};
use proptest::prelude::*;

/// Baseline: the classic sequential engine, explicitly pinned to one
/// worker so `CDSSPEC_WORKERS` (the CI parallel job) cannot change the
/// reference side of the comparison.
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
        seq.frontier.is_some(),
        par.frontier.is_some(),
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
/// frontier to completion: totals must land exactly on the sequential
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
            let ck = cut.checkpoint().expect("interrupted run has a checkpoint");
            // Resume sequentially: prior counts carry, so the resumed
            // total is directly comparable to the uninterrupted run.
            let resumed = mc::explore_from(seq_config(), ck, three_thread_mix);
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
        let ck = cut.checkpoint().unwrap();
        let resumed = mc::explore_from(
            Config {
                workers: 4,
                ..seq_config()
            },
            ck,
            three_thread_mix,
        );
        assert_eq!(resumed.stop, mc::StopReason::Exhausted);
        assert_eq!(resumed.executions, seq.executions, "cap={cap}");
        assert_eq!(resumed.feasible, seq.feasible);
    }
}

/// A zero deadline truncates immediately (after at most one execution per
/// worker); resuming the abandoned shards must still reach the exact
/// sequential totals.
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
        let ck = cut.checkpoint().expect("deadline leaves a frontier");
        let resumed = mc::explore_from(seq_config(), ck, three_thread_mix);
        assert_eq!(resumed.stop, mc::StopReason::Exhausted);
        assert_eq!(resumed.executions, seq.executions, "workers={workers}");
        assert_eq!(resumed.feasible, seq.feasible);
        assert_eq!(resumed.diverged, seq.diverged);
        assert_eq!(resumed.sleep_pruned, seq.sleep_pruned);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any cut point, any worker count on either side of the cut, and
    /// optionally a *second* interruption of the resumed half: the final
    /// totals always equal the uninterrupted sequential run's.
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
        let Some(ck) = cut.checkpoint() else {
            // Exhausted under the cap: the counters must already agree.
            prop_assert_eq!(cut.executions, seq.executions);
            return;
        };

        // Optionally interrupt the resumed half too, then finish it.
        let (ck, resume_base) = match second_cap {
            Some(cap2) => {
                let mid = mc::explore_from(
                    Config { workers: resume_workers, max_executions: cap2, ..seq_config() },
                    ck,
                    three_thread_mix,
                );
                match mid.checkpoint() {
                    Some(ck2) => (ck2, mid),
                    None => {
                        prop_assert_eq!(mid.executions, seq.executions);
                        return;
                    }
                }
            }
            None => {
                let base = cut.clone();
                (ck, base)
            }
        };
        let _ = resume_base;

        let fin = mc::explore_from(
            Config { workers: resume_workers, ..seq_config() },
            ck,
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
