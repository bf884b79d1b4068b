//! `check_suite` resumability: interrupting a multi-part benchmark suite
//! at any point and resuming from the reported frontier must visit
//! exactly the executions a straight-through run would have — the
//! partition invariant that makes the evaluation harness's
//! checkpoint/resume exact even for the suite benchmarks.

use std::time::Duration;

use cdsspec_core as spec;
use cdsspec_mc as mc;
use mc::MemOrd::*;
use mc::{Atomic, Config};
use spec::{check_suite, Spec, SuitePart};

fn part_a() {
    let x = Atomic::new(0i64);
    let t = mc::thread::spawn(move || x.store(1, Relaxed));
    let _ = x.load(Relaxed);
    t.join();
}

fn part_b() {
    let x = Atomic::new(0i64);
    let y = Atomic::new(0i64);
    let t1 = mc::thread::spawn(move || x.store(1, Relaxed));
    let t2 = mc::thread::spawn(move || y.store(1, Relaxed));
    let _ = x.load(Relaxed);
    let _ = y.load(Relaxed);
    t1.join();
    t2.join();
}

/// The raw-atomics closures make no specification calls, so an empty
/// spec sees clean executions and the suite exercises pure exploration.
fn suite() -> Vec<SuitePart<()>> {
    vec![
        (Spec::new("noop", || ()), Box::new(part_a)),
        (Spec::new("noop", || ()), Box::new(part_b)),
    ]
}

#[test]
fn suite_runs_all_parts() {
    let full = check_suite(Config::default(), suite());
    assert_eq!(full.stop, mc::StopReason::Exhausted, "{}", full.summary());
    assert!(full.frontier().is_none());
    let a = spec::check(Config::default(), Spec::new("noop", || ()), part_a);
    let b = spec::check(Config::default(), Spec::new("noop", || ()), part_b);
    assert_eq!(full.executions, a.executions + b.executions);
}

/// Cutting the suite at every sampled cap and resuming from the reported
/// frontier partitions the executions exactly, whichever part the cap
/// lands in.
#[test]
fn suite_partitions_across_any_cut() {
    let full = check_suite(Config::default(), suite());
    let part_a_total = spec::check(Config::default(), Spec::new("noop", || ()), part_a).executions;
    let stride = (full.executions / 8).max(1) as usize;
    // Sampled caps, plus forced cuts inside part A (cap 1) and inside
    // part B (cap just past part A's tree).
    let caps = (1..full.executions)
        .step_by(stride)
        .chain([1, part_a_total + 1])
        .collect::<Vec<_>>();
    for cap in caps {
        // `workers: 1` on the cut: `resume_script` resumes every leaf
        // after one script in DFS order, which is exactly the remainder
        // only when one worker explored every leaf before it.
        let cut = check_suite(
            Config {
                max_executions: cap,
                workers: 1,
                ..Config::default()
            },
            suite(),
        );
        if cut.stop == mc::StopReason::Exhausted {
            // The per-part cap never fired (each part is under `cap`).
            assert_eq!(cut.executions, full.executions);
            continue;
        }
        assert_eq!(
            cut.stop,
            mc::StopReason::ExecutionCap,
            "cap {cap}: {}",
            cut.summary()
        );
        let frontier = cut
            .frontier()
            .expect("capped suite leaves a frontier")
            .to_vec();
        // The per-part cap cuts part A only while it is below part A's
        // tree size; at or past it, part A exhausts and part B truncates.
        let expected_part = usize::from(cap >= part_a_total);
        assert_eq!(
            frontier[0], expected_part,
            "cap {cap} cuts in part {expected_part}"
        );
        let resumed = check_suite(
            Config {
                resume_script: Some(frontier),
                ..Config::default()
            },
            suite(),
        );
        assert_eq!(
            cut.executions + resumed.executions,
            full.executions,
            "cap {cap}: cut {} + resumed {} != full {}",
            cut.summary(),
            resumed.summary(),
            full.summary()
        );
    }
}

/// A *parallel* suite cut leaves part-prefixed frontier shards in
/// `Stats::shard_frontiers`, and resuming through
/// `Config::resume_shards` partitions the executions exactly — at any
/// worker count on either side of the cut.
#[test]
fn suite_parallel_cut_resumes_through_shards() {
    let full = check_suite(
        Config {
            workers: 1,
            ..Config::default()
        },
        suite(),
    );
    let part_a_total = spec::check(Config::default(), Spec::new("noop", || ()), part_a).executions;
    assert!(part_a_total > 1, "part A must be cuttable");
    // One cap inside part A's tree, so the frontier must also list part
    // B's root shard, and one inside part B's. The per-part cap applies
    // to each part's own executions; a worker stops at the first
    // execution that reaches it, so cap 1 always cuts part A.
    for (cap, part) in [(1, 0), (part_a_total + 2, 1)] {
        let cut = check_suite(
            Config {
                max_executions: cap,
                workers: 2,
                ..Config::default()
            },
            suite(),
        );
        if cut.stop == mc::StopReason::Exhausted {
            assert_eq!(part, 1, "cap {cap} must cut part A: {}", cut.summary());
            assert_eq!(cut.executions, full.executions);
            continue;
        }
        assert_eq!(
            cut.frontier().map(|f| f[0]),
            Some(part),
            "cap {cap}: a truncated parallel suite leaves shards in part {part}: {}",
            cut.summary()
        );
        for resume_workers in [1, 3] {
            let resumed = check_suite(
                Config {
                    resume_shards: Some(cut.shard_frontiers.clone()),
                    workers: resume_workers,
                    ..Config::default()
                },
                suite(),
            );
            assert_eq!(
                cut.executions + resumed.executions,
                full.executions,
                "cap {cap}, resume at {resume_workers} workers: cut {} + resumed {} != full {}",
                cut.summary(),
                resumed.summary(),
                full.summary()
            );
            assert_eq!(resumed.stop, mc::StopReason::Exhausted);
        }
    }
}

/// A suite frontier lists exactly the work left: a cut inside part A
/// lists part A's sibling subtrees, then part B's root shard. Exploring
/// the shards one at a time — one campaign task each — counts every
/// execution of the straight run exactly once.
#[test]
fn suite_frontier_shards_explore_alone_to_the_straight_run() {
    let seq = || Config {
        workers: 1,
        ..Config::default()
    };
    let full = check_suite(seq(), suite());
    let part_a_total = spec::check(seq(), Spec::new("noop", || ()), part_a).executions;
    assert!(part_a_total > 1, "part A must be cuttable");
    for cap in 1..part_a_total {
        let cut = check_suite(
            Config {
                max_executions: cap,
                ..seq()
            },
            suite(),
        );
        assert_eq!(cut.stop, mc::StopReason::ExecutionCap, "cap {cap}");
        let shards = &cut.shard_frontiers;
        assert!(shards[..shards.len() - 1]
            .iter()
            .all(|s| s.script[0] == 0 && s.floor >= 1));
        assert_eq!(
            shards.last(),
            Some(&mc::ShardSpec {
                floor: 1,
                script: vec![1],
            }),
            "cap {cap}: part B's root shard closes the list: {shards:?}"
        );
        let mut executions = cut.executions;
        let mut feasible = cut.feasible;
        for shard in shards {
            let alone = check_suite(
                Config {
                    resume_shards: Some(vec![shard.clone()]),
                    ..seq()
                },
                suite(),
            );
            assert_eq!(alone.stop, mc::StopReason::Exhausted, "cap {cap}");
            executions += alone.executions;
            feasible += alone.feasible;
        }
        assert_eq!(executions, full.executions, "cap {cap}: {shards:?}");
        assert_eq!(feasible, full.feasible, "cap {cap}: {shards:?}");
    }
}

/// Reads-from equivalence pruning composes with suite shard peeling: a
/// pruned suite reports the same bug set and rf classes as an unpruned
/// one, and a pruned parallel cut resumed through part-prefixed shards
/// still partitions every counter — including `executions_pruned` —
/// exactly.
#[test]
fn suite_rf_pruning_is_sound_across_peeled_shards() {
    let pruned_cfg = || Config {
        rf_prune: true,
        workers: 1,
        ..Config::default()
    };
    let full = check_suite(pruned_cfg(), suite());
    let unpruned = check_suite(
        Config {
            rf_prune: false,
            workers: 1,
            ..Config::default()
        },
        suite(),
    );
    let msgs = |s: &mc::Stats| {
        let mut m: Vec<String> = s.bugs.iter().map(|b| b.bug.to_string()).collect();
        m.sort();
        m
    };
    assert_eq!(
        msgs(&full),
        msgs(&unpruned),
        "pruning changed the suite's bug set"
    );
    assert_eq!(
        full.rf_classes, unpruned.rf_classes,
        "pruning changed the suite's rf classes"
    );
    assert!(
        full.executions < unpruned.executions,
        "pruning did not engage on the suite: {} vs {}",
        full.summary(),
        unpruned.summary()
    );

    // Parallel pruned cut inside part B, resumed through peeled shards.
    let part_a_total = spec::check(pruned_cfg(), Spec::new("noop", || ()), part_a).executions;
    let cut = check_suite(
        Config {
            max_executions: part_a_total + 1,
            workers: 2,
            rf_prune: true,
            ..Config::default()
        },
        suite(),
    );
    if cut.stop == mc::StopReason::Exhausted {
        assert_eq!(cut.executions, full.executions);
        return;
    }
    assert!(!cut.shard_frontiers.is_empty(), "{}", cut.summary());
    let resumed = check_suite(
        Config {
            resume_shards: Some(cut.shard_frontiers.clone()),
            workers: 2,
            rf_prune: true,
            ..Config::default()
        },
        suite(),
    );
    assert_eq!(
        cut.executions + resumed.executions,
        full.executions,
        "cut {} + resumed {} != full {}",
        cut.summary(),
        resumed.summary(),
        full.summary()
    );
    assert_eq!(
        cut.executions_pruned + resumed.executions_pruned,
        full.executions_pruned,
        "pruned-branch counts must partition: cut {} + resumed {} != full {}",
        cut.summary(),
        resumed.summary(),
        full.summary()
    );
    let mut classes = cut.rf_classes.clone();
    classes.extend(resumed.rf_classes.iter().copied());
    assert_eq!(
        classes, full.rf_classes,
        "rf classes must union to the full set"
    );
}

/// A wall-clock budget of zero stops the suite with a resumable frontier
/// in its first part, and the resumed run completes the tree.
#[test]
fn suite_deadline_resumes_exactly() {
    let full = check_suite(Config::default(), suite());
    let cut = check_suite(
        Config {
            time_budget: Some(Duration::ZERO),
            workers: 1,
            ..Config::default()
        },
        suite(),
    );
    assert_eq!(cut.stop, mc::StopReason::Deadline, "{}", cut.summary());
    let frontier = cut.frontier().expect("deadline leaves a frontier").to_vec();
    assert_eq!(frontier[0], 0, "a zero budget stops in the first part");
    let resumed = check_suite(
        Config {
            resume_script: Some(frontier),
            ..Config::default()
        },
        suite(),
    );
    assert_eq!(cut.executions + resumed.executions, full.executions);
    assert_eq!(resumed.stop, mc::StopReason::Exhausted);
}
