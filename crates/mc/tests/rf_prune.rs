//! Differential soundness tests for reads-from equivalence pruning
//! (`Config::rf_prune`): the pruned exploration must report a
//! byte-identical bug set and an identical set of rf equivalence classes
//! against the unpruned one — at workers 1 *and* 2 — while exploring
//! strictly fewer executions on read-heavy workloads. The property-based
//! half repeats the comparison on random small programs and additionally
//! checks that no observable read-value outcome is lost or invented.
//!
//! Executions counts are the one thing pruning is *allowed* to change;
//! everything the checker promises the user — bugs, rf classes, outcome
//! sets — must be invariant. See `ARCHITECTURE.md`, *Exploration identity
//! and rf-equivalence pruning*.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use cdsspec_mc as mc;
use mc::MemOrd::{self, *};
use mc::{mc_assert, Atomic, Config};
use proptest::prelude::*;

/// Base config for the differentials: collect every bug (first-bug stops
/// would make the comparison vacuous) and cross-check the axioms.
fn cfg(rf_prune: bool, workers: usize) -> Config {
    Config {
        rf_prune,
        workers,
        stop_on_first_bug: false,
        ..Config::validating()
    }
}

/// Sorted, deduplicated bug messages — the byte-identity comparand (the
/// same rendering the harness reports and the campaign cache hashes).
fn bug_set(stats: &mc::Stats) -> Vec<String> {
    let mut msgs: Vec<String> = stats.bugs.iter().map(|b| b.bug.to_string()).collect();
    msgs.sort();
    msgs.dedup();
    msgs
}

/// Run `test` pruned and unpruned at `workers` and require identical bug
/// sets and rf-class sets. Returns (pruned, unpruned) stats for extra
/// workload-specific assertions.
fn differential(
    workers: usize,
    test: impl Fn() + Send + Sync + Clone + 'static,
) -> (mc::Stats, mc::Stats) {
    let pruned = mc::explore(cfg(true, workers), test.clone());
    let unpruned = mc::explore(cfg(false, workers), test);
    assert_eq!(
        bug_set(&pruned),
        bug_set(&unpruned),
        "pruning changed the bug set at {workers} worker(s)\n pruned: {}\n unpruned: {}",
        pruned.summary(),
        unpruned.summary()
    );
    assert_eq!(
        pruned.rf_classes,
        unpruned.rf_classes,
        "pruning changed the rf classes at {workers} worker(s)\n pruned: {}\n unpruned: {}",
        pruned.summary(),
        unpruned.summary()
    );
    assert!(
        pruned.executions <= unpruned.executions,
        "pruning increased executions at {workers} worker(s): {} vs {}",
        pruned.summary(),
        unpruned.summary()
    );
    (pruned, unpruned)
}

/// Read-heavy, bug-free workload: one writer racing two relaxed readers
/// per location. This is the shape the wake-floor rule targets, so
/// pruning must engage (strictly fewer executions).
fn read_heavy() {
    let x = Atomic::new(0i64);
    let y = Atomic::new(0i64);
    let t1 = mc::thread::spawn(move || {
        x.store(1, Relaxed);
        y.store(1, Relaxed);
    });
    let _ = x.load(Relaxed);
    let _ = y.load(Relaxed);
    let _ = x.load(Relaxed);
    t1.join();
}

/// Relaxed message-passing with two independent assertion bugs: each
/// fires only on some rf assignments, so losing any class would lose a
/// bug message.
fn two_seeded_bugs() {
    let x = Atomic::new(0i64);
    let y = Atomic::new(0i64);
    let t = mc::thread::spawn(move || {
        x.store(1, Relaxed);
        y.store(1, Relaxed);
    });
    let ylate = y.load(Relaxed);
    let xlate = x.load(Relaxed);
    if ylate == 1 {
        mc_assert!(xlate == 1);
    }
    if xlate == 1 {
        mc_assert!(ylate == 1);
    }
    t.join();
}

/// CAS contention: exercises the failed-CAS dependence downgrade and the
/// RMW failure-candidate floor.
fn cas_contention() {
    let x = Atomic::new(0i64);
    let t1 = mc::thread::spawn(move || {
        let _ = x.compare_exchange(0, 1, AcqRel, Relaxed);
    });
    let t2 = mc::thread::spawn(move || {
        let _ = x.compare_exchange(0, 2, AcqRel, Relaxed);
    });
    let _ = x.load(Relaxed);
    let _ = x.load(Relaxed);
    t1.join();
    t2.join();
}

#[test]
fn read_heavy_pruned_run_is_identical_and_smaller() {
    for workers in [1, 2] {
        let (pruned, unpruned) = differential(workers, read_heavy);
        assert!(!pruned.buggy());
        assert!(
            pruned.executions < unpruned.executions,
            "pruning did not engage on a read-heavy workload at {workers} worker(s): {} vs {}",
            pruned.summary(),
            unpruned.summary()
        );
    }
}

#[test]
fn seeded_bug_set_survives_pruning_at_workers_1_and_2() {
    for workers in [1, 2] {
        let (pruned, _) = differential(workers, two_seeded_bugs);
        let bugs = bug_set(&pruned);
        assert_eq!(bugs.len(), 2, "both seeded bugs must be found: {bugs:?}");
        assert!(bugs.iter().any(|m| m.contains("xlate == 1")), "{bugs:?}");
        assert!(bugs.iter().any(|m| m.contains("ylate == 1")), "{bugs:?}");
    }
}

#[test]
fn cas_workload_is_identical_under_pruning() {
    for workers in [1, 2] {
        let (pruned, _) = differential(workers, cas_contention);
        assert!(!pruned.buggy());
        assert!(!pruned.rf_classes.is_empty());
    }
}

/// Pruned exploration is deterministic across worker counts: the same
/// executions, pruned-branch count, and rf classes at 1 and 2 workers
/// (the guarantee that lets sharded and campaign-dispatched runs prune
/// identically).
#[test]
fn pruned_counters_are_worker_count_independent() {
    let w1 = mc::explore(cfg(true, 1), read_heavy);
    let w2 = mc::explore(cfg(true, 2), read_heavy);
    assert_eq!(
        w1.executions,
        w2.executions,
        "{} / {}",
        w1.summary(),
        w2.summary()
    );
    assert_eq!(w1.feasible, w2.feasible);
    assert_eq!(w1.executions_pruned, w2.executions_pruned);
    assert_eq!(w1.rf_classes, w2.rf_classes);
}

/// `executions_pruned` (like every other counter) partitions exactly
/// across a checkpoint cut: pruned branches are counted only at fresh
/// decision points, never during replay, so cut + resumed == full.
#[test]
fn pruned_counter_partitions_across_checkpoint() {
    let base = cfg(true, 1);
    let full = mc::explore(base.clone(), read_heavy);
    assert!(full.executions_pruned > 0, "{}", full.summary());
    let cut = mc::explore(
        Config {
            max_executions: 2,
            ..base.clone()
        },
        read_heavy,
    );
    assert_eq!(cut.stop, mc::StopReason::ExecutionCap);
    let ckpt = cut.checkpoint().expect("capped run leaves a frontier");
    let resumed = mc::explore_from(base, ckpt, read_heavy);
    assert_eq!(resumed.executions, full.executions);
    assert_eq!(resumed.executions_pruned, full.executions_pruned);
    assert_eq!(resumed.rf_classes, full.rf_classes);
}

// ---------------------------------------------------------------------
// Property-based differential on random small programs.
// ---------------------------------------------------------------------

/// A step of a random program (mirrors the generator the axiom proptests
/// use, compact enough to duplicate here). A `Cas` carries its failure
/// ordering, drawn independently of the success ordering; a `Fence` takes
/// the step's ordering.
#[derive(Clone, Copy, Debug)]
enum Step {
    Load(usize),
    Store(usize, i64),
    FetchAdd(usize, i64),
    Cas(usize, i64, i64, MemOrd),
    Fence,
}

type Program = Vec<Vec<(Step, MemOrd)>>;

fn ord_strategy() -> impl Strategy<Value = MemOrd> {
    prop_oneof![
        Just(Relaxed),
        Just(Acquire),
        Just(Release),
        Just(AcqRel),
        Just(SeqCst),
    ]
}

/// Failure orderings C11 allows: no release component.
fn fail_ord_strategy() -> impl Strategy<Value = MemOrd> {
    prop_oneof![Just(Relaxed), Just(Acquire), Just(SeqCst)]
}

fn access_strategy(locs: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..locs).prop_map(Step::Load),
        (0..locs, 1..4i64).prop_map(|(l, v)| Step::Store(l, v)),
        (0..locs, 1..3i64).prop_map(|(l, v)| Step::FetchAdd(l, v)),
        (0..locs, 0..4i64, 1..4i64, fail_ord_strategy())
            .prop_map(|(l, e, n, f)| Step::Cas(l, e, n, f)),
    ]
}

/// One step in three is a fence, most of them `seq_cst` (see
/// [`legal_ord`]).
fn step_strategy(locs: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        access_strategy(locs),
        access_strategy(locs),
        Just(Step::Fence),
    ]
}

fn program_strategy(
    threads: usize,
    steps: std::ops::RangeInclusive<usize>,
    locs: usize,
) -> impl Strategy<Value = Program> {
    prop::collection::vec(
        prop::collection::vec((step_strategy(locs), ord_strategy()), steps),
        2..=threads,
    )
}

/// Sanitize orderings to what C11 allows per operation kind. A relaxed
/// fence is a no-op, so it becomes the fence the generator most wants
/// to cover.
fn legal_ord(step: Step, ord: MemOrd) -> MemOrd {
    match step {
        Step::Load(_) => match ord {
            Release | AcqRel => Acquire,
            o => o,
        },
        Step::Store(..) => match ord {
            Acquire | AcqRel => Release,
            o => o,
        },
        Step::Fence if ord == Relaxed => SeqCst,
        _ => ord,
    }
}

fn interp(steps: &[(Step, MemOrd)], cells: &[Atomic<i64>]) -> Vec<i64> {
    let mut reads = Vec::new();
    for &(step, ord) in steps {
        let ord = legal_ord(step, ord);
        match step {
            Step::Load(l) => reads.push(cells[l].load(ord)),
            Step::Store(l, v) => cells[l].store(v, ord),
            Step::FetchAdd(l, v) => reads.push(cells[l].fetch_add(v, ord)),
            Step::Cas(l, e, n, fail) => {
                reads.push(match cells[l].compare_exchange(e, n, ord, fail) {
                    Ok(old) => old,
                    Err(seen) => seen,
                });
            }
            Step::Fence => mc::fence(ord),
        }
    }
    reads
}

/// Explore `prog` and collect the set of per-thread read-value vectors
/// over all feasible executions, plus the stats.
fn run_prog(prog: &Program, locs: usize, config: Config) -> (BTreeSet<Vec<i64>>, mc::Stats) {
    let prog = Arc::new(prog.clone());
    let outcomes: Arc<Mutex<BTreeSet<Vec<i64>>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let oc = Arc::clone(&outcomes);
    let config = Config {
        max_executions: 300_000,
        ..config
    };
    let stats = mc::explore(config, move || {
        let cells: Vec<Atomic<i64>> = (0..locs).map(|_| Atomic::new(0)).collect();
        type ThreadReads = Vec<(usize, Vec<i64>)>;
        let reads: Arc<Mutex<ThreadReads>> = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (ti, steps) in prog.iter().enumerate().skip(1) {
            let steps = steps.clone();
            let cells = cells.clone();
            let reads = Arc::clone(&reads);
            handles.push(mc::thread::spawn(move || {
                let r = interp(&steps, &cells);
                reads.lock().unwrap().push((ti, r));
            }));
        }
        let r0 = interp(&prog[0], &cells);
        reads.lock().unwrap().push((0, r0));
        for h in handles {
            h.join();
        }
        let mut all = reads.lock().unwrap().clone();
        all.sort_by_key(|(ti, _)| *ti);
        let flat: Vec<i64> = all.into_iter().flat_map(|(_, v)| v).collect();
        oc.lock().unwrap().insert(flat);
    });
    let set = outcomes.lock().unwrap().clone();
    (set, stats)
}

/// The default reduced exploration and the unreduced tree (no sleep
/// sets, no rf pruning) of `prog` must find the same rf classes and bugs.
fn sleep_sets_preserve_classes(prog: &Program) {
    let base = Config {
        stop_on_first_bug: false,
        ..Config::default()
    };
    let (_, reduced) = run_prog(prog, 2, base.clone());
    let (_, full) = run_prog(
        prog,
        2,
        Config {
            sleep_sets: false,
            rf_prune: false,
            ..base
        },
    );
    assert!(
        !reduced.truncated() && !full.truncated(),
        "{} / {}",
        reduced.summary(),
        full.summary()
    );
    assert_eq!(
        &reduced.rf_classes,
        &full.rf_classes,
        "sleep sets lost rf classes\n reduced: {}\n full: {}",
        reduced.summary(),
        full.summary()
    );
    assert_eq!(bug_set(&reduced), bug_set(&full), "bug sets diverged");
}

/// A CAS whose failure ordering alone is `seq_cst` reads as an SC read
/// when it fails: it must stay dependent on the other SC ops, or the
/// sleep sets lose one of this program's nine rf classes.
#[test]
fn sc_failure_cas_keeps_every_rf_class() {
    use Step::*;
    let prog: Program = vec![
        vec![
            (Cas(0, 0, 1, SeqCst), Release),
            (FetchAdd(0, 1), AcqRel),
            (Cas(1, 1, 2, SeqCst), Relaxed),
        ],
        vec![(Cas(0, 0, 1, SeqCst), Release), (Load(1), SeqCst)],
    ];
    sleep_sets_preserve_classes(&prog);
}

/// Debug builds keep the proptest budget small; release builds sample
/// more programs from the same generators.
const CASES: u32 = if cfg!(debug_assertions) { 24 } else { 256 };

proptest! {
    #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

    /// On random programs, pruning preserves the observable outcome set,
    /// the rf-class set, and bug-freeness, while never exploring more.
    #[test]
    fn pruning_preserves_outcomes_on_random_programs(prog in program_strategy(3, 1..=3, 2)) {
        let (with, s1) = run_prog(&prog, 2, Config::validating());
        let (without, s2) = run_prog(&prog, 2, Config { rf_prune: false, ..Config::validating() });
        prop_assert!(!s1.truncated() && !s2.truncated(), "{} / {}", s1.summary(), s2.summary());
        prop_assert_eq!(
            &with, &without,
            "pruning changed outcomes\n only-pruned: {:?}\n only-unpruned: {:?}",
            with.difference(&without).collect::<Vec<_>>(),
            without.difference(&with).collect::<Vec<_>>()
        );
        prop_assert_eq!(&s1.rf_classes, &s2.rf_classes, "rf classes diverged");
        prop_assert_eq!(bug_set(&s1), bug_set(&s2), "bug sets diverged");
        // No execution-count monotonicity claim here: the readers-first
        // ordering heuristic perturbs sleep-set effectiveness, and on
        // adversarial micro-programs the pruned tree can be a few leaves
        // larger. The fixed read-heavy differentials above pin the
        // strict reduction where the rules are designed to bite.
    }

    /// Sleep sets (with rf pruning) find exactly the rf classes of the
    /// unreduced tree on fence- and CAS-heavy random programs: the
    /// dependence relation misses no `seq_cst` interaction.
    #[test]
    fn sleep_sets_preserve_rf_classes_on_random_programs(prog in program_strategy(3, 2..=3, 2)) {
        sleep_sets_preserve_classes(&prog);
    }
}
