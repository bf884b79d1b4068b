//! Property tests for the model checker.
//!
//! 1. **Axiom soundness**: every feasible execution of a random program
//!    must pass the *independent* offline validator in
//!    `cdsspec-c11::relations` (enabled via `Config::validating`, which
//!    also cross-checks the online vector clocks against recomputed hb).
//! 2. **SC adequacy**: for programs whose operations are all `seq_cst`,
//!    the set of observable read-value vectors must equal the set computed
//!    by a naive sequentially-consistent interleaving simulator — i.e. the
//!    checker is neither missing SC behaviors nor inventing non-SC ones.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use cdsspec_mc as mc;
use mc::MemOrd::{self, *};
use mc::{Atomic, Config};
use proptest::prelude::*;

/// A step of a random program.
#[derive(Clone, Copy, Debug)]
enum Step {
    Load(usize),
    Store(usize, i64),
    FetchAdd(usize, i64),
    Cas(usize, i64, i64),
    Fence,
}

type Program = Vec<Vec<(Step, MemOrd)>>;
type ReadLog = Arc<Mutex<Vec<(usize, Vec<i64>)>>>;

fn ord_strategy() -> impl Strategy<Value = MemOrd> {
    prop_oneof![
        Just(Relaxed),
        Just(Acquire),
        Just(Release),
        Just(AcqRel),
        Just(SeqCst),
    ]
}

fn step_strategy(locs: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..locs).prop_map(Step::Load),
        (0..locs, 1..6i64).prop_map(|(l, v)| Step::Store(l, v)),
        (0..locs, 1..3i64).prop_map(|(l, v)| Step::FetchAdd(l, v)),
        (0..locs, 0..6i64, 1..6i64).prop_map(|(l, e, n)| Step::Cas(l, e, n)),
        Just(Step::Fence),
    ]
}

fn program_strategy(threads: usize, steps: usize, locs: usize) -> impl Strategy<Value = Program> {
    prop::collection::vec(
        prop::collection::vec((step_strategy(locs), ord_strategy()), 1..=steps),
        1..=threads,
    )
}

/// Sanitize orderings to what C11 allows per operation kind.
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
        _ => ord,
    }
}

/// Run a program under the model checker, returning the set of per-thread
/// read-value vectors over all feasible executions.
fn run_modeled(prog: &Program, locs: usize, force_sc: bool) -> (BTreeSet<Vec<i64>>, mc::Stats) {
    let prog = Arc::new(prog.clone());
    let outcomes: Arc<Mutex<BTreeSet<Vec<i64>>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let oc = Arc::clone(&outcomes);
    let config = Config {
        max_executions: 300_000,
        ..Config::validating()
    };

    let stats = mc::explore(config, move || {
        let cells: Vec<Atomic<i64>> = (0..locs).map(|_| Atomic::new(0)).collect();
        let reads: ReadLog = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (ti, steps) in prog.iter().enumerate().skip(1) {
            let steps = steps.clone();
            let cells = cells.clone();
            let reads = Arc::clone(&reads);
            handles.push(mc::thread::spawn(move || {
                let r = interp(&steps, &cells, force_sc);
                reads.lock().unwrap().push((ti, r));
            }));
        }
        let r0 = interp(&prog[0], &cells, force_sc);
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

fn interp(steps: &[(Step, MemOrd)], cells: &[Atomic<i64>], force_sc: bool) -> Vec<i64> {
    let mut reads = Vec::new();
    for &(step, ord) in steps {
        let ord = if force_sc {
            SeqCst
        } else {
            legal_ord(step, ord)
        };
        match step {
            Step::Load(l) => reads.push(cells[l].load(ord)),
            Step::Store(l, v) => cells[l].store(v, ord),
            Step::FetchAdd(l, v) => reads.push(cells[l].fetch_add(v, ord)),
            Step::Cas(l, e, n) => {
                // Under force_sc the *failure* ordering must stay SC too:
                // C11 lets a failed CAS read with a weaker ordering, and a
                // stale acquire read would be (correctly!) non-SC.
                let fail = if force_sc {
                    SeqCst
                } else {
                    ord.weaken_load().unwrap_or(Relaxed)
                };
                let r = cells[l].compare_exchange(e, n, ord, fail);
                reads.push(match r {
                    Ok(old) => old,
                    Err(seen) => seen,
                });
            }
            Step::Fence => mc::fence(ord),
        }
    }
    reads
}

/// Naive SC reference: enumerate all interleavings, maintaining a flat
/// memory array; collect the same read vectors.
fn run_naive_sc(prog: &Program, locs: usize) -> BTreeSet<Vec<i64>> {
    let mut outcomes = BTreeSet::new();
    let mut positions = vec![0usize; prog.len()];
    let mut memory = vec![0i64; locs];
    let mut reads: Vec<Vec<i64>> = vec![Vec::new(); prog.len()];
    recurse(prog, &mut positions, &mut memory, &mut reads, &mut outcomes);
    outcomes
}

fn recurse(
    prog: &Program,
    positions: &mut Vec<usize>,
    memory: &mut Vec<i64>,
    reads: &mut Vec<Vec<i64>>,
    outcomes: &mut BTreeSet<Vec<i64>>,
) {
    let mut done = true;
    for t in 0..prog.len() {
        if positions[t] >= prog[t].len() {
            continue;
        }
        done = false;
        let (step, _) = prog[t][positions[t]];
        positions[t] += 1;
        let (undo_mem, undo_read): (Option<(usize, i64)>, bool) = match step {
            Step::Load(l) => {
                reads[t].push(memory[l]);
                (None, true)
            }
            Step::Store(l, v) => {
                let old = memory[l];
                memory[l] = v;
                (Some((l, old)), false)
            }
            Step::FetchAdd(l, v) => {
                let old = memory[l];
                reads[t].push(old);
                memory[l] = old.wrapping_add(v);
                (Some((l, old)), true)
            }
            Step::Cas(l, e, n) => {
                let old = memory[l];
                reads[t].push(old);
                if old == e {
                    memory[l] = n;
                    (Some((l, old)), true)
                } else {
                    (None, true)
                }
            }
            Step::Fence => (None, false),
        };
        recurse(prog, positions, memory, reads, outcomes);
        if let Some((l, old)) = undo_mem {
            memory[l] = old;
        }
        if undo_read {
            reads[t].pop();
        }
        positions[t] -= 1;
    }
    if done {
        outcomes.insert(reads.iter().flat_map(|v| v.iter().copied()).collect());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every feasible execution of a random weakly-ordered program passes
    /// the independent axiom validator (checked inside explore via
    /// `validate_axioms`), and exploration terminates.
    #[test]
    fn axioms_hold_on_random_programs(prog in program_strategy(3, 3, 2)) {
        let (_, stats) = run_modeled(&prog, 2, false);
        let axiom_bug = stats.bugs.iter().any(|b| matches!(b.bug, mc::Bug::AxiomViolation { .. }));
        prop_assert!(!axiom_bug, "axiom violation: {:?}", stats.bugs);
        prop_assert!(stats.feasible > 0);
        prop_assert!(!stats.truncated(), "exploration truncated: {}", stats.summary());
    }

    /// With everything seq_cst, the modeled outcome set equals the naive
    /// SC interleaving set exactly.
    #[test]
    fn seq_cst_programs_match_naive_sc(prog in program_strategy(3, 3, 2)) {
        let (modeled, stats) = run_modeled(&prog, 2, true);
        prop_assert!(!stats.buggy(), "unexpected bug: {:?}", stats.bugs);
        let naive = run_naive_sc(&prog, 2);
        prop_assert_eq!(
            &modeled, &naive,
            "SC outcome sets diverge:\n modeled-only: {:?}\n naive-only: {:?}",
            modeled.difference(&naive).collect::<Vec<_>>(),
            naive.difference(&modeled).collect::<Vec<_>>()
        );
    }

    /// Weakening orderings can only grow the outcome set relative to SC
    /// (monotonicity): every SC outcome of the same program remains
    /// observable, and nothing the validator rejects appears.
    #[test]
    fn weak_outcomes_superset_of_sc(prog in program_strategy(2, 3, 2)) {
        let (weak, stats) = run_modeled(&prog, 2, false);
        let axiom_bug = stats.bugs.iter().any(|b| matches!(b.bug, mc::Bug::AxiomViolation { .. }));
        prop_assert!(!axiom_bug, "axiom violation under weak orderings");
        let naive = run_naive_sc(&prog, 2);
        for outcome in &naive {
            prop_assert!(
                weak.contains(outcome),
                "SC outcome {:?} lost under weak orderings; weak set: {:?}",
                outcome, weak
            );
        }
    }

    /// The sleep-set reduction is sound: it must not lose (or invent)
    /// observable outcomes, only skip redundant interleavings.
    #[test]
    fn sleep_sets_preserve_outcome_sets(prog in program_strategy(3, 3, 2)) {
        let (with_sleep, s1) = run_modeled_cfg(&prog, 2, true);
        let (without, s2) = run_modeled_cfg(&prog, 2, false);
        prop_assert_eq!(
            &with_sleep, &without,
            "sleep sets changed outcomes\n only-with: {:?}\n only-without: {:?}",
            with_sleep.difference(&without).collect::<Vec<_>>(),
            without.difference(&with_sleep).collect::<Vec<_>>()
        );
        prop_assert!(
            s1.executions <= s2.executions,
            "reduction increased executions: {} vs {}",
            s1.executions,
            s2.executions
        );
    }
}

/// A checkpoint is lossless: running to a cap and resuming visits the
/// same leaves as a straight-through run, so every counter partitions.
fn modeled_closure(prog: Arc<Program>, locs: usize) -> impl Fn() + Send + Sync + 'static {
    move || {
        let cells: Vec<Atomic<i64>> = (0..locs).map(|_| Atomic::new(0)).collect();
        let mut handles = Vec::new();
        for steps in prog.iter().skip(1) {
            let steps = steps.clone();
            let cells = cells.clone();
            handles.push(mc::thread::spawn(move || {
                let _ = interp(&steps, &cells, false);
            }));
        }
        let _ = interp(&prog[0], &cells, false);
        for h in handles {
            h.join();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// `executions(full) == executions(to checkpoint) + executions(resume)`
    /// for every counter, on litmus-sized random programs.
    #[test]
    fn checkpoint_partitions_executions(prog in program_strategy(2, 2, 2), cap in 1u64..10) {
        let prog = Arc::new(prog);
        let base = Config { stop_on_first_bug: false, ..Config::default() };
        let full = mc::explore(base.clone(), modeled_closure(Arc::clone(&prog), 2));
        let capped = Config { max_executions: cap, ..base.clone() };
        let cut = mc::explore(capped, modeled_closure(Arc::clone(&prog), 2));
        if !cut.shard_frontiers.is_empty() {
                prop_assert_eq!(cut.stop, mc::StopReason::ExecutionCap);
                let mut resumed = cut.clone();
                let resume = Config { resume_shards: Some(cut.shard_frontiers.clone()), ..base };
                resumed.continue_with(mc::explore(resume, modeled_closure(prog, 2)));
                // The fold accumulates on top of the cut, so totals must
                // land exactly on the straight-through run.
                prop_assert_eq!(resumed.executions, full.executions);
                prop_assert_eq!(resumed.feasible, full.feasible);
                prop_assert_eq!(resumed.diverged, full.diverged);
                prop_assert_eq!(resumed.sleep_pruned, full.sleep_pruned);
                prop_assert_eq!(resumed.stop, mc::StopReason::Exhausted);
        } else {
                // The cap never fired: the tree fit inside it.
                prop_assert_eq!(cut.executions, full.executions);
                prop_assert_eq!(cut.stop, mc::StopReason::Exhausted);
        }
    }
}

/// As [`run_modeled`] with weak orderings and a sleep-set switch.
fn run_modeled_cfg(prog: &Program, locs: usize, sleep: bool) -> (BTreeSet<Vec<i64>>, mc::Stats) {
    let prog = Arc::new(prog.clone());
    let outcomes: Arc<Mutex<BTreeSet<Vec<i64>>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let oc = Arc::clone(&outcomes);
    let config = Config {
        max_executions: 300_000,
        sleep_sets: sleep,
        ..Config::validating()
    };
    let stats = mc::explore(config, move || {
        let cells: Vec<Atomic<i64>> = (0..locs).map(|_| Atomic::new(0)).collect();
        let reads: ReadLog = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (ti, steps) in prog.iter().enumerate().skip(1) {
            let steps = steps.clone();
            let cells = cells.clone();
            let reads = Arc::clone(&reads);
            handles.push(mc::thread::spawn(move || {
                let r = interp(&steps, &cells, false);
                reads.lock().unwrap().push((ti, r));
            }));
        }
        let r0 = interp(&prog[0], &cells, false);
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
