//! Lockstep property tests for the incremental trace indexes.
//!
//! The SoA [`Trace`] maintains its derived relations — per-thread event
//! ranges, per-location rf/mo chains and the running rf-signature state —
//! *as events are committed*. These tests pin them to from-scratch
//! derivations on every feasible execution of random weakly-ordered
//! programs:
//!
//! 1. `relations::rf_signature` (O(n) fold over the incremental state)
//!    must equal [`posthoc::rf_signature`], the full re-walk it replaced,
//!    kept in this file as the reference;
//! 2. `relations::audit` (hb from the clocks) and `relations::validate`
//!    (hb recomputed, clocks cross-checked against it) run the same
//!    axiom checks and must both report nothing;
//! 3. the indexes those checks trust — `readers_of(loc)`, `mo_of(loc)`
//!    and each store's `mo_index` — must equal a re-derivation from the
//!    trace's columns.
//!
//! The lockstep plugin rides along a capped-then-resumed exploration and
//! a two-worker (shard-stealing) exploration too: recycled trace buffers
//! and shard-peeled replays are exactly where stale incremental state
//! would hide.
//!
//! A second group pins the two signatures to each other on hand-built
//! traces, whose thread, location and seq values reach past anything an
//! explored trace does, and on traces reused after `Trace::clear`.

use std::sync::Arc;

use cdsspec_c11::relations;
use cdsspec_c11::{DataId, EventId, EventKind, LocId, Tid, Trace, VecClock};
use cdsspec_mc as mc;
use mc::MemOrd::{self, *};
use mc::{Atomic, Bug, Config, Plugin, PluginFactory};
use proptest::prelude::*;

/// The post-hoc derivation the incremental signature replaced.
mod posthoc {
    use cdsspec_c11::{EventId, EventKind, Trace};

    /// `relations`' sentinel for "reads the initial (uninitialized) value".
    const NO_RF: u64 = 0x5eed_0000_0000_0001;
    const MIX_SEED: u64 = 0xcbf2_9ce4_8422_2325;

    /// The one-multiply word mixer, chained from `h` (the step
    /// `cdsspec_c11` folds signatures with).
    fn mix(h: u64, v: u64) -> u64 {
        let x = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^ (x >> 29)
    }

    /// `relations::rf_signature` derived the original way: three full
    /// re-walks of the trace (spawn-tree canonicalization, per-location
    /// minima, then the chain folds), recomputing every canonical event
    /// id on demand. Bit-for-bit equal to the incremental finalize by
    /// construction — the lockstep tests enforce it.
    pub fn rf_signature(trace: &Trace) -> u64 {
        let nthreads = trace.num_threads as usize;
        let n = trace.len();

        // Canonical thread names from the spawn tree.
        let mut canon = vec![0u64; nthreads];
        let mut spawn_count = vec![0u64; nthreads];
        canon[0] = mix(MIX_SEED, 0);
        for i in 0..n {
            let id = EventId(i as u32);
            if let EventKind::ThreadCreate { child } = trace.kind(id) {
                let p = trace.tid(id).idx();
                canon[child.idx()] = mix(mix(canon[p], 1), spawn_count[p]);
                spawn_count[p] += 1;
            }
        }

        // Canonical event id: (thread name, per-thread sequence number).
        let ceid = |id: EventId| -> u64 {
            mix(
                mix(MIX_SEED, canon[trace.tid(id).idx()]),
                trace.seq(id) as u64,
            )
        };

        // Canonical location names: the smallest canonical id of any event
        // touching the location (the touching-event *set* is schedule-
        // independent, so its minimum is too).
        let mut loc_min: Vec<u64> = Vec::new();
        let mut data_min: Vec<u64> = Vec::new();
        let note = |slot: &mut Vec<u64>, idx: usize, c: u64| {
            if slot.len() <= idx {
                slot.resize(idx + 1, u64::MAX);
            }
            slot[idx] = slot[idx].min(c);
        };
        for i in 0..n {
            let id = EventId(i as u32);
            let c = ceid(id);
            match trace.kind(id) {
                EventKind::AtomicLoad { loc, .. }
                | EventKind::AtomicStore { loc, .. }
                | EventKind::Rmw { loc, .. } => note(&mut loc_min, loc.idx(), c),
                EventKind::DataWrite { loc } | EventKind::DataRead { loc } => {
                    note(&mut data_min, loc.idx(), c)
                }
                _ => {}
            }
        }

        // Per-thread operation chains.
        let mut thread_hash: Vec<u64> = canon.iter().map(|&c| mix(MIX_SEED, c)).collect();
        for i in 0..n {
            let id = EventId(i as u32);
            let h = &mut thread_hash[trace.tid(id).idx()];
            *h = match trace.kind(id) {
                EventKind::AtomicLoad { loc, ord, rf, .. } => {
                    let rf = rf.map(ceid).unwrap_or(NO_RF);
                    mix(mix(mix(mix(*h, 1), loc_min[loc.idx()]), ord as u64), rf)
                }
                EventKind::AtomicStore { loc, ord, .. } => {
                    mix(mix(mix(*h, 2), loc_min[loc.idx()]), ord as u64)
                }
                EventKind::Rmw {
                    loc,
                    ord,
                    rf,
                    written,
                    ..
                } => {
                    let rf = rf.map(ceid).unwrap_or(NO_RF);
                    let wrote = written.is_some() as u64;
                    mix(
                        mix(mix(mix(mix(*h, 3), loc_min[loc.idx()]), ord as u64), rf),
                        wrote,
                    )
                }
                EventKind::Fence { ord } => mix(mix(*h, 4), ord as u64),
                EventKind::ThreadCreate { child } => mix(mix(*h, 5), canon[child.idx()]),
                EventKind::ThreadJoin { target } => mix(mix(*h, 6), canon[target.idx()]),
                EventKind::ThreadFinish => mix(*h, 7),
                EventKind::DataWrite { loc } => mix(mix(*h, 8), data_min[loc.idx()]),
                EventKind::DataRead { loc } => mix(mix(*h, 9), data_min[loc.idx()]),
            };
        }
        let mut sig = 0u64;
        for h in thread_hash {
            sig = sig.wrapping_add(mix(MIX_SEED, h));
        }

        // Per-location modification orders (commutative across locations).
        for (li, chain) in trace.mo.iter().enumerate() {
            if chain.is_empty() {
                continue;
            }
            let mut h = mix(mix(MIX_SEED, 10), loc_min[li]);
            for &w in chain {
                h = mix(h, ceid(w));
            }
            sig = sig.wrapping_add(h);
        }

        // The SC order (one global chain).
        let mut h = mix(MIX_SEED, 11);
        for &s in &trace.sc_order {
            h = mix(h, ceid(s));
        }
        sig = sig.wrapping_add(h);

        mix(sig, trace.num_threads as u64)
    }
}

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

fn interp(steps: &[(Step, MemOrd)], cells: &[Atomic<i64>]) {
    for &(step, ord) in steps {
        let ord = legal_ord(step, ord);
        match step {
            Step::Load(l) => {
                cells[l].load(ord);
            }
            Step::Store(l, v) => cells[l].store(v, ord),
            Step::FetchAdd(l, v) => {
                cells[l].fetch_add(v, ord);
            }
            Step::Cas(l, e, n) => {
                let fail = ord.weaken_load().unwrap_or(Relaxed);
                let _ = cells[l].compare_exchange(e, n, ord, fail);
            }
            Step::Fence => mc::fence(ord),
        }
    }
}

fn modeled_closure(prog: Arc<Program>, locs: usize) -> impl Fn() + Send + Sync + 'static {
    move || {
        let cells: Vec<Atomic<i64>> = (0..locs).map(|_| Atomic::new(0)).collect();
        let mut handles = Vec::new();
        for steps in prog.iter().skip(1) {
            let steps = steps.clone();
            let cells = cells.clone();
            handles.push(mc::thread::spawn(move || {
                interp(&steps, &cells);
            }));
        }
        interp(&prog[0], &cells);
        for h in handles {
            h.join();
        }
    }
}

/// The lockstep checker: compares incremental results against the
/// retained post-hoc derivations on every feasible trace and reports any
/// divergence as a plugin bug (so it surfaces through `stats.bugs`).
struct Lockstep;

impl Plugin for Lockstep {
    fn name(&self) -> &'static str {
        "lockstep"
    }

    fn check(&mut self, trace: &Trace) -> Vec<Bug> {
        let mut bugs = Vec::new();
        let bug = |message: String| Bug::Plugin {
            plugin: "lockstep",
            message,
        };

        let inc = relations::rf_signature(trace);
        let post = posthoc::rf_signature(trace);
        if inc != post {
            bugs.push(bug(format!(
                "rf_signature diverged: incremental {inc:#x} vs post-hoc {post:#x}"
            )));
        }

        // The two checkers share every axiom check and differ in where
        // hb comes from; on these (correct) programs both must be empty —
        // any asymmetry is a divergence.
        let mut audit: Vec<String> = relations::audit(trace)
            .iter()
            .map(|e| e.to_string())
            .collect();
        let mut oracle: Vec<String> = relations::validate(trace)
            .iter()
            .map(|e| e.to_string())
            .collect();
        audit.sort();
        oracle.sort();
        if audit != oracle {
            bugs.push(bug(format!(
                "audit/oracle diverged:\n  audit:  {audit:?}\n  oracle: {oracle:?}"
            )));
        }
        bugs.extend(index_divergences(trace).into_iter().map(bug));
        bugs
    }
}

/// The per-location indexes the axiom checks trust, re-derived from the
/// columns: a location's readers are its loads and RMWs in commit order,
/// and its mo chain is its writes ordered by mo index, which must number
/// them 0, 1, 2, ...
fn index_divergences(trace: &Trace) -> Vec<String> {
    let mut out = Vec::new();
    let ids = (0..trace.len() as u32).map(EventId);
    let locs = ids
        .clone()
        .filter_map(|id| trace.atomic_loc(id))
        .map(|loc| loc.idx() + 1)
        .max()
        .unwrap_or(0)
        .max(trace.loc_bound());
    for li in 0..locs {
        let loc = LocId(li as u32);
        let at_loc = ids.clone().filter(|&id| trace.atomic_loc(id) == Some(loc));
        let readers: Vec<EventId> = at_loc.clone().filter(|&id| trace.is_read(id)).collect();
        if trace.readers_of(loc) != readers {
            out.push(format!(
                "readers_of({loc}) = {:?}, columns give {readers:?}",
                trace.readers_of(loc)
            ));
        }
        let mut writes: Vec<EventId> = at_loc.filter(|&id| trace.is_write(id)).collect();
        writes.sort_by_key(|&w| trace.mo_index(w));
        if trace.mo_of(loc) != writes {
            out.push(format!(
                "mo_of({loc}) = {:?}, columns give {writes:?}",
                trace.mo_of(loc)
            ));
        }
        for (k, &w) in writes.iter().enumerate() {
            if trace.mo_index(w) != Some(k as u32) {
                out.push(format!(
                    "{w} has mo index {:?} but is write {k} of {loc}",
                    trace.mo_index(w)
                ));
            }
        }
    }
    out
}

/// One [`Lockstep`] checker per explorer worker.
fn lockstep() -> PluginFactory {
    Arc::new(|| vec![Box::new(Lockstep) as Box<dyn Plugin>])
}

fn lockstep_config() -> Config {
    Config {
        max_executions: 300_000,
        stop_on_first_bug: false,
        // Runs the oracle with clock cross-checking on every feasible
        // execution, besides the comparisons above.
        ..Config::validating()
    }
}

fn assert_clean(stats: &mc::Stats) {
    assert!(
        !stats.buggy(),
        "lockstep divergence: {:?}",
        stats
            .bugs
            .iter()
            .map(|b| format!("{}", b.bug))
            .collect::<Vec<_>>()
    );
    assert!(stats.feasible > 0, "nothing explored: {}", stats.summary());
}

/// Debug builds keep the proptest budget small; release builds sample
/// more programs from the same generators.
const CASES: u32 = if cfg!(debug_assertions) { 16 } else { 160 };

proptest! {
    #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

    /// Straight-through exploration: every feasible execution agrees.
    #[test]
    fn incremental_indexes_agree_with_posthoc(prog in program_strategy(3, 3, 2)) {
        let prog = Arc::new(prog);
        let stats = mc::explore_factory(lockstep_config(), lockstep(), modeled_closure(prog, 2));
        assert_clean(&stats);
    }

    /// Capped-then-resumed exploration: the recycled trace buffers of the
    /// resumed run must rebuild their incremental state from scratch.
    #[test]
    fn indexes_agree_across_checkpoint_resume(prog in program_strategy(2, 3, 2), cap in 1u64..8) {
        let prog = Arc::new(prog);
        let capped = Config { max_executions: cap, ..lockstep_config() };
        let mut cut = mc::explore_factory(capped, lockstep(), modeled_closure(Arc::clone(&prog), 2));
        prop_assert!(!cut.buggy(), "lockstep divergence before the cap: {:?}", cut.bugs);
        if !cut.shard_frontiers.is_empty() {
            let resume = Config {
                resume_shards: Some(cut.shard_frontiers.clone()),
                ..lockstep_config()
            };
            cut.continue_with(mc::explore_factory(resume, lockstep(), modeled_closure(prog, 2)));
            assert_clean(&cut);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: CASES / 2, ..ProptestConfig::default() })]

    /// Two-worker exploration: shard-peeled replays and work stealing
    /// reuse per-worker harnesses; every worker's executions must agree.
    #[test]
    fn indexes_agree_under_shard_stealing(prog in program_strategy(3, 3, 2)) {
        let prog = Arc::new(prog);
        let config = Config { workers: 2, ..lockstep_config() };
        let stats = mc::explore_factory(config, lockstep(), modeled_closure(prog, 2));
        assert_clean(&stats);
    }
}

// ---------------------------------------------------------------------
// Hand-built traces
// ---------------------------------------------------------------------

/// Thread ids and operands far past what explored traces reach.
const TIDS: [u32; 4] = [0, 254, 255, 300];
const OPERANDS: [u32; 5] = [0, 1, 32_767, 32_768, 98_304];
const ORDS: [MemOrd; 5] = [Relaxed, Acquire, Release, AcqRel, SeqCst];

/// A hand-built event: thread, kind, operand, ordering, rf pick, and
/// whether its seq skips one (so it is not its program-order position).
type RawEvent = (usize, usize, usize, usize, usize, bool);

fn raw_event() -> impl Strategy<Value = RawEvent> {
    (
        0..TIDS.len(),
        0..8usize,
        0..OPERANDS.len(),
        0..ORDS.len(),
        0..64usize,
        prop_oneof![Just(false), Just(false), Just(false), Just(true)],
    )
}

fn hand_built(events: &[RawEvent]) -> Trace {
    let mut t = Trace::default();
    t.num_threads = TIDS[TIDS.len() - 1] + 1;
    let mut seqs = vec![0u32; t.num_threads as usize];
    let mut ids: Vec<EventId> = Vec::new();
    for &(ti, kind, oi, oo, pick, gap) in events {
        let tid = TIDS[ti];
        let (operand, ord) = (OPERANDS[oi], ORDS[oo]);
        let loc = LocId(operand);
        let rf = (!ids.is_empty()).then(|| ids[pick % ids.len()]);
        let kind = match kind {
            0 => EventKind::AtomicLoad {
                loc,
                ord,
                rf,
                val: 0,
            },
            1 => EventKind::AtomicStore {
                loc,
                ord,
                val: 0,
                mo_index: 0,
            },
            2 | 3 => EventKind::Rmw {
                loc,
                ord,
                rf,
                read_val: 0,
                written: (kind == 2).then_some(0),
                mo_index: 0,
            },
            4 => EventKind::Fence { ord },
            5 => EventKind::ThreadJoin {
                target: Tid(TIDS[oi % TIDS.len()]),
            },
            6 => EventKind::DataWrite {
                loc: DataId(operand),
            },
            _ => EventKind::DataRead {
                loc: DataId(operand),
            },
        };
        seqs[tid as usize] += 1 + u32::from(gap);
        let id = t.push(Tid(tid), seqs[tid as usize], kind, VecClock::new());
        if kind.is_write() {
            if t.mo.len() <= loc.idx() {
                t.mo.resize_with(loc.idx() + 1, Vec::new);
            }
            t.mo[loc.idx()].push(id);
        }
        ids.push(id);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: CASES * 8, ..ProptestConfig::default() })]

    #[test]
    fn signatures_agree_on_hand_built_traces(events in prop::collection::vec(raw_event(), 1..12)) {
        let t = hand_built(&events);
        prop_assert_eq!(relations::rf_signature(&t), posthoc::rf_signature(&t));
    }
}

/// The signature follows every commit and `clear`.
#[test]
fn signature_follows_the_trace() {
    let events = [(0, 1, 1, 4, 0, false), (1, 0, 1, 0, 0, false)];
    let mut t = hand_built(&events[..1]);
    let first = relations::rf_signature(&t);
    t.push(
        Tid(TIDS[1]),
        1,
        EventKind::AtomicLoad {
            loc: LocId(OPERANDS[1]),
            ord: Relaxed,
            rf: Some(EventId(0)),
            val: 0,
        },
        VecClock::new(),
    );
    let second = relations::rf_signature(&t);
    assert_ne!(first, second);
    assert_eq!(second, posthoc::rf_signature(&t));
    assert_eq!(second, relations::rf_signature(&hand_built(&events)));
    t.clear();
    assert_eq!(relations::rf_signature(&t), posthoc::rf_signature(&t));
}

/// Spawn-tree canonicalization, per-location minima, rf/mo/SC chains and
/// data events all flow through both derivations.
#[test]
fn incremental_signature_matches_posthoc() {
    let mut t = Trace::default();
    t.num_threads = 3;
    let mut seqs = [0u32; 3];
    let mut push = |t: &mut Trace, tid: u32, kind: EventKind| {
        seqs[tid as usize] += 1;
        let id = t.push(Tid(tid), seqs[tid as usize], kind, VecClock::new());
        if let Some(loc) = kind.atomic_loc().filter(|_| kind.is_write()) {
            if t.mo.len() <= loc.idx() {
                t.mo.resize_with(loc.idx() + 1, Vec::new);
            }
            t.mo[loc.idx()].push(id);
        }
        id
    };
    push(&mut t, 0, EventKind::ThreadCreate { child: Tid(1) });
    push(&mut t, 0, EventKind::ThreadCreate { child: Tid(2) });
    let w = push(
        &mut t,
        1,
        EventKind::AtomicStore {
            loc: LocId(0),
            ord: Release,
            val: 1,
            mo_index: 0,
        },
    );
    push(&mut t, 1, EventKind::DataWrite { loc: DataId(0) });
    push(&mut t, 1, EventKind::ThreadFinish);
    let acquire = EventKind::AtomicLoad {
        loc: LocId(0),
        ord: Acquire,
        rf: Some(w),
        val: 1,
    };
    push(&mut t, 2, acquire);
    let rmw = push(
        &mut t,
        2,
        EventKind::Rmw {
            loc: LocId(0),
            ord: SeqCst,
            rf: Some(w),
            read_val: 1,
            written: Some(2),
            mo_index: 1,
        },
    );
    let sc_load = EventKind::AtomicLoad {
        loc: LocId(0),
        ord: SeqCst,
        rf: Some(rmw),
        val: 2,
    };
    push(&mut t, 2, sc_load);
    push(&mut t, 2, EventKind::DataRead { loc: DataId(0) });
    push(&mut t, 2, EventKind::ThreadFinish);
    push(&mut t, 0, EventKind::ThreadJoin { target: Tid(1) });
    push(&mut t, 0, EventKind::ThreadJoin { target: Tid(2) });
    push(&mut t, 0, EventKind::Fence { ord: SeqCst });
    push(&mut t, 0, EventKind::ThreadFinish);
    assert_eq!(relations::rf_signature(&t), posthoc::rf_signature(&t));
}

#[test]
fn signature_survives_trace_reuse() {
    // Reusing a cleared trace must not leak prior sig state in.
    let build = |t: &mut Trace| {
        t.num_threads = 2;
        t.push(
            Tid(0),
            1,
            EventKind::ThreadCreate { child: Tid(1) },
            VecClock::new(),
        );
        let w = t.push(
            Tid(1),
            1,
            EventKind::AtomicStore {
                loc: LocId(0),
                ord: MemOrd::Release,
                val: 7,
                mo_index: 0,
            },
            VecClock::new(),
        );
        t.mo.push(vec![w]);
        t.push(Tid(1), 2, EventKind::ThreadFinish, VecClock::new());
        t.push(
            Tid(0),
            2,
            EventKind::ThreadJoin { target: Tid(1) },
            VecClock::new(),
        );
    };
    let mut fresh = Trace::default();
    build(&mut fresh);
    let expect = relations::rf_signature(&fresh);
    assert_eq!(expect, posthoc::rf_signature(&fresh));

    // Dirty the same trace with a different program, clear, rebuild.
    let mut reused = Trace::default();
    reused.num_threads = 2;
    reused.push(
        Tid(0),
        1,
        EventKind::ThreadCreate { child: Tid(1) },
        VecClock::new(),
    );
    reused.push(
        Tid(1),
        1,
        EventKind::Fence {
            ord: MemOrd::SeqCst,
        },
        VecClock::new(),
    );
    reused.push(
        Tid(1),
        2,
        EventKind::DataWrite { loc: DataId(3) },
        VecClock::new(),
    );
    reused.clear();
    build(&mut reused);
    assert_eq!(relations::rf_signature(&reused), expect);
    assert_eq!(posthoc::rf_signature(&reused), expect);
}

/// The index check is not vacuous: two writes sharing an mo index, and an
/// `mo` chain that lists a write twice and the other not at all, are
/// flagged.
#[test]
fn index_check_flags_a_bad_mo_chain() {
    let store = |val| EventKind::AtomicStore {
        loc: LocId(0),
        ord: Relaxed,
        val,
        mo_index: 0,
    };
    let mut t = Trace::default();
    let w = t.push(Tid(0), 1, store(1), VecClock::new());
    t.push(Tid(0), 2, store(2), VecClock::new());
    t.mo.push(vec![w, w]);
    let found = index_divergences(&t);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].starts_with("mo_of(") && found[1].contains("is write 1"));
}
