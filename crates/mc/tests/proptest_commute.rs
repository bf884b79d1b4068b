//! The commutation property behind the sleep-set dependence relation
//! ([`Op::dependent`]): two ops of different threads that the relation
//! calls independent must commute on [`MemState`].
//!
//! After a random prefix, applying `a; b` and `b; a` must give the same
//! reads-from candidates for `a` and for `b`, the same candidate window
//! for every later (thread, location, ordering) read, and the same
//! [`relations::rf_signature`]. Events are compared by schedule-independent
//! names (thread, per-thread seq), since the two orders allocate event ids
//! differently. See ARCHITECTURE.md, "Exploration identity".

use cdsspec_mc::c11::{relations, EventId, LocId, Tid, Trace};
use cdsspec_mc::memstate::MemState;
use cdsspec_mc::msg::{Op, RmwKind};
use cdsspec_mc::MemOrd::{self, *};
use proptest::prelude::*;

const THREADS: u32 = 3;
const LOAD_ORDS: [MemOrd; 3] = [Relaxed, Acquire, SeqCst];

/// An event named independently of the schedule: (thread, per-thread seq).
type Name = (u32, u32);

fn name(trace: &Trace, id: EventId) -> Name {
    (trace.tid(id).0, trace.seq(id))
}

/// One op of one thread; `pick` selects its reads-from candidate.
#[derive(Clone, Debug)]
struct Act {
    tid: u32,
    op: Op,
    pick: usize,
}

fn any_ord() -> impl Strategy<Value = MemOrd> {
    prop_oneof![
        Just(Relaxed),
        Just(Acquire),
        Just(Release),
        Just(AcqRel),
        Just(SeqCst)
    ]
}

fn read_ord() -> impl Strategy<Value = MemOrd> {
    prop_oneof![Just(Relaxed), Just(Acquire), Just(SeqCst)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..2u32, read_ord()).prop_map(|(l, ord)| Op::Load { loc: LocId(l), ord }),
        (
            0..2u32,
            prop_oneof![Just(Relaxed), Just(Release), Just(SeqCst)],
            1..4u64
        )
            .prop_map(|(l, ord, val)| Op::Store {
                loc: LocId(l),
                ord,
                val
            }),
        (0..2u32, any_ord(), 1..3u64).prop_map(|(l, ord, v)| Op::Rmw {
            loc: LocId(l),
            ord,
            kind: RmwKind::FetchAdd(v),
        }),
        (0..2u32, any_ord(), read_ord(), 0..4u64, any::<bool>()).prop_map(
            |(l, ord, fail_ord, expected, weak)| Op::Rmw {
                loc: LocId(l),
                ord,
                kind: RmwKind::Cas {
                    expected,
                    new: expected + 1,
                    fail_ord,
                    weak,
                },
            }
        ),
        prop_oneof![Just(Acquire), Just(Release), Just(AcqRel), Just(SeqCst)]
            .prop_map(|ord| Op::Fence { ord }),
    ]
}

fn act_strategy() -> impl Strategy<Value = Act> {
    (0..THREADS, op_strategy(), 0..8usize).prop_map(|(tid, op, pick)| Act { tid, op, pick })
}

/// Main thread plus two children; location 0 initialized, location 1 not
/// (so the uninitialized pseudo-store is in play).
fn setup() -> MemState {
    let mut m = MemState::new();
    m.alloc_atomic(Tid(0), Some(0));
    m.alloc_atomic(Tid(0), None);
    for _ in 1..THREADS {
        m.spawn_thread(Tid(0));
    }
    m
}

/// Reads-from candidates of a read of `loc`, by name.
fn window(m: &MemState, tid: Tid, loc: LocId, ord: MemOrd) -> Vec<Option<Name>> {
    m.load_candidates(tid, loc, ord)
        .into_iter()
        .map(|c| c.map(|w| name(&m.trace, w)))
        .collect()
}

/// Apply `act`, reading from candidate `pick % len`. Returns the op's
/// candidates by name as `(rf, success)`; empty for stores and fences.
fn apply(m: &mut MemState, act: &Act) -> Vec<(Option<Name>, bool)> {
    let tid = Tid(act.tid);
    match act.op {
        Op::Load { loc, ord } => {
            let cands = m.load_candidates(tid, loc, ord);
            let named = cands
                .iter()
                .map(|c| (c.map(|w| name(&m.trace, w)), false))
                .collect();
            m.apply_load(tid, loc, ord, cands[act.pick % cands.len()]);
            named
        }
        Op::Store { loc, ord, val } => {
            m.apply_store(tid, loc, ord, val);
            Vec::new()
        }
        Op::Rmw { loc, ord, kind } => {
            let cands = m.rmw_candidates(tid, loc, ord, kind);
            let named = cands
                .iter()
                .map(|c| (c.rf.map(|w| name(&m.trace, w)), c.success))
                .collect();
            m.apply_rmw(tid, loc, ord, kind, cands[act.pick % cands.len()]);
            named
        }
        Op::Fence { ord } => {
            m.apply_fence(tid, ord);
            Vec::new()
        }
        Op::Join { .. } | Op::Spin | Op::Yield => unreachable!("not generated"),
    }
}

/// What a continuation can observe after `prefix` and the two ops: the
/// candidates `a` and `b` saw, every later read window, and the rf
/// signature.
#[derive(Debug, PartialEq)]
struct Observed {
    cands: [Vec<(Option<Name>, bool)>; 2],
    windows: Vec<Vec<Option<Name>>>,
    signature: u64,
}

fn observe(prefix: &[Act], a: &Act, b: &Act, a_first: bool) -> Observed {
    let mut m = setup();
    for act in prefix {
        apply(&mut m, act);
    }
    let cands = if a_first {
        let ca = apply(&mut m, a);
        [ca, apply(&mut m, b)]
    } else {
        let cb = apply(&mut m, b);
        [apply(&mut m, a), cb]
    };
    let mut windows = Vec::new();
    for t in 0..THREADS {
        for l in 0..2 {
            for ord in LOAD_ORDS {
                windows.push(window(&m, Tid(t), LocId(l), ord));
            }
        }
    }
    Observed {
        cands,
        windows,
        signature: relations::rf_signature(&m.trace),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// Independent ops of different threads commute: same candidates,
    /// same later read windows, same rf signature.
    #[test]
    fn independent_ops_commute(
        prefix in prop::collection::vec(act_strategy(), 0..12),
        a in act_strategy(),
        b in act_strategy(),
    ) {
        if a.tid != b.tid && !a.op.dependent(&b.op) {
            prop_assert_eq!(
                observe(&prefix, &a, &b, true),
                observe(&prefix, &a, &b, false),
                "a={:?} and b={:?} do not commute after {:?}",
                a,
                b,
                prefix
            );
        }
    }
}
