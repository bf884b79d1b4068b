//! Property tests for the clock lattice: `VecClock` and `CoherenceMap`
//! joins must form a join-semilattice (associative, commutative,
//! idempotent, monotone), and `Clock::read_floor` must be monotone under
//! join — the properties the coherence machinery silently relies on.

use cdsspec_c11::clock::CoherenceMap;
use cdsspec_c11::{Clock, LocId, Tid, VecClock};
use proptest::prelude::*;

fn vecclock_strategy() -> impl Strategy<Value = VecClock> {
    prop::collection::vec(0u32..20, 0..6).prop_map(|counts| {
        let mut c = VecClock::new();
        for (i, v) in counts.into_iter().enumerate() {
            c.set(Tid(i as u32), v);
        }
        c
    })
}

fn cohmap_strategy() -> impl Strategy<Value = CoherenceMap> {
    prop::collection::vec(prop::option::of(0u32..10), 0..5).prop_map(|bounds| {
        let mut m = CoherenceMap::new();
        for (i, b) in bounds.into_iter().enumerate() {
            if let Some(b) = b {
                m.raise(LocId(i as u32), b);
            }
        }
        m
    })
}

fn joined(a: &VecClock, b: &VecClock) -> VecClock {
    let mut x = a.clone();
    x.join(b);
    x
}

fn mjoined(a: &CoherenceMap, b: &CoherenceMap) -> CoherenceMap {
    let mut x = a.clone();
    x.join(b);
    x
}

proptest! {
    #[test]
    fn vecclock_join_commutative(a in vecclock_strategy(), b in vecclock_strategy()) {
        let ab = joined(&a, &b);
        let ba = joined(&b, &a);
        // Compare observationally (vectors may differ in trailing zeros).
        for i in 0..8u32 {
            prop_assert_eq!(ab.get(Tid(i)), ba.get(Tid(i)));
        }
    }

    #[test]
    fn vecclock_join_associative(
        a in vecclock_strategy(),
        b in vecclock_strategy(),
        c in vecclock_strategy()
    ) {
        let left = joined(&joined(&a, &b), &c);
        let right = joined(&a, &joined(&b, &c));
        for i in 0..8u32 {
            prop_assert_eq!(left.get(Tid(i)), right.get(Tid(i)));
        }
    }

    #[test]
    fn vecclock_join_idempotent_and_upper_bound(a in vecclock_strategy(), b in vecclock_strategy()) {
        let aa = joined(&a, &a);
        for i in 0..8u32 {
            prop_assert_eq!(aa.get(Tid(i)), a.get(Tid(i)));
        }
        let ab = joined(&a, &b);
        prop_assert!(ab.includes(&a));
        prop_assert!(ab.includes(&b));
    }

    #[test]
    fn vecclock_includes_is_a_partial_order(
        a in vecclock_strategy(),
        b in vecclock_strategy(),
        c in vecclock_strategy()
    ) {
        prop_assert!(a.includes(&a));
        if a.includes(&b) && b.includes(&c) {
            prop_assert!(a.includes(&c), "transitivity");
        }
        if a.includes(&b) && b.includes(&a) {
            for i in 0..8u32 {
                prop_assert_eq!(a.get(Tid(i)), b.get(Tid(i)), "antisymmetry");
            }
        }
    }

    #[test]
    fn cohmap_join_laws(a in cohmap_strategy(), b in cohmap_strategy()) {
        let ab = mjoined(&a, &b);
        let ba = mjoined(&b, &a);
        for i in 0..6u32 {
            prop_assert_eq!(ab.get(LocId(i)), ba.get(LocId(i)), "commutative");
            // join is an upper bound
            let lo = a.get(LocId(i)).max(b.get(LocId(i)));
            prop_assert_eq!(ab.get(LocId(i)), lo, "pointwise max");
        }
    }

    #[test]
    fn read_floor_monotone_under_join(
        w1 in cohmap_strategy(),
        r1 in cohmap_strategy(),
        w2 in cohmap_strategy(),
        r2 in cohmap_strategy()
    ) {
        let a = Clock { vc: VecClock::new(), wmax: w1, rmax: r1 };
        let b = Clock { vc: VecClock::new(), wmax: w2, rmax: r2 };
        let mut ab = a.clone();
        ab.join(&b);
        for i in 0..6u32 {
            let loc = LocId(i);
            // The joined floor can never be lower than either input's.
            let fa = a.read_floor(loc).unwrap_or(0);
            let fb = b.read_floor(loc).unwrap_or(0);
            if a.read_floor(loc).is_some() || b.read_floor(loc).is_some() {
                let fab = ab.read_floor(loc).expect("join keeps constraints");
                prop_assert!(fab >= fa.max(fb));
            } else {
                prop_assert!(ab.read_floor(loc).is_none());
            }
        }
    }

    /// `raise` never lowers a bound.
    #[test]
    fn cohmap_raise_monotone(m in cohmap_strategy(), loc in 0u32..6, v in 0u32..10) {
        let before = m.get(LocId(loc));
        let mut m2 = m.clone();
        m2.raise(LocId(loc), v);
        let after = m2.get(LocId(loc)).expect("raised");
        prop_assert!(after >= v);
        if let Some(b) = before {
            prop_assert!(after >= b);
        }
    }
}

// ---------------------------------------------------------------------
// COW vs. naive reference: random operation sequences.
//
// The copy-on-write `VecClock`/`CoherenceMap` must be observationally
// identical to the eager implementations in `naive` below under *every*
// interleaving of mutations — including the aliasing the COW
// representation introduces (clones that share buffers, later diverging
// on write). Each case drives both
// implementations, plus a shared-ancestor clone of the COW value, through
// the same operation sequence and compares all observations after every
// step.
// ---------------------------------------------------------------------

/// The pre-copy-on-write reference implementation: plain `Vec`-backed
/// tables with the textbook pointwise loops and no sharing, no fast
/// paths, no observational no-ops.
///
/// The oracle for the suites below, which drive random operation
/// sequences through both implementations and require observationally
/// identical answers.
mod naive {
    use cdsspec_c11::{LocId, Tid};

    /// An absent bound, as the COW table encodes it.
    const NO_BOUND: i64 = i64::MIN;

    /// Reference [`cdsspec_c11::VecClock`]: an owned, eagerly-resized `Vec`.
    #[derive(Clone, Debug, Default)]
    pub struct VecClock {
        /// Owned counts, one per thread index.
        pub counts: Vec<u32>,
    }

    impl VecClock {
        /// See [`cdsspec_c11::VecClock::get`].
        pub fn get(&self, tid: Tid) -> u32 {
            self.counts.get(tid.idx()).copied().unwrap_or(0)
        }

        /// See [`cdsspec_c11::VecClock::set`].
        pub fn set(&mut self, tid: Tid, count: u32) {
            if self.counts.len() <= tid.idx() {
                self.counts.resize(tid.idx() + 1, 0);
            }
            self.counts[tid.idx()] = count;
        }

        /// See [`cdsspec_c11::VecClock::raise`].
        pub fn raise(&mut self, tid: Tid, seq: u32) {
            if self.counts.len() <= tid.idx() {
                self.counts.resize(tid.idx() + 1, 0);
            }
            let slot = &mut self.counts[tid.idx()];
            *slot = (*slot).max(seq);
        }

        /// See [`cdsspec_c11::VecClock::join`].
        pub fn join(&mut self, other: &VecClock) {
            if self.counts.len() < other.counts.len() {
                self.counts.resize(other.counts.len(), 0);
            }
            for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
                *mine = (*mine).max(*theirs);
            }
        }

        /// See [`cdsspec_c11::VecClock::includes`].
        pub fn includes(&self, other: &VecClock) -> bool {
            (0..other.counts.len())
                .all(|i| other.counts[i] <= self.counts.get(i).copied().unwrap_or(0))
        }

        /// See [`cdsspec_c11::VecClock::knows`].
        pub fn knows(&self, tid: Tid, seq: u32) -> bool {
            self.get(tid) >= seq
        }
    }

    /// Reference [`cdsspec_c11::clock::CoherenceMap`]: an owned, eagerly-resized `Vec`.
    #[derive(Clone, Debug, Default)]
    pub struct CoherenceMap {
        /// Owned bounds, `NO_BOUND` = unconstrained.
        pub bounds: Vec<i64>,
    }

    impl CoherenceMap {
        /// See [`cdsspec_c11::clock::CoherenceMap::get`].
        pub fn get(&self, loc: LocId) -> Option<u32> {
            match self.bounds.get(loc.idx()).copied().unwrap_or(NO_BOUND) {
                NO_BOUND => None,
                b => Some(b as u32),
            }
        }

        /// See [`cdsspec_c11::clock::CoherenceMap::raise`].
        pub fn raise(&mut self, loc: LocId, idx: u32) {
            if self.bounds.len() <= loc.idx() {
                self.bounds.resize(loc.idx() + 1, NO_BOUND);
            }
            let slot = &mut self.bounds[loc.idx()];
            *slot = (*slot).max(idx as i64);
        }

        /// See [`cdsspec_c11::clock::CoherenceMap::join`].
        pub fn join(&mut self, other: &CoherenceMap) {
            if self.bounds.len() < other.bounds.len() {
                self.bounds.resize(other.bounds.len(), NO_BOUND);
            }
            for (mine, theirs) in self.bounds.iter_mut().zip(&other.bounds) {
                *mine = (*mine).max(*theirs);
            }
        }
    }
}

/// One mutation of a vector-clock pair (applied to COW and naive alike).
#[derive(Clone, Debug)]
enum VcOp {
    Set {
        tid: u32,
        count: u32,
    },
    Raise {
        tid: u32,
        seq: u32,
    },
    /// Join with a clock built from these counts.
    Join {
        counts: Vec<u32>,
    },
    /// Clone the COW value (sharing its buffers), then keep mutating the
    /// original — exercises make-mut unsharing.
    CloneAndContinue,
}

fn vc_op_strategy() -> impl Strategy<Value = VcOp> {
    prop_oneof![
        (0u32..6, 0u32..20).prop_map(|(tid, count)| VcOp::Set { tid, count }),
        (0u32..6, 0u32..20).prop_map(|(tid, seq)| VcOp::Raise { tid, seq }),
        prop::collection::vec(0u32..20, 0..6).prop_map(|counts| VcOp::Join { counts }),
        Just(VcOp::CloneAndContinue),
    ]
}

/// One mutation of a coherence-map pair.
#[derive(Clone, Debug)]
enum CmOp {
    Raise { loc: u32, idx: u32 },
    Join { bounds: Vec<Option<u32>> },
    CloneAndContinue,
}

fn cm_op_strategy() -> impl Strategy<Value = CmOp> {
    prop_oneof![
        (0u32..6, 0u32..10).prop_map(|(loc, idx)| CmOp::Raise { loc, idx }),
        prop::collection::vec(prop::option::of(0u32..10), 0..5)
            .prop_map(|bounds| CmOp::Join { bounds }),
        Just(CmOp::CloneAndContinue),
    ]
}

fn naive_vc(counts: &[u32]) -> naive::VecClock {
    let mut c = naive::VecClock::default();
    for (i, &v) in counts.iter().enumerate() {
        c.set(Tid(i as u32), v);
    }
    c
}

fn cow_vc(counts: &[u32]) -> VecClock {
    let mut c = VecClock::new();
    for (i, &v) in counts.iter().enumerate() {
        c.set(Tid(i as u32), v);
    }
    c
}

proptest! {
    /// COW `VecClock` vs. the naive reference over random op sequences:
    /// `get`, `includes`, and `knows` must agree after every mutation, and
    /// clones sharing buffers mid-sequence must not be disturbed by later
    /// writes to the original.
    #[test]
    fn cow_vecclock_matches_naive_on_op_sequences(
        ops in prop::collection::vec(vc_op_strategy(), 0..24)
    ) {
        let mut cow = VecClock::new();
        let mut reference = naive::VecClock::default();
        // (frozen COW clone, naive snapshot at freeze time)
        let mut frozen: Vec<(VecClock, naive::VecClock)> = Vec::new();

        for op in &ops {
            match op {
                VcOp::Set { tid, count } => {
                    cow.set(Tid(*tid), *count);
                    reference.set(Tid(*tid), *count);
                }
                VcOp::Raise { tid, seq } => {
                    cow.raise(Tid(*tid), *seq);
                    reference.raise(Tid(*tid), *seq);
                }
                VcOp::Join { counts } => {
                    cow.join(&cow_vc(counts));
                    reference.join(&naive_vc(counts));
                }
                VcOp::CloneAndContinue => {
                    frozen.push((cow.clone(), reference.clone()));
                }
            }
            for i in 0..8u32 {
                prop_assert_eq!(cow.get(Tid(i)), reference.get(Tid(i)));
                prop_assert_eq!(
                    cow.knows(Tid(i), 3),
                    reference.knows(Tid(i), 3)
                );
            }
            prop_assert_eq!(
                cow.includes(&cow_vc(&[2, 2, 2])),
                reference.includes(&naive_vc(&[2, 2, 2]))
            );
        }
        // Writes to the original must never leak into earlier clones.
        for (cow_snap, ref_snap) in &frozen {
            for i in 0..8u32 {
                prop_assert_eq!(cow_snap.get(Tid(i)), ref_snap.get(Tid(i)));
            }
        }
    }

    /// COW `CoherenceMap` vs. the naive reference over random op
    /// sequences, with the same shared-clone discipline.
    #[test]
    fn cow_cohmap_matches_naive_on_op_sequences(
        ops in prop::collection::vec(cm_op_strategy(), 0..24)
    ) {
        let mut cow = CoherenceMap::new();
        let mut reference = naive::CoherenceMap::default();
        let mut frozen: Vec<(CoherenceMap, naive::CoherenceMap)> = Vec::new();

        for op in &ops {
            match op {
                CmOp::Raise { loc, idx } => {
                    cow.raise(LocId(*loc), *idx);
                    reference.raise(LocId(*loc), *idx);
                }
                CmOp::Join { bounds } => {
                    let mut cj = CoherenceMap::new();
                    let mut nj = naive::CoherenceMap::default();
                    for (i, b) in bounds.iter().enumerate() {
                        if let Some(b) = b {
                            cj.raise(LocId(i as u32), *b);
                            nj.raise(LocId(i as u32), *b);
                        }
                    }
                    cow.join(&cj);
                    reference.join(&nj);
                }
                CmOp::CloneAndContinue => {
                    frozen.push((cow.clone(), reference.clone()));
                }
            }
            for i in 0..7u32 {
                prop_assert_eq!(cow.get(LocId(i)), reference.get(LocId(i)));
            }
        }
        for (cow_snap, ref_snap) in &frozen {
            for i in 0..7u32 {
                prop_assert_eq!(cow_snap.get(LocId(i)), ref_snap.get(LocId(i)));
            }
        }
    }

    /// `Clock::read_floor` must agree with recomputing the floor from the
    /// naive tables (pointwise max of the write and read coherence maps).
    #[test]
    fn read_floor_matches_naive_tables(
        w_ops in prop::collection::vec((0u32..6, 0u32..10), 0..12),
        r_ops in prop::collection::vec((0u32..6, 0u32..10), 0..12)
    ) {
        let mut clock = Clock::new();
        let mut w_ref = naive::CoherenceMap::default();
        let mut r_ref = naive::CoherenceMap::default();
        for &(loc, idx) in &w_ops {
            clock.wmax.raise(LocId(loc), idx);
            w_ref.raise(LocId(loc), idx);
        }
        for &(loc, idx) in &r_ops {
            clock.rmax.raise(LocId(loc), idx);
            r_ref.raise(LocId(loc), idx);
        }
        for i in 0..7u32 {
            let loc = LocId(i);
            let expect = match (w_ref.get(loc), r_ref.get(loc)) {
                (None, None) => None,
                (w, r) => Some(w.unwrap_or(0).max(r.unwrap_or(0))),
            };
            prop_assert_eq!(clock.read_floor(loc), expect);
        }
    }
}
