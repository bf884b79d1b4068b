//! Vector clocks extended with per-location coherence indices.
//!
//! The model checker derives modification order (`mo`) from per-location
//! store execution order. Under that choice the C/C++11 coherence axioms
//! reduce to *lower bounds on the mo index a load may read from*:
//!
//! * **CoWR** ("no hidden store"): a load `R` may not read store `W` if some
//!   store `W'` to the same location with `mo(W) < mo(W')` happens-before
//!   `R`. We track, per location, the maximal mo index of a store that
//!   happens-before the current point: [`Clock::wmax`].
//! * **CoRR** (read coherence): a load `R` may not read `W` if a load `R'`
//!   with `R' hb R` read a store `W'` with `mo(W) < mo(W')`. We track the
//!   maximal mo index *read* so far: [`Clock::rmax`].
//!
//! Both tables are joined pointwise whenever clocks join (program order,
//! synchronizes-with, thread create/join), so the bounds flow along exactly
//! the happens-before edges.
//!
//! # Inline-first, copy-on-write-spill representation
//!
//! Clocks are the allocation hot spot of the checker: every event snapshots
//! its thread's clock, every acquire joins a store's release payload, and a
//! figure-7 exploration takes millions of both. A pure `Arc<Vec<_>>`
//! copy-on-write table keeps *clones* free but makes the write after a
//! snapshot expensive: the thread clock advances at every event, so each
//! event snapshot forces one deep buffer copy — roughly one heap
//! allocation per event. Unit-test workloads never exceed a handful of
//! threads and locations, so both [`VecClock`] and [`CoherenceMap`] store
//! their table inline first and spill to the shared heap form only past
//! `INLINE` entries:
//!
//! * tables with at most `INLINE` entries live in a fixed array inside the
//!   struct: `clone()` is a memcpy, mutation writes in place, and no heap
//!   allocation ever happens — this is the only form the figure-7
//!   workloads reach;
//! * larger tables spill to `Arc<Vec<_>>`: `clone()` is a refcount bump,
//!   mutation goes through [`std::sync::Arc::make_mut`] (copying only
//!   while shared), and `join` short-circuits to a no-op or a pointer
//!   copy when one side already covers the other;
//! * a spilled table never shrinks back to inline — oscillating at the
//!   boundary must not thrash.
//!
//! **Invariants.** The representation is observational: a trailing run of
//! default entries (`0` counts, absent bounds) is indistinguishable from a
//! shorter buffer, and `PartialEq` is defined accordingly. No operation may
//! branch on buffer length, capacity, or inline-vs-heap form, and no caller
//! can observe whether a fast path or the slow pointwise walk produced a
//! result — the `proptest_clocks` suite checks exactly this against a
//! plain `Vec`-backed reference implementation.

use std::sync::Arc;

use crate::event::Tid;
use crate::loc::LocId;

/// `b ⊑ a` on raw slices, absent entries reading as `default`.
fn dominates<T: Copy + Ord>(a: &[T], b: &[T], default: T) -> bool {
    b.iter()
        .enumerate()
        .all(|(i, &x)| x <= a.get(i).copied().unwrap_or(default))
}

/// Observational equality on raw slices, absent entries reading as
/// `default` (so `[3]` equals `[3, 0, 0]` for clocks).
fn slices_eq<T: Copy + PartialEq>(a: &[T], b: &[T], default: T) -> bool {
    let n = a.len().max(b.len());
    (0..n).all(|i| a.get(i).copied().unwrap_or(default) == b.get(i).copied().unwrap_or(default))
}

/// Inline capacity of the small-buffer representation (see the module
/// docs): tables indexed past this spill to the shared heap form.
const INLINE: usize = 8;

/// The shared table storage behind [`VecClock`] and [`CoherenceMap`]:
/// inline array first, copy-on-write `Arc<Vec<_>>` on spill.
#[derive(Clone, Debug)]
enum Buf<T> {
    /// `buf[..len]` held by value — clones are memcpys, writes in place.
    Inline {
        /// Entries in use (`<= INLINE`).
        len: u8,
        /// Fixed storage; entries past `len` hold the default.
        buf: [T; INLINE],
    },
    /// Spilled table: shared buffer, copied on write while shared.
    Heap(Arc<Vec<T>>),
}

impl<T: Copy + Ord> Buf<T> {
    fn empty(default: T) -> Self {
        Buf::Inline {
            len: 0,
            buf: [default; INLINE],
        }
    }

    #[inline]
    fn slice(&self) -> &[T] {
        match self {
            Buf::Inline { len, buf } => &buf[..*len as usize],
            Buf::Heap(v) => v,
        }
    }

    /// Store `val` at `idx`, extending with `default`. Callers are
    /// responsible for the observational no-op checks (`set` to the same
    /// value, `raise` to a not-higher bound) *before* calling in.
    fn write(&mut self, idx: usize, val: T, default: T) {
        match self {
            Buf::Inline { len, buf } if idx < INLINE => {
                let l = *len as usize;
                if idx >= l {
                    buf[l..idx].fill(default);
                    *len = (idx + 1) as u8;
                }
                buf[idx] = val;
            }
            Buf::Inline { len, buf } => {
                let mut v: Vec<T> = Vec::with_capacity(idx + 1);
                v.extend_from_slice(&buf[..*len as usize]);
                v.resize(idx + 1, default);
                v[idx] = val;
                *self = Buf::Heap(Arc::new(v));
            }
            Buf::Heap(arc) => {
                let v = Arc::make_mut(arc);
                if v.len() <= idx {
                    v.resize(idx + 1, default);
                }
                v[idx] = val;
            }
        }
    }

    /// Pointwise maximum with `other`. In the inline form this is a plain
    /// 8-wide max loop; in the heap form the copy-on-write fast paths
    /// (identical buffer, either side dominating) avoid the deep copy.
    fn join(&mut self, other: &Buf<T>, default: T) {
        let theirs = other.slice();
        if theirs.is_empty() {
            return;
        }
        match self {
            Buf::Inline { len, buf } if theirs.len() <= INLINE => {
                let l = *len as usize;
                for (i, &t) in theirs.iter().enumerate() {
                    let m = if i < l { buf[i] } else { default };
                    buf[i] = if m >= t { m } else { t };
                }
                *len = (*len).max(theirs.len() as u8);
            }
            Buf::Inline { len, buf } => {
                let mut v: Vec<T> = Vec::with_capacity(theirs.len());
                v.extend_from_slice(theirs);
                for (slot, &m) in v.iter_mut().zip(&buf[..*len as usize]) {
                    if m > *slot {
                        *slot = m;
                    }
                }
                *self = Buf::Heap(Arc::new(v));
            }
            Buf::Heap(mine) => {
                if let Buf::Heap(b) = other {
                    if Arc::ptr_eq(mine, b) {
                        return;
                    }
                }
                if dominates(mine, theirs, default) {
                    return;
                }
                if let (true, Buf::Heap(b)) = (dominates(theirs, mine, default), other) {
                    *mine = Arc::clone(b);
                    return;
                }
                let v = Arc::make_mut(mine);
                if v.len() < theirs.len() {
                    v.resize(theirs.len(), default);
                }
                for (m, &t) in v.iter_mut().zip(theirs) {
                    if t > *m {
                        *m = t;
                    }
                }
            }
        }
    }

    /// `other ⊑ self` pointwise.
    fn includes(&self, other: &Buf<T>, default: T) -> bool {
        if let (Buf::Heap(a), Buf::Heap(b)) = (self, other) {
            if Arc::ptr_eq(a, b) {
                return true;
            }
        }
        dominates(self.slice(), other.slice(), default)
    }
}

/// A plain vector clock: `vc[t]` = number of events of thread `t` known to
/// happen-before (or equal) the current point.
///
/// Inline-first: see the module docs. Cloning is a memcpy (inline) or an
/// `Arc` bump (spilled); mutation never allocates while inline.
#[derive(Clone, Debug)]
pub struct VecClock {
    /// Counts table, absent entries implicit.
    counts: Buf<u32>,
}

impl Default for VecClock {
    fn default() -> Self {
        VecClock {
            counts: Buf::empty(0),
        }
    }
}

impl VecClock {
    /// The empty clock (knows nothing). Does not allocate.
    pub fn new() -> Self {
        VecClock::default()
    }

    /// The raw counts, absent entries implicit.
    #[inline]
    fn slice(&self) -> &[u32] {
        self.counts.slice()
    }

    /// Number of events of `tid` known at this clock.
    #[inline]
    pub fn get(&self, tid: Tid) -> u32 {
        self.slice().get(tid.idx()).copied().unwrap_or(0)
    }

    /// Record that `tid` has performed `count` events. A `set` to the
    /// value already held is a no-op (and keeps a spilled buffer shared).
    pub fn set(&mut self, tid: Tid, count: u32) {
        if self.get(tid) == count {
            return;
        }
        self.counts.write(tid.idx(), count, 0);
    }

    /// Raise `tid`'s count to at least `seq`. A raise at or below the
    /// current count is a no-op (and keeps a spilled buffer shared). This
    /// is the stamping primitive for release payloads and thread-lifecycle
    /// clocks, where the thread's own (implicit) component must be made
    /// explicit before the clock is handed to another thread.
    pub fn raise(&mut self, tid: Tid, seq: u32) {
        if self.get(tid) >= seq {
            return;
        }
        self.counts.write(tid.idx(), seq, 0);
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VecClock) {
        self.counts.join(&other.counts, 0);
    }

    /// Does this clock dominate `other` pointwise (`other ⊑ self`)?
    pub fn includes(&self, other: &VecClock) -> bool {
        self.counts.includes(&other.counts, 0)
    }

    /// Does this clock know about event number `seq` (1-based) of `tid`?
    #[inline]
    pub fn knows(&self, tid: Tid, seq: u32) -> bool {
        self.get(tid) >= seq
    }
}

impl PartialEq for VecClock {
    fn eq(&self, other: &Self) -> bool {
        slices_eq(self.slice(), other.slice(), 0)
    }
}
impl Eq for VecClock {}

/// A per-location table of mo-index lower bounds. Index `loc.idx()`;
/// `None` is encoded as `i64::MIN` so joins are a plain `max`.
///
/// Inline-first: see the module docs. Cloning is a memcpy (inline) or an
/// `Arc` bump (spilled); mutation never allocates while inline.
#[derive(Clone, Debug)]
pub struct CoherenceMap {
    /// Bounds table, absent entries implicit (`NO_BOUND`).
    bounds: Buf<i64>,
}

const NO_BOUND: i64 = i64::MIN;

impl Default for CoherenceMap {
    fn default() -> Self {
        CoherenceMap {
            bounds: Buf::empty(NO_BOUND),
        }
    }
}

impl CoherenceMap {
    /// Empty table: no location constrained. Does not allocate.
    pub fn new() -> Self {
        CoherenceMap::default()
    }

    /// The raw bounds, absent entries implicit.
    #[inline]
    fn slice(&self) -> &[i64] {
        self.bounds.slice()
    }

    /// Current bound for `loc`, or `None` if unconstrained.
    #[inline]
    pub fn get(&self, loc: LocId) -> Option<u32> {
        match self.slice().get(loc.idx()).copied().unwrap_or(NO_BOUND) {
            NO_BOUND => None,
            b => Some(b as u32),
        }
    }

    /// Raise the bound for `loc` to at least `idx`. A raise at or below
    /// the current bound is a no-op (and keeps a spilled buffer shared).
    pub fn raise(&mut self, loc: LocId, idx: u32) {
        let current = self.slice().get(loc.idx()).copied().unwrap_or(NO_BOUND);
        if current >= idx as i64 {
            return;
        }
        self.bounds.write(loc.idx(), idx as i64, NO_BOUND);
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &CoherenceMap) {
        self.bounds.join(&other.bounds, NO_BOUND);
    }

    /// Does this table bound at least as tightly as `other` everywhere?
    pub fn includes(&self, other: &CoherenceMap) -> bool {
        self.bounds.includes(&other.bounds, NO_BOUND)
    }
}

impl PartialEq for CoherenceMap {
    fn eq(&self, other: &Self) -> bool {
        slices_eq(self.slice(), other.slice(), NO_BOUND)
    }
}
impl Eq for CoherenceMap {}

/// The full clock carried by threads and attached to synchronizing stores:
/// a vector clock plus the two coherence tables described in the module
/// docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Clock {
    /// Happens-before knowledge.
    pub vc: VecClock,
    /// Per-location max mo index of stores that happen-before here (CoWR).
    pub wmax: CoherenceMap,
    /// Per-location max mo index read by loads that happen-before here
    /// (CoRR).
    pub rmax: CoherenceMap,
}

impl Clock {
    /// The empty clock. Does not allocate.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Join every component pointwise. Each component short-circuits
    /// independently (an acquire that learns nothing new touches no
    /// memory).
    pub fn join(&mut self, other: &Clock) {
        self.vc.join(&other.vc);
        self.wmax.join(&other.wmax);
        self.rmax.join(&other.rmax);
    }

    /// Does this clock dominate `other` in every component? When true,
    /// `self.join(other)` is a guaranteed no-op.
    pub fn includes(&self, other: &Clock) -> bool {
        self.vc.includes(&other.vc)
            && self.wmax.includes(&other.wmax)
            && self.rmax.includes(&other.rmax)
    }

    /// The least mo index a load of `loc` holding this clock may read from
    /// (`max(wmax, rmax)`), or `None` if unconstrained.
    pub fn read_floor(&self, loc: LocId) -> Option<u32> {
        match (self.wmax.get(loc), self.rmax.get(loc)) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0).max(b.unwrap_or(0))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> Tid {
        Tid(i)
    }

    #[test]
    fn vecclock_join_is_pointwise_max() {
        let mut a = VecClock::new();
        a.set(t(0), 3);
        a.set(t(2), 1);
        let mut b = VecClock::new();
        b.set(t(0), 1);
        b.set(t(1), 5);
        a.join(&b);
        assert_eq!(a.get(t(0)), 3);
        assert_eq!(a.get(t(1)), 5);
        assert_eq!(a.get(t(2)), 1);
        assert_eq!(a.get(t(9)), 0);
    }

    #[test]
    fn vecclock_includes_and_knows() {
        let mut a = VecClock::new();
        a.set(t(0), 2);
        let mut b = VecClock::new();
        b.set(t(0), 1);
        assert!(a.includes(&b));
        assert!(!b.includes(&a));
        assert!(a.includes(&a));
        assert!(a.knows(t(0), 2));
        assert!(!a.knows(t(0), 3));
        assert!(!a.knows(t(5), 1));
        // empty clock is included in everything
        assert!(b.includes(&VecClock::new()));
    }

    #[test]
    fn coherence_map_raise_and_join() {
        let l0 = LocId(0);
        let l3 = LocId(3);
        let mut m = CoherenceMap::new();
        assert_eq!(m.get(l0), None);
        m.raise(l3, 2);
        m.raise(l3, 1); // lower raise is a no-op
        assert_eq!(m.get(l3), Some(2));
        assert_eq!(m.get(l0), None);

        let mut n = CoherenceMap::new();
        n.raise(l0, 0);
        n.join(&m);
        assert_eq!(n.get(l0), Some(0));
        assert_eq!(n.get(l3), Some(2));
    }

    #[test]
    fn coherence_index_zero_is_a_real_bound() {
        // Regression guard: mo index 0 must be distinguishable from "no
        // bound" — reading the very first store must still be floor-checked.
        let mut m = CoherenceMap::new();
        m.raise(LocId(1), 0);
        assert_eq!(m.get(LocId(1)), Some(0));
    }

    #[test]
    fn clock_read_floor_combines_tables() {
        let l = LocId(0);
        let mut c = Clock::new();
        assert_eq!(c.read_floor(l), None);
        c.wmax.raise(l, 1);
        assert_eq!(c.read_floor(l), Some(1));
        c.rmax.raise(l, 4);
        assert_eq!(c.read_floor(l), Some(4));
        c.wmax.raise(l, 9);
        assert_eq!(c.read_floor(l), Some(9));
    }

    #[test]
    fn clock_join_joins_all_components() {
        let l = LocId(2);
        let mut a = Clock::new();
        a.vc.set(t(1), 7);
        a.rmax.raise(l, 3);
        let mut b = Clock::new();
        b.wmax.raise(l, 5);
        a.join(&b);
        assert_eq!(a.vc.get(t(1)), 7);
        assert_eq!(a.read_floor(l), Some(5));
    }

    #[test]
    fn clock_includes_guards_the_join_fast_path() {
        let l = LocId(1);
        let mut a = Clock::new();
        a.vc.set(t(0), 5);
        a.wmax.raise(l, 3);
        let mut b = Clock::new();
        b.vc.set(t(0), 2);
        assert!(a.includes(&b));
        assert!(!b.includes(&a));
        // wmax ahead but rmax behind: neither side dominates.
        b.rmax.raise(l, 1);
        assert!(!a.includes(&b));
        let before = a.clone();
        let mut joined = a.clone();
        joined.join(&b);
        assert!(joined.includes(&before));
        assert!(joined.includes(&b));
    }

    #[test]
    fn equality_is_observational() {
        // A clock that grew and a clock that never saw the high tids
        // compare equal once the tail is all defaults.
        let mut grown = VecClock::new();
        grown.set(t(5), 1);
        grown.set(t(5), 0); // back to default — buffer still sized 6
        assert_eq!(grown, VecClock::new());
        let mut m = CoherenceMap::new();
        m.join(&CoherenceMap::new());
        assert_eq!(m, CoherenceMap::new());
    }

    #[test]
    fn shared_buffers_survive_observational_noops() {
        // set-to-same and low raises must not unshare (the whole point of
        // the copy-on-write representation).
        let mut a = VecClock::new();
        a.set(t(0), 4);
        let b = a.clone();
        let mut c = a.clone();
        c.set(t(0), 4); // no-op
        c.join(&b); // identical: no-op
        assert_eq!(a, c);
        let mut m = CoherenceMap::new();
        m.raise(LocId(0), 9);
        let mut n = m.clone();
        n.raise(LocId(0), 3); // below current bound: no-op
        assert_eq!(m, n);
    }
}
