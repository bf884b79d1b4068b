//! The memory-model engine.
//!
//! [`MemState`] owns the evolving execution: per-thread clocks, per-location
//! modification orders, the SC machinery, and the trace being built. The
//! controller calls into it to (a) enumerate the reads-from candidates of a
//! load/RMW — the checker's second kind of choice point — and (b) apply
//! chosen operations, updating clocks per the C/C++11 synchronization
//! rules:
//!
//! * release/acquire via reads-from, with release sequences continued
//!   through RMWs;
//! * release/acquire/SC fences (C++11 29.8 and 29.3 p4–p6);
//! * thread create/join edges;
//! * coherence as per-location mo floors carried in [`Clock`]
//!   (see `cdsspec-c11::clock` for the encoding).
//!
//! Modification order is the per-location commit order of stores, which is
//! why a load's candidate set is always a suffix of the store list plus
//! (when nothing is visible yet) the *uninitialized* pseudo-store.

use cdsspec_c11::clock::CoherenceMap;
use cdsspec_c11::{
    Annotation, Clock, DataId, EventId, EventKind, LocId, MemOrd, SpecNote, Tid, Trace, Val,
};

use crate::msg::RmwKind;
use crate::report::Bug;

/// Per-thread memory-model state.
#[derive(Clone, Debug, Default)]
pub struct ThreadState {
    /// Current happens-before knowledge (incl. coherence floors).
    pub clock: Clock,
    /// Events performed so far (1-based seq of the last event).
    pub seq: u32,
    /// Payload of the latest release fence, if any (C++11 29.8p2: the
    /// fence becomes the sync source for subsequent relaxed stores).
    rel_fence: Option<Payload>,
    /// Accumulated sync payloads of stores read by *relaxed* loads since
    /// thread start; an acquire fence joins this (29.8p3-4).
    acq_pending: Clock,
    /// mo floors snapshotted at the latest SC fence (29.3 p4+p6).
    sc_fence_floor: CoherenceMap,
    /// Per-location mo index of the latest store performed by this thread
    /// (published to `sc_fence_published` at SC fences, 29.3 p5-p6).
    own_stores: CoherenceMap,
    /// Thread ran to completion.
    pub finished: bool,
    /// Clock at finish (join payload, own component lazy).
    finish_clock: Payload,
    /// Visible operations performed (divergence bound).
    pub steps: u32,
    /// Consecutive spin hints (futile-spin bound).
    pub spins: u32,
}

/// Per-data-location race-detection state plus the stored value (the value
/// of a racy read is whatever was last committed — the race itself is
/// reported as a bug, so the value never matters for correctness).
#[derive(Clone, Debug, Default)]
struct DataState {
    value: Val,
    last_write: Option<(Tid, u32)>,
    /// Each thread's latest read since `last_write`, oldest first. A
    /// writer that knows a thread's latest read knows its earlier ones, so
    /// the earlier ones can never be the only race.
    reads_since_write: Vec<(Tid, u32)>,
}

/// Release payload of a store or release fence: the source thread's clock
/// plus the source event's own `(tid, seq)` component, kept *unapplied*.
/// Building a payload is then pure COW Arc bumps — the deep vector copy
/// that eagerly raising the own component would force (the payload clock
/// shares its buffers with the still-mutating thread clock) is deferred
/// to the reader that actually joins the payload, and never happens at
/// all for the many release stores nobody synchronizes with.
#[derive(Clone, Debug, Default)]
struct Payload {
    clock: Clock,
    own: Option<(Tid, u32)>,
}

impl Payload {
    /// Join this payload into a receiver clock. Raising the lazy
    /// component after the join is equivalent to joining the raised
    /// clock: both are component-wise max.
    fn join_into(&self, dst: &mut Clock) {
        dst.join(&self.clock);
        if let Some((t, s)) = self.own {
            dst.vc.raise(t, s);
        }
    }

    /// Fold the lazy component into the clock (needed before this
    /// payload can absorb a *second* own component).
    fn flatten(&mut self) {
        if let Some((t, s)) = self.own.take() {
            self.clock.vc.raise(t, s);
        }
    }
}

/// A reads-from candidate for a load or RMW.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RfChoice {
    /// The store read (`None` = uninitialized pseudo-store).
    pub rf: Option<EventId>,
    /// For RMWs: does the write part happen?
    pub success: bool,
}

/// The evolving execution.
#[derive(Debug, Default)]
pub struct MemState {
    /// The trace being constructed.
    pub trace: Trace,
    /// Modeled threads (index = tid).
    pub threads: Vec<ThreadState>,
    /// Per-atomic-location store lists live in `trace.mo`.
    data: Vec<DataState>,
    /// Release payloads of stores, indexed by event id.
    sync_of: Vec<Option<Payload>>,
    /// Per-location mo index of the latest SC store (29.3 p3-p4).
    sc_last_store: CoherenceMap,
    /// Per-location max mo index published by SC fences (29.3 p5-p6).
    sc_fence_published: CoherenceMap,
    /// Last event of each thread (annotation anchoring).
    last_event: Vec<Option<EventId>>,
    /// Deterministic per-execution object-identity counter.
    obj_counter: u64,
    /// Recycled per-location store lists: [`Self::reset`] parks the inner
    /// `trace.mo` vectors here (cleared, capacity kept) and
    /// [`Self::alloc_atomic`] hands them back out, so location churn stops
    /// allocating once the harness is warm.
    mo_pool: Vec<Vec<EventId>>,
}

impl MemState {
    /// Fresh state with the main thread (Tid 0) registered.
    pub fn new() -> Self {
        let mut s = MemState::default();
        s.threads.push(ThreadState::default());
        s.last_event.push(None);
        s.trace.num_threads = 1;
        s
    }

    /// Rewind to the initial state (main thread registered, nothing else),
    /// recycling `recycle` as the new trace buffer so the event/mo/sc
    /// vectors keep the capacity earlier executions grew. Equivalent to
    /// `*self = MemState::new()` up to observable behavior.
    pub fn reset(&mut self, mut recycle: Trace) {
        self.mo_pool.extend(recycle.mo.drain(..).map(|mut v| {
            v.clear();
            v
        }));
        // Clears every column and incremental index while keeping their
        // capacity (and the `record_sw` setting).
        recycle.clear();
        self.trace = recycle;
        self.threads.clear();
        self.threads.push(ThreadState::default());
        self.data.clear();
        self.sync_of.clear();
        self.sc_last_store = CoherenceMap::new();
        self.sc_fence_published = CoherenceMap::new();
        self.last_event.clear();
        self.last_event.push(None);
        self.obj_counter = 0;
    }

    /// Register a child thread spawned by `parent`; records the
    /// `ThreadCreate` event and seeds the child clock (create ⊆ sw).
    pub fn spawn_thread(&mut self, parent: Tid) -> Tid {
        let child = Tid(self.threads.len() as u32);
        self.push_event(parent, EventKind::ThreadCreate { child });
        let pth = &self.threads[parent.idx()];
        // Thread clocks leave their own component implicit; crossing to
        // another thread makes it explicit (the create event included).
        let mut clock = pth.clock.clone();
        clock.vc.raise(parent, pth.seq);
        let st = ThreadState {
            clock,
            ..ThreadState::default()
        };
        self.threads.push(st);
        self.last_event.push(None);
        self.trace.num_threads += 1;
        child
    }

    /// Allocate a fresh atomic location, optionally with an initializing
    /// store by `tid` (invisible to scheduling: the location cannot be
    /// shared before its constructor returns).
    pub fn alloc_atomic(&mut self, tid: Tid, init: Option<Val>) -> LocId {
        let loc = LocId(self.trace.mo.len() as u32);
        self.trace.mo.push(self.mo_pool.pop().unwrap_or_default());
        if let Some(v) = init {
            self.apply_store(tid, loc, MemOrd::Relaxed, v);
        }
        loc
    }

    /// Allocate a fresh non-atomic location.
    pub fn alloc_data(&mut self) -> DataId {
        let id = DataId(self.data.len() as u32);
        self.data.push(DataState::default());
        id
    }

    fn loc_stores(&self, loc: LocId) -> &[EventId] {
        &self.trace.mo[loc.idx()]
    }

    /// The mo-maximal store to `loc`, if any — the write most recently
    /// committed (mo order is commit order per location).
    pub fn last_store(&self, loc: LocId) -> Option<EventId> {
        self.loc_stores(loc).last().copied()
    }

    fn store_val(&self, id: EventId) -> Val {
        self.trace
            .written_val(id)
            .expect("rf target must be a write")
    }

    /// Commit an event for `tid` through [`Trace::push`] (which maintains
    /// SC membership and every incremental index) and return its id.
    ///
    /// Allocation note: the thread's vector clock does *not* carry the
    /// thread's own component (it is implicit in `seq`), so the per-event
    /// snapshot below is a pure copy-on-write share — the clock buffers
    /// are only copied when a later *join* actually learns something new.
    fn push_event(&mut self, tid: Tid, kind: EventKind) -> EventId {
        let th = &mut self.threads[tid.idx()];
        th.seq += 1;
        th.steps += 1;
        let clock = th.clock.vc.clone();
        let id = self.trace.push(tid, th.seq, kind, clock);
        self.sync_of.push(None);
        self.last_event[tid.idx()] = Some(id);
        id
    }

    /// The mo floor for a read of `loc` by `tid` with ordering `ord`:
    /// coherence floors from the clock, SC-fence floors, and (for SC reads)
    /// the published-fence floor. `None` = unconstrained (uninitialized
    /// reads possible).
    fn read_floor(&self, tid: Tid, loc: LocId, ord: MemOrd) -> Option<u32> {
        let th = &self.threads[tid.idx()];
        let mut floor = th.clock.read_floor(loc);
        let mut bump = |b: Option<u32>| {
            floor = match (floor, b) {
                (None, x) => x,
                (x, None) => x,
                (Some(a), Some(b)) => Some(a.max(b)),
            }
        };
        bump(th.sc_fence_floor.get(loc));
        if ord.is_seq_cst() {
            bump(self.sc_fence_published.get(loc));
        }
        floor
    }

    /// Enumerate the reads-from candidates for a plain load, newest first;
    /// a trailing `None` means the uninitialized pseudo-store is readable.
    ///
    /// Allocating wrapper around [`MemState::load_candidates_into`] —
    /// kept for tests and one-shot callers; the exploration hot path
    /// reuses a buffer instead.
    pub fn load_candidates(&self, tid: Tid, loc: LocId, ord: MemOrd) -> Vec<Option<EventId>> {
        let mut out = Vec::new();
        self.load_candidates_into(tid, loc, ord, &mut out);
        out
    }

    /// Fill `out` with the reads-from candidates for a plain load, newest
    /// first (see [`MemState::load_candidates`]). `out` is cleared first;
    /// its capacity is the point — the scheduler passes the same buffer
    /// for every load of an exploration. Candidates are enumerated over
    /// the per-location window `[read_floor, len)` of the store list:
    /// everything below the floor is coherence-hidden and never scanned.
    pub fn load_candidates_into(
        &self,
        tid: Tid,
        loc: LocId,
        ord: MemOrd,
        out: &mut Vec<Option<EventId>>,
    ) {
        out.clear();
        let stores = self.loc_stores(loc);
        let floor = self.read_floor(tid, loc, ord);
        let lo = floor.map(|f| f as usize).unwrap_or(0);

        // C++11 29.3p3: an SC read must see the last preceding SC store in
        // S (== the mo-max SC store, since S is commit order) or a non-SC
        // store that does not happen-before it.
        let b_idx: Option<u32> = if ord.is_seq_cst() {
            self.sc_last_store.get(loc)
        } else {
            None
        };
        let b_event = b_idx.map(|i| stores[i as usize]);

        for idx in (lo..stores.len()).rev() {
            let w = stores[idx];
            if let (Some(bi), Some(be)) = (b_idx, b_event) {
                if (idx as u32) < bi {
                    if self.trace.is_sc(w) {
                        continue; // older SC store: hidden by B in S
                    }
                    // hidden if it happens-before B
                    if self.trace.happens_before(w, be) {
                        continue;
                    }
                }
            }
            out.push(Some(w));
        }
        if floor.is_none() {
            out.push(None);
        }
    }

    /// Enumerate RMW outcomes. Successful RMWs must read the mo-maximal
    /// store (their write is appended right after it in mo); failing strong
    /// CASes are plain loads of any coherent store whose value differs from
    /// `expected`; weak CASes may additionally fail while reading
    /// `expected`.
    ///
    /// Allocating wrapper around [`MemState::rmw_candidates_into`] —
    /// kept for tests and one-shot callers; the exploration hot path
    /// reuses buffers instead.
    pub fn rmw_candidates(
        &self,
        tid: Tid,
        loc: LocId,
        ord: MemOrd,
        kind: RmwKind,
    ) -> Vec<RfChoice> {
        let mut out = Vec::new();
        self.rmw_candidates_into(tid, loc, ord, kind, &mut out, &mut Vec::new());
        out
    }

    /// Fill `out` with the RMW outcomes (see [`MemState::rmw_candidates`]).
    /// `out` is cleared first; `scratch` backs the failing-CAS candidate
    /// scan. Both keep their capacity across calls — the scheduler passes
    /// the same two buffers for every RMW of an exploration.
    pub fn rmw_candidates_into(
        &self,
        tid: Tid,
        loc: LocId,
        _ord: MemOrd,
        kind: RmwKind,
        out: &mut Vec<RfChoice>,
        scratch: &mut Vec<Option<EventId>>,
    ) {
        out.clear();
        let stores = self.loc_stores(loc);
        if stores.is_empty() {
            // Uninitialized RMW: surfaces as a built-in bug; the update is
            // applied to 0 so the trace stays well-formed until reported.
            out.push(RfChoice {
                rf: None,
                success: !matches!(kind, RmwKind::Cas { .. }),
            });
            return;
        }
        let last = *stores.last().expect("nonempty");
        match kind {
            RmwKind::Cas { weak, .. } => {
                let fail_ord = match kind {
                    RmwKind::Cas { fail_ord, .. } => fail_ord,
                    _ => unreachable!(),
                };
                let last_val = self.store_val(last);
                if kind.apply(last_val).is_some() {
                    out.push(RfChoice {
                        rf: Some(last),
                        success: true,
                    });
                    if weak {
                        out.push(RfChoice {
                            rf: Some(last),
                            success: false,
                        });
                    }
                } else {
                    out.push(RfChoice {
                        rf: Some(last),
                        success: false,
                    });
                }
                // Stale reads use the *failure* ordering.
                self.load_candidates_into(tid, loc, fail_ord, scratch);
                for &cand in scratch.iter() {
                    let Some(w) = cand else {
                        out.push(RfChoice {
                            rf: None,
                            success: false,
                        });
                        continue;
                    };
                    if w == last {
                        continue; // already covered above
                    }
                    let v = self.store_val(w);
                    if kind.apply(v).is_none() || weak {
                        out.push(RfChoice {
                            rf: Some(w),
                            success: false,
                        });
                    }
                    // A strong CAS that reads `expected` from a non-maximal
                    // store is inconsistent (its write could not be mo-adjacent),
                    // so that rf choice simply does not exist.
                }
            }
            _ => out.push(RfChoice {
                rf: Some(last),
                success: true,
            }),
        }
    }

    /// Apply a load with the chosen `rf`. Returns the value read.
    pub fn apply_load(&mut self, tid: Tid, loc: LocId, ord: MemOrd, rf: Option<EventId>) -> Val {
        let val = rf.map(|w| self.store_val(w)).unwrap_or(0);
        self.absorb_read(tid, loc, ord, rf);
        self.push_event(tid, EventKind::AtomicLoad { loc, ord, rf, val });
        val
    }

    /// Clock effects of reading `rf` at `ord` (shared by loads and RMWs).
    fn absorb_read(&mut self, tid: Tid, loc: LocId, ord: MemOrd, rf: Option<EventId>) {
        let Some(w) = rf else { return };
        let mo_idx = self.trace.mo_index(w).expect("rf target writes");
        // Split borrow: join straight from the stored payload instead of
        // cloning it (a deep copy in the pre-COW layout, and still an Arc
        // bump worth skipping on every synchronizing read).
        let MemState {
            threads, sync_of, ..
        } = self;
        let th = &mut threads[tid.idx()];
        th.clock.rmax.raise(loc, mo_idx);
        if let Some(sync) = &sync_of[w.idx()] {
            if ord.is_acquire() {
                sync.join_into(&mut th.clock);
            } else {
                sync.join_into(&mut th.acq_pending);
            }
        }
    }

    /// Apply a store. Returns the new event's id.
    pub fn apply_store(&mut self, tid: Tid, loc: LocId, ord: MemOrd, val: Val) -> EventId {
        let mo_index = self.trace.mo[loc.idx()].len() as u32;
        {
            let th = &mut self.threads[tid.idx()];
            th.clock.wmax.raise(loc, mo_index);
            th.own_stores.raise(loc, mo_index);
        }
        let id = self.push_event(
            tid,
            EventKind::AtomicStore {
                loc,
                ord,
                val,
                mo_index,
            },
        );
        self.trace.mo[loc.idx()].push(id);
        self.finish_write(tid, loc, ord, id, mo_index, None);
        id
    }

    /// Release-payload and SC bookkeeping shared by stores and RMW writes.
    /// `inherited` carries the release sequence a successful RMW continues.
    fn finish_write(
        &mut self,
        tid: Tid,
        loc: LocId,
        ord: MemOrd,
        id: EventId,
        mo_index: u32,
        inherited: Option<Payload>,
    ) {
        let th = &self.threads[tid.idx()];
        let mut payload: Option<Payload> = inherited;
        if ord.is_release() {
            // The thread clock plus this write's own (implicit) component
            // is the event clock — the strongest correct payload. The own
            // component stays lazy; see [`Payload`].
            match &mut payload {
                Some(p) => {
                    // A payload carries at most one lazy component: fold
                    // the inherited one before taking this write's.
                    p.flatten();
                    p.clock.join(&th.clock);
                    p.own = Some((tid, th.seq));
                }
                None => {
                    payload = Some(Payload {
                        clock: th.clock.clone(),
                        own: Some((tid, th.seq)),
                    })
                }
            }
        } else if let Some(f) = &th.rel_fence {
            // 29.8p2: a release fence sequenced before a relaxed store makes
            // the *fence* the sync source.
            match &mut payload {
                Some(p) => f.join_into(&mut p.clock),
                None => payload = Some(f.clone()),
            }
        }
        self.sync_of[id.idx()] = payload;
        if ord.is_seq_cst() {
            self.sc_last_store.raise(loc, mo_index);
        }
    }

    /// Apply an RMW with the chosen outcome. Returns `(old, success)`.
    pub fn apply_rmw(
        &mut self,
        tid: Tid,
        loc: LocId,
        ord: MemOrd,
        kind: RmwKind,
        choice: RfChoice,
    ) -> (Val, bool) {
        let old = choice.rf.map(|w| self.store_val(w)).unwrap_or(0);
        if choice.success {
            let new = kind
                .apply(old)
                .expect("successful RMW must produce a value");
            let inherited = choice.rf.and_then(|w| self.sync_of[w.idx()].clone());
            self.absorb_read(tid, loc, ord, choice.rf);
            let mo_index = self.trace.mo[loc.idx()].len() as u32;
            {
                let th = &mut self.threads[tid.idx()];
                th.clock.wmax.raise(loc, mo_index);
                th.own_stores.raise(loc, mo_index);
            }
            let id = self.push_event(
                tid,
                EventKind::Rmw {
                    loc,
                    ord,
                    rf: choice.rf,
                    read_val: old,
                    written: Some(new),
                    mo_index,
                },
            );
            self.trace.mo[loc.idx()].push(id);
            self.finish_write(tid, loc, ord, id, mo_index, inherited);
            (old, true)
        } else {
            let fail_ord = match kind {
                RmwKind::Cas { fail_ord, .. } => fail_ord,
                _ => ord,
            };
            self.absorb_read(tid, loc, fail_ord, choice.rf);
            self.push_event(
                tid,
                EventKind::Rmw {
                    loc,
                    ord: fail_ord,
                    rf: choice.rf,
                    read_val: old,
                    written: None,
                    mo_index: 0,
                },
            );
            (old, false)
        }
    }

    /// Apply a fence (29.8 + the SC-fence floor machinery of 29.3 p4-p6).
    pub fn apply_fence(&mut self, tid: Tid, ord: MemOrd) {
        {
            let th = &mut self.threads[tid.idx()];
            if ord.is_acquire() {
                let pending = th.acq_pending.clone();
                th.clock.join(&pending);
            }
        }
        if ord.is_seq_cst() {
            // Snapshot p4 (last SC store) and p6 (earlier fences') floors…
            let snapshot_sc = self.sc_last_store.clone();
            let snapshot_pub = self.sc_fence_published.clone();
            let th = &mut self.threads[tid.idx()];
            th.sc_fence_floor.join(&snapshot_sc);
            th.sc_fence_floor.join(&snapshot_pub);
            // …then publish this thread's prior stores (p5, later p6).
            let own = th.own_stores.clone();
            self.sc_fence_published.join(&own);
        }
        self.push_event(tid, EventKind::Fence { ord });
        if ord.is_release() {
            let th = &mut self.threads[tid.idx()];
            // The fence's own component crosses threads with the payload;
            // it stays lazy until a reader joins (see [`Payload`]).
            th.rel_fence = Some(Payload {
                clock: th.clock.clone(),
                own: Some((tid, th.seq)),
            });
        }
    }

    /// Record a thread's completion.
    pub fn apply_finish(&mut self, tid: Tid) {
        self.push_event(tid, EventKind::ThreadFinish);
        let th = &mut self.threads[tid.idx()];
        th.finished = true;
        // Stamp the finish event's own component: joiners are other threads.
        th.finish_clock = Payload {
            clock: th.clock.clone(),
            own: Some((tid, th.seq)),
        };
    }

    /// Apply a join on a finished `target` (the controller guarantees
    /// enabledness).
    pub fn apply_join(&mut self, tid: Tid, target: Tid) {
        debug_assert!(self.threads[target.idx()].finished);
        // The clone is COW Arc bumps; it sidesteps the double borrow.
        let fc = self.threads[target.idx()].finish_clock.clone();
        fc.join_into(&mut self.threads[tid.idx()].clock);
        self.push_event(tid, EventKind::ThreadJoin { target });
    }

    /// Non-atomic write: race-check against unordered prior accesses, then
    /// record. Returns a bug if racy.
    pub fn apply_data_write(&mut self, tid: Tid, loc: DataId, val: Val) -> Option<Bug> {
        let mut bug = None;
        {
            let th = &self.threads[tid.idx()];
            let d = &self.data[loc.idx()];
            if let Some((wt, ws)) = d.last_write {
                if wt != tid && !th.clock.vc.knows(wt, ws) {
                    bug = Some(Bug::DataRace {
                        loc,
                        first: wt,
                        second: tid,
                        second_is_write: true,
                    });
                }
            }
            for &(rt, rs) in &d.reads_since_write {
                if rt != tid && !th.clock.vc.knows(rt, rs) {
                    bug = Some(Bug::DataRace {
                        loc,
                        first: rt,
                        second: tid,
                        second_is_write: true,
                    });
                }
            }
        }
        self.push_event(tid, EventKind::DataWrite { loc });
        let seq = self.threads[tid.idx()].seq;
        let d = &mut self.data[loc.idx()];
        d.value = val;
        d.last_write = Some((tid, seq));
        d.reads_since_write.clear();
        bug
    }

    /// Non-atomic read: race-check against an unordered prior write.
    /// Returns the stored value and the race, if any.
    pub fn apply_data_read(&mut self, tid: Tid, loc: DataId) -> (Val, Option<Bug>) {
        let mut bug = None;
        {
            let th = &self.threads[tid.idx()];
            let d = &self.data[loc.idx()];
            if let Some((wt, ws)) = d.last_write {
                if wt != tid && !th.clock.vc.knows(wt, ws) {
                    bug = Some(Bug::DataRace {
                        loc,
                        first: wt,
                        second: tid,
                        second_is_write: false,
                    });
                }
            }
        }
        self.push_event(tid, EventKind::DataRead { loc });
        let seq = self.threads[tid.idx()].seq;
        let d = &mut self.data[loc.idx()];
        if let Some(at) = d.reads_since_write.iter().position(|&(rt, _)| rt == tid) {
            d.reads_since_write.remove(at);
        }
        d.reads_since_write.push((tid, seq));
        (d.value, bug)
    }

    /// Allocate a fresh object identity (deterministic: allocation order
    /// is fixed by the replayed schedule).
    pub fn next_object_id(&mut self) -> u64 {
        self.obj_counter += 1;
        self.obj_counter
    }

    /// Record a specification annotation anchored to `tid`'s last event.
    pub fn annotate(&mut self, tid: Tid, note: SpecNote) {
        let after = self.last_event[tid.idx()];
        self.trace.annotations.push(Annotation { tid, after, note });
    }

    /// Are all threads finished?
    pub fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MemOrd::*;

    fn t(i: u32) -> Tid {
        Tid(i)
    }

    /// Message passing with release/acquire: after reading the flag, the
    /// data store is floor-hidden (only the new value is readable).
    #[test]
    fn mp_release_acquire_forbids_stale_data() {
        let mut m = MemState::new();
        let data = m.alloc_atomic(t(0), Some(0));
        let flag = m.alloc_atomic(t(0), Some(0));
        let t1 = m.spawn_thread(t(0));
        // T0: data=1 rlx; flag=1 rel
        m.apply_store(t(0), data, Relaxed, 1);
        let f1 = m.apply_store(t(0), flag, Release, 1);
        // T1 reads flag: both init(0) and 1 are candidates.
        let cands = m.load_candidates(t1, flag, Acquire);
        assert_eq!(cands.len(), 2);
        // Read the release store.
        m.apply_load(t1, flag, Acquire, Some(f1));
        // Now the data load has exactly one candidate: the new value.
        let cands = m.load_candidates(t1, data, Relaxed);
        assert_eq!(cands.len(), 1);
        assert_eq!(m.apply_load(t1, data, Relaxed, cands[0]), 1);
    }

    /// Same shape but the flag store is relaxed: the stale data value stays
    /// readable (no synchronization).
    #[test]
    fn mp_relaxed_allows_stale_data() {
        let mut m = MemState::new();
        let data = m.alloc_atomic(t(0), Some(0));
        let flag = m.alloc_atomic(t(0), Some(0));
        let t1 = m.spawn_thread(t(0));
        m.apply_store(t(0), data, Relaxed, 1);
        let f1 = m.apply_store(t(0), flag, Relaxed, 1);
        m.apply_load(t1, flag, Acquire, Some(f1));
        let cands = m.load_candidates(t1, data, Relaxed);
        assert_eq!(cands.len(), 2, "stale init must remain readable");
    }

    /// CoRR: after reading mo index 1, a thread can never go back to 0.
    #[test]
    fn read_coherence_is_monotone() {
        let mut m = MemState::new();
        let t1 = m.spawn_thread(t(0));
        let x = m.alloc_atomic(t(0), Some(0));
        let w1 = m.apply_store(t(0), x, Relaxed, 1);
        m.apply_load(t1, x, Relaxed, Some(w1));
        let cands = m.load_candidates(t1, x, Relaxed);
        assert_eq!(cands, vec![Some(w1)]);
    }

    /// Uninitialized locations expose the uninit pseudo-store; initialized
    /// ones never do (the init store is hb-visible to all threads created
    /// afterwards).
    #[test]
    fn uninit_candidate_only_without_visible_store() {
        let mut m = MemState::new();
        let x = m.alloc_atomic(t(0), None);
        let y = m.alloc_atomic(t(0), Some(7));
        let t1 = m.spawn_thread(t(0));
        assert_eq!(m.load_candidates(t1, x, Relaxed), vec![None]);
        let ycands = m.load_candidates(t1, y, Relaxed);
        assert_eq!(ycands.len(), 1);
        assert!(ycands[0].is_some());
    }

    /// Store buffering with SC: after both SC stores, an SC load must read
    /// the mo-max SC store of its location (B-rule), so at most one thread
    /// can read 0 — here we check the B-rule restricts candidates.
    #[test]
    fn sc_load_sees_last_sc_store() {
        let mut m = MemState::new();
        let x = m.alloc_atomic(t(0), Some(0));
        let t1 = m.spawn_thread(t(0));
        let _t2 = m.spawn_thread(t(0));
        let w1 = m.apply_store(t1, x, SeqCst, 1);
        // An SC read of x now: B = w1. The init store (non-SC) happens-before
        // w1? init by T0 precedes spawn of T1 → hb(init, w1) → hidden.
        let cands = m.load_candidates(t(2), x, SeqCst);
        assert_eq!(cands, vec![Some(w1)]);
        // A relaxed read could still see the init value.
        let relaxed = m.load_candidates(t(2), x, Relaxed);
        assert_eq!(relaxed.len(), 2);
    }

    /// Release sequence: acquire-reading an RMW that updated a release
    /// store synchronizes with the head.
    #[test]
    fn release_sequence_via_rmw() {
        let mut m = MemState::new();
        let data = m.alloc_atomic(t(0), Some(0));
        let x = m.alloc_atomic(t(0), Some(0));
        let t1 = m.spawn_thread(t(0));
        let t2 = m.spawn_thread(t(0));
        // T0 writes data then release-stores x=1.
        m.apply_store(t(0), data, Relaxed, 5);
        m.apply_store(t(0), x, Release, 1);
        // T1 bumps x with a relaxed RMW.
        let c = m.rmw_candidates(t1, x, Relaxed, RmwKind::FetchAdd(1));
        assert_eq!(c.len(), 1);
        m.apply_rmw(t1, x, Relaxed, RmwKind::FetchAdd(1), c[0]);
        // T2 acquire-loads the RMW's value: must synchronize with T0's
        // release store → stale `data` becomes unreadable.
        let top = *m.loc_stores(x).last().unwrap();
        m.apply_load(t2, x, Acquire, Some(top));
        let dcands = m.load_candidates(t2, data, Relaxed);
        assert_eq!(
            dcands.len(),
            1,
            "release sequence must carry the data store"
        );
        assert_eq!(m.apply_load(t2, data, Relaxed, dcands[0]), 5);
    }

    /// Fence-to-fence synchronization (29.8p1-4).
    #[test]
    fn fence_pair_synchronizes() {
        let mut m = MemState::new();
        let data = m.alloc_atomic(t(0), Some(0));
        let flag = m.alloc_atomic(t(0), Some(0));
        let t1 = m.spawn_thread(t(0));
        m.apply_store(t(0), data, Relaxed, 1);
        m.apply_fence(t(0), Release);
        let f = m.apply_store(t(0), flag, Relaxed, 1);
        // T1: relaxed load of flag; acquire fence; data must be fresh.
        m.apply_load(t1, flag, Relaxed, Some(f));
        // Before the fence the stale data is still readable.
        assert_eq!(m.load_candidates(t1, data, Relaxed).len(), 2);
        m.apply_fence(t1, Acquire);
        assert_eq!(m.load_candidates(t1, data, Relaxed).len(), 1);
    }

    /// SC-fence p4/p5: store-buffering with relaxed accesses + SC fences
    /// forbids both threads reading stale.
    #[test]
    fn sc_fences_forbid_double_stale_sb() {
        let mut m = MemState::new();
        let x = m.alloc_atomic(t(0), Some(0));
        let y = m.alloc_atomic(t(0), Some(0));
        let t1 = m.spawn_thread(t(0));
        let t2 = m.spawn_thread(t(0));
        // T1: x=1 rlx; sc fence; read y.
        m.apply_store(t1, x, Relaxed, 1);
        m.apply_fence(t1, SeqCst);
        // T2: y=1 rlx; sc fence; read x.
        m.apply_store(t2, y, Relaxed, 1);
        m.apply_fence(t2, SeqCst);
        // T2's fence is S-after T1's fence, which published x=1 (p6/p5):
        // T2 must see x=1.
        let xc = m.load_candidates(t2, x, Relaxed);
        assert_eq!(xc.len(), 1, "p6 floor must hide the stale x");
        // T1 read y *before* T2's fence published — wait, T1's read happens
        // now, after both fences; its own fence snapshotted *before* T2
        // published, so T1's floor does not yet cover y — but a fresh SC
        // *read* would (p5). Relaxed read keeps both candidates:
        let yc = m.load_candidates(t1, y, Relaxed);
        assert_eq!(yc.len(), 2);
    }

    /// CAS candidate enumeration: strong CAS reading a stale non-expected
    /// value fails; reading the latest expected value succeeds; no
    /// "succeed on stale" choice exists.
    #[test]
    fn cas_candidates() {
        let mut m = MemState::new();
        let x = m.alloc_atomic(t(0), Some(0));
        let t1 = m.spawn_thread(t(0));
        m.apply_store(t(0), x, Relaxed, 1);
        let kind = RmwKind::Cas {
            expected: 1,
            new: 9,
            fail_ord: Relaxed,
            weak: false,
        };
        let cands = m.rmw_candidates(t1, x, AcqRel, kind);
        // latest store holds 1 → success candidate; init store holds 0 →
        // stale fail candidate.
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().any(|c| c.success));
        assert!(cands.iter().any(|c| !c.success));
        // CAS expecting 0 (stale value): reading the stale store cannot
        // succeed; the only candidates are failures.
        let kind0 = RmwKind::Cas {
            expected: 0,
            new: 9,
            fail_ord: Relaxed,
            weak: false,
        };
        let cands0 = m.rmw_candidates(t1, x, AcqRel, kind0);
        assert!(cands0.iter().all(|c| !c.success));
    }

    /// Weak CAS gains spurious-failure choices.
    #[test]
    fn weak_cas_spurious_failure() {
        let mut m = MemState::new();
        let x = m.alloc_atomic(t(0), Some(1));
        let t1 = m.spawn_thread(t(0));
        let kind = RmwKind::Cas {
            expected: 1,
            new: 2,
            fail_ord: Relaxed,
            weak: true,
        };
        let cands = m.rmw_candidates(t1, x, AcqRel, kind);
        assert!(cands.iter().any(|c| c.success));
        assert!(
            cands.iter().any(|c| !c.success),
            "weak CAS must offer spurious failure"
        );
    }

    /// Data-race detection: unordered write/write race is flagged; ordered
    /// (via join) accesses are not.
    #[test]
    fn data_race_detection() {
        let mut m = MemState::new();
        let d = m.alloc_data();
        assert!(m.apply_data_write(t(0), d, 1).is_none());
        let t1 = m.spawn_thread(t(0));
        // T1 inherits the creator's clock → ordered → no race, and it sees
        // the written value.
        assert_eq!(m.apply_data_read(t1, d).0, 1);
        assert!(m.apply_data_write(t1, d, 2).is_none());
        // But now T0 writes again without synchronization → race with T1.
        let bug = m.apply_data_write(t(0), d, 3);
        assert!(matches!(bug, Some(Bug::DataRace { .. })));
    }

    #[test]
    fn data_read_write_race() {
        let mut m = MemState::new();
        let d = m.alloc_data();
        let t1 = m.spawn_thread(t(0));
        assert!(m.apply_data_read(t1, d).1.is_none());
        m.apply_data_write(t1, d, 5);
        // T0 reads concurrently with T1's write → race.
        let (_, bug) = m.apply_data_read(t(0), d);
        assert!(matches!(bug, Some(Bug::DataRace { .. })));
    }

    /// The read set keeps one read per thread, and a write still races
    /// with the thread whose read came last.
    #[test]
    fn data_read_set_is_bounded() {
        let mut m = MemState::new();
        let d = m.alloc_data();
        let (t1, t2, t3) = (
            m.spawn_thread(t(0)),
            m.spawn_thread(t(0)),
            m.spawn_thread(t(0)),
        );
        for _ in 0..1_000 {
            m.apply_data_read(t1, d);
            m.apply_data_read(t2, d);
        }
        assert_eq!(m.data[d.idx()].reads_since_write.len(), 2);
        for tid in [t1, t2, t1] {
            m.apply_data_read(tid, d);
        }
        let bug = m.apply_data_write(t3, d, 1);
        assert!(
            matches!(bug, Some(Bug::DataRace { first, second, .. }) if first == t1 && second == t3),
            "{bug:?}"
        );
    }

    /// Join transfers the target's final clock.
    #[test]
    fn join_synchronizes() {
        let mut m = MemState::new();
        let x = m.alloc_atomic(t(0), Some(0));
        let t1 = m.spawn_thread(t(0));
        m.apply_store(t1, x, Relaxed, 1);
        m.apply_finish(t1);
        m.apply_join(t(0), t1);
        // After join, only the new value is visible.
        assert_eq!(m.load_candidates(t(0), x, Relaxed).len(), 1);
    }

    /// The trace records annotations anchored to the thread's last event.
    #[test]
    fn annotations_anchor_to_last_event() {
        let mut m = MemState::new();
        let x = m.alloc_atomic(t(0), Some(0));
        m.annotate(t(0), SpecNote::MethodBegin { obj: 0, name: "op" });
        let w = m.apply_store(t(0), x, Relaxed, 1);
        m.annotate(t(0), SpecNote::OpDefine);
        let notes = &m.trace.annotations;
        assert_eq!(notes.len(), 2);
        assert_eq!(notes[1].after, Some(w));
        assert!(notes[0].after.is_some()); // the init store of x
    }

    // -----------------------------------------------------------------
    // Differential check of the candidate-window optimization.
    // -----------------------------------------------------------------

    /// Pre-window reference enumeration: walk the *whole* store list
    /// newest→oldest and filter coherence-hidden stores one by one — the
    /// behavior `load_candidates` had before the `[read_floor, len)`
    /// window skipped the scan. The proptest below requires the optimized
    /// enumeration to match this, order included.
    fn load_candidates_full_scan(
        m: &MemState,
        tid: Tid,
        loc: LocId,
        ord: MemOrd,
    ) -> Vec<Option<EventId>> {
        let stores = &m.trace.mo[loc.idx()];
        let floor = m.read_floor(tid, loc, ord);
        let b_idx: Option<u32> = if ord.is_seq_cst() {
            m.sc_last_store.get(loc)
        } else {
            None
        };
        let b_event = b_idx.map(|i| stores[i as usize]);
        let mut out = Vec::new();
        for idx in (0..stores.len()).rev() {
            if let Some(f) = floor {
                if (idx as u32) < f {
                    continue; // coherence-hidden
                }
            }
            let w = stores[idx];
            if let (Some(bi), Some(be)) = (b_idx, b_event) {
                if (idx as u32) < bi && (m.trace.is_sc(w) || m.trace.happens_before(w, be)) {
                    continue; // hidden by the last SC store (29.3p3)
                }
            }
            out.push(Some(w));
        }
        if floor.is_none() {
            out.push(None);
        }
        out
    }

    use proptest::prelude::*;

    /// One step of a random three-thread, two-location history.
    #[derive(Clone, Debug)]
    enum Act {
        Store { t: u8, l: u8, ord: u8, val: u8 },
        Load { t: u8, l: u8, ord: u8, pick: u8 },
        Fence { t: u8, ord: u8 },
    }

    fn act_strategy() -> impl Strategy<Value = Act> {
        prop_oneof![
            (0u8..3, 0u8..2, 0u8..3, 0u8..4).prop_map(|(t, l, ord, val)| Act::Store {
                t,
                l,
                ord,
                val
            }),
            (0u8..3, 0u8..2, 0u8..3, 0u8..8).prop_map(|(t, l, ord, pick)| Act::Load {
                t,
                l,
                ord,
                pick
            }),
            (0u8..3, 0u8..3).prop_map(|(t, ord)| Act::Fence { t, ord }),
        ]
    }

    proptest! {
        /// Drive a `MemState` through random histories (stores, loads
        /// reading an arbitrary candidate, fences, all orderings) and
        /// after every step require the windowed `load_candidates` to
        /// equal the pre-window full scan for every (thread, location,
        /// ordering) combination — order included.
        #[test]
        fn windowed_candidates_match_full_scan(
            acts in prop::collection::vec(act_strategy(), 0..32)
        ) {
            let store_ords = [Relaxed, Release, SeqCst];
            let load_ords = [Relaxed, Acquire, SeqCst];
            let fence_ords = [Acquire, Release, SeqCst];
            let mut m = MemState::new();
            let l0 = m.alloc_atomic(t(0), Some(0));
            let l1 = m.alloc_atomic(t(0), None); // uninitialized path
            let t1 = m.spawn_thread(t(0));
            let t2 = m.spawn_thread(t(0));
            let locs = [l0, l1];
            let tids = [t(0), t1, t2];
            for act in &acts {
                match *act {
                    Act::Store { t, l, ord, val } => {
                        m.apply_store(
                            tids[t as usize],
                            locs[l as usize],
                            store_ords[ord as usize],
                            val as Val,
                        );
                    }
                    Act::Load { t, l, ord, pick } => {
                        let tid = tids[t as usize];
                        let loc = locs[l as usize];
                        let o = load_ords[ord as usize];
                        let cands = m.load_candidates(tid, loc, o);
                        let rf = cands[pick as usize % cands.len()];
                        m.apply_load(tid, loc, o, rf);
                    }
                    Act::Fence { t, ord } => {
                        m.apply_fence(tids[t as usize], fence_ords[ord as usize]);
                    }
                }
                for &tid in &tids {
                    for &loc in &locs {
                        for &o in &load_ords {
                            let want = load_candidates_full_scan(&m, tid, loc, o);
                            prop_assert_eq!(
                                m.load_candidates(tid, loc, o),
                                want,
                                "tid={:?} loc={:?} ord={:?}", tid, loc, o
                            );
                        }
                    }
                }
            }
        }
    }
}
