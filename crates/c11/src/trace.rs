//! Completed-execution traces, stored struct-of-arrays.
//!
//! A [`Trace`] is what the model checker hands to plugins (notably the
//! CDSSpec checker in `cdsspec-core`) after each feasible execution: the
//! committed events with their happens-before clocks, the per-location
//! modification orders, the SC total order *S*, and the stream of
//! *specification annotations* recorded by instrumented data-structure code
//! (method boundaries, arguments/return values, and ordering-point
//! markers — the run-time counterpart of the paper's `@OPDefine`,
//! `@PotentialOP`, `@OPCheck`, `@OPClear` and `@OPClearDefine`).
//!
//! # Struct-of-arrays layout
//!
//! There is no per-event struct. An event is a *row* across dense parallel
//! columns — `tids`/`seqs`/`tags`/`locs`/`rfs`/`mo_indices`/`sc_indices`
//! for the hot fields the candidate scans and relation queries touch,
//! copy-on-write clock snapshots in `clocks`, and the cold payloads
//! (orderings and values) in a side `PayloadArena`. All columns keep
//! their capacity across executions: `cdsspec-mc`'s `runtime::Reuse`
//! machinery recycles the whole `Trace` through [`Trace::clear`], so a
//! warm harness commits events without allocating. Sentinel `u32::MAX`
//! (`NONE`) encodes "no rf" / "not a write" / "not SC" in the dense
//! columns; a failed compare-exchange is a `Rmw` tag whose `mo_indices`
//! entry is the sentinel.
//!
//! # Incremental relation maintenance
//!
//! [`Trace::push`] is the single commit point, and it maintains the
//! derived relations *as events are committed* instead of leaving them to
//! per-execution re-walks at the leaf:
//!
//! * **per-thread event ranges** (`thread_events`) — commit order per
//!   thread is program order, so these double as the sb chains;
//! * **per-location reader chains** (`readers`) — the rf side of the
//!   per-location rf/mo structure (`mo` itself is already per-location);
//! * **the canonical-signature state** (`SigState`) — thread spawn-path
//!   names, per-event canonical ids, and per-location minima, folded
//!   exactly as `relations::rf_signature` historically derived them
//!   post-hoc (the retained reference is
//!   `relations::posthoc::rf_signature`), so the finalize step is a
//!   single O(n) fold instead of three full re-walks;
//! * **the sb∪sw adjacency delta** (`sw_edges`, behind [`Trace::record_sw`])
//!   — every synchronizes-with edge (rf release/acquire, release
//!   sequences through RMW chains, fence rules, create/join) recorded at
//!   the commit that created it, giving the offline validator's edge set
//!   without the O(n²) post-hoc scan.
//!
//! The maintenance rule for every index is the same: *only* `push` writes
//! it, appending data derivable from the event being committed plus state
//! already indexed — nothing is recomputed from earlier events except by
//! O(chain) walks over already-dense columns. `relations::audit`,
//! `rf_signature`, race detection, and `cdsspec-core`'s `build_call_order`
//! query these indexes (plus the O(1) clock test [`Trace::happens_before`])
//! in O(answer).

use crate::clock::VecClock;
use crate::event::{EventId, EventKind, EventTag, Tid};
use crate::loc::{DataId, LocId};
use crate::ordering::MemOrd;
use crate::value::Val;

/// Column sentinel: "no rf" / "not a successful write" / "not SC".
pub(crate) const NONE: u32 = u32::MAX;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of `v`, chained from `h`.
pub(crate) fn fnv(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A dynamic value crossing the concurrent/sequential boundary (method
/// arguments and return values).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecVal {
    /// No value (e.g. a `void` method).
    Unit,
    /// Signed integer (the common case; the paper's examples use `int`).
    I64(i64),
    /// Unsigned integer / pointer bits.
    U64(u64),
    /// Boolean (e.g. `trylock` results).
    Bool(bool),
}

impl SpecVal {
    /// Interpret as `i64`, panicking on `Unit` (spec-writer error).
    pub fn as_i64(self) -> i64 {
        match self {
            SpecVal::I64(v) => v,
            SpecVal::U64(v) => v as i64,
            SpecVal::Bool(b) => b as i64,
            SpecVal::Unit => panic!("SpecVal::Unit interpreted as integer"),
        }
    }

    /// Interpret as `u64`.
    pub fn as_u64(self) -> u64 {
        match self {
            SpecVal::I64(v) => v as u64,
            SpecVal::U64(v) => v,
            SpecVal::Bool(b) => b as u64,
            SpecVal::Unit => panic!("SpecVal::Unit interpreted as integer"),
        }
    }

    /// Interpret as `bool` (nonzero integers are `true`).
    pub fn as_bool(self) -> bool {
        match self {
            SpecVal::Bool(b) => b,
            SpecVal::I64(v) => v != 0,
            SpecVal::U64(v) => v != 0,
            SpecVal::Unit => panic!("SpecVal::Unit interpreted as bool"),
        }
    }
}

impl From<i64> for SpecVal {
    fn from(v: i64) -> Self {
        SpecVal::I64(v)
    }
}
impl From<i32> for SpecVal {
    fn from(v: i32) -> Self {
        SpecVal::I64(v as i64)
    }
}
impl From<u64> for SpecVal {
    fn from(v: u64) -> Self {
        SpecVal::U64(v)
    }
}
impl From<usize> for SpecVal {
    fn from(v: usize) -> Self {
        SpecVal::U64(v as u64)
    }
}
impl From<bool> for SpecVal {
    fn from(v: bool) -> Self {
        SpecVal::Bool(v)
    }
}
impl From<()> for SpecVal {
    fn from(_: ()) -> Self {
        SpecVal::Unit
    }
}

/// One specification annotation recorded by instrumented code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecNote {
    /// Start of an API method call (paper: method *invocation* event).
    /// `obj` identifies the data-structure instance, enabling the
    /// composition of specifications (paper §3.2): each object is checked
    /// against its own sequential state.
    MethodBegin {
        /// Data-structure instance identity.
        obj: u64,
        /// Method name (e.g. `"enq"`).
        name: &'static str,
    },
    /// An argument value of the current method call.
    MethodArg {
        /// The argument.
        val: SpecVal,
    },
    /// End of an API method call with its return value (paper: *response*).
    MethodEnd {
        /// The return value (`SpecVal::Unit` for `void`).
        ret: SpecVal,
    },
    /// `@OPDefine`: the thread's immediately-preceding atomic operation is
    /// an ordering point of the current method call.
    OpDefine,
    /// `@OPClear`: discard all ordering points (confirmed and potential)
    /// observed so far in the current method call.
    OpClear,
    /// `@PotentialOP(label)`: the preceding atomic operation *may* be an
    /// ordering point; a later `OpCheck` with the same label confirms it.
    PotentialOp {
        /// Label matched by a later `OpCheck`.
        label: &'static str,
    },
    /// `@OPCheck(label)`: confirm all pending potential ordering points
    /// with `label`.
    OpCheck {
        /// Label of the potential ordering points to confirm.
        label: &'static str,
    },
}

/// An annotation bound to its position in the execution: the recording
/// thread and the thread's last committed event at recording time (the
/// operation "immediately preceding the annotation" in the paper's prose).
#[derive(Clone, Debug)]
pub struct Annotation {
    /// Recording thread.
    pub tid: Tid,
    /// The thread's most recent event when the annotation was recorded
    /// (`None` if the thread had not yet performed any visible operation).
    pub after: Option<EventId>,
    /// Payload.
    pub note: SpecNote,
}

/// Cold per-event payloads: the ordering parameter and the value fields.
/// Split out of the hot columns so candidate scans and relation queries
/// never pull value bytes through the cache; recycled with the rest of
/// the trace across executions.
#[derive(Clone, Debug, Default)]
struct PayloadArena {
    /// Ordering parameter (`None` for thread-lifecycle and data events).
    ords: Vec<Option<MemOrd>>,
    /// Load: value observed. Store: value written. RMW: value read.
    vals: Vec<Val>,
    /// Successful RMW: value written (unused otherwise).
    writtens: Vec<Val>,
}

impl PayloadArena {
    fn push(&mut self, ord: Option<MemOrd>, val: Val, written: Val) {
        self.ords.push(ord);
        self.vals.push(val);
        self.writtens.push(written);
    }

    fn clear(&mut self) {
        self.ords.clear();
        self.vals.clear();
        self.writtens.clear();
    }
}

/// Incrementally-maintained state of the canonical rf signature: thread
/// spawn-path names, per-event canonical ids, and per-location minima.
/// Every value is written exactly once, at commit time, and is final from
/// the trace's perspective except the running minima (whose final value
/// equals the post-hoc minimum because `min` is order-independent).
#[derive(Clone, Debug, Default)]
pub(crate) struct SigState {
    /// Canonical thread names from the spawn tree. `canon[0]` is fixed;
    /// `canon[child]` is written when the child's `ThreadCreate` commits —
    /// necessarily before any event of the child, so every `ceids` entry
    /// is computed from a final name.
    pub(crate) canon: Vec<u64>,
    /// Children spawned so far per thread (names siblings apart).
    pub(crate) spawn_count: Vec<u64>,
    /// Canonical event id per event: hash of (thread name, per-thread seq).
    pub(crate) ceids: Vec<u64>,
    /// Per-atomic-location minimum canonical id of any touching event.
    pub(crate) loc_min: Vec<u64>,
    /// Per-data-location minimum canonical id of any touching event.
    pub(crate) data_min: Vec<u64>,
}

impl SigState {
    fn reset(&mut self) {
        for c in &mut self.canon {
            *c = 0;
        }
        if self.canon.is_empty() {
            self.canon.push(0);
        }
        self.canon[0] = fnv(FNV_OFFSET, 0);
        for s in &mut self.spawn_count {
            *s = 0;
        }
        self.ceids.clear();
        self.loc_min.clear();
        self.data_min.clear();
    }

    fn note_min(slot: &mut Vec<u64>, idx: usize, c: u64) {
        if slot.len() <= idx {
            slot.resize(idx + 1, u64::MAX);
        }
        slot[idx] = slot[idx].min(c);
    }
}

/// A completed execution, stored struct-of-arrays (see the module docs).
#[derive(Clone, Debug)]
pub struct Trace {
    // ---- hot columns -------------------------------------------------
    /// Executing thread per event.
    tids: Vec<u32>,
    /// 1-based per-thread sequence number per event.
    seqs: Vec<u32>,
    /// One-byte kind discriminant per event.
    tags: Vec<EventTag>,
    /// Location operand: atomic loc for loads/stores/RMWs, data loc for
    /// data accesses, child/target tid for create/join, `0` otherwise.
    locs: Vec<u32>,
    /// Store read from ([`NONE`] = uninitialized / not a read).
    rfs: Vec<u32>,
    /// mo position of the write ([`NONE`] = not a successful write; in
    /// particular a failed compare-exchange).
    mo_indices: Vec<u32>,
    /// Position in *S* ([`NONE`] = not `seq_cst`).
    sc_indices: Vec<u32>,
    /// Happens-before knowledge of *other* threads' events at commit.
    /// The executing thread's own component is implicit — its first `seq`
    /// events happen-before (or are) this event — which lets the buffer
    /// stay shared with the thread's live clock (see [`crate::clock`]).
    clocks: Vec<VecClock>,
    /// Cold payloads (orderings, values).
    arena: PayloadArena,

    // ---- derived relations (public, as before the SoA rework) -------
    /// Per-location modification order: `mo[loc.idx()]` lists the writes to
    /// `loc` in mo order (equal to their commit order).
    pub mo: Vec<Vec<EventId>>,
    /// The SC total order *S* (ids of `seq_cst` events in commit order).
    pub sc_order: Vec<EventId>,
    /// Number of threads that participated.
    pub num_threads: u32,
    /// Specification annotations in global recording order (per-thread
    /// subsequences are each thread's program order).
    pub annotations: Vec<Annotation>,

    // ---- incremental indexes -----------------------------------------
    /// Events of each thread in commit (= program) order. Slots may
    /// outlive `num_threads` across [`Trace::clear`] (kept for capacity);
    /// stale slots are empty.
    thread_events: Vec<Vec<EventId>>,
    /// Reads (loads and RMWs, successful or not) of each atomic location
    /// in commit order.
    readers: Vec<Vec<EventId>>,
    /// Incremental rf-signature state.
    pub(crate) sig: SigState,

    // ---- sb∪sw delta recording (validation support) ------------------
    /// Record synchronizes-with edges at commit time. Off by default: the
    /// edges are consumed only by the axiom validator's cross-checks, and
    /// the release-chain walk is per-read hot-path work. The runtime turns
    /// it on when the exploration validates axioms.
    pub record_sw: bool,
    /// The recorded sw edges (create/join edges included), commit order.
    sw_edges: Vec<(EventId, EventId)>,
    /// Per-thread release-fence events (sw sources for later stores).
    rel_fences: Vec<Vec<EventId>>,
    /// Per-thread sw sources of earlier reads (targets of later acquire
    /// fences, C++11 29.8p3-4).
    read_srcs: Vec<Vec<EventId>>,
    /// Per-thread pending `ThreadCreate` event, consumed by the thread's
    /// first own event ([`NONE`] = none pending).
    pending_create: Vec<u32>,
    /// Scratch for release-chain source collection (capacity reused).
    src_scratch: Vec<EventId>,
}

impl Default for Trace {
    fn default() -> Self {
        let mut t = Trace {
            tids: Vec::new(),
            seqs: Vec::new(),
            tags: Vec::new(),
            locs: Vec::new(),
            rfs: Vec::new(),
            mo_indices: Vec::new(),
            sc_indices: Vec::new(),
            clocks: Vec::new(),
            arena: PayloadArena::default(),
            mo: Vec::new(),
            sc_order: Vec::new(),
            num_threads: 0,
            annotations: Vec::new(),
            thread_events: Vec::new(),
            readers: Vec::new(),
            sig: SigState::default(),
            record_sw: false,
            sw_edges: Vec::new(),
            rel_fences: Vec::new(),
            read_srcs: Vec::new(),
            pending_create: Vec::new(),
            src_scratch: Vec::new(),
        };
        t.sig.reset();
        t
    }
}

impl Trace {
    /// Number of committed events.
    #[inline]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when no event has been committed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Reset to the empty trace, keeping every column's and index's
    /// capacity — the arena-reuse half of the `runtime::Reuse` contract.
    /// (`mo` is *not* drained here: the runtime parks its inner vectors in
    /// its own pool first, then clears the rest through this.)
    pub fn clear(&mut self) {
        self.tids.clear();
        self.seqs.clear();
        self.tags.clear();
        self.locs.clear();
        self.rfs.clear();
        self.mo_indices.clear();
        self.sc_indices.clear();
        self.clocks.clear();
        self.arena.clear();
        self.mo.clear();
        self.sc_order.clear();
        self.num_threads = 1;
        self.annotations.clear();
        for v in &mut self.thread_events {
            v.clear();
        }
        for v in &mut self.readers {
            v.clear();
        }
        self.sig.reset();
        self.sw_edges.clear();
        for v in &mut self.rel_fences {
            v.clear();
        }
        for v in &mut self.read_srcs {
            v.clear();
        }
        for p in &mut self.pending_create {
            *p = NONE;
        }
    }

    /// Make the per-thread tables cover `tid`.
    fn ensure_thread(&mut self, tid: Tid) {
        let need = tid.idx() + 1;
        if self.thread_events.len() < need {
            self.thread_events.resize_with(need, Vec::new);
            self.rel_fences.resize_with(need, Vec::new);
            self.read_srcs.resize_with(need, Vec::new);
            self.pending_create.resize(need, NONE);
        }
        if self.sig.canon.len() < need {
            self.sig.canon.resize(need, 0);
            self.sig.spawn_count.resize(need, 0);
        } else if self.sig.spawn_count.len() < need {
            self.sig.spawn_count.resize(need, 0);
        }
    }

    /// Commit one event: append the row and maintain every incremental
    /// index (see the module docs for the maintenance rule). `seq` is the
    /// thread's 1-based sequence number for this event; `clock` is the
    /// thread's happens-before snapshot (own component implicit). Returns
    /// the new event's id.
    ///
    /// Invariants assumed (guaranteed by the runtime, required from test
    /// builders): a child's `ThreadCreate` commits before any event of the
    /// child, and a `ThreadJoin` commits after the target's `ThreadFinish`.
    pub fn push(&mut self, tid: Tid, seq: u32, kind: EventKind, clock: VecClock) -> EventId {
        let id = EventId(self.len() as u32);
        self.ensure_thread(tid);

        if let EventKind::ThreadCreate { child } = kind {
            self.ensure_thread(child);
            let p = tid.idx();
            self.sig.canon[child.idx()] = fnv(fnv(self.sig.canon[p], 1), self.sig.spawn_count[p]);
            self.sig.spawn_count[p] += 1;
            self.pending_create[child.idx()] = id.0;
        }

        // Canonical event id: canon[tid] is final before any event of tid.
        let ceid = fnv(fnv(FNV_OFFSET, self.sig.canon[tid.idx()]), seq as u64);
        self.sig.ceids.push(ceid);

        // Decompose the kind into columns.
        let (loc, rf, mo_index, ord, val, written) = match kind {
            EventKind::AtomicLoad { loc, ord, rf, val } => {
                (loc.0, rf.map_or(NONE, |w| w.0), NONE, Some(ord), val, 0)
            }
            EventKind::AtomicStore {
                loc,
                ord,
                val,
                mo_index,
            } => (loc.0, NONE, mo_index, Some(ord), val, 0),
            EventKind::Rmw {
                loc,
                ord,
                rf,
                read_val,
                written,
                mo_index,
            } => (
                loc.0,
                rf.map_or(NONE, |w| w.0),
                if written.is_some() { mo_index } else { NONE },
                Some(ord),
                read_val,
                written.unwrap_or(0),
            ),
            EventKind::Fence { ord } => (0, NONE, NONE, Some(ord), 0, 0),
            EventKind::ThreadCreate { child } => (child.0, NONE, NONE, None, 0, 0),
            EventKind::ThreadJoin { target } => (target.0, NONE, NONE, None, 0, 0),
            EventKind::ThreadFinish => (0, NONE, NONE, None, 0, 0),
            EventKind::DataWrite { loc } => (loc.0, NONE, NONE, None, 0, 0),
            EventKind::DataRead { loc } => (loc.0, NONE, NONE, None, 0, 0),
        };

        let sc_index = match ord {
            Some(o) if o.is_seq_cst() => {
                self.sc_order.push(id);
                self.sc_order.len() as u32 - 1
            }
            _ => NONE,
        };

        // Per-location canonical minima and reader chains.
        match kind.tag() {
            EventTag::Load | EventTag::Store | EventTag::Rmw => {
                SigState::note_min(&mut self.sig.loc_min, loc as usize, ceid);
                if kind.tag() != EventTag::Store {
                    let li = loc as usize;
                    if self.readers.len() <= li {
                        self.readers.resize_with(li + 1, Vec::new);
                    }
                    self.readers[li].push(id);
                }
            }
            EventTag::DataWrite | EventTag::DataRead => {
                SigState::note_min(&mut self.sig.data_min, loc as usize, ceid);
            }
            _ => {}
        }

        if self.record_sw {
            self.record_sw_delta(tid, id, kind);
        }

        self.tids.push(tid.0);
        self.seqs.push(seq);
        self.tags.push(kind.tag());
        self.locs.push(loc);
        self.rfs.push(rf);
        self.mo_indices.push(mo_index);
        self.sc_indices.push(sc_index);
        self.clocks.push(clock);
        self.arena.push(ord, val, written);
        self.thread_events[tid.idx()].push(id);
        id
    }

    /// Record the sw edges this commit creates (C++11 release/acquire via
    /// rf, release sequences through RMW chains, the fence rules 29.8,
    /// create/join edges). Called before the event's own row is appended;
    /// every edge source is an already-committed event.
    fn record_sw_delta(&mut self, tid: Tid, id: EventId, kind: EventKind) {
        // create → first event of the child.
        if self.thread_events[tid.idx()].is_empty() {
            let c = self.pending_create[tid.idx()];
            if c != NONE {
                self.sw_edges.push((EventId(c), id));
            }
        }
        match kind {
            EventKind::ThreadJoin { target } => {
                // finish(target) → join. The runtime guarantees the target
                // finished; scan backwards for robustness against
                // hand-built traces.
                let fin = self
                    .thread_events
                    .get(target.idx())
                    .and_then(|evs| {
                        evs.iter()
                            .rev()
                            .find(|e| self.tags[e.idx()] == EventTag::Finish)
                    })
                    .copied();
                if let Some(f) = fin {
                    self.sw_edges.push((f, id));
                }
            }
            EventKind::Fence { ord } => {
                if ord.is_acquire() {
                    // 29.8p3-4: the fence synchronizes with every source
                    // whose store an earlier read of this thread read.
                    for i in 0..self.read_srcs[tid.idx()].len() {
                        let s = self.read_srcs[tid.idx()][i];
                        self.sw_edges.push((s, id));
                    }
                }
                if ord.is_release() {
                    self.rel_fences[tid.idx()].push(id);
                }
            }
            EventKind::AtomicLoad {
                ord, rf: Some(w), ..
            }
            | EventKind::Rmw {
                ord, rf: Some(w), ..
            } => {
                // Sources: release stores on the release chain of `w`
                // (the chain of RMWs back to the first plain store), plus
                // release fences sequenced before each chain element.
                let mut srcs = std::mem::take(&mut self.src_scratch);
                srcs.clear();
                let mut cur = w;
                loop {
                    let ci = cur.idx();
                    if self.arena.ords[ci].is_some_and(|o| o.is_release()) {
                        srcs.push(cur);
                    }
                    let ct = self.tids[ci] as usize;
                    let cseq = self.seqs[ci];
                    for &f in &self.rel_fences[ct] {
                        if self.seqs[f.idx()] < cseq {
                            srcs.push(f);
                        }
                    }
                    if self.tags[ci] == EventTag::Rmw && self.rfs[ci] != NONE {
                        cur = EventId(self.rfs[ci]);
                    } else {
                        break;
                    }
                }
                if ord.is_acquire() {
                    for &s in &srcs {
                        self.sw_edges.push((s, id));
                    }
                }
                self.read_srcs[tid.idx()].extend_from_slice(&srcs);
                self.src_scratch = srcs;
            }
            _ => {}
        }
    }

    // ---- row accessors -----------------------------------------------

    /// Executing thread of `id`.
    #[inline]
    pub fn tid(&self, id: EventId) -> Tid {
        Tid(self.tids[id.idx()])
    }

    /// 1-based per-thread sequence number of `id`.
    #[inline]
    pub fn seq(&self, id: EventId) -> u32 {
        self.seqs[id.idx()]
    }

    /// Kind discriminant of `id` (one byte; no payload materialization).
    #[inline]
    pub fn tag(&self, id: EventId) -> EventTag {
        self.tags[id.idx()]
    }

    /// Happens-before snapshot of `id` (own thread component implicit —
    /// query through [`Trace::happens_before`]).
    #[inline]
    pub fn clock(&self, id: EventId) -> &VecClock {
        &self.clocks[id.idx()]
    }

    /// Position of `id` in *S*, when it is `seq_cst`.
    #[inline]
    pub fn sc_index(&self, id: EventId) -> Option<u32> {
        match self.sc_indices[id.idx()] {
            NONE => None,
            s => Some(s),
        }
    }

    /// The store `id` read from, if it reads (`None` also for reads of the
    /// uninitialized pseudo-store).
    #[inline]
    pub fn rf(&self, id: EventId) -> Option<EventId> {
        match self.rfs[id.idx()] {
            NONE => None,
            w => Some(EventId(w)),
        }
    }

    /// mo index of the write, if `id` writes (a failed compare-exchange
    /// does not).
    #[inline]
    pub fn mo_index(&self, id: EventId) -> Option<u32> {
        match self.mo_indices[id.idx()] {
            NONE => None,
            m => Some(m),
        }
    }

    /// Is `id` a store or successful RMW (i.e. in some mo chain)?
    #[inline]
    pub fn is_write(&self, id: EventId) -> bool {
        self.mo_indices[id.idx()] != NONE
    }

    /// Is `id` a load or RMW (successful or not)?
    #[inline]
    pub fn is_read(&self, id: EventId) -> bool {
        matches!(self.tags[id.idx()], EventTag::Load | EventTag::Rmw)
    }

    /// Is `id` a `seq_cst` event?
    #[inline]
    pub fn is_sc(&self, id: EventId) -> bool {
        self.sc_indices[id.idx()] != NONE
    }

    /// Ordering parameter of `id`, if it has one.
    #[inline]
    pub fn ord(&self, id: EventId) -> Option<MemOrd> {
        self.arena.ords[id.idx()]
    }

    /// Atomic location touched by `id`, if any.
    #[inline]
    pub fn atomic_loc(&self, id: EventId) -> Option<LocId> {
        match self.tags[id.idx()] {
            EventTag::Load | EventTag::Store | EventTag::Rmw => Some(LocId(self.locs[id.idx()])),
            _ => None,
        }
    }

    /// Value written to the location by `id`, if any.
    #[inline]
    pub fn written_val(&self, id: EventId) -> Option<Val> {
        let i = id.idx();
        match self.tags[i] {
            EventTag::Store => Some(self.arena.vals[i]),
            EventTag::Rmw if self.mo_indices[i] != NONE => Some(self.arena.writtens[i]),
            _ => None,
        }
    }

    /// Materialize the logical [`EventKind`] of `id` from the columns
    /// (allocation-free; `EventKind` is `Copy`).
    pub fn kind(&self, id: EventId) -> EventKind {
        let i = id.idx();
        match self.tags[i] {
            EventTag::Load => EventKind::AtomicLoad {
                loc: LocId(self.locs[i]),
                ord: self.arena.ords[i].expect("load has an ordering"),
                rf: self.rf(id),
                val: self.arena.vals[i],
            },
            EventTag::Store => EventKind::AtomicStore {
                loc: LocId(self.locs[i]),
                ord: self.arena.ords[i].expect("store has an ordering"),
                val: self.arena.vals[i],
                mo_index: self.mo_indices[i],
            },
            EventTag::Rmw => {
                let success = self.mo_indices[i] != NONE;
                EventKind::Rmw {
                    loc: LocId(self.locs[i]),
                    ord: self.arena.ords[i].expect("rmw has an ordering"),
                    rf: self.rf(id),
                    read_val: self.arena.vals[i],
                    written: if success {
                        Some(self.arena.writtens[i])
                    } else {
                        None
                    },
                    mo_index: if success { self.mo_indices[i] } else { 0 },
                }
            }
            EventTag::Fence => EventKind::Fence {
                ord: self.arena.ords[i].expect("fence has an ordering"),
            },
            EventTag::Create => EventKind::ThreadCreate {
                child: Tid(self.locs[i]),
            },
            EventTag::Join => EventKind::ThreadJoin {
                target: Tid(self.locs[i]),
            },
            EventTag::Finish => EventKind::ThreadFinish,
            EventTag::DataWrite => EventKind::DataWrite {
                loc: DataId(self.locs[i]),
            },
            EventTag::DataRead => EventKind::DataRead {
                loc: DataId(self.locs[i]),
            },
        }
    }

    // ---- relation queries ----------------------------------------------

    /// Does `a` happen-before `b`? (`hb = (sb ∪ sw)⁺`, irreflexive.)
    /// O(1): program order within a thread, the committed clock snapshot
    /// across threads.
    #[inline]
    pub fn happens_before(&self, a: EventId, b: EventId) -> bool {
        if a == b {
            return false;
        }
        let (ai, bi) = (a.idx(), b.idx());
        if self.tids[ai] == self.tids[bi] {
            // Program order; `b`'s clock does not carry its own thread.
            return self.seqs[ai] < self.seqs[bi];
        }
        self.clocks[bi].knows(Tid(self.tids[ai]), self.seqs[ai])
    }

    /// Alias of [`Trace::happens_before`] (historical name).
    #[inline]
    pub fn hb(&self, a: EventId, b: EventId) -> bool {
        self.happens_before(a, b)
    }

    /// Are `a` and `b` both SC and is `a` before `b` in *S*?
    #[inline]
    pub fn sc_before(&self, a: EventId, b: EventId) -> bool {
        let (x, y) = (self.sc_indices[a.idx()], self.sc_indices[b.idx()]);
        x != NONE && y != NONE && x < y
    }

    /// The paper's ordering test for ordering points: `a` is ordered before
    /// `b` when `a` happens-before `b` **or** `a` precedes `b` in *S*.
    #[inline]
    pub fn ordered_before(&self, a: EventId, b: EventId) -> bool {
        self.hb(a, b) || self.sc_before(a, b)
    }

    /// All writes to `loc` in modification order.
    pub fn mo_of(&self, loc: LocId) -> &[EventId] {
        self.mo.get(loc.idx()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Exclusive upper bound on atomic location ids with any indexed
    /// activity — bounds loops over [`Trace::mo_of`] / [`Trace::readers_of`].
    /// (May over-approximate after [`Trace::clear`]: stale slots are empty.)
    pub fn loc_bound(&self) -> usize {
        self.readers.len().max(self.mo.len())
    }

    /// All reads (loads and RMWs) of `loc` in commit order — the rf side
    /// of the per-location index, maintained by [`Trace::push`].
    pub fn readers_of(&self, loc: LocId) -> &[EventId] {
        self.readers
            .get(loc.idx())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Events of `tid` in commit (= program) order, maintained by
    /// [`Trace::push`].
    pub fn events_of_thread(&self, tid: Tid) -> &[EventId] {
        self.thread_events
            .get(tid.idx())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The recorded sb∪sw adjacency delta: every synchronizes-with edge
    /// (create/join edges included) in commit order. Empty unless
    /// [`Trace::record_sw`] was set while the events were pushed.
    pub fn sw_edges(&self) -> &[(EventId, EventId)] {
        &self.sw_edges
    }

    /// Number of atomic operations (loads, stores, RMWs, fences).
    pub fn atomic_op_count(&self) -> usize {
        self.tags
            .iter()
            .filter(|t| {
                matches!(
                    t,
                    EventTag::Load | EventTag::Store | EventTag::Rmw | EventTag::Fence
                )
            })
            .count()
    }

    /// Overwrite the stored clock snapshot of `id` — test-builder support
    /// (`relations`' builder computes clocks post-hoc from the offline hb).
    #[cfg(test)]
    pub(crate) fn set_clock(&mut self, id: EventId, clock: VecClock) {
        self.clocks[id.idx()] = clock;
    }

    /// A compact multi-line rendering for diagnostics.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for i in 0..self.len() {
            let id = EventId(i as u32);
            let _ = write!(s, "{:>4} {} #{:<3} ", id, self.tid(id), self.seq(id));
            match self.kind(id) {
                EventKind::AtomicLoad { loc, ord, rf, val } => {
                    let _ = write!(s, "load  {loc} {ord} = {val}");
                    match rf {
                        Some(w) => {
                            let _ = write!(s, " (rf {w})");
                        }
                        None => {
                            let _ = write!(s, " (UNINITIALIZED)");
                        }
                    }
                }
                EventKind::AtomicStore {
                    loc,
                    ord,
                    val,
                    mo_index,
                } => {
                    let _ = write!(s, "store {loc} {ord} := {val} (mo {mo_index})");
                }
                EventKind::Rmw {
                    loc,
                    ord,
                    rf,
                    read_val,
                    written,
                    mo_index,
                } => {
                    match written {
                        Some(w) => {
                            let _ =
                                write!(s, "rmw   {loc} {ord} {read_val} -> {w} (mo {mo_index})");
                        }
                        None => {
                            let _ = write!(s, "rmw   {loc} {ord} read {read_val} (failed)");
                        }
                    }
                    if let Some(r) = rf {
                        let _ = write!(s, " (rf {r})");
                    }
                }
                EventKind::Fence { ord } => {
                    let _ = write!(s, "fence {ord}");
                }
                EventKind::ThreadCreate { child } => {
                    let _ = write!(s, "create {child}");
                }
                EventKind::ThreadJoin { target } => {
                    let _ = write!(s, "join   {target}");
                }
                EventKind::ThreadFinish => {
                    let _ = write!(s, "finish");
                }
                EventKind::DataWrite { loc } => {
                    let _ = write!(s, "write {loc}");
                }
                EventKind::DataRead { loc } => {
                    let _ = write!(s, "read  {loc}");
                }
            }
            if let Some(sc) = self.sc_index(id) {
                let _ = write!(s, "  [S{sc}]");
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_event_trace() -> Trace {
        let mut t = Trace {
            num_threads: 2,
            mo: vec![Vec::new()],
            ..Trace::default()
        };
        let w = t.push(
            Tid(0),
            1,
            EventKind::AtomicStore {
                loc: LocId(0),
                ord: MemOrd::SeqCst,
                val: 1,
                mo_index: 0,
            },
            VecClock::new(),
        );
        t.mo[0].push(w);
        let mut clock = VecClock::new();
        clock.set(Tid(0), 1);
        t.push(
            Tid(1),
            1,
            EventKind::AtomicLoad {
                loc: LocId(0),
                ord: MemOrd::SeqCst,
                rf: Some(w),
                val: 1,
            },
            clock,
        );
        t
    }

    #[test]
    fn hb_and_sc_queries() {
        let t = two_event_trace();
        assert!(t.hb(EventId(0), EventId(1)));
        assert!(!t.hb(EventId(1), EventId(0)));
        assert!(t.sc_before(EventId(0), EventId(1)));
        assert!(!t.sc_before(EventId(1), EventId(0)));
        assert!(t.ordered_before(EventId(0), EventId(1)));
    }

    #[test]
    fn happens_before_is_irreflexive() {
        let t = two_event_trace();
        assert!(!t.happens_before(EventId(0), EventId(0)));
        assert!(!t.happens_before(EventId(1), EventId(1)));
    }

    #[test]
    fn happens_before_same_thread_is_program_order() {
        let mut t = Trace {
            num_threads: 3,
            ..Trace::default()
        };
        t.push(Tid(2), 1, EventKind::ThreadFinish, VecClock::new());
        t.push(Tid(2), 2, EventKind::ThreadFinish, VecClock::new());
        // Neither clock mentions thread 2 — the own component is implicit.
        assert!(t.happens_before(EventId(0), EventId(1)));
        assert!(!t.happens_before(EventId(1), EventId(0)));
    }

    #[test]
    fn mo_lookup_handles_untouched_locations() {
        let t = two_event_trace();
        assert_eq!(t.mo_of(LocId(0)), &[EventId(0)]);
        assert!(t.mo_of(LocId(17)).is_empty());
    }

    #[test]
    fn row_accessors_match_materialized_kind() {
        let t = two_event_trace();
        let (w, r) = (EventId(0), EventId(1));
        assert_eq!(t.tag(w), EventTag::Store);
        assert_eq!(t.tag(r), EventTag::Load);
        assert!(t.is_write(w) && !t.is_write(r));
        assert!(t.is_read(r) && !t.is_read(w));
        assert!(t.is_sc(w) && t.is_sc(r));
        assert_eq!(t.mo_index(w), Some(0));
        assert_eq!(t.mo_index(r), None);
        assert_eq!(t.rf(r), Some(w));
        assert_eq!(t.written_val(w), Some(1));
        assert_eq!(t.written_val(r), None);
        assert_eq!(t.atomic_loc(r), Some(LocId(0)));
        assert_eq!(t.ord(w), Some(MemOrd::SeqCst));
        for id in [w, r] {
            let k = t.kind(id);
            assert_eq!(k.tag(), t.tag(id));
            assert_eq!(k.rf(), t.rf(id));
            assert_eq!(k.mo_index(), t.mo_index(id));
            assert_eq!(k.written_val(), t.written_val(id));
            assert_eq!(k.ord(), t.ord(id));
            assert_eq!(k.atomic_loc(), t.atomic_loc(id));
        }
    }

    #[test]
    fn failed_cas_materializes_with_written_none() {
        let mut t = Trace {
            num_threads: 1,
            ..Trace::default()
        };
        t.push(
            Tid(0),
            1,
            EventKind::Rmw {
                loc: LocId(3),
                ord: MemOrd::Acquire,
                rf: Some(EventId(7)),
                read_val: 9,
                written: None,
                mo_index: 0,
            },
            VecClock::new(),
        );
        assert_eq!(
            t.kind(EventId(0)),
            EventKind::Rmw {
                loc: LocId(3),
                ord: MemOrd::Acquire,
                rf: Some(EventId(7)),
                read_val: 9,
                written: None,
                mo_index: 0,
            }
        );
        assert!(!t.is_write(EventId(0)));
        assert!(t.is_read(EventId(0)));
    }

    #[test]
    fn specval_conversions() {
        assert_eq!(SpecVal::from(-1i32).as_i64(), -1);
        assert_eq!(SpecVal::from(7u64).as_u64(), 7);
        assert!(SpecVal::from(true).as_bool());
        assert!(SpecVal::from(3i64).as_bool());
        assert_eq!(SpecVal::from(()).to_owned(), SpecVal::Unit);
    }

    #[test]
    #[should_panic]
    fn specval_unit_as_int_panics() {
        SpecVal::Unit.as_i64();
    }

    #[test]
    fn render_mentions_all_events() {
        let t = two_event_trace();
        let r = t.render();
        assert!(r.contains("store"));
        assert!(r.contains("load"));
        assert!(r.contains("[S0]") && r.contains("[S1]"));
    }

    #[test]
    fn atomic_op_count_ignores_thread_events() {
        let mut t = two_event_trace();
        t.push(Tid(0), 2, EventKind::ThreadFinish, VecClock::new());
        assert_eq!(t.atomic_op_count(), 2);
    }

    #[test]
    fn incremental_indexes_track_pushes() {
        let t = two_event_trace();
        assert_eq!(t.events_of_thread(Tid(0)), &[EventId(0)]);
        assert_eq!(t.events_of_thread(Tid(1)), &[EventId(1)]);
        assert!(t.events_of_thread(Tid(9)).is_empty());
        assert_eq!(t.readers_of(LocId(0)), &[EventId(1)]);
        assert!(t.readers_of(LocId(5)).is_empty());
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut t = two_event_trace();
        let cap = t.tags.capacity();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.num_threads, 1);
        assert!(t.sc_order.is_empty());
        assert!(t.events_of_thread(Tid(0)).is_empty());
        assert!(t.readers_of(LocId(0)).is_empty());
        assert_eq!(t.tags.capacity(), cap);
        assert_eq!(t.sig.canon[0], fnv(FNV_OFFSET, 0));
        // Reusable: pushing after clear starts from id 0 again.
        let id = t.push(Tid(0), 1, EventKind::ThreadFinish, VecClock::new());
        assert_eq!(id, EventId(0));
    }
}
