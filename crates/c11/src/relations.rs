//! Derived relations: the C/C++11 axiom checks and the canonical rf
//! signature.
//!
//! The model checker computes happens-before *online* with vector clocks
//! and maintains per-location/per-thread indexes incrementally as events
//! commit (see [`crate::trace`]). The axioms — rf well-formedness,
//! coherence (CoWR, CoRW, CoRR, CoWW), RMW atomicity and the SC rules of
//! C++11 29.3 p3–p6 — are written once, as a pass over the trace's
//! columns and its `mo`/`readers` indexes that takes hb as a parameter.
//! The two entry points differ only in where hb comes from:
//!
//! * [`audit`] — the production-path checker, which `Config::debug_audit`
//!   runs on every feasible execution. hb is the O(1) clock query
//!   [`Trace::happens_before`]: no matrix, no transitive closure.
//! * [`validate`] — the differential oracle behind `validate_axioms`. It
//!   recomputes hb from the columns alone — sb, thread create/join edges,
//!   synchronizes-with from reads-from (including release sequences
//!   continued through RMWs and the C11 fence rules) — closes it with
//!   Floyd–Warshall, reports hb edges against commit order and every pair
//!   where the stored clocks disagree, then runs the same pass on the
//!   recomputed matrix, so its verdicts hold even when the clocks are
//!   wrong.
//!
//! Property tests in `cdsspec-mc` run every explored execution of random
//! programs through both, and pin the `mo`/`readers` indexes the pass
//! trusts to re-derivations from the columns.

use crate::clock::CoherenceMap;
use crate::event::{EventId, EventKind, EventTag, Tid};
use crate::loc::LocId;
use crate::ordering::MemOrd;
use crate::trace::{mix, Trace, MIX_SEED};

/// A violation of the C/C++11 axioms found by [`validate`] or [`audit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AxiomError {
    /// `hb` contradicts execution order (would imply a cycle).
    HbCycle {
        /// The event claimed to happen-before `b`.
        a: EventId,
        /// An event at or before `a` in execution order.
        b: EventId,
    },
    /// The stored vector clocks disagree with the recomputed `hb`.
    ClockMismatch {
        /// First event of the disagreeing pair.
        a: EventId,
        /// Second event of the disagreeing pair.
        b: EventId,
        /// `hb(a, b)` according to the online clocks.
        online: bool,
        /// `hb(a, b)` according to the offline recomputation.
        offline: bool,
    },
    /// A read's `rf` edge is malformed (wrong location, wrong value, or
    /// points forward in execution order).
    BadRf {
        /// The offending read.
        read: EventId,
        /// Human-readable description of the malformation.
        detail: String,
    },
    /// Write-read coherence: a newer store to the location happens-before
    /// the read, hiding the store it read from.
    CoWr {
        /// The offending read.
        read: EventId,
        /// The newer store that hides the read's `rf` target.
        hidden_by: EventId,
    },
    /// Read-read coherence: an hb-earlier read observed a newer store.
    CoRr {
        /// The hb-earlier read.
        first: EventId,
        /// The hb-later read that observed an older store.
        second: EventId,
    },
    /// Write-write coherence: hb contradicts mo.
    CoWw {
        /// The mo-later store that happens-before `second`.
        first: EventId,
        /// The mo-earlier store.
        second: EventId,
    },
    /// Read-write coherence: a read observed a store mo-after a write it
    /// happens-before.
    CoRw {
        /// The offending read.
        read: EventId,
        /// The write the read happens-before.
        write: EventId,
    },
    /// A successful RMW did not read its immediate mo predecessor.
    RmwAtomicity {
        /// The offending RMW.
        rmw: EventId,
    },
    /// An SC read violated C++11 29.3p3 (read an SC store other than the
    /// last preceding one in *S*, or a store hidden behind it).
    ScRead {
        /// The offending SC read.
        read: EventId,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A read violated one of the SC-fence rules (C++11 29.3 p4–p6): it
    /// observed a store older than the fence-published floor.
    ScFence {
        /// The offending read.
        read: EventId,
        /// Which of p4/p5/p6 fired.
        rule: &'static str,
    },
}

impl std::fmt::Display for AxiomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AxiomError::HbCycle { a, b } => write!(f, "hb cycle between {a} and {b}"),
            AxiomError::ClockMismatch {
                a,
                b,
                online,
                offline,
            } => write!(
                f,
                "clock mismatch for ({a},{b}): online hb={online}, offline hb={offline}"
            ),
            AxiomError::BadRf { read, detail } => write!(f, "bad rf at {read}: {detail}"),
            AxiomError::CoWr { read, hidden_by } => {
                write!(f, "CoWR: {read} reads a store hidden by {hidden_by}")
            }
            AxiomError::CoRr { first, second } => {
                write!(f, "CoRR: {first} hb {second} but read a newer store")
            }
            AxiomError::CoWw { first, second } => {
                write!(f, "CoWW: {first} hb {second} but mo disagrees")
            }
            AxiomError::CoRw { read, write } => {
                write!(f, "CoRW: {read} hb {write} but read an mo-later store")
            }
            AxiomError::RmwAtomicity { rmw } => {
                write!(f, "RMW {rmw} did not read its immediate mo predecessor")
            }
            AxiomError::ScRead { read, detail } => write!(f, "SC read {read}: {detail}"),
            AxiomError::ScFence { read, rule } => {
                write!(f, "SC-fence rule {rule} violated by read {read}")
            }
        }
    }
}

/// Dense reachability matrix over events (oracle-internal).
struct HbMatrix {
    n: usize,
    bits: Vec<bool>,
}

impl HbMatrix {
    fn new(n: usize) -> Self {
        HbMatrix {
            n,
            bits: vec![false; n * n],
        }
    }

    #[inline]
    fn get(&self, a: usize, b: usize) -> bool {
        self.bits[a * self.n + b]
    }

    #[inline]
    fn set(&mut self, a: usize, b: usize) {
        self.bits[a * self.n + b] = true;
    }

    /// Transitive closure (Floyd–Warshall; traces are small).
    fn close(&mut self) {
        for k in 0..self.n {
            for i in 0..self.n {
                if self.get(i, k) {
                    for j in 0..self.n {
                        if self.get(k, j) {
                            self.set(i, j);
                        }
                    }
                }
            }
        }
    }
}

/// The release-sequence elements a read of `w` may synchronize through:
/// `w` itself plus the chain of RMWs it (transitively) read from, ending at
/// the first non-RMW store. Returned from `w` backwards.
fn release_chain(trace: &Trace, w: EventId) -> Vec<EventId> {
    let mut chain = vec![w];
    let mut cur = w;
    while trace.tag(cur) == EventTag::Rmw {
        match trace.rf(cur) {
            Some(prev) => {
                cur = prev;
                chain.push(cur);
            }
            None => break,
        }
    }
    chain
}

/// Recompute `hb` offline, from the columns alone — never from the
/// incremental indexes it is meant to check. Returns the closed matrix.
fn compute_hb(trace: &Trace) -> HbMatrix {
    let n = trace.len();
    let mut hb = HbMatrix::new(n);

    // sb: consecutive events of the same thread.
    let mut last_of_thread: Vec<Option<usize>> = vec![None; trace.num_threads as usize];
    // First event of each thread (for create edges).
    let mut first_of_thread: Vec<Option<usize>> = vec![None; trace.num_threads as usize];
    // Finish event of each thread (for join edges).
    let mut finish_of_thread: Vec<Option<usize>> = vec![None; trace.num_threads as usize];

    for i in 0..n {
        let id = EventId(i as u32);
        let t = trace.tid(id).idx();
        if let Some(prev) = last_of_thread[t] {
            hb.set(prev, i);
        }
        if first_of_thread[t].is_none() {
            first_of_thread[t] = Some(i);
        }
        if trace.tag(id) == EventTag::Finish {
            finish_of_thread[t] = Some(i);
        }
        last_of_thread[t] = Some(i);
    }

    // create / join edges.
    for i in 0..n {
        match trace.kind(EventId(i as u32)) {
            EventKind::ThreadCreate { child } => {
                if let Some(Some(first)) = first_of_thread.get(child.idx()) {
                    hb.set(i, *first);
                }
            }
            EventKind::ThreadJoin { target } => {
                if let Some(Some(fin)) = finish_of_thread.get(target.idx()) {
                    hb.set(*fin, i);
                }
            }
            _ => {}
        }
    }

    // sw from rf (+ release sequences + fences).
    let release_fences_before = |tid: Tid, seq: u32| -> Vec<usize> {
        (0..n)
            .filter(|&i| {
                let f = EventId(i as u32);
                trace.tid(f) == tid
                    && trace.seq(f) < seq
                    && trace.tag(f) == EventTag::Fence
                    && trace.ord(f).is_some_and(|o| o.is_release())
            })
            .collect()
    };
    let acquire_fences_after = |tid: Tid, seq: u32| -> Vec<usize> {
        (0..n)
            .filter(|&i| {
                let f = EventId(i as u32);
                trace.tid(f) == tid
                    && trace.seq(f) > seq
                    && trace.tag(f) == EventTag::Fence
                    && trace.ord(f).is_some_and(|o| o.is_acquire())
            })
            .collect()
    };

    for ri in 0..n {
        let r = EventId(ri as u32);
        // Only reads have an rf edge.
        let Some(w) = trace.rf(r) else { continue };

        // Collect sync sources.
        let mut sources: Vec<usize> = Vec::new();
        for elem in release_chain(trace, w) {
            let w_ord = trace.ord(elem).unwrap_or(MemOrd::Relaxed);
            if w_ord.is_release() {
                sources.push(elem.idx());
            }
            // A release fence sequenced before a store in the (hypothetical)
            // release sequence synchronizes too.
            for f in release_fences_before(trace.tid(elem), trace.seq(elem)) {
                sources.push(f);
            }
        }
        if sources.is_empty() {
            continue;
        }

        // Collect sync destinations.
        let mut dests: Vec<usize> = Vec::new();
        if trace.ord(r).is_some_and(|o| o.is_acquire()) {
            dests.push(ri);
        }
        for f in acquire_fences_after(trace.tid(r), trace.seq(r)) {
            dests.push(f);
        }

        for &s in &sources {
            for &d in &dests {
                if s != d {
                    hb.set(s, d);
                }
            }
        }
    }

    hb.close();
    hb
}

/// Validate a finished trace against the memory-model axioms with hb
/// recomputed from first principles (the differential oracle). The
/// recomputed hb must embed into execution order
/// ([`AxiomError::HbCycle`]) and agree with the stored clocks on every
/// pair ([`AxiomError::ClockMismatch`]); the axioms are then checked on
/// it, not on the clocks. Returns every violation found (empty =
/// consistent).
pub fn validate(trace: &Trace) -> Vec<AxiomError> {
    let mut errors = Vec::new();
    let n = trace.len();
    let hb = compute_hb(trace);
    for a in 0..n {
        for b in 0..n {
            let (ea, eb) = (EventId(a as u32), EventId(b as u32));
            let offline = hb.get(a, b);
            if offline && b <= a {
                errors.push(AxiomError::HbCycle { a: ea, b: eb });
            }
            let online = trace.happens_before(ea, eb);
            if a != b && online != offline {
                errors.push(AxiomError::ClockMismatch {
                    a: ea,
                    b: eb,
                    online,
                    offline,
                });
            }
        }
    }
    axioms(trace, |a, b| hb.get(a.idx(), b.idx()), &mut errors);
    errors
}

/// Check a finished trace against the memory-model axioms with hb
/// answered by the trace's own clocks (O(1) per query). No matrix is
/// built and no closure is computed — this is what the explorer runs on
/// every feasible execution when `Config::debug_audit` is on.
///
/// It reports every [`validate`] finding except the two that exist to
/// distrust the clocks ([`AxiomError::HbCycle`] and
/// [`AxiomError::ClockMismatch`]): trusting them is its premise.
pub fn audit(trace: &Trace) -> Vec<AxiomError> {
    let mut errors = Vec::new();
    axioms(trace, |a, b| trace.happens_before(a, b), &mut errors);
    errors
}

/// The axioms, written once for [`validate`] and [`audit`]: rf
/// well-formedness, coherence, RMW atomicity and the SC rules, read from
/// the trace's columns and its `mo`/`readers` indexes. `hb` is the only
/// thing the two callers answer differently.
fn axioms(trace: &Trace, hb: impl Fn(EventId, EventId) -> bool, errors: &mut Vec<AxiomError>) {
    // Per read: RMW atomicity, rf well-formedness, CoWR and CoRW.
    for ri in 0..trace.len() {
        let r = EventId(ri as u32);
        let Some(read_val) = trace.read_val(r) else {
            continue;
        };
        let rf = trace.rf(r);
        // A successful RMW's write sits right after the store it read.
        if let Some(m) = trace.mo_index(r) {
            if rf.map_or(Some(0), |w| trace.mo_index(w).map(|p| p + 1)) != Some(m) {
                errors.push(AxiomError::RmwAtomicity { rmw: r });
            }
        }
        let Some(w) = rf else { continue };
        let loc = trace.atomic_loc(r).expect("reads have a location");
        if trace.atomic_loc(w) != Some(loc) {
            errors.push(AxiomError::BadRf {
                read: r,
                detail: format!("rf {w} is to a different location"),
            });
            continue;
        }
        match trace.written_val(w) {
            Some(v) if v == read_val => {}
            other => errors.push(AxiomError::BadRf {
                read: r,
                detail: format!("value mismatch: read {read_val}, store wrote {other:?}"),
            }),
        }
        if w.idx() >= ri {
            errors.push(AxiomError::BadRf {
                read: r,
                detail: "reads from a later event (load buffering is out of scope)".into(),
            });
        }
        // CoWR: no mo-later store happens-before the read. CoRW: the read
        // happens-before no other store at or below its rf in mo.
        let w_mo = trace.mo_index(w).unwrap_or(0);
        for &w2 in trace.mo_of(loc) {
            let m2 = trace.mo_index(w2).unwrap_or(0);
            if m2 > w_mo && hb(w2, r) {
                errors.push(AxiomError::CoWr {
                    read: r,
                    hidden_by: w2,
                });
            } else if m2 <= w_mo && w2 != w && hb(r, w2) {
                errors.push(AxiomError::CoRw { read: r, write: w2 });
            }
        }
    }

    // CoRR: a read hb-after another read of the location must not observe
    // an mo-older store. hb is contained in commit order (`validate`
    // reports any trace where it is not), so each reader is compared only
    // with the readers committed before it.
    let rf_mo = |r: EventId| {
        let w = trace.rf(r)?;
        // A malformed rf was reported above.
        (trace.atomic_loc(w) == trace.atomic_loc(r)).then(|| trace.mo_index(w).unwrap_or(0))
    };
    for li in 0..trace.loc_bound() {
        let readers = trace.readers_of(LocId(li as u32));
        for (j, &b) in readers.iter().enumerate() {
            let Some(mb) = rf_mo(b) else { continue };
            for &a in &readers[..j] {
                if rf_mo(a).is_some_and(|ma| ma > mb) && hb(a, b) {
                    errors.push(AxiomError::CoRr {
                        first: a,
                        second: b,
                    });
                }
            }
        }
    }

    // CoWW: hb over same-location writes must agree with mo.
    for chain in &trace.mo {
        for (x, &w1) in chain.iter().enumerate() {
            for &w2 in &chain[x + 1..] {
                if hb(w2, w1) {
                    errors.push(AxiomError::CoWw {
                        first: w2,
                        second: w1,
                    });
                }
            }
        }
    }

    sc_read_check(trace, &hb, errors);
    sc_fence_check(trace, errors);
}

/// The SC-read rule (29.3p3): an SC read observes the last SC store to
/// its location preceding it in *S*, or a non-SC store that does not
/// happen-before that one.
fn sc_read_check(
    trace: &Trace,
    hb: impl Fn(EventId, EventId) -> bool,
    errors: &mut Vec<AxiomError>,
) {
    for &r in &trace.sc_order {
        if !trace.is_read(r) {
            continue;
        }
        let Some(w) = trace.rf(r) else { continue };
        let loc = trace.atomic_loc(r).expect("reads have a location");
        let r_sc = trace.sc_index(r).expect("SC event must have an S index");
        // B = last SC write to loc preceding the read in S.
        let b = trace
            .mo_of(loc)
            .iter()
            .rev()
            .find(|&&x| trace.sc_index(x).is_some_and(|s| s < r_sc));
        let Some(&b) = b else { continue };
        if w == b {
            continue;
        }
        if trace.is_sc(w) {
            errors.push(AxiomError::ScRead {
                read: r,
                detail: format!("read SC store {w} but the last preceding SC store in S is {b}"),
            });
        } else if hb(w, b) {
            errors.push(AxiomError::ScRead {
                read: r,
                detail: format!("read non-SC store {w} that happens-before the last SC store {b}"),
            });
        }
    }
}

thread_local! {
    /// [`sc_fence_check`]'s per-thread tables, kept across calls so an
    /// audited exploration allocates them once per OS thread.
    static SC_FENCE_TABLES: std::cell::RefCell<Vec<(CoherenceMap, CoherenceMap)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The SC-fence rules (29.3 p4–p6), checked by a single commit-order walk
/// maintaining (a) the mo index of the last SC store per location, (b)
/// per-thread "own stores" tables, and (c) the global fence-published
/// floor; per-thread floors are snapshotted at each SC fence. Linear and
/// matrix-free: the rules need no hb.
fn sc_fence_check(trace: &Trace, errors: &mut Vec<AxiomError>) {
    // Only an SC fence raises a floor or publishes stores, so without one
    // no read can break p4–p6.
    if !trace
        .sc_order
        .iter()
        .any(|&e| trace.tag(e) == EventTag::Fence)
    {
        return;
    }
    SC_FENCE_TABLES.with(|tables| {
        let mut tables = tables.borrow_mut();
        let nthreads = trace.num_threads as usize;
        if tables.len() < nthreads {
            tables.resize_with(nthreads, Default::default);
        }
        for t in &mut tables[..nthreads] {
            *t = Default::default();
        }
        sc_fence_walk(trace, &mut tables[..nthreads], errors);
    });
}

/// [`sc_fence_check`]'s walk; `threads[t]` holds thread `t`'s own-stores
/// table and SC-fence floor, both empty on entry.
fn sc_fence_walk(
    trace: &Trace,
    threads: &mut [(CoherenceMap, CoherenceMap)],
    errors: &mut Vec<AxiomError>,
) {
    let mut sc_last_store = CoherenceMap::new();
    let mut published = CoherenceMap::new();

    for i in 0..trace.len() {
        let id = EventId(i as u32);
        // Only atomic operations and fences carry an ordering.
        let Some(ord) = trace.ord(id) else { continue };
        let (own, floor) = &mut threads[trace.tid(id).idx()];
        let Some(loc) = trace.atomic_loc(id) else {
            if ord.is_seq_cst() {
                floor.join(&sc_last_store); // p4
                floor.join(&published); // p6
                published.join(own); // p5 (and later p6)
            }
            continue;
        };
        // The read half of an RMW is checked before its write lands.
        if let Some(w) = trace.rf(id) {
            let got = trace.mo_index(w).unwrap_or(0);
            if floor.get(loc).is_some_and(|fl| got < fl) {
                errors.push(AxiomError::ScFence {
                    read: id,
                    rule: "p4/p6",
                });
            }
            if ord.is_seq_cst() && published.get(loc).is_some_and(|fl| got < fl) {
                errors.push(AxiomError::ScFence {
                    read: id,
                    rule: "p5",
                });
            }
        }
        if let Some(m) = trace.mo_index(id) {
            own.raise(loc, m);
            if ord.is_seq_cst() {
                sc_last_store.raise(loc, m);
            }
        }
    }
}

// ---------------------------------------------------------------------
// rf-signature canonicalization (exploration identity)
// ---------------------------------------------------------------------

/// Sentinel mixed in for "reads the initial (uninitialized) value".
const NO_RF: u64 = 0x5eed_0000_0000_0001;

/// A schedule-independent identity for a completed execution: a hash of
/// the abstract execution graph — per-thread operation sequences, the
/// reads-from assignment, per-location modification orders, and the SC
/// order — with every schedule-dependent artifact canonicalized away.
///
/// Two completed executions that differ only in how the scheduler
/// interleaved their threads hash identically; executions that differ in
/// any rf edge, mo position, or SC position hash differently (modulo
/// 64-bit collisions). Concretely:
///
/// * **Threads** are named by their spawn path (parent's name plus the
///   parent's spawn count at creation), not by their interleaving-
///   dependent [`Tid`]; events are identified as (thread name, per-thread
///   sequence number), never by their global commit index.
/// * **Locations** are named by the smallest canonical event id that
///   touches them, because `LocId`/`DataId` allocation order tracks the
///   schedule.
/// * **Values are excluded**: the test closure is deterministic, so given
///   the per-thread operation sequences and the rf assignment the values
///   are redundant — and pointer-valued cells would otherwise leak
///   allocation addresses into the hash.
/// * Per-thread and per-location chains are combined commutatively, so
///   the fold order (which tracks the schedule) cannot leak in.
///
/// Signatures are comparable within one test closure's exploration —
/// that is their only use: counting rf classes and checking that pruned
/// and unpruned explorations cover the same classes. The values are also
/// persisted in campaign journals, so the hash is stable within a
/// `TREE_VERSION` (`cdsspec_mc::explore::TREE_VERSION`), which journals
/// and caches key on: a change to the hash bumps it. `cdsspec-mc`'s
/// lockstep tests keep the original full-re-walk derivation as the
/// reference and pin this incremental finalize to it.
///
/// This finalize is a single allocation-free O(n) fold over state the
/// trace maintained at commit time (`SigState`: spawn-path thread names,
/// per-event canonical ids, per-location minima) — the canonicalization
/// itself costs nothing extra at the leaf.
pub fn rf_signature(trace: &Trace) -> u64 {
    let nthreads = trace.num_threads as usize;
    let st = &trace.sig;
    let canon = |t: usize| st.canon.get(t).copied().unwrap_or(0);
    let ceid = |id: EventId| st.ceids[id.idx()];

    // Per-thread operation chains (sequential fold per thread = program
    // order, which is exactly the per-thread event range; commutative sum
    // across threads).
    let mut sig = 0u64;
    for t in 0..nthreads {
        let mut h = mix(MIX_SEED, canon(t));
        for &id in trace.events_of_thread(Tid(t as u32)) {
            h = match trace.kind(id) {
                EventKind::AtomicLoad { loc, ord, rf, .. } => {
                    let rf = rf.map(&ceid).unwrap_or(NO_RF);
                    mix(mix(mix(mix(h, 1), st.loc_min[loc.idx()]), ord as u64), rf)
                }
                EventKind::AtomicStore { loc, ord, .. } => {
                    mix(mix(mix(h, 2), st.loc_min[loc.idx()]), ord as u64)
                }
                EventKind::Rmw {
                    loc,
                    ord,
                    rf,
                    written,
                    ..
                } => {
                    let rf = rf.map(&ceid).unwrap_or(NO_RF);
                    let wrote = written.is_some() as u64;
                    mix(
                        mix(mix(mix(mix(h, 3), st.loc_min[loc.idx()]), ord as u64), rf),
                        wrote,
                    )
                }
                EventKind::Fence { ord } => mix(mix(h, 4), ord as u64),
                EventKind::ThreadCreate { child } => mix(mix(h, 5), canon(child.idx())),
                EventKind::ThreadJoin { target } => mix(mix(h, 6), canon(target.idx())),
                EventKind::ThreadFinish => mix(h, 7),
                EventKind::DataWrite { loc } => mix(mix(h, 8), st.data_min[loc.idx()]),
                EventKind::DataRead { loc } => mix(mix(h, 9), st.data_min[loc.idx()]),
            };
        }
        sig = sig.wrapping_add(mix(MIX_SEED, h));
    }

    // Per-location modification orders (commutative across locations).
    for (li, chain) in trace.mo.iter().enumerate() {
        if chain.is_empty() {
            continue;
        }
        let mut h = mix(mix(MIX_SEED, 10), st.loc_min[li]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VecClock;
    use crate::loc::DataId;
    use crate::trace::Trace;
    use crate::value::Val;

    /// Tiny hand-rolled trace builder for validator tests, routed through
    /// the real [`Trace::push`] commit point (so the incremental indexes
    /// are exercised too). Each write takes its place in `mo` at its own
    /// mo index. Clocks are computed post-hoc with the same
    /// sb/create/join/sw rules (but a simpler, obviously-correct
    /// algorithm: rebuild from compute_hb) and written back.
    struct Builder {
        t: Trace,
        seqs: Vec<u32>,
    }

    impl Builder {
        fn new(threads: usize) -> Self {
            let mut t = Trace::default();
            t.num_threads = threads as u32;
            Builder {
                t,
                seqs: vec![0; threads],
            }
        }

        fn push(&mut self, tid: u32, kind: EventKind) -> EventId {
            self.seqs[tid as usize] += 1;
            let id = self
                .t
                .push(Tid(tid), self.seqs[tid as usize], kind, VecClock::new());
            if let Some(m) = kind.mo_index() {
                let loc = kind.atomic_loc().expect("writes have a location");
                if self.t.mo.len() <= loc.idx() {
                    self.t.mo.resize_with(loc.idx() + 1, Vec::new);
                }
                let chain = &mut self.t.mo[loc.idx()];
                chain.insert((m as usize).min(chain.len()), id);
            }
            id
        }

        /// A store appended at the top of its location's mo.
        fn store(&mut self, tid: u32, loc: u32, ord: MemOrd, val: Val) -> EventId {
            let mo_index = self.t.mo_of(LocId(loc)).len() as u32;
            self.store_at(tid, loc, ord, val, mo_index)
        }

        /// A store placed at `mo_index` in its location's mo.
        fn store_at(
            &mut self,
            tid: u32,
            loc: u32,
            ord: MemOrd,
            val: Val,
            mo_index: u32,
        ) -> EventId {
            self.push(
                tid,
                EventKind::AtomicStore {
                    loc: LocId(loc),
                    ord,
                    val,
                    mo_index,
                },
            )
        }

        fn load(&mut self, tid: u32, loc: u32, ord: MemOrd, rf: Option<EventId>) -> EventId {
            let val = rf.map(|w| self.t.written_val(w).unwrap()).unwrap_or(0);
            self.load_val(tid, loc, ord, rf, val)
        }

        /// A load of `val`, whatever its rf wrote (or will write).
        fn load_val(
            &mut self,
            tid: u32,
            loc: u32,
            ord: MemOrd,
            rf: Option<EventId>,
            val: Val,
        ) -> EventId {
            self.push(
                tid,
                EventKind::AtomicLoad {
                    loc: LocId(loc),
                    ord,
                    rf,
                    val,
                },
            )
        }

        fn rmw(
            &mut self,
            tid: u32,
            ord: MemOrd,
            rf: EventId,
            written: Val,
            mo_index: u32,
        ) -> EventId {
            let read_val = self.t.written_val(rf).unwrap();
            let loc = self.t.atomic_loc(rf).unwrap();
            self.push(
                tid,
                EventKind::Rmw {
                    loc,
                    ord,
                    rf: Some(rf),
                    read_val,
                    written: Some(written),
                    mo_index,
                },
            )
        }

        fn finish(mut self) -> Trace {
            // Populate clocks from the offline hb, so `validate` finds no
            // clock mismatch and `audit` sees the same hb.
            let n = self.t.len();
            let hb = compute_hb(&self.t);
            for i in 0..n {
                let mut clock = VecClock::new();
                for j in 0..n {
                    if hb.get(j, i) {
                        let je = EventId(j as u32);
                        clock.raise(self.t.tid(je), self.t.seq(je));
                    }
                }
                self.t.set_clock(EventId(i as u32), clock);
            }
            self.t
        }
    }

    use AxiomError::*;
    use MemOrd::*;

    fn e(i: u32) -> EventId {
        EventId(i)
    }

    /// `validate` reports exactly `want`, and `audit` exactly `want`
    /// without the two findings that distrust the clocks.
    fn assert_errors(t: &Trace, want: &[AxiomError]) {
        let sorted = |mut v: Vec<AxiomError>| {
            v.sort_by_key(|e| e.to_string());
            v
        };
        assert_eq!(sorted(validate(t)), sorted(want.to_vec()), "validate");
        let trusting = want
            .iter()
            .filter(|e| !matches!(e, HbCycle { .. } | ClockMismatch { .. }))
            .cloned()
            .collect();
        assert_eq!(sorted(audit(t)), sorted(trusting), "audit");
    }

    #[test]
    fn consistent_message_passing_validates() {
        // T0: store d=1 rlx; store f=1 rel.  T1: load f=1 acq; load d=1 rlx.
        let mut b = Builder::new(2);
        let d = b.store(0, 0, Relaxed, 1);
        let f = b.store(0, 1, Release, 1);
        b.load(1, 1, Acquire, Some(f));
        b.load(1, 0, Relaxed, Some(d));
        assert_errors(&b.finish(), &[]);
    }

    #[test]
    fn hidden_store_is_a_cowr_violation() {
        // T0: store x=1; store x=2 rel. T1: load x acq reads 2 (sync), then
        // loads x=1 again — reads a store hidden behind one it has seen.
        let mut b = Builder::new(2);
        let w1 = b.store(0, 0, Relaxed, 1);
        let w2 = b.store(0, 0, Release, 2);
        let r1 = b.load(1, 0, Acquire, Some(w2));
        let r2 = b.load(1, 0, Relaxed, Some(w1));
        assert_errors(
            &b.finish(),
            &[
                CoWr {
                    read: r2,
                    hidden_by: w2,
                },
                CoRr {
                    first: r1,
                    second: r2,
                },
            ],
        );
    }

    #[test]
    fn corr_violation_detected_without_sync() {
        // Same thread reads x=2 then x=1 with no synchronization at all:
        // still a CoRR violation via sb.
        let mut b = Builder::new(2);
        let w1 = b.store(0, 0, Relaxed, 1);
        let w2 = b.store(0, 0, Relaxed, 2);
        let r1 = b.load(1, 0, Relaxed, Some(w2));
        let r2 = b.load(1, 0, Relaxed, Some(w1));
        assert_errors(
            &b.finish(),
            &[CoRr {
                first: r1,
                second: r2,
            }],
        );
    }

    #[test]
    fn corw_read_before_an_mo_older_write() {
        // T1 reads x=1 (mo 1), then stores x=2 placed *before* it in mo.
        let mut b = Builder::new(2);
        b.store_at(0, 0, Relaxed, 1, 1);
        let r = b.load(1, 0, Relaxed, Some(e(0)));
        let w = b.store_at(1, 0, Relaxed, 2, 0);
        assert_errors(&b.finish(), &[CoRw { read: r, write: w }]);
    }

    #[test]
    fn coww_hb_against_mo() {
        // T0 stores x=1 then x=2, but mo places x=2 first.
        let mut b = Builder::new(1);
        let w1 = b.store_at(0, 0, Relaxed, 1, 1);
        let w2 = b.store_at(0, 0, Relaxed, 2, 0);
        assert_errors(
            &b.finish(),
            &[CoWw {
                first: w1,
                second: w2,
            }],
        );
    }

    #[test]
    fn stale_read_without_sync_is_legal() {
        // Relaxed MP: reading the flag does NOT make the data store
        // hb-visible, so reading stale data is consistent.
        let mut b = Builder::new(2);
        let _d = b.store(0, 0, Relaxed, 1);
        let f = b.store(0, 1, Relaxed, 1);
        b.load(1, 1, Relaxed, Some(f));
        b.load(1, 0, Relaxed, None); // uninitialized read: rf = None
                                     // rf = None is no axiom violation (uninit is the *checker's*
                                     // built-in bug).
        assert_errors(&b.finish(), &[]);
    }

    #[test]
    fn sc_read_must_see_last_sc_store() {
        // T0: store x=1 sc. T1: store x=2 sc. T2: load x sc reading 1 while
        // the last SC store in S is 2 → violation.
        let mut b = Builder::new(3);
        let w1 = b.store(0, 0, SeqCst, 1);
        let w2 = b.store(1, 0, SeqCst, 2);
        let r = b.load(2, 0, SeqCst, Some(w1));
        assert_errors(
            &b.finish(),
            &[ScRead {
                read: r,
                detail: format!("read SC store {w1} but the last preceding SC store in S is {w2}"),
            }],
        );
    }

    #[test]
    fn sc_read_of_a_non_sc_store_hidden_by_the_last_sc_store() {
        // T0: store x=1 rlx; store x=2 sc. T1: SC load reads x=1, which
        // happens-before the last SC store in S.
        let mut b = Builder::new(2);
        let w1 = b.store(0, 0, Relaxed, 1);
        let w2 = b.store(0, 0, SeqCst, 2);
        let r = b.load(1, 0, SeqCst, Some(w1));
        assert_errors(
            &b.finish(),
            &[ScRead {
                read: r,
                detail: format!(
                    "read non-SC store {w1} that happens-before the last SC store {w2}"
                ),
            }],
        );
    }

    #[test]
    fn release_sequence_through_rmw_synchronizes() {
        // T0: store x=1 rel. T1: rmw x 1->2 rlx. T2: load x acq reads the
        // RMW → synchronizes with the release head, so a CoWR check on data
        // would hold. Here we just confirm hb(T0 store, T2 load).
        let mut b = Builder::new(3);
        let h = b.store(0, 0, Release, 1);
        let rmw = b.rmw(1, Relaxed, h, 2, 1);
        let r = b.load(2, 0, Acquire, Some(rmw));
        let t = b.finish();
        assert_errors(&t, &[]);
        assert!(
            t.happens_before(h, r),
            "release sequence must give hb(head, acquire reader)"
        );
    }

    #[test]
    fn fence_synchronization_gives_hb() {
        // T0: store d rlx; release fence; store f rlx.
        // T1: load f rlx (reads f); acquire fence; load d.
        let mut b = Builder::new(2);
        let d = b.store(0, 0, Relaxed, 1);
        b.push(0, EventKind::Fence { ord: Release });
        let f = b.store(0, 1, Relaxed, 1);
        b.load(1, 1, Relaxed, Some(f));
        b.push(1, EventKind::Fence { ord: Acquire });
        let r = b.load(1, 0, Relaxed, Some(d));
        let t = b.finish();
        assert_errors(&t, &[]);
        assert!(
            t.happens_before(d, r),
            "fence-fence synchronization must order the data accesses"
        );
    }

    #[test]
    fn rmw_atomicity_enforced() {
        let mut b = Builder::new(2);
        let w1 = b.store(0, 0, Relaxed, 1);
        let _w2 = b.store(0, 0, Relaxed, 2);
        // RMW claims to read w1 but its write is appended at mo index 2
        // (not adjacent) → atomicity violation.
        let rmw = b.rmw(1, Relaxed, w1, 5, 2);
        assert_errors(&b.finish(), &[RmwAtomicity { rmw }]);
    }

    #[test]
    fn sc_fence_p5_violation_detected() {
        // T0: store x=1 rlx; SC fence (publishes x=1).
        // T1: SC load of x reading the stale init — p5 forbids it.
        let mut b = Builder::new(2);
        let w0 = b.store(0, 0, Relaxed, 0); // init
        let _w1 = b.store(0, 0, Relaxed, 1);
        b.push(0, EventKind::Fence { ord: SeqCst });
        let r = b.load(1, 0, SeqCst, Some(w0));
        assert_errors(
            &b.finish(),
            &[ScFence {
                read: r,
                rule: "p5",
            }],
        );
    }

    #[test]
    fn sc_fence_p4_violation_detected() {
        // T0: SC store x=1. T1: SC fence; then a relaxed load of x reading
        // the init — p4 forbids reading anything older than the last SC
        // store preceding the fence in S.
        let mut b = Builder::new(2);
        let w0 = b.store(0, 0, Relaxed, 0); // init
        let _w1 = b.store(0, 0, SeqCst, 1);
        b.push(1, EventKind::Fence { ord: SeqCst });
        let r = b.load(1, 0, Relaxed, Some(w0));
        assert_errors(
            &b.finish(),
            &[ScFence {
                read: r,
                rule: "p4/p6",
            }],
        );
    }

    #[test]
    fn sc_fence_p6_violation_detected() {
        // T0: store x=1 rlx; SC fence. T1: SC fence; then a relaxed load
        // of x reading the init — p6 forbids reading anything older than
        // what the earlier fence's thread had stored.
        let mut b = Builder::new(2);
        let w0 = b.store(0, 0, Relaxed, 0); // init
        let _w1 = b.store(0, 0, Relaxed, 1);
        b.push(0, EventKind::Fence { ord: SeqCst });
        b.push(1, EventKind::Fence { ord: SeqCst });
        let r = b.load(1, 0, Relaxed, Some(w0));
        assert_errors(
            &b.finish(),
            &[ScFence {
                read: r,
                rule: "p4/p6",
            }],
        );
    }

    #[test]
    fn sc_fences_clean_trace_passes() {
        // The compliant version of the p5 scenario: the SC load reads the
        // published store.
        let mut b = Builder::new(2);
        let _w0 = b.store(0, 0, Relaxed, 0);
        let w1 = b.store(0, 0, Relaxed, 1);
        b.push(0, EventKind::Fence { ord: SeqCst });
        b.load(1, 0, SeqCst, Some(w1));
        assert_errors(&b.finish(), &[]);
    }

    #[test]
    fn bad_rf_value_mismatch_detected() {
        let mut b = Builder::new(1);
        let w = b.store(0, 0, Relaxed, 1);
        let r = b.load_val(0, 0, Relaxed, Some(w), 99);
        assert_errors(
            &b.finish(),
            &[BadRf {
                read: r,
                detail: "value mismatch: read 99, store wrote Some(1)".into(),
            }],
        );
    }

    #[test]
    fn bad_rf_to_another_location_detected() {
        let mut b = Builder::new(2);
        let w = b.store(0, 1, Relaxed, 1);
        let r = b.load(1, 0, Relaxed, Some(w));
        assert_errors(
            &b.finish(),
            &[BadRf {
                read: r,
                detail: format!("rf {w} is to a different location"),
            }],
        );
    }

    #[test]
    fn bad_rf_to_a_later_event_detected() {
        // T0 reads x=1 from the store it makes next: rf against commit
        // order, and the read happens-before the store it reads.
        let mut b = Builder::new(1);
        let r = b.load_val(0, 0, Relaxed, Some(e(1)), 1);
        b.store(0, 0, Relaxed, 1);
        assert_errors(
            &b.finish(),
            &[BadRf {
                read: r,
                detail: "reads from a later event (load buffering is out of scope)".into(),
            }],
        );
    }

    #[test]
    fn forward_synchronization_is_an_hb_cycle() {
        // T0's acquire load reads T1's later release store: sw points
        // against commit order. Only `validate` sees the cycle; both see
        // the forward rf.
        let mut b = Builder::new(2);
        let r = b.load_val(0, 0, Acquire, Some(e(1)), 1);
        let w = b.store(1, 0, Release, 1);
        assert_errors(
            &b.finish(),
            &[
                HbCycle { a: w, b: r },
                BadRf {
                    read: r,
                    detail: "reads from a later event (load buffering is out of scope)".into(),
                },
            ],
        );
    }

    #[test]
    fn wrong_clock_is_a_mismatch_and_misleads_only_audit() {
        // T0 stores x=1, x=2 (relaxed); T1 reads x=1. A clock claiming
        // T0's second store makes `audit` see CoWR; `validate` recomputes
        // hb and reports only the mismatched pairs.
        let mut b = Builder::new(2);
        let w1 = b.store(0, 0, Relaxed, 1);
        let w2 = b.store(0, 0, Relaxed, 2);
        let r = b.load(1, 0, Relaxed, Some(w1));
        let mut t = b.finish();
        let mut clock = VecClock::new();
        clock.raise(Tid(0), 2);
        t.set_clock(r, clock);
        let mismatch = |a| ClockMismatch {
            a,
            b: r,
            online: true,
            offline: false,
        };
        let mut oracle = validate(&t);
        oracle.sort_by_key(|e| e.to_string());
        assert_eq!(oracle, vec![mismatch(w1), mismatch(w2)]);
        assert_eq!(
            audit(&t),
            vec![CoWr {
                read: r,
                hidden_by: w2,
            }]
        );
    }

    #[test]
    fn spawn_join_trace_validates() {
        // Spawn/join edges, a release/acquire pair, an SC RMW continuing
        // the release sequence, and data events: the oracle's recomputed
        // hb agrees with the clocks and finds no violation. (The same
        // trace pins the incremental rf signature to the post-hoc re-walk
        // in `cdsspec-mc`'s lockstep tests.)
        let mut b = Builder::new(3);
        b.push(0, EventKind::ThreadCreate { child: Tid(1) });
        b.push(0, EventKind::ThreadCreate { child: Tid(2) });
        let w = b.store(1, 0, Release, 1);
        b.push(1, EventKind::DataWrite { loc: DataId(0) });
        b.push(1, EventKind::ThreadFinish);
        b.load(2, 0, Acquire, Some(w));
        let rmw = b.rmw(2, SeqCst, w, 2, 1);
        b.load(2, 0, SeqCst, Some(rmw));
        b.push(2, EventKind::DataRead { loc: DataId(0) });
        b.push(2, EventKind::ThreadFinish);
        b.push(0, EventKind::ThreadJoin { target: Tid(1) });
        b.push(0, EventKind::ThreadJoin { target: Tid(2) });
        b.push(0, EventKind::Fence { ord: SeqCst });
        b.push(0, EventKind::ThreadFinish);
        assert_errors(&b.finish(), &[]);
    }
}
