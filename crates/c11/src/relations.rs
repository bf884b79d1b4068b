//! Derived relations: a fast commit-time-index auditor, an independent
//! post-hoc axiom oracle, and the canonical rf signature.
//!
//! The model checker computes happens-before *online* with vector clocks
//! and maintains per-location/per-thread indexes incrementally as events
//! commit (see [`crate::trace`]). This module offers two checkers over a
//! finished trace:
//!
//! * [`audit`] — the production-path checker. It trusts the trace's
//!   incremental indexes (clocks for hb, `mo`, reader chains) and checks
//!   the coherence, RMW-atomicity, and SC axioms with O(1) hb queries —
//!   no O(n²) matrix, no transitive closure.
//! * [`validate`] — the differential oracle (kept compiled in, like
//!   `clock::naive`). It recomputes everything from first principles —
//!   sb, thread create/join edges, synchronizes-with from reads-from
//!   (including release sequences continued through RMWs and the C11
//!   fence rules) — closes the relation with Floyd–Warshall, and checks
//!   the same axioms, optionally cross-checking the stored clocks
//!   pairwise against the recomputed hb.
//!
//! Property tests in `cdsspec-mc` run every explored execution of random
//! programs through both and require agreement, so a divergence between
//! the online clocks/indexes and the oracle is caught immediately.
//! [`check_sw_delta`] additionally replays the commit-time sb∪sw
//! adjacency delta (recorded when `Trace::record_sw` is set) and requires
//! its closure to equal the oracle's hb.
//!
//! The SC-fence strengthening rules (C++11 29.3 p4–p6) are derived from
//! first principles (S = the trace's SC order, sb = per-thread sequence)
//! and checked as mo lower bounds on every read; the walk is linear and
//! shared by both checkers.

use crate::event::{EventId, EventKind, EventTag, Tid};
use crate::ordering::MemOrd;
use crate::trace::{fnv, Trace, FNV_OFFSET};

/// A violation of the C/C++11 axioms found by [`validate`] or [`audit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AxiomError {
    /// `hb` contradicts execution order (would imply a cycle).
    HbCycle {
        /// Earlier event (in execution order).
        a: EventId,
        /// Later event claimed to happen-before `a`.
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
        /// The mo-earlier store.
        first: EventId,
        /// The mo-later store that happens-before `first`.
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
        let (r_ord, rf) = match trace.kind(r) {
            EventKind::AtomicLoad { ord, rf, .. } => (ord, rf),
            EventKind::Rmw { ord, rf, .. } => (ord, rf),
            _ => continue,
        };
        let Some(w) = rf else { continue };

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
        if r_ord.is_acquire() {
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

/// The SC-fence rules (29.3 p4–p6), checked by a single commit-order walk
/// maintaining (a) the mo index of the last SC store per location, (b)
/// per-thread "own stores" tables, and (c) the global fence-published
/// floor; per-thread floors are snapshotted at each SC fence. Linear and
/// matrix-free, so [`validate`] and [`audit`] share it verbatim.
fn sc_fence_check(trace: &Trace, errors: &mut Vec<AxiomError>) {
    use crate::clock::CoherenceMap;
    let nthreads = trace.num_threads as usize;
    let mut sc_last_store = CoherenceMap::new();
    let mut published = CoherenceMap::new();
    let mut own_stores: Vec<CoherenceMap> = (0..nthreads).map(|_| CoherenceMap::new()).collect();
    let mut fence_floor: Vec<CoherenceMap> = (0..nthreads).map(|_| CoherenceMap::new()).collect();

    for i in 0..trace.len() {
        let id = EventId(i as u32);
        let tid = trace.tid(id);
        match trace.kind(id) {
            EventKind::AtomicStore {
                loc, ord, mo_index, ..
            } => {
                own_stores[tid.idx()].raise(loc, mo_index);
                if ord.is_seq_cst() {
                    sc_last_store.raise(loc, mo_index);
                }
            }
            EventKind::Rmw {
                loc,
                ord,
                written: Some(_),
                mo_index,
                ..
            } => {
                own_stores[tid.idx()].raise(loc, mo_index);
                if ord.is_seq_cst() {
                    sc_last_store.raise(loc, mo_index);
                }
            }
            EventKind::Fence { ord } if ord.is_seq_cst() => {
                let t = tid.idx();
                fence_floor[t].join(&sc_last_store); // p4
                fence_floor[t].join(&published); // p6
                let own = own_stores[t].clone();
                published.join(&own); // p5 (and later p6)
            }
            EventKind::AtomicLoad {
                loc,
                ord,
                rf: Some(w),
                ..
            }
            | EventKind::Rmw {
                loc,
                ord,
                rf: Some(w),
                ..
            } => {
                let got = trace.mo_index(w).unwrap_or(0);
                if let Some(fl) = fence_floor[tid.idx()].get(loc) {
                    if got < fl {
                        errors.push(AxiomError::ScFence {
                            read: id,
                            rule: "p4/p6",
                        });
                    }
                }
                if ord.is_seq_cst() {
                    if let Some(fl) = published.get(loc) {
                        if got < fl {
                            errors.push(AxiomError::ScFence {
                                read: id,
                                rule: "p5",
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Validate a finished trace against the memory-model axioms, recomputing
/// every relation from first principles (the differential oracle). Returns
/// every violation found (empty = consistent).
///
/// When `check_clocks` is set, the trace's stored vector clocks are compared
/// pairwise against the recomputed `hb` — the strongest cross-check of the
/// online implementation.
pub fn validate(trace: &Trace, check_clocks: bool) -> Vec<AxiomError> {
    let mut errors = Vec::new();
    let n = trace.len();
    let hb = compute_hb(trace);

    // Acyclicity: hb must embed into execution order.
    for a in 0..n {
        for b in 0..n {
            if hb.get(a, b) && b <= a {
                errors.push(AxiomError::HbCycle {
                    a: EventId(a as u32),
                    b: EventId(b as u32),
                });
            }
        }
    }

    if check_clocks {
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let online = trace.hb(EventId(a as u32), EventId(b as u32));
                let offline = hb.get(a, b);
                if online != offline {
                    errors.push(AxiomError::ClockMismatch {
                        a: EventId(a as u32),
                        b: EventId(b as u32),
                        online,
                        offline,
                    });
                }
            }
        }
    }

    // rf well-formedness + coherence.
    for ri in 0..n {
        let r = EventId(ri as u32);
        let (loc, rf, read_val) = match trace.kind(r) {
            EventKind::AtomicLoad { loc, rf, val, .. } => (loc, rf, val),
            EventKind::Rmw {
                loc, rf, read_val, ..
            } => (loc, rf, read_val),
            _ => continue,
        };
        let Some(w) = rf else { continue };
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

        let w_mo = trace.mo_index(w).unwrap_or(0);

        // CoWR: no store to loc with larger mo index hb-before the read.
        for &w2 in trace.mo_of(loc) {
            if trace.mo_index(w2).unwrap_or(0) > w_mo && hb.get(w2.idx(), ri) {
                errors.push(AxiomError::CoWr {
                    read: r,
                    hidden_by: w2,
                });
            }
        }

        // CoRW: read hb-before a same-loc write with smaller-or-equal mo.
        for &w2 in trace.mo_of(loc) {
            if hb.get(ri, w2.idx()) && trace.mo_index(w2).unwrap_or(0) <= w_mo && w2 != w {
                errors.push(AxiomError::CoRw { read: r, write: w2 });
            }
        }
    }

    // CoRR: pairwise over reads of the same location.
    for i in 0..n {
        let a = EventId(i as u32);
        let (la, rfa) = match trace.kind(a) {
            EventKind::AtomicLoad { loc, rf, .. } | EventKind::Rmw { loc, rf, .. } => (loc, rf),
            _ => continue,
        };
        let Some(wa) = rfa else { continue };
        for j in 0..n {
            if i == j || !hb.get(i, j) {
                continue;
            }
            let b = EventId(j as u32);
            let (lb, rfb) = match trace.kind(b) {
                EventKind::AtomicLoad { loc, rf, .. } | EventKind::Rmw { loc, rf, .. } => (loc, rf),
                _ => continue,
            };
            if la != lb {
                continue;
            }
            let Some(wb) = rfb else { continue };
            let ma = trace.mo_index(wa).unwrap_or(0);
            let mb = trace.mo_index(wb).unwrap_or(0);
            if ma > mb {
                errors.push(AxiomError::CoRr {
                    first: a,
                    second: b,
                });
            }
        }
    }

    // CoWW: hb over same-loc writes must agree with mo.
    for locs in &trace.mo {
        for (x, &w1) in locs.iter().enumerate() {
            for &w2 in &locs[x + 1..] {
                if hb.get(w2.idx(), w1.idx()) {
                    errors.push(AxiomError::CoWw {
                        first: w2,
                        second: w1,
                    });
                }
            }
        }
    }

    // RMW atomicity.
    for i in 0..n {
        let id = EventId(i as u32);
        if let EventKind::Rmw {
            rf,
            written: Some(_),
            mo_index,
            ..
        } = trace.kind(id)
        {
            let expected_prev = match rf {
                Some(w) => trace.mo_index(w).map(|m| m + 1),
                None => Some(0),
            };
            if expected_prev != Some(mo_index) {
                errors.push(AxiomError::RmwAtomicity { rmw: id });
            }
        }
    }

    // SC reads (29.3p3).
    sc_read_check(trace, &mut errors, |a, b| hb.get(a.idx(), b.idx()));

    // SC-fence rules (29.3 p4–p6).
    sc_fence_check(trace, &mut errors);

    errors
}

/// The SC-read rule (29.3p3), parameterized over the hb test so the oracle
/// can pass the closed matrix and the auditor the O(1) clock query.
fn sc_read_check(
    trace: &Trace,
    errors: &mut Vec<AxiomError>,
    hb: impl Fn(EventId, EventId) -> bool,
) {
    for i in 0..trace.len() {
        let id = EventId(i as u32);
        let (loc, rf, ord) = match trace.kind(id) {
            EventKind::AtomicLoad { loc, rf, ord, .. } => (loc, rf, ord),
            EventKind::Rmw { loc, rf, ord, .. } => (loc, rf, ord),
            _ => continue,
        };
        if !ord.is_seq_cst() {
            continue;
        }
        let Some(w) = rf else { continue };
        let r_sc = trace.sc_index(id).expect("SC event must have an S index");
        // B = last SC write to loc preceding the read in S.
        let b = trace
            .mo_of(loc)
            .iter()
            .filter(|&&x| trace.is_sc(x) && trace.sc_index(x).is_some_and(|s| s < r_sc))
            .copied()
            .last();
        let Some(b) = b else { continue };
        if w == b {
            continue;
        }
        let w_is_sc = trace.ord(w).map(|o| o.is_seq_cst()).unwrap_or(false);
        if w_is_sc {
            errors.push(AxiomError::ScRead {
                read: id,
                detail: format!("read SC store {w} but the last preceding SC store in S is {b}"),
            });
        } else if hb(w, b) {
            errors.push(AxiomError::ScRead {
                read: id,
                detail: format!("read non-SC store {w} that happens-before the last SC store {b}"),
            });
        }
    }
}

/// Check a finished trace against the memory-model axioms using the
/// trace's *incrementally maintained* state: O(1) clock queries for hb,
/// the per-location mo and reader chains for coherence, and the shared
/// linear SC-fence walk. No reachability matrix is built and no closure
/// is computed, so the per-execution cost is O(answer) in the indexes
/// rather than O(n²)/O(n³) — this is what the explorer runs on every
/// feasible execution when `Config::debug_audit` is on.
///
/// `audit` performs every [`validate`] check *except* the two that exist
/// to distrust the online state itself ([`AxiomError::HbCycle`] and
/// [`AxiomError::ClockMismatch`]): trusting the clocks is its premise,
/// and that trust is discharged separately by the lockstep property tests
/// that compare `audit` with `validate` on random programs.
pub fn audit(trace: &Trace) -> Vec<AxiomError> {
    let mut errors = Vec::new();
    let n = trace.len();

    // rf well-formedness + CoWR/CoRW, per read.
    for ri in 0..n {
        let r = EventId(ri as u32);
        if !trace.is_read(r) {
            continue;
        }
        let loc = trace.atomic_loc(r).expect("reads have a location");
        let Some(w) = trace.rf(r) else { continue };
        if trace.atomic_loc(w) != Some(loc) {
            errors.push(AxiomError::BadRf {
                read: r,
                detail: format!("rf {w} is to a different location"),
            });
            continue;
        }
        let read_val = match trace.kind(r) {
            EventKind::AtomicLoad { val, .. } => val,
            EventKind::Rmw { read_val, .. } => read_val,
            _ => unreachable!("is_read"),
        };
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

        let w_mo = trace.mo_index(w).unwrap_or(0);
        for &w2 in trace.mo_of(loc) {
            if trace.mo_index(w2).unwrap_or(0) > w_mo && trace.happens_before(w2, r) {
                errors.push(AxiomError::CoWr {
                    read: r,
                    hidden_by: w2,
                });
            }
        }
        for &w2 in trace.mo_of(loc) {
            if trace.happens_before(r, w2) && trace.mo_index(w2).unwrap_or(0) <= w_mo && w2 != w {
                errors.push(AxiomError::CoRw { read: r, write: w2 });
            }
        }
    }

    // CoRR: per-location reader chains instead of all event pairs.
    for li in 0..trace.loc_bound() {
        let readers = trace.readers_of(crate::loc::LocId(li as u32));
        for &a in readers {
            let Some(wa) = trace.rf(a) else { continue };
            if trace.atomic_loc(wa) != trace.atomic_loc(a) {
                continue; // malformed rf already reported above
            }
            let ma = trace.mo_index(wa).unwrap_or(0);
            for &b in readers {
                if a == b || !trace.happens_before(a, b) {
                    continue;
                }
                let Some(wb) = trace.rf(b) else { continue };
                if trace.atomic_loc(wb) != trace.atomic_loc(b) {
                    continue;
                }
                let mb = trace.mo_index(wb).unwrap_or(0);
                if ma > mb {
                    errors.push(AxiomError::CoRr {
                        first: a,
                        second: b,
                    });
                }
            }
        }
    }

    // CoWW: hb over same-loc writes must agree with mo.
    for locs in &trace.mo {
        for (x, &w1) in locs.iter().enumerate() {
            for &w2 in &locs[x + 1..] {
                if trace.happens_before(w2, w1) {
                    errors.push(AxiomError::CoWw {
                        first: w2,
                        second: w1,
                    });
                }
            }
        }
    }

    // RMW atomicity.
    for i in 0..n {
        let id = EventId(i as u32);
        if trace.tag(id) == EventTag::Rmw && trace.is_write(id) {
            let expected_prev = match trace.rf(id) {
                Some(w) => trace.mo_index(w).map(|m| m + 1),
                None => Some(0),
            };
            if expected_prev != trace.mo_index(id) {
                errors.push(AxiomError::RmwAtomicity { rmw: id });
            }
        }
    }

    // SC reads (29.3p3), hb answered by the clocks.
    sc_read_check(trace, &mut errors, |a, b| trace.happens_before(a, b));

    // SC-fence rules (29.3 p4–p6).
    sc_fence_check(trace, &mut errors);

    errors
}

/// Cross-check the commit-time sb∪sw adjacency delta against the post-hoc
/// oracle: closing the recorded edges (plus sb from the per-thread event
/// ranges) must reproduce the oracle's hb matrix exactly. Only meaningful
/// on traces recorded with `Trace::record_sw` set. Returns the first
/// disagreeing ordered pair `(a, b)` on failure.
pub fn check_sw_delta(trace: &Trace) -> Result<(), (EventId, EventId)> {
    let n = trace.len();
    let mut m = HbMatrix::new(n);
    for t in 0..trace.num_threads {
        let evs = trace.events_of_thread(Tid(t));
        for w in evs.windows(2) {
            m.set(w[0].idx(), w[1].idx());
        }
    }
    for &(a, b) in trace.sw_edges() {
        if a != b {
            m.set(a.idx(), b.idx());
        }
    }
    m.close();
    let hb = compute_hb(trace);
    for a in 0..n {
        for b in 0..n {
            if a != b && m.get(a, b) != hb.get(a, b) {
                return Err((EventId(a as u32), EventId(b as u32)));
            }
        }
    }
    Ok(())
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
/// persisted in campaign checkpoints, so the hash must stay bit-for-bit
/// stable across engine changes; [`posthoc::rf_signature`] keeps the
/// original full-re-walk derivation compiled in as the reference, and
/// lockstep tests pin this incremental finalize to it.
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
        let mut h = fnv(FNV_OFFSET, canon(t));
        for &id in trace.events_of_thread(Tid(t as u32)) {
            h = match trace.kind(id) {
                EventKind::AtomicLoad { loc, ord, rf, .. } => {
                    let rf = rf.map(&ceid).unwrap_or(NO_RF);
                    fnv(fnv(fnv(fnv(h, 1), st.loc_min[loc.idx()]), ord as u64), rf)
                }
                EventKind::AtomicStore { loc, ord, .. } => {
                    fnv(fnv(fnv(h, 2), st.loc_min[loc.idx()]), ord as u64)
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
                    fnv(
                        fnv(fnv(fnv(fnv(h, 3), st.loc_min[loc.idx()]), ord as u64), rf),
                        wrote,
                    )
                }
                EventKind::Fence { ord } => fnv(fnv(h, 4), ord as u64),
                EventKind::ThreadCreate { child } => fnv(fnv(h, 5), canon(child.idx())),
                EventKind::ThreadJoin { target } => fnv(fnv(h, 6), canon(target.idx())),
                EventKind::ThreadFinish => fnv(h, 7),
                EventKind::DataWrite { loc } => fnv(fnv(h, 8), st.data_min[loc.idx()]),
                EventKind::DataRead { loc } => fnv(fnv(h, 9), st.data_min[loc.idx()]),
            };
        }
        sig = sig.wrapping_add(fnv(FNV_OFFSET, h));
    }

    // Per-location modification orders (commutative across locations).
    for (li, chain) in trace.mo.iter().enumerate() {
        if chain.is_empty() {
            continue;
        }
        let mut h = fnv(fnv(FNV_OFFSET, 10), st.loc_min[li]);
        for &w in chain {
            h = fnv(h, ceid(w));
        }
        sig = sig.wrapping_add(h);
    }

    // The SC order (one global chain).
    let mut h = fnv(FNV_OFFSET, 11);
    for &s in &trace.sc_order {
        h = fnv(h, ceid(s));
    }
    sig = sig.wrapping_add(h);

    fnv(sig, trace.num_threads as u64)
}

/// The original post-hoc derivations, kept compiled in as the
/// differential reference for the incremental engine (the same role
/// `clock::naive` plays for the COW clocks). Nothing on the production
/// path calls in here; lockstep tests pin the incremental results to
/// these.
pub mod posthoc {
    use super::*;

    /// [`super::rf_signature`] derived the original way: three full
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
        canon[0] = fnv(FNV_OFFSET, 0);
        for i in 0..n {
            let id = EventId(i as u32);
            if let EventKind::ThreadCreate { child } = trace.kind(id) {
                let p = trace.tid(id).idx();
                canon[child.idx()] = fnv(fnv(canon[p], 1), spawn_count[p]);
                spawn_count[p] += 1;
            }
        }

        // Canonical event id: (thread name, per-thread sequence number).
        let ceid = |id: EventId| -> u64 {
            fnv(
                fnv(FNV_OFFSET, canon[trace.tid(id).idx()]),
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
        let mut thread_hash: Vec<u64> = canon.iter().map(|&c| fnv(FNV_OFFSET, c)).collect();
        for i in 0..n {
            let id = EventId(i as u32);
            let h = &mut thread_hash[trace.tid(id).idx()];
            *h = match trace.kind(id) {
                EventKind::AtomicLoad { loc, ord, rf, .. } => {
                    let rf = rf.map(ceid).unwrap_or(NO_RF);
                    fnv(fnv(fnv(fnv(*h, 1), loc_min[loc.idx()]), ord as u64), rf)
                }
                EventKind::AtomicStore { loc, ord, .. } => {
                    fnv(fnv(fnv(*h, 2), loc_min[loc.idx()]), ord as u64)
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
                    fnv(
                        fnv(fnv(fnv(fnv(*h, 3), loc_min[loc.idx()]), ord as u64), rf),
                        wrote,
                    )
                }
                EventKind::Fence { ord } => fnv(fnv(*h, 4), ord as u64),
                EventKind::ThreadCreate { child } => fnv(fnv(*h, 5), canon[child.idx()]),
                EventKind::ThreadJoin { target } => fnv(fnv(*h, 6), canon[target.idx()]),
                EventKind::ThreadFinish => fnv(*h, 7),
                EventKind::DataWrite { loc } => fnv(fnv(*h, 8), data_min[loc.idx()]),
                EventKind::DataRead { loc } => fnv(fnv(*h, 9), data_min[loc.idx()]),
            };
        }
        let mut sig = 0u64;
        for h in thread_hash {
            sig = sig.wrapping_add(fnv(FNV_OFFSET, h));
        }

        // Per-location modification orders (commutative across locations).
        for (li, chain) in trace.mo.iter().enumerate() {
            if chain.is_empty() {
                continue;
            }
            let mut h = fnv(fnv(FNV_OFFSET, 10), loc_min[li]);
            for &w in chain {
                h = fnv(h, ceid(w));
            }
            sig = sig.wrapping_add(h);
        }

        // The SC order (one global chain).
        let mut h = fnv(FNV_OFFSET, 11);
        for &s in &trace.sc_order {
            h = fnv(h, ceid(s));
        }
        sig = sig.wrapping_add(h);

        fnv(sig, trace.num_threads as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VecClock;
    use crate::loc::{DataId, LocId};
    use crate::trace::Trace;
    use crate::value::Val;

    /// Tiny hand-rolled trace builder for validator tests, routed through
    /// the real [`Trace::push`] commit point (so the incremental indexes
    /// are exercised too). Clocks are computed post-hoc with the same
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
            t.record_sw = true;
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
            if kind.is_write() {
                let loc = kind.atomic_loc().expect("writes have a location");
                while self.t.mo.len() <= loc.idx() {
                    self.t.mo.push(Vec::new());
                }
                self.t.mo[loc.idx()].push(id);
            }
            id
        }

        fn store(&mut self, tid: u32, loc: u32, ord: MemOrd, val: Val) -> EventId {
            let mo_index = self
                .t
                .mo
                .get(loc as usize)
                .map(|v| v.len() as u32)
                .unwrap_or(0);
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

        fn finish(mut self) -> Trace {
            // Populate clocks from the offline hb so trace.hb works in
            // validator tests that don't exercise clock checking.
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

    use MemOrd::*;

    #[test]
    fn consistent_message_passing_validates() {
        // T0: store d=1 rlx; store f=1 rel.  T1: load f=1 acq; load d=1 rlx.
        let mut b = Builder::new(2);
        let d = b.store(0, 0, Relaxed, 1);
        let f = b.store(0, 1, Release, 1);
        b.load(1, 1, Acquire, Some(f));
        b.load(1, 0, Relaxed, Some(d));
        let t = b.finish();
        assert!(validate(&t, true).is_empty(), "{:?}", validate(&t, true));
        assert!(audit(&t).is_empty(), "{:?}", audit(&t));
    }

    #[test]
    fn hidden_store_is_a_cowr_violation() {
        // T0: store x=1; store x=2 rel. T1: load x acq reads 2 (sync), then
        // loads x=1 again — reads a store hidden behind one it has seen.
        let mut b = Builder::new(2);
        let w1 = b.store(0, 0, Relaxed, 1);
        let w2 = b.store(0, 0, Release, 2);
        b.load(1, 0, Acquire, Some(w2));
        b.load(1, 0, Relaxed, Some(w1));
        let t = b.finish();
        let errs = validate(&t, false);
        assert!(
            errs.iter()
                .any(|e| matches!(e, AxiomError::CoWr { .. } | AxiomError::CoRr { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn corr_violation_detected_without_sync() {
        // Same thread reads x=2 then x=1 with no synchronization at all:
        // still a CoRR violation via sb.
        let mut b = Builder::new(2);
        let w1 = b.store(0, 0, Relaxed, 1);
        let w2 = b.store(0, 0, Relaxed, 2);
        b.load(1, 0, Relaxed, Some(w2));
        b.load(1, 0, Relaxed, Some(w1));
        let t = b.finish();
        let errs = validate(&t, false);
        assert!(
            errs.iter().any(|e| matches!(e, AxiomError::CoRr { .. })),
            "{errs:?}"
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
        let t = b.finish();
        // validate ignores rf=None (uninit is the *checker's* built-in bug,
        // not an axiom violation).
        assert!(validate(&t, false).is_empty());
        assert!(audit(&t).is_empty());
    }

    #[test]
    fn sc_read_must_see_last_sc_store() {
        // T0: store x=1 sc. T1: store x=2 sc. T2: load x sc reading 1 while
        // the last SC store in S is 2 → violation.
        let mut b = Builder::new(3);
        let w1 = b.store(0, 0, SeqCst, 1);
        let _w2 = b.store(1, 0, SeqCst, 2);
        b.load(2, 0, SeqCst, Some(w1));
        let t = b.finish();
        let errs = validate(&t, false);
        assert!(
            errs.iter().any(|e| matches!(e, AxiomError::ScRead { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn release_sequence_through_rmw_synchronizes() {
        // T0: store x=1 rel. T1: rmw x 1->2 rlx. T2: load x acq reads the
        // RMW → synchronizes with the release head, so a CoWR check on data
        // would hold. Here we just confirm hb(T0 store, T2 load).
        let mut b = Builder::new(3);
        let h = b.store(0, 0, Release, 1);
        let rmw = b.push(
            1,
            EventKind::Rmw {
                loc: LocId(0),
                ord: Relaxed,
                rf: Some(h),
                read_val: 1,
                written: Some(2),
                mo_index: 1,
            },
        );
        let r = b.load(2, 0, Acquire, Some(rmw));
        let t = b.finish();
        assert!(validate(&t, true).is_empty());
        assert!(
            t.hb(h, r),
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
        assert!(validate(&t, true).is_empty());
        assert!(
            t.hb(d, r),
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
        b.push(
            1,
            EventKind::Rmw {
                loc: LocId(0),
                ord: Relaxed,
                rf: Some(w1),
                read_val: 1,
                written: Some(5),
                mo_index: 2,
            },
        );
        let t = b.finish();
        let errs = validate(&t, false);
        assert!(
            errs.iter()
                .any(|e| matches!(e, AxiomError::RmwAtomicity { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn sc_fence_p5_violation_detected() {
        // T0: store x=1 rlx; SC fence (publishes x=1).
        // T1: SC load of x reading the stale init — p5 forbids it.
        let mut b = Builder::new(2);
        let w0 = b.store(0, 0, Relaxed, 0); // init
        let _w1 = b.store(0, 0, Relaxed, 1);
        b.push(0, EventKind::Fence { ord: SeqCst });
        b.load(1, 0, SeqCst, Some(w0));
        let t = b.finish();
        let errs = validate(&t, false);
        assert!(
            errs.iter()
                .any(|e| matches!(e, AxiomError::ScFence { rule: "p5", .. })),
            "{errs:?}"
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
        b.load(1, 0, Relaxed, Some(w0));
        let t = b.finish();
        let errs = validate(&t, false);
        assert!(
            errs.iter()
                .any(|e| matches!(e, AxiomError::ScFence { rule: "p4/p6", .. })),
            "{errs:?}"
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
        let t = b.finish();
        assert!(validate(&t, false).is_empty());
        assert!(audit(&t).is_empty());
    }

    #[test]
    fn bad_rf_value_mismatch_detected() {
        let mut b = Builder::new(1);
        let w = b.store(0, 0, Relaxed, 1);
        b.push(
            0,
            EventKind::AtomicLoad {
                loc: LocId(0),
                ord: Relaxed,
                rf: Some(w),
                val: 99,
            },
        );
        let t = b.finish();
        let errs = validate(&t, false);
        assert!(
            errs.iter().any(|e| matches!(e, AxiomError::BadRf { .. })),
            "{errs:?}"
        );
    }

    /// All the violating Builder scenarios above, rebuilt for reuse by the
    /// audit-vs-validate lockstep test.
    fn violating_traces() -> Vec<(&'static str, Trace)> {
        let mut out = Vec::new();

        let mut b = Builder::new(2);
        let w1 = b.store(0, 0, Relaxed, 1);
        let w2 = b.store(0, 0, Release, 2);
        b.load(1, 0, Acquire, Some(w2));
        b.load(1, 0, Relaxed, Some(w1));
        out.push(("hidden_store", b.finish()));

        let mut b = Builder::new(2);
        let w1 = b.store(0, 0, Relaxed, 1);
        let w2 = b.store(0, 0, Relaxed, 2);
        b.load(1, 0, Relaxed, Some(w2));
        b.load(1, 0, Relaxed, Some(w1));
        out.push(("corr", b.finish()));

        let mut b = Builder::new(3);
        let w1 = b.store(0, 0, SeqCst, 1);
        let _ = b.store(1, 0, SeqCst, 2);
        b.load(2, 0, SeqCst, Some(w1));
        out.push(("sc_read", b.finish()));

        let mut b = Builder::new(2);
        let w1 = b.store(0, 0, Relaxed, 1);
        let _ = b.store(0, 0, Relaxed, 2);
        b.push(
            1,
            EventKind::Rmw {
                loc: LocId(0),
                ord: Relaxed,
                rf: Some(w1),
                read_val: 1,
                written: Some(5),
                mo_index: 2,
            },
        );
        out.push(("rmw_atomicity", b.finish()));

        let mut b = Builder::new(2);
        let w0 = b.store(0, 0, Relaxed, 0);
        let _ = b.store(0, 0, Relaxed, 1);
        b.push(0, EventKind::Fence { ord: SeqCst });
        b.load(1, 0, SeqCst, Some(w0));
        out.push(("sc_fence_p5", b.finish()));

        let mut b = Builder::new(2);
        let w0 = b.store(0, 0, Relaxed, 0);
        let _ = b.store(0, 0, SeqCst, 1);
        b.push(1, EventKind::Fence { ord: SeqCst });
        b.load(1, 0, Relaxed, Some(w0));
        out.push(("sc_fence_p4", b.finish()));

        let mut b = Builder::new(1);
        let w = b.store(0, 0, Relaxed, 1);
        b.push(
            0,
            EventKind::AtomicLoad {
                loc: LocId(0),
                ord: Relaxed,
                rf: Some(w),
                val: 99,
            },
        );
        out.push(("bad_rf", b.finish()));

        out
    }

    #[test]
    fn audit_agrees_with_validate_on_violations() {
        // The fast index-trusting auditor must report exactly the oracle's
        // findings (as sets; intra-check iteration order may differ) on
        // every violating scenario. HbCycle/ClockMismatch can't occur:
        // builder clocks are derived from the offline hb.
        for (name, t) in violating_traces() {
            let mut oracle: Vec<String> =
                validate(&t, false).iter().map(|e| e.to_string()).collect();
            let mut fast: Vec<String> = audit(&t).iter().map(|e| e.to_string()).collect();
            oracle.sort();
            fast.sort();
            assert_eq!(oracle, fast, "audit/validate disagree on {name}");
            assert!(!oracle.is_empty(), "{name} scenario found nothing");
        }
    }

    #[test]
    fn sw_delta_closure_matches_posthoc_hb() {
        // The commit-time sb∪sw adjacency delta, closed, must equal the
        // oracle's hb on scenarios covering rf sync, release sequences
        // through RMWs, fence-fence sync, and SC fences.
        let mut b = Builder::new(3);
        let h = b.store(0, 0, Release, 1);
        let rmw = b.push(
            1,
            EventKind::Rmw {
                loc: LocId(0),
                ord: Relaxed,
                rf: Some(h),
                read_val: 1,
                written: Some(2),
                mo_index: 1,
            },
        );
        b.load(2, 0, Acquire, Some(rmw));
        assert_eq!(check_sw_delta(&b.finish()), Ok(()));

        let mut b = Builder::new(2);
        let d = b.store(0, 0, Relaxed, 1);
        b.push(0, EventKind::Fence { ord: Release });
        let f = b.store(0, 1, Relaxed, 1);
        b.load(1, 1, Relaxed, Some(f));
        b.push(1, EventKind::Fence { ord: Acquire });
        b.load(1, 0, Relaxed, Some(d));
        assert_eq!(check_sw_delta(&b.finish()), Ok(()));

        let mut b = Builder::new(2);
        let _ = b.store(0, 0, Relaxed, 0);
        let w1 = b.store(0, 0, Relaxed, 1);
        b.push(0, EventKind::Fence { ord: SeqCst });
        b.load(1, 0, SeqCst, Some(w1));
        assert_eq!(check_sw_delta(&b.finish()), Ok(()));
    }

    #[test]
    fn incremental_signature_matches_posthoc() {
        // Spawn-tree canonicalization, per-location minima, rf/mo/SC
        // chains, and data events all flow through both derivations.
        let mut b = Builder::new(3);
        b.push(0, EventKind::ThreadCreate { child: Tid(1) });
        b.push(0, EventKind::ThreadCreate { child: Tid(2) });
        let w = b.store(1, 0, Release, 1);
        b.push(1, EventKind::DataWrite { loc: DataId(0) });
        b.push(1, EventKind::ThreadFinish);
        b.load(2, 0, Acquire, Some(w));
        let rmw = b.push(
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
        b.load(2, 0, SeqCst, Some(rmw));
        b.push(2, EventKind::DataRead { loc: DataId(0) });
        b.push(2, EventKind::ThreadFinish);
        b.push(0, EventKind::ThreadJoin { target: Tid(1) });
        b.push(0, EventKind::ThreadJoin { target: Tid(2) });
        b.push(0, EventKind::Fence { ord: SeqCst });
        b.push(0, EventKind::ThreadFinish);
        let t = b.finish();
        assert_eq!(rf_signature(&t), posthoc::rf_signature(&t));
        assert_eq!(check_sw_delta(&t), Ok(()));
        assert!(validate(&t, true).is_empty(), "{:?}", validate(&t, true));
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
        let expect = rf_signature(&fresh);
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
        assert_eq!(rf_signature(&reused), expect);
        assert_eq!(posthoc::rf_signature(&reused), expect);
    }
}
