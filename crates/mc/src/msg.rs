//! The worker ⇄ controller protocol.
//!
//! Modeled threads run on pooled OS threads. At every *visible operation*
//! (atomic access, fence, join, spin hint) the worker sends a [`Request`]
//! and parks until the controller answers with a [`Reply`]. The controller
//! only acts when every live modeled thread is parked, which makes
//! scheduling decisions independent of OS timing — the determinism the
//! stateless DFS depends on.

use cdsspec_c11::{LocId, MemOrd, Tid, Val};

/// A read-modify-write flavor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmwKind {
    /// Unconditional update with wrapping 64-bit addition.
    FetchAdd(Val),
    /// Wrapping subtraction.
    FetchSub(Val),
    /// Bitwise or.
    FetchOr(Val),
    /// Bitwise and.
    FetchAnd(Val),
    /// Unconditional exchange.
    Swap(Val),
    /// Compare-and-exchange.
    Cas {
        /// Value the cell must hold for the write to happen.
        expected: Val,
        /// Replacement value.
        new: Val,
        /// Ordering applied when the exchange fails (pure load).
        fail_ord: MemOrd,
        /// Weak CAS may fail spuriously even when it reads `expected`.
        weak: bool,
    },
}

impl RmwKind {
    /// Apply the update to a read value. `None` for a CAS that must fail on
    /// this value.
    pub fn apply(&self, old: Val) -> Option<Val> {
        match *self {
            RmwKind::FetchAdd(v) => Some(old.wrapping_add(v)),
            RmwKind::FetchSub(v) => Some(old.wrapping_sub(v)),
            RmwKind::FetchOr(v) => Some(old | v),
            RmwKind::FetchAnd(v) => Some(old & v),
            RmwKind::Swap(v) => Some(v),
            RmwKind::Cas { expected, new, .. } => (old == expected).then_some(new),
        }
    }
}

/// A visible operation a modeled thread wants to perform.
#[derive(Clone, Debug)]
pub enum Op {
    /// Atomic load.
    Load {
        /// Location read.
        loc: LocId,
        /// Load ordering.
        ord: MemOrd,
    },
    /// Atomic store.
    Store {
        /// Location written.
        loc: LocId,
        /// Store ordering.
        ord: MemOrd,
        /// Value written.
        val: Val,
    },
    /// Atomic read-modify-write.
    Rmw {
        /// Location updated.
        loc: LocId,
        /// Success ordering.
        ord: MemOrd,
        /// The update to apply.
        kind: RmwKind,
    },
    /// Memory fence.
    Fence {
        /// Fence ordering.
        ord: MemOrd,
    },
    /// Block until `target` finishes, then synchronize with its last state.
    Join {
        /// The joined thread.
        target: Tid,
    },
    /// A futile-spin hint; bounded by `Config::max_spins`.
    Spin,
    /// Voluntary scheduling point with no memory effect.
    Yield,
}

impl Op {
    /// The atomic location the op touches, if any.
    pub fn loc(&self) -> Option<LocId> {
        match self {
            Op::Load { loc, .. } | Op::Store { loc, .. } | Op::Rmw { loc, .. } => Some(*loc),
            _ => None,
        }
    }

    /// Does this op write to its location?
    pub fn writes(&self) -> bool {
        matches!(self, Op::Store { .. } | Op::Rmw { .. })
    }

    /// Is the op `seq_cst`? A CAS counts when either of its orderings is:
    /// a failing CAS reads with its failure ordering, so a `SeqCst`
    /// failure ordering makes that read an SC read that joins *S*.
    pub fn is_sc(&self) -> bool {
        match self {
            Op::Load { ord, .. } | Op::Store { ord, .. } | Op::Fence { ord } => ord.is_seq_cst(),
            Op::Rmw { ord, kind, .. } => {
                ord.is_seq_cst()
                    || matches!(kind, RmwKind::Cas { fail_ord, .. } if fail_ord.is_seq_cst())
            }
            Op::Join { .. } | Op::Spin | Op::Yield => false,
        }
    }

    /// Is the op *invisible*: independent of every op of every other
    /// thread ([`Op::dependent`] is false for it against anything), and
    /// unable to be disabled by one? That holds for spins, yields, non-SC
    /// fences and joins, the latter once enabled: a finished thread stays
    /// finished. `schedule` runs such an op first without branching, and
    /// branches there after all if the execution ends before the next
    /// decision (see ARCHITECTURE.md, "Exploration identity").
    pub fn invisible(&self) -> bool {
        match self {
            Op::Join { .. } | Op::Spin | Op::Yield => true,
            Op::Fence { ord } => !ord.is_seq_cst(),
            Op::Load { .. } | Op::Store { .. } | Op::Rmw { .. } => false,
        }
    }

    /// Dependence relation used by the sleep-set reduction.
    ///
    /// Two pending ops are *independent* when executing them in either
    /// order yields the same reads-from candidate sets and memory-model
    /// state for every continuation:
    ///
    /// * same-location atomic ops are dependent unless both are plain loads;
    /// * any two `seq_cst` operations are dependent (the SC order *S* is
    ///   observable, e.g. IRIW). This is the only rule that reaches an SC
    ///   fence: it reads only state that SC writes and SC fences write;
    /// * everything else (different locations, non-SC fences, joins,
    ///   spins) is independent.
    ///
    /// ARCHITECTURE.md ("Exploration identity") gives the soundness
    /// argument against `MemState`.
    pub fn dependent(&self, other: &Op) -> bool {
        if self.is_sc() && other.is_sc() {
            return true;
        }
        match (self.loc(), other.loc()) {
            (Some(a), Some(b)) if a == b => self.writes() || other.writes(),
            _ => false,
        }
    }
}

/// Worker → controller message.
pub enum Request {
    /// The thread's next visible operation; the thread is parked awaiting a
    /// [`Reply`].
    Op(Tid, Op),
    /// Create a modeled thread running `f`; processed eagerly (it is a
    /// deterministic, non-branching event).
    Spawn(Tid, Box<dyn FnOnce() + Send + 'static>),
    /// The thread's closure returned.
    Finished(Tid),
    /// The thread's closure panicked with this message.
    Panicked(Tid, String),
    /// The thread unwound in response to [`Reply::Die`].
    Aborted(Tid),
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Request::Op(t, op) => write!(f, "Op({t}, {op:?})"),
            Request::Spawn(t, _) => write!(f, "Spawn({t})"),
            Request::Finished(t) => write!(f, "Finished({t})"),
            Request::Panicked(t, m) => write!(f, "Panicked({t}, {m})"),
            Request::Aborted(t) => write!(f, "Aborted({t})"),
        }
    }
}

/// Controller → worker message.
#[derive(Clone, Debug)]
pub enum Reply {
    /// Result of a load (the value read).
    Val(Val),
    /// Result of an RMW: the value read and whether the write happened.
    Rmw {
        /// Value the RMW read.
        old: Val,
        /// Whether the write part happened (CAS success).
        success: bool,
    },
    /// The spawned thread's id.
    Spawned(Tid),
    /// Plain acknowledgement (stores, fences, joins, spins).
    Ok,
    /// The execution is being abandoned: unwind immediately (with
    /// `DieMarker`). Deposited by the runtime's `abort` for diverged,
    /// buggy and engine-failed executions; a sleep-blocked execution is
    /// run out to its threads' normal return instead, and gets `Die` only
    /// if its run-out trips a bound or a bug.
    Die,
}

#[cfg(test)]
mod tests {
    use super::*;
    use MemOrd::*;

    #[test]
    fn rmw_apply() {
        assert_eq!(RmwKind::FetchAdd(2).apply(40), Some(42));
        assert_eq!(RmwKind::FetchSub(1).apply(0), Some(u64::MAX)); // wraps
        assert_eq!(RmwKind::Swap(9).apply(1), Some(9));
        assert_eq!(RmwKind::FetchOr(0b10).apply(0b01), Some(0b11));
        assert_eq!(RmwKind::FetchAnd(0b10).apply(0b11), Some(0b10));
        let cas = RmwKind::Cas {
            expected: 5,
            new: 6,
            fail_ord: Relaxed,
            weak: false,
        };
        assert_eq!(cas.apply(5), Some(6));
        assert_eq!(cas.apply(4), None);
    }

    fn load(loc: u32, ord: MemOrd) -> Op {
        Op::Load {
            loc: LocId(loc),
            ord,
        }
    }
    fn store(loc: u32, ord: MemOrd) -> Op {
        Op::Store {
            loc: LocId(loc),
            ord,
            val: 0,
        }
    }

    #[test]
    fn dependence_same_location() {
        assert!(store(0, Relaxed).dependent(&load(0, Relaxed)));
        assert!(store(0, Relaxed).dependent(&store(0, Relaxed)));
        assert!(!load(0, Relaxed).dependent(&load(0, Relaxed)));
    }

    #[test]
    fn dependence_different_locations() {
        assert!(!store(0, Release).dependent(&store(1, Release)));
        assert!(!store(0, Relaxed).dependent(&load(1, Acquire)));
        // ... unless both are SC (S order observable).
        assert!(store(0, SeqCst).dependent(&load(1, SeqCst)));
    }

    fn cas(loc: u32, ord: MemOrd, fail_ord: MemOrd) -> Op {
        Op::Rmw {
            loc: LocId(loc),
            ord,
            kind: RmwKind::Cas {
                expected: 0,
                new: 1,
                fail_ord,
                weak: false,
            },
        }
    }

    #[test]
    fn sc_fence_depends_only_on_sc_ops() {
        let f = Op::Fence { ord: SeqCst };
        assert!(f.dependent(&f));
        assert!(f.dependent(&load(0, SeqCst)));
        assert!(f.dependent(&store(0, SeqCst)));
        assert!(f.dependent(&cas(0, SeqCst, Relaxed)));
        // A CAS whose failure ordering alone is SC reads as an SC read.
        assert!(f.dependent(&cas(0, AcqRel, SeqCst)));
        assert!(cas(0, Relaxed, SeqCst).dependent(&f));
        for ord in [Relaxed, Acquire] {
            assert!(!f.dependent(&load(0, ord)));
        }
        for ord in [Relaxed, Release] {
            assert!(!f.dependent(&store(0, ord)));
        }
        assert!(!f.dependent(&cas(0, AcqRel, Acquire)));
        assert!(!f.dependent(&Op::Fence { ord: AcqRel }));
        // Acquire/release fences are thread-local in effect.
        for ord in [Acquire, Release, AcqRel] {
            let g = Op::Fence { ord };
            assert!(!g.dependent(&g));
            assert!(!g.dependent(&load(0, SeqCst)));
            assert!(!g.dependent(&store(0, Relaxed)));
            assert!(!g.dependent(&cas(0, SeqCst, SeqCst)));
        }
    }

    #[test]
    fn joins_and_spins_are_independent() {
        let j = Op::Join { target: Tid(1) };
        assert!(!j.dependent(&store(0, SeqCst)));
        assert!(!Op::Spin.dependent(&Op::Spin));
    }
}
