//! Modeled C/C++11 atomic cells.
//!
//! [`Atomic<T>`] is the instrumented stand-in for `std::atomic<T>`: every
//! access becomes a visible operation of the model checker with an explicit
//! [`MemOrd`] parameter. Data structures under test take their orderings
//! from an ordering table so the fault-injection campaign can weaken one
//! site at a time (see `cdsspec-structures::ords`).

use std::marker::PhantomData;

use cdsspec_c11::{LocId, MemOrd, PrimVal};

use crate::api::visible_op;
use crate::msg::{Op, Reply, RmwKind};
use crate::worker::with_ctx;

/// A modeled atomic memory location holding a `T`.
///
/// `Atomic` is `Copy`: it is only a handle (location id); the cell contents
/// live in the model checker. Handles must not leak across executions — a
/// fresh execution re-runs the whole test closure, reallocating every
/// location.
#[derive(Clone, Copy, Debug)]
pub struct Atomic<T: PrimVal> {
    loc: LocId,
    _marker: PhantomData<fn(T) -> T>,
}

// The cell is exclusively managed by the checker; handles are freely
// shareable.
unsafe impl<T: PrimVal> Send for Atomic<T> {}
unsafe impl<T: PrimVal> Sync for Atomic<T> {}

impl<T: PrimVal> Atomic<T> {
    /// A new atomic initialized to `v` (the C11 `atomic_init`: an
    /// unordered store by the constructing thread; visibility to other
    /// threads flows through whatever publishes the handle).
    pub fn new(v: T) -> Self {
        let loc = with_ctx(|ctx| ctx.lock().mem.alloc_atomic(ctx.tid, Some(v.to_bits())));
        Atomic {
            loc,
            _marker: PhantomData,
        }
    }

    /// A new **uninitialized** atomic. Loads that can observe the cell
    /// before any store are reported as CDSChecker-style "uninitialized
    /// load" bugs — this is how the known Chase-Lev resize bug manifests.
    pub fn uninit() -> Self {
        let loc = with_ctx(|ctx| ctx.lock().mem.alloc_atomic(ctx.tid, None));
        Atomic {
            loc,
            _marker: PhantomData,
        }
    }

    /// The underlying location id (diagnostics).
    pub fn loc(&self) -> LocId {
        self.loc
    }

    /// Atomic load.
    pub fn load(&self, ord: MemOrd) -> T {
        match visible_op(Op::Load { loc: self.loc, ord }) {
            Reply::Val(v) => T::from_bits(v),
            r => unreachable!("load reply {r:?}"),
        }
    }

    /// Atomic store.
    pub fn store(&self, v: T, ord: MemOrd) {
        match visible_op(Op::Store {
            loc: self.loc,
            ord,
            val: v.to_bits(),
        }) {
            Reply::Ok => {}
            r => unreachable!("store reply {r:?}"),
        }
    }

    /// Atomic exchange; returns the previous value.
    pub fn swap(&self, v: T, ord: MemOrd) -> T {
        match visible_op(Op::Rmw {
            loc: self.loc,
            ord,
            kind: RmwKind::Swap(v.to_bits()),
        }) {
            Reply::Rmw { old, .. } => T::from_bits(old),
            r => unreachable!("swap reply {r:?}"),
        }
    }

    /// `compare_exchange_strong`: on success returns `Ok(previous)`, on
    /// failure `Err(observed)`. The failure path is an atomic load with
    /// `fail_ord` and may observe stale values — the weak-memory behavior
    /// the paper's examples revolve around.
    pub fn compare_exchange(
        &self,
        expected: T,
        new: T,
        ord: MemOrd,
        fail_ord: MemOrd,
    ) -> Result<T, T> {
        self.cas(expected, new, ord, fail_ord, false)
    }

    /// `compare_exchange_weak`: may additionally fail spuriously.
    pub fn compare_exchange_weak(
        &self,
        expected: T,
        new: T,
        ord: MemOrd,
        fail_ord: MemOrd,
    ) -> Result<T, T> {
        self.cas(expected, new, ord, fail_ord, true)
    }

    fn cas(&self, expected: T, new: T, ord: MemOrd, fail_ord: MemOrd, weak: bool) -> Result<T, T> {
        let kind = RmwKind::Cas {
            expected: expected.to_bits(),
            new: new.to_bits(),
            fail_ord,
            weak,
        };
        match visible_op(Op::Rmw {
            loc: self.loc,
            ord,
            kind,
        }) {
            Reply::Rmw { old, success: true } => Ok(T::from_bits(old)),
            Reply::Rmw {
                old,
                success: false,
            } => Err(T::from_bits(old)),
            r => unreachable!("cas reply {r:?}"),
        }
    }

    fn fetch_op(&self, kind: RmwKind, ord: MemOrd) -> T {
        match visible_op(Op::Rmw {
            loc: self.loc,
            ord,
            kind,
        }) {
            Reply::Rmw { old, .. } => T::from_bits(old),
            r => unreachable!("rmw reply {r:?}"),
        }
    }
}

macro_rules! integer_rmw {
    ($($t:ty),*) => {$(
        impl Atomic<$t> {
            /// Wrapping `fetch_add`; returns the previous value.
            pub fn fetch_add(&self, v: $t, ord: MemOrd) -> $t {
                self.fetch_op(RmwKind::FetchAdd(v.to_bits()), ord)
            }
            /// Wrapping `fetch_sub`; returns the previous value.
            pub fn fetch_sub(&self, v: $t, ord: MemOrd) -> $t {
                // Build the two's-complement delta in 64-bit space so that
                // sign-extended encodings subtract correctly.
                self.fetch_op(RmwKind::FetchSub(v.to_bits()), ord)
            }
            /// Bitwise `fetch_or`; returns the previous value.
            pub fn fetch_or(&self, v: $t, ord: MemOrd) -> $t {
                self.fetch_op(RmwKind::FetchOr(v.to_bits()), ord)
            }
            /// Bitwise `fetch_and`; returns the previous value.
            pub fn fetch_and(&self, v: $t, ord: MemOrd) -> $t {
                self.fetch_op(RmwKind::FetchAnd(v.to_bits()), ord)
            }
        }
    )*};
}

integer_rmw!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A modeled pointer-width atomic used for linked structures. Alias for
/// readability in data-structure code.
pub type AtomicPtr<T> = Atomic<*mut T>;
