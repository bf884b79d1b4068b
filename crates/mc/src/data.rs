//! Modeled non-atomic shared memory with data-race detection.
//!
//! [`Data<T>`] is the stand-in for a plain field accessed by multiple
//! threads. Accesses are *invisible* to scheduling (they create no choice
//! points — a race is a race in every interleaving of the surrounding
//! atomics, and happens-before race detection finds it wherever it sits),
//! but they are recorded in the trace and checked against all unordered
//! prior accesses with vector clocks — CDSChecker's built-in race check.

use std::marker::PhantomData;

use cdsspec_c11::{DataId, PrimVal};

use crate::runtime;
use crate::worker::with_ctx;

/// A modeled non-atomic cell holding a `T`.
#[derive(Clone, Copy, Debug)]
pub struct Data<T: PrimVal> {
    id: DataId,
    _marker: PhantomData<fn(T) -> T>,
}

unsafe impl<T: PrimVal> Send for Data<T> {}
unsafe impl<T: PrimVal> Sync for Data<T> {}

impl<T: PrimVal> Data<T> {
    /// A new cell initialized to `v` by the current thread.
    pub fn new(v: T) -> Self {
        let d = with_ctx(|ctx| {
            let mut st = ctx.lock();
            let id = st.mem.alloc_data();
            // The constructor's write is ordered before any access through
            // a published handle, so it is never racy.
            let bug = st.mem.apply_data_write(ctx.tid, id, v.to_bits());
            debug_assert!(bug.is_none());
            id
        });
        Data {
            id: d,
            _marker: PhantomData,
        }
    }

    /// Non-atomic read; a race with an unordered write is reported as a
    /// built-in bug and aborts the execution at the next scheduling step.
    /// Each access counts toward `Config::max_steps_per_thread`: a thread
    /// past it ends the execution as diverged, as at a visible op.
    pub fn read(&self) -> T {
        with_ctx(|ctx| {
            let mut st = ctx.lock();
            let (val, bug) = st.mem.apply_data_read(ctx.tid, self.id);
            runtime::data_access_done(ctx.shared, st, ctx.tid, bug);
            T::from_bits(val)
        })
    }

    /// Non-atomic write; races are reported as built-in bugs.
    pub fn write(&self, v: T) {
        with_ctx(|ctx| {
            let mut st = ctx.lock();
            let bug = st.mem.apply_data_write(ctx.tid, self.id, v.to_bits());
            runtime::data_access_done(ctx.shared, st, ctx.tid, bug);
        })
    }

    /// The underlying location id (diagnostics).
    pub fn id(&self) -> DataId {
        self.id
    }
}
