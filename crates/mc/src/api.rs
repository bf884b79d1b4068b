//! Free-function model API: modeled threads, fences, spin hints,
//! per-execution allocation, and spec annotations.

use cdsspec_c11::{MemOrd, SpecNote, Tid};

use crate::msg::{Op, Reply};
use crate::runtime;
use crate::worker::with_ctx;

/// Perform a visible operation for the calling modeled thread.
pub(crate) fn visible_op(op: Op) -> Reply {
    with_ctx(|ctx| runtime::visible_op(ctx.shared, ctx.tid, op))
}

/// Modeled threads.
pub mod thread {
    use super::*;

    /// Handle to a modeled thread; `join` synchronizes with its completion
    /// (like `std::thread::JoinHandle`, minus the return value — modeled
    /// tests communicate through the structures under test).
    #[must_use = "dropping a JoinHandle without joining leaves the thread running"]
    pub struct JoinHandle {
        tid: Tid,
    }

    impl JoinHandle {
        /// The modeled thread id.
        pub fn tid(&self) -> Tid {
            self.tid
        }

        /// Block until the thread finishes; its effects happen-before the
        /// caller's subsequent operations.
        pub fn join(self) {
            match visible_op(Op::Join { target: self.tid }) {
                Reply::Ok => {}
                r => unreachable!("join reply {r:?}"),
            }
        }
    }

    /// Spawn a modeled thread. The spawn happens-before the closure's first
    /// operation.
    pub fn spawn<F: FnOnce() + Send + 'static>(f: F) -> JoinHandle {
        with_ctx(|ctx| {
            let tid = runtime::spawn_thread(ctx.shared_arc(), ctx.tid, Box::new(f));
            JoinHandle { tid }
        })
    }

    /// The current modeled thread id.
    pub fn current() -> Tid {
        with_ctx(|ctx| ctx.tid)
    }
}

/// A memory fence with the given ordering (`atomic_thread_fence`).
pub fn fence(ord: MemOrd) {
    match visible_op(Op::Fence { ord }) {
        Reply::Ok => {}
        r => unreachable!("fence reply {r:?}"),
    }
}

/// Futile-spin hint: call once per failed spin/retry-loop iteration. The
/// checker prunes branches where one thread spins more than
/// `Config::max_spins` times in one execution — the bounded-fairness
/// treatment of unbounded retry loops (any outcome reachable through a
/// long wait is also reachable through a shorter schedule at unit-test
/// scale).
pub fn spin_loop() {
    match visible_op(Op::Spin) {
        Reply::Ok => {}
        r => unreachable!("spin reply {r:?}"),
    }
}

/// Voluntary scheduling point with no memory effect.
pub fn yield_now() {
    match visible_op(Op::Yield) {
        Reply::Ok => {}
        r => unreachable!("yield reply {r:?}"),
    }
}

/// Feed the hang watchdog without a scheduling point. Modeled code doing
/// a legitimately long non-atomic computation (longer than
/// `Config::hang_timeout`) between visible operations should call this
/// periodically so the watchdog does not mistake it for a wedged thread.
/// No-op outside a model run.
pub fn progress_hint() {
    if !crate::worker::in_model() {
        return;
    }
    // Lock-free: the heartbeat is an atomic on `Shared`, so the hint
    // costs one fetch_add — cheap enough to sprinkle into tight loops.
    with_ctx(|ctx| ctx.shared.heartbeat());
}

/// Allocate `v` for the duration of the current execution and return a raw
/// pointer to it. The allocation is freed when the execution ends (after
/// every modeled thread has stopped), which makes it the right tool for
/// linked-structure nodes that C code would leak or defer-free:
///
/// ```ignore
/// let node: *mut Node = mc::alloc(Node::new(val));
/// ```
pub fn alloc<T: Send + 'static>(v: T) -> *mut T {
    with_ctx(|ctx| {
        let mut arena = ctx.shared.arena.lock();
        let mut boxed = Box::new(v);
        let ptr: *mut T = &mut *boxed;
        arena.push(boxed);
        ptr
    })
}

/// Allocate a deterministic per-execution object identity for a data
/// structure instance (used by specification composition, paper §3.2).
/// Returns 0 outside a model run.
pub fn new_object_id() -> u64 {
    if !crate::worker::in_model() {
        return 0;
    }
    with_ctx(|ctx| ctx.lock().mem.next_object_id())
}

/// Record a specification annotation (used by `cdsspec-core`; data
/// structures call the typed wrappers there instead). The note is
/// buffered without taking the execution lock and committed, anchored to
/// the thread's last event, by the thread's next engine call (see
/// `Shared::lock_as`).
pub fn annotate(note: SpecNote) {
    with_ctx(|_| crate::worker::buffer_note(note))
}

/// Model-checked assertion: panics (reported as a bug with the message)
/// when `cond` is false.
#[macro_export]
macro_rules! mc_assert {
    ($cond:expr) => {
        if !$cond {
            panic!("mc_assert failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            panic!("mc_assert failed: {}", format_args!($($arg)+));
        }
    };
}
