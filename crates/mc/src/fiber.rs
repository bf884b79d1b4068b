//! Userspace-fiber execution: every modeled thread of one execution runs
//! on the *same* OS thread, on its own guarded stack, and control moves
//! between them with a ~20-instruction stack switch instead of a futex
//! round trip.
//!
//! # Why
//!
//! The token-passing runtime (see [`crate::runtime`]) is strictly
//! sequential: exactly one modeled thread executes user code at any
//! moment, and every visible operation hands the token to the next thread
//! the DFS script selects. Hosting modeled threads on pooled OS threads
//! therefore buys no parallelism — it only pays, per token transfer, a
//! condvar wake plus a park: two kernel entries and a scheduler pass. On
//! the single-core CI hosts this is *half the wall clock* of a figure-7
//! exploration (`sys` ≈ `user` in `time`'s output). CDSChecker itself
//! runs modeled threads on `ucontext` fibers for exactly this reason.
//!
//! # How
//!
//! [`run_execution`] hosts one execution: it creates a fiber for the main
//! modeled thread and switches to it; [`crate::runtime::spawn_thread`]
//! creates further fibers in place of pool dispatches. A fiber that must
//! wait for its reply picks the next runnable fiber itself (the thread
//! whose reply the scheduler just deposited, or a spawned-but-not-yet-run
//! fiber holding the running token) and switches straight to it — the
//! scheduling *decisions* stay in [`crate::runtime::schedule`], byte for
//! byte the same as under OS-thread hosting; only the transfer mechanism
//! changes. The equivalence is pinned by `tests/fiber_equivalence.rs`.
//!
//! Host selection lives in one place, [`host_choice`], shared by
//! [`enabled_here`] and `runtime::run_once` so the two sites cannot
//! drift: fibers where the target supports them and
//! `Config::fiber_hosting` asks for them; the OS-thread pool otherwise
//! (notably for *nested* explorations, where the caller is itself a
//! modeled thread). A configured hang watchdog no longer forces
//! the pool on Linux: stall detection runs on a dedicated monitor thread
//! (`mod watchdog`) and a wedged fiber is preempted by a directed signal
//! (`mod signals`), so `Config::default` — watchdog on — gets the fiber
//! fast path.
//!
//! # Hang rescue
//!
//! The explorer thread *is* the fiber host, so the in-function watchdog
//! poll of the OS-thread path can never run while a fiber is wedged. A
//! lazily spawned `cdsspec-watchdog` monitor thread watches the
//! per-execution heartbeat (`Shared::progress`, a lock-free atomic — a
//! wedged host never releases `Shared::inner`, so the monitor must not
//! take it). On a stall it sets a preemption request and `pthread_kill`s
//! the host with `SIGURG`, re-sending every tick until the handler
//! accepts. The handler — when the *preemption gate* (below) says user
//! code was running — stack-switches from the wedged fiber straight back
//! to the host continuation saved by [`run_execution`]'s switch-out. The
//! host then reports `Bug::InternalHang` (with the wedged tid and the
//! last-committed event), marks the wedged fiber dead + abandoned,
//! poisons the stack pool, and keeps draining the surviving fibers of the
//! aborted execution. The abandoned stack (and whatever its frames own)
//! is leaked — bounded, one stack per hang, mirroring the wedged-job leak
//! of the OS-thread host.
//!
//! # Stack overflow
//!
//! On Linux/x86_64 each fiber stack is a raw `mmap` with a `PROT_NONE`
//! guard region below it; a `SIGSEGV`-on-altstack handler converts guard
//! hits under an open gate into the same rescue mechanism, reporting
//! `Bug::StackOverflow` instead of corrupting the heap. Everywhere else
//! (and if `mmap` fails) stacks fall back to plain heap buffers with
//! canary words at the low end, re-armed on every pool checkout and
//! checked at every switch — detection after the fact, but deterministic
//! and allocation-free. Guard faults with the gate *closed* (engine
//! frames overflowing, which would mean engine state is unrecoverable)
//! fail fast with an async-signal-safe `write(2)` + `abort`.
//!
//! # The preemption gate
//!
//! Rescue is only sound when the wedged fiber was executing *user* code:
//! preempting mid-engine would abandon a fiber holding `Shared::inner`,
//! or halfway through transfer bookkeeping. Every engine entry point
//! holds an [`EngineSection`] (a thread-local depth counter, saved and
//! restored per fiber at every switch), and the switch paths themselves
//! set a `SWITCHING` flag across the bookkeeping window; the signal
//! handlers refuse to rescue unless depth is zero, no switch is in
//! flight, and a fiber is actually running. A refused delivery is
//! retried by the monitor on its next tick.
//!
//! # Safety notes
//!
//! * Panics never unwind across a stack switch: each fiber's unwinds
//!   (including the routine [`crate::worker::DieMarker`] aborts) are
//!   caught by `catch_unwind` at the fiber's own root frame
//!   ([`crate::worker::run_job`]), above the assembly trampoline.
//! * The per-thread context used by the modeled-code primitives is
//!   re-installed on every switch, so `with_ctx` always sees the fiber
//!   that is actually running.
//! * A locked [`Shared::inner`] guard is never held across a switch —
//!   every transfer site drops the guard first and relocks on resume.
//! * An abandoned fiber's stack is never reused or unwound: the slot is
//!   marked dead, the teardown `mem::forget`s the stack (its frames may
//!   own `Arc`s and arena pointers), and the whole pool is discarded
//!   because the wedged closure may have scribbled on any previously
//!   pooled stack it borrowed from.
//! * Residual hazard, accepted: a rescue signal could land inside a
//!   memory-allocator critical section *of user code* (the gate only
//!   tracks engine sections). The window is nanoseconds against a
//!   multi-second stall timeout, the failure mode is a wedged explorer
//!   (no corruption of checked state), and the campaign supervisor's
//!   process-level kill is the backstop — same contract as a wedged
//!   OS-thread job.
//! * Residual hazard, accepted: a fiber abandoned while blocked in
//!   `std`'s thread parker would leave the *host* OS thread's parker in
//!   a parked state. Contained: the explorer never calls
//!   `std::thread::park`, and the runtime's own blocking uses condvars.
//! * x87/SSE control words are not switched (nothing in this process
//!   changes them) — pre-existing caveat of the switch primitive.

use std::cell::{Cell, RefCell};
use std::mem::MaybeUninit;
use std::sync::Arc;
use std::time::Duration;

use cdsspec_c11::Tid;

use crate::config::Config;
use crate::report::Bug;
use crate::runtime::Shared;
use crate::worker::{self, Job};

/// Is fiber hosting implemented for this target?
pub(crate) const SUPPORTED: bool = cfg!(all(target_arch = "x86_64", unix));

/// Is watchdog preemption (signal-directed rescue of a wedged fiber)
/// implemented for this target? Subset of [`SUPPORTED`]: the rescue
/// machinery leans on Linux signal semantics (`pthread_kill`, sigaltstack
/// layout, guard-page `mmap`).
pub(crate) const PREEMPT_SUPPORTED: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

/// How one execution's modeled threads are hosted. Selected once per
/// execution by [`host_choice`] — the single predicate shared by
/// [`enabled_here`] and `runtime::run_once`, so the gating logic cannot
/// be re-implemented divergently at the two sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HostChoice {
    /// Every modeled thread on userspace fibers of the explorer thread.
    Fiber,
    /// Every modeled thread on the OS-thread pool.
    Pool,
}

/// Pick the hosting mechanism for an execution under `config`. See the
/// module docs for why each condition exists.
pub(crate) fn host_choice(config: &Config) -> HostChoice {
    if worker::in_model() {
        // Nested exploration: the caller is itself a modeled thread and
        // must stay free to respond to its own scheduler.
        return HostChoice::Pool;
    }
    if SUPPORTED && config.fiber_hosting && (config.hang_timeout.is_none() || PREEMPT_SUPPORTED) {
        return HostChoice::Fiber;
    }
    HostChoice::Pool
}

/// Should this execution run on fibers? Thin view over [`host_choice`]
/// (production code matches on the full choice; the test suites assert
/// through this predicate).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn enabled_here(config: &Config) -> bool {
    matches!(host_choice(config), HostChoice::Fiber)
}

/// Default fiber stack size (usable, excluding the guard region) when
/// `Config::fiber_stack` is 0 or untouched. Untouched pages stay
/// uncommitted; generous because modeled closures may nest a whole inner
/// exploration.
pub(crate) const DEFAULT_STACK_SIZE: usize = 1 << 20;

/// Smallest usable stack this module will hand out, whatever the config
/// asks for: enough for the trampoline, the entry frames, and the engine
/// code a fiber runs before its first switch-out.
const MIN_STACK_SIZE: usize = 64 << 10;

/// Page granularity stack sizes are rounded to.
const PAGE: usize = 4096;

/// Resolve a requested `Config::fiber_stack` into the size actually
/// mapped: 0 means the default, everything is rounded up to a whole page
/// and clamped to [`MIN_STACK_SIZE`].
fn effective_stack_size(requested: usize) -> usize {
    let want = if requested == 0 {
        DEFAULT_STACK_SIZE
    } else {
        requested
    };
    want.max(MIN_STACK_SIZE).div_ceil(PAGE) * PAGE
}

/// Size of the `PROT_NONE` guard region below each mapped stack.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
const GUARD_SIZE: usize = 1 << 16;

/// Canary pattern written at the low end of every stack; see
/// [`Stack::arm_canary`].
const CANARY: u64 = 0xCD55_FEED_DEAD_5AFE;
/// Number of canary words.
const CANARY_WORDS: usize = 4;

// ---------------------------------------------------------------------
// Preemption gate: handler-visible, async-signal-safe thread-locals.
//
// All are const-initialized `Cell`s — reads and writes are plain TLS
// accesses with no lazy-init or allocation, safe to touch from the
// signal handlers in `mod signals`.
// ---------------------------------------------------------------------

const RESCUE_NONE: u8 = 0;
const RESCUE_HANG: u8 = 1;
const RESCUE_OVERFLOW: u8 = 2;

thread_local! {
    /// Engine-section depth. Nonzero ⇒ engine code (scheduler, runtime
    /// bookkeeping, locks) is on the stack ⇒ no rescue.
    static ENGINE_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// A stack switch's bookkeeping window is open (depth may legally be
    /// 0 mid-transfer while the target's depth is being staged).
    static SWITCHING: Cell<bool> = const { Cell::new(false) };
    /// Where to save the running fiber's SP if a handler preempts it.
    /// Null ⇔ the host (not a fiber) is running ⇒ no rescue.
    static CUR_SP_SLOT: Cell<*mut usize> = const { Cell::new(std::ptr::null_mut()) };
    /// Tid of the running fiber (valid while `CUR_SP_SLOT` is non-null).
    static CUR_TID: Cell<u32> = const { Cell::new(0) };
    /// The host continuation's saved-SP slot (points into
    /// `FiberRt::host_sp` for the span of `run_execution`).
    static HOST_SP_SLOT: Cell<*const usize> = const { Cell::new(std::ptr::null()) };
    /// Guard region of the running fiber's stack (`0..0` when none).
    static GUARD_LO: Cell<usize> = const { Cell::new(0) };
    static GUARD_HI: Cell<usize> = const { Cell::new(0) };
    /// Set by a handler that performed a rescue switch; consumed by
    /// [`take_rescue`] on the host side.
    static RESCUE: Cell<u8> = const { Cell::new(RESCUE_NONE) };
    static RESCUE_TID: Cell<u32> = const { Cell::new(0) };
    /// `Arc::as_ptr` of the armed `watchdog::PreemptState`, 0 when no
    /// watchdog is armed. The `WatchGuard` clears this before dropping
    /// its `Arc`, so the handler never dereferences a dead pointer.
    static PREEMPT_PTR: Cell<usize> = const { Cell::new(0) };
}

/// RAII depth token for the preemption gate. Every engine entry point
/// reachable from modeled code holds one; the signal handlers refuse to
/// rescue while any is alive on the running fiber.
pub(crate) struct EngineSection(());

/// Open an engine section (close the preemption gate) until the returned
/// token drops.
pub(crate) fn engine_section() -> EngineSection {
    ENGINE_DEPTH.set(ENGINE_DEPTH.get() + 1);
    EngineSection(())
}

impl Drop for EngineSection {
    fn drop(&mut self) {
        ENGINE_DEPTH.set(ENGINE_DEPTH.get() - 1);
    }
}

fn begin_transfer() {
    SWITCHING.set(true);
}

fn end_transfer() {
    SWITCHING.set(false);
}

/// Point the signal handlers at the fiber about to run.
fn point_handler_at(slot: &mut FiberSlot) {
    CUR_TID.set(slot.tid.0);
    let (lo, hi) = slot.stack.guard_range();
    GUARD_LO.set(lo);
    GUARD_HI.set(hi);
    CUR_SP_SLOT.set(&mut *slot.stack.sp as *mut usize);
}

/// No fiber is running (the host is): handlers must not rescue.
fn clear_handler_target() {
    CUR_SP_SLOT.set(std::ptr::null_mut());
    CUR_TID.set(0);
    GUARD_LO.set(0);
    GUARD_HI.set(0);
}

/// A rescue performed by a signal handler, observed by the host after its
/// switch-out "returned".
struct Rescue {
    tid: Tid,
    overflow: bool,
}

/// Consume a pending handler rescue, if any. Re-opens the signal mask:
/// the rescuing handler switched away instead of returning through
/// `sigreturn`, so the kernel still has its signal blocked on this
/// thread.
fn take_rescue() -> Option<Rescue> {
    match RESCUE.replace(RESCUE_NONE) {
        RESCUE_NONE => None,
        kind => {
            signals::unblock_after_rescue();
            Some(Rescue {
                tid: Tid(RESCUE_TID.get()),
                overflow: kind == RESCUE_OVERFLOW,
            })
        }
    }
}

// ---------------------------------------------------------------------
// Stacks: guarded mappings with a heap fallback, canaried, pooled.
// ---------------------------------------------------------------------

/// Backing memory of one fiber stack.
enum StackMem {
    /// Plain heap buffer: no guard, canary-only overflow detection.
    /// Uninitialized on purpose — zeroing would commit every page of
    /// every stack up front.
    Heap(Box<[MaybeUninit<u8>]>),
    /// Raw `mmap` of `GUARD_SIZE + size` bytes with the low `GUARD_SIZE`
    /// bytes `PROT_NONE` (`base` is the mapping start; the usable stack
    /// begins at `base + GUARD_SIZE`).
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Mapped { base: *mut u8, size: usize },
}

impl StackMem {
    fn new(size: usize) -> StackMem {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if let Some(base) = map_guarded(size) {
            return StackMem::Mapped { base, size };
        }
        StackMem::Heap(Box::new_uninit_slice(size))
    }

    /// Usable stack bytes (the guard region is extra).
    fn size(&self) -> usize {
        match self {
            StackMem::Heap(b) => b.len(),
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            StackMem::Mapped { size, .. } => *size,
        }
    }

    /// Lowest usable stack byte.
    fn lo(&self) -> *const u8 {
        match self {
            StackMem::Heap(b) => b.as_ptr() as *const u8,
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            StackMem::Mapped { base, .. } => unsafe { base.add(GUARD_SIZE) },
        }
    }

    fn lo_mut(&mut self) -> *mut u8 {
        match self {
            StackMem::Heap(b) => b.as_mut_ptr() as *mut u8,
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            StackMem::Mapped { base, .. } => unsafe { base.add(GUARD_SIZE) },
        }
    }
}

impl Drop for StackMem {
    fn drop(&mut self) {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if let StackMem::Mapped { base, size } = self {
            unsafe { sys::munmap(*base as *mut core::ffi::c_void, GUARD_SIZE + *size) };
        }
    }
}

/// `mmap` a guarded stack: RW anonymous mapping with the low guard
/// region re-protected to `PROT_NONE`. `None` on any failure (the caller
/// falls back to a heap stack).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn map_guarded(size: usize) -> Option<*mut u8> {
    unsafe {
        let len = GUARD_SIZE + size;
        let base = sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ | sys::PROT_WRITE,
            sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE,
            -1,
            0,
        );
        if base == sys::MAP_FAILED {
            return None;
        }
        if sys::mprotect(base, GUARD_SIZE, sys::PROT_NONE) != 0 {
            sys::munmap(base, len);
            return None;
        }
        Some(base as *mut u8)
    }
}

/// A reusable fiber stack plus the slot its suspended stack pointer is
/// saved in. The slot is boxed so its address survives growth of the
/// per-execution fiber table (and so the signal handler can name it).
struct Stack {
    mem: StackMem,
    /// Saved stack pointer while the fiber is suspended.
    sp: Box<usize>,
}

impl Stack {
    fn new(size: usize) -> Self {
        let mut s = Stack {
            mem: StackMem::new(size),
            sp: Box::new(0),
        };
        s.arm_canary();
        s
    }

    /// Usable stack bytes.
    fn size(&self) -> usize {
        self.mem.size()
    }

    /// Write the canary words at the lowest usable bytes. Unaligned
    /// writes: heap stacks have alignment 1.
    fn arm_canary(&mut self) {
        let lo = self.mem.lo_mut();
        unsafe {
            for i in 0..CANARY_WORDS {
                lo.add(i * 8).cast::<u64>().write_unaligned(CANARY);
            }
        }
    }

    /// Are the canary words intact?
    fn canary_ok(&self) -> bool {
        let lo = self.mem.lo();
        unsafe { (0..CANARY_WORDS).all(|i| lo.add(i * 8).cast::<u64>().read_unaligned() == CANARY) }
    }

    /// `[lo, hi)` of the guard region, `(0, 0)` when the stack has none.
    fn guard_range(&self) -> (usize, usize) {
        match &self.mem {
            StackMem::Heap(_) => (0, 0),
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            StackMem::Mapped { base, .. } => {
                let lo = *base as usize;
                (lo, lo + GUARD_SIZE)
            }
        }
    }

    /// Re-sanitize a pooled stack on checkout: re-assert the guard
    /// protection (a wedged closure could have `mprotect`ed it away — and
    /// `false` here means the mapping can no longer be trusted at all)
    /// and re-arm the canary. `false` ⇒ discard the stack.
    fn reverify(&mut self) -> bool {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if let StackMem::Mapped { base, .. } = &self.mem {
            let ok = unsafe {
                sys::mprotect(*base as *mut core::ffi::c_void, GUARD_SIZE, sys::PROT_NONE) == 0
            };
            if !ok {
                return false;
            }
        }
        self.arm_canary();
        true
    }
}

thread_local! {
    static RT: RefCell<Option<FiberRt>> = const { RefCell::new(None) };
    /// Stacks recycled across the executions hosted by this OS thread.
    static STACK_POOL: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// Take a sanitized stack of exactly `size` usable bytes from the pool
/// (re-arming its canary and re-verifying its guard), or map a fresh
/// one. Other sizes stay pooled: an execution at a custom
/// `Config::fiber_stack` must never inherit a smaller (or wastefully
/// larger) stack mapped for an earlier config.
fn checkout_stack(size: usize) -> Stack {
    STACK_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        while let Some(at) = pool.iter().position(|s| s.size() == size) {
            let mut s = pool.swap_remove(at);
            if s.reverify() {
                return s;
            }
            // Unverifiable guard: drop (unmaps) rather than reuse.
        }
        Stack::new(size)
    })
}

/// Discard every pooled stack on this OS thread. Called after a rescue:
/// the wedged closure may hold pointers into (or have scribbled over) any
/// stack it ever borrowed, so the whole pool is contaminated.
fn poison_pool() {
    STACK_POOL.with(|pool| pool.borrow_mut().clear());
}

#[cfg(test)]
fn pool_size() -> usize {
    STACK_POOL.with(|pool| pool.borrow().len())
}

// ---------------------------------------------------------------------
// Per-execution fiber runtime.
// ---------------------------------------------------------------------

/// One modeled thread's fiber within the current execution.
struct FiberSlot {
    tid: Tid,
    stack: Stack,
    /// Has the fiber run at least once? Unstarted fibers hold the running
    /// token (they are "executing user code" as far as the scheduler's
    /// accounting goes) and must be given control before the token count
    /// can reach zero.
    started: bool,
    /// The fiber's root returned or unwound (or the fiber was abandoned
    /// by a rescue); its stack may be reclaimed at teardown and control
    /// must never transfer to it again.
    dead: bool,
    /// Abandoned mid-flight by a signal rescue: the stack still holds
    /// live frames (owning `Arc`s, arena pointers) and must be leaked,
    /// never unwound or reused.
    abandoned: bool,
    /// The fiber's `ENGINE_DEPTH` while suspended; restored by whoever
    /// switches to it. 0 for a fiber that has never run.
    saved_depth: u32,
}

/// Per-OS-thread fiber host state, alive for the span of one execution.
struct FiberRt {
    shared: Arc<Shared>,
    fibers: Vec<FiberSlot>,
    /// Saved host (explorer) context; the last dying fiber — or a
    /// rescuing signal handler — returns here.
    host_sp: Box<usize>,
    /// Currently running fiber, `None` while the host itself runs.
    current: Option<Tid>,
    /// A rescue happened: discard the stack pool at teardown.
    poisoned: bool,
    /// Usable bytes per fiber stack for this execution (already
    /// page-rounded and clamped by [`effective_stack_size`]).
    stack_size: usize,
}

/// Is a fiber-hosted execution in progress on this OS thread?
pub(crate) fn active() -> bool {
    let _gate = engine_section();
    RT.with(|rt| rt.borrow().is_some())
}

/// The lowest-tid fiber that has never run. Token accounting (see
/// [`FiberSlot::started`]) guarantees one exists whenever the running
/// count is nonzero and the current fiber has posted its operation.
pub(crate) fn first_unstarted() -> Option<Tid> {
    let _gate = engine_section();
    RT.with(|rt| {
        rt.borrow()
            .as_ref()
            .expect("first_unstarted outside a fiber execution")
            .fibers
            .iter()
            .find(|f| !f.started && !f.dead)
            .map(|f| f.tid)
    })
}

/// Host one execution: run `closure` as the main modeled thread and every
/// spawned thread on fibers of the calling OS thread. Returns when the
/// execution has fully drained (outcome decided, every fiber dead) —
/// including after watchdog rescues, which abort the execution but keep
/// draining its surviving fibers.
pub(crate) fn run_execution(
    shared: &Arc<Shared>,
    closure: Box<dyn FnOnce() + Send + 'static>,
    hang_timeout: Option<Duration>,
    stack_size: usize,
) {
    RT.with(|rt| {
        let prev = rt.borrow_mut().replace(FiberRt {
            shared: Arc::clone(shared),
            fibers: Vec::new(),
            host_sp: Box::new(0),
            current: None,
            poisoned: false,
            stack_size: effective_stack_size(stack_size),
        });
        debug_assert!(prev.is_none(), "nested fiber executions on one thread");
    });
    RT.with(|rt| {
        let rt = rt.borrow();
        let rt = rt.as_ref().expect("fiber rt just installed");
        HOST_SP_SLOT.set(&*rt.host_sp as *const usize);
    });
    spawn_fiber(Tid::MAIN, Arc::clone(shared), closure);
    signals::ensure();
    let watch = watchdog::arm(shared, hang_timeout);

    // Drive the execution. Control returns to this loop from
    // `exit_current(None)` when the execution has drained (no rescue
    // pending), or from a signal-handler rescue that abandoned the
    // running fiber mid-flight.
    let mut next = Some(Tid::MAIN);
    while let Some(target) = next {
        switch_from_host(target);
        match take_rescue() {
            None => break, // clean drain: every fiber dead
            Some(rescue) => {
                // The abandoned fiber's modeled-thread context is still
                // installed; clear it before engine code runs here.
                worker::set_fiber_ctx(None);
                RT.with(|rt| {
                    let mut rt = rt.borrow_mut();
                    let rt = rt.as_mut().expect("fiber rt present during rescue");
                    rt.current = None;
                    rt.poisoned = true;
                    let slot = slot_mut(rt, rescue.tid);
                    slot.dead = true;
                    slot.abandoned = true;
                });
                crate::runtime::fiber_rescued(shared, rescue.tid, rescue.overflow, hang_timeout);
                next = {
                    let _gate = engine_section();
                    let st = shared.inner.lock();
                    crate::runtime::fiber_next(&st)
                };
            }
        }
    }
    drop(watch);

    // Teardown: reclaim the stacks. An abandoned stack is leaked (its
    // frames own live state); after any rescue the whole pool is
    // discarded; a stack whose canary died is dropped.
    let rt = RT
        .with(|rt| rt.borrow_mut().take())
        .expect("fiber rt present");
    HOST_SP_SLOT.set(std::ptr::null());
    debug_assert!(rt.current.is_none());
    debug_assert!(
        rt.fibers.iter().all(|f| f.dead),
        "teardown with a live fiber"
    );
    let poisoned = rt.poisoned;
    if poisoned {
        poison_pool();
    }
    for f in rt.fibers {
        if f.abandoned {
            std::mem::forget(f.stack);
        } else if !poisoned && f.stack.canary_ok() {
            STACK_POOL.with(|pool| pool.borrow_mut().push(f.stack));
        }
        // else: drop frees/unmaps it.
    }
}

/// Create (but do not run) the fiber for modeled thread `tid`. Called by
/// [`crate::runtime::spawn_thread`] in place of a pool dispatch; the new
/// fiber holds the running token until its first visible operation.
pub(crate) fn spawn_fiber(
    tid: Tid,
    shared: Arc<Shared>,
    closure: Box<dyn FnOnce() + Send + 'static>,
) {
    let _gate = engine_section();
    let size = RT.with(|rt| {
        rt.borrow()
            .as_ref()
            .expect("spawn_fiber outside a fiber execution")
            .stack_size
    });
    let mut stack = checkout_stack(size);
    let job = Box::new(Job {
        tid,
        shared,
        closure,
    });
    arch::craft_initial_frame(&mut stack, Box::into_raw(job) as usize);
    RT.with(|rt| {
        let mut rt = rt.borrow_mut();
        let rt = rt.as_mut().expect("spawn_fiber outside a fiber execution");
        rt.fibers.push(FiberSlot {
            tid,
            stack,
            started: false,
            dead: false,
            abandoned: false,
            saved_depth: 0,
        });
    });
}

/// If the running fiber's canary died, report a stack overflow (honored
/// at the next scheduling decision). The switch itself proceeds: frames
/// *above* the canary are intact, so suspending and later unwinding this
/// fiber stays safe; its stack is filtered out at teardown.
fn canary_check_current() {
    let hit = RT.with(|rt| {
        let rt = rt.borrow();
        let rt = rt.as_ref().expect("canary check outside a fiber execution");
        let me = rt.current.expect("canary check from the host context");
        let mine = rt
            .fibers
            .iter()
            .find(|f| f.tid == me)
            .expect("fiber slot exists for the running fiber");
        if mine.stack.canary_ok() {
            None
        } else {
            Some((Arc::clone(&rt.shared), me))
        }
    });
    if let Some((shared, tid)) = hit {
        shared.post_bug(Bug::StackOverflow { tid });
    }
}

/// Transfer control from the running fiber to `target`, suspending the
/// caller until some fiber switches back. The per-thread context, the
/// caller's gate depth, and the handler target are all saved/re-staged
/// around the switch.
pub(crate) fn switch_to(target: Tid) {
    let _gate = engine_section();
    canary_check_current();
    begin_transfer();
    let (save, load) = RT.with(|rt| {
        let mut rt = rt.borrow_mut();
        let rt = rt.as_mut().expect("switch_to outside a fiber execution");
        let me = rt.current.expect("switch_to from the host context");
        debug_assert_ne!(me, target, "self-switch");
        let depth = ENGINE_DEPTH.get();
        let save = {
            let mine = slot_mut(rt, me);
            debug_assert!(!mine.dead);
            mine.saved_depth = depth;
            &mut *mine.stack.sp as *mut usize
        };
        install_ctx(Some(target), &rt.shared);
        rt.current = Some(target);
        let theirs = slot_mut(rt, target);
        debug_assert!(!theirs.dead, "switch to a dead fiber");
        theirs.started = true;
        ENGINE_DEPTH.set(theirs.saved_depth);
        point_handler_at(theirs);
        (save, *theirs.stack.sp)
    });
    unsafe { arch::switch_stacks(save, load) };
    // Resumed: whoever switched here restored our depth and pointed the
    // handlers at us; close the transfer window they opened.
    end_transfer();
}

/// Transfer control from the *host* (explorer) context into `target`.
/// Returns when control comes back to the host — via `exit_current(None)`
/// on a clean drain, or via a signal-handler rescue; the repair sequence
/// after the switch is idempotent across both return paths.
fn switch_from_host(target: Tid) {
    let depth0 = ENGINE_DEPTH.get();
    begin_transfer();
    let (save, load) = RT.with(|rt| {
        let mut rt = rt.borrow_mut();
        let rt = rt
            .as_mut()
            .expect("switch_from_host outside a fiber execution");
        debug_assert!(rt.current.is_none(), "switch_from_host while a fiber runs");
        install_ctx(Some(target), &rt.shared);
        rt.current = Some(target);
        let load = {
            let theirs = slot_mut(rt, target);
            debug_assert!(!theirs.dead, "switch to a dead fiber");
            theirs.started = true;
            ENGINE_DEPTH.set(theirs.saved_depth);
            point_handler_at(theirs);
            *theirs.stack.sp
        };
        (&mut *rt.host_sp as *mut usize, load)
    });
    unsafe { arch::switch_stacks(save, load) };
    end_transfer();
    clear_handler_target();
    ENGINE_DEPTH.set(depth0);
}

/// Terminal transfer out of a finished fiber: to `next` when the runtime
/// names a successor, to the host context when the execution has drained.
/// Never returns — nothing switches back to a dead fiber.
fn exit_current(next: Option<Tid>) -> ! {
    let _gate = engine_section();
    canary_check_current();
    begin_transfer();
    let (save, load) = RT.with(|rt| {
        let mut rt = rt.borrow_mut();
        let rt = rt.as_mut().expect("exit_current outside a fiber execution");
        let me = rt.current.expect("exit_current from the host context");
        let save = {
            let mine = slot_mut(rt, me);
            mine.dead = true;
            // The save slot of a dead fiber is write-only scratch.
            &mut *mine.stack.sp as *mut usize
        };
        match next {
            Some(target) => {
                install_ctx(Some(target), &rt.shared);
                rt.current = Some(target);
                let theirs = slot_mut(rt, target);
                debug_assert!(!theirs.dead, "exit to a dead fiber");
                theirs.started = true;
                ENGINE_DEPTH.set(theirs.saved_depth);
                point_handler_at(theirs);
                (save, *theirs.stack.sp)
            }
            None => {
                install_ctx(None, &rt.shared);
                rt.current = None;
                // Gate/handler repair happens host-side, in
                // `switch_from_host`'s post-switch sequence.
                (save, *rt.host_sp)
            }
        }
    });
    unsafe { arch::switch_stacks(save, load) };
    unreachable!("a dead fiber was resumed");
}

fn slot_mut(rt: &mut FiberRt, tid: Tid) -> &mut FiberSlot {
    rt.fibers
        .iter_mut()
        .find(|f| f.tid == tid)
        .expect("fiber slot exists for every registered thread")
}

/// (Re)install the modeled-thread context for the fiber about to run.
fn install_ctx(tid: Option<Tid>, shared: &Arc<Shared>) {
    worker::set_fiber_ctx(tid.map(|tid| worker::Ctx {
        tid,
        shared: Arc::clone(shared),
    }));
}

/// Root of every fiber: run the modeled thread like a pooled worker
/// would, then hand control to whichever fiber the runtime says runs
/// next. `arg` is the boxed [`Job`] smuggled through the crafted initial
/// stack frame.
extern "C" fn fiber_entry(arg: usize) -> ! {
    // The switch that started this fiber left its transfer window open.
    end_transfer();
    // `exit_current` never returns, so nothing in this frame is ever
    // dropped: everything the root owns lives in this block and is gone
    // before the terminal switch (the job box and a `Shared` count would
    // otherwise leak once per fiber).
    let next = {
        let job = unsafe { Box::from_raw(arg as *mut Job) };
        let shared = Arc::clone(&job.shared);
        // run_job installs the context itself and catches every unwind
        // (normal return, DieMarker abort, real panic) before this frame.
        worker::run_job(*job);
        // Past this point the job's exit is fully accounted (`job_exited`
        // ran); a rescue landing in the remaining window would double-count
        // it. Shut the gate for the rest of this fiber's life — the guard is
        // deliberately leaked; the terminal switch discards this fiber's
        // gate state anyway.
        std::mem::forget(engine_section());
        let st = shared.inner.lock();
        crate::runtime::fiber_next(&st)
    };
    exit_current(next)
}

// ---------------------------------------------------------------------
// Raw Linux syscall surface (no libc crate: the repo's no-new-deps
// discipline). x86_64 Linux only; glibc and musl share these layouts.
// ---------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod sys {
    use core::ffi::{c_int, c_void};

    pub const PROT_NONE: c_int = 0;
    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 0x02;
    pub const MAP_ANONYMOUS: c_int = 0x20;
    pub const MAP_NORESERVE: c_int = 0x4000;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    pub const SIGSEGV: c_int = 11;
    pub const SIGURG: c_int = 23;
    pub const SA_SIGINFO: c_int = 4;
    pub const SA_ONSTACK: c_int = 0x0800_0000;
    pub const SIG_DFL: usize = 0;
    pub const SIG_IGN: usize = 1;
    pub const SIG_UNBLOCK: c_int = 1;
    pub const SS_DISABLE: c_int = 2;

    /// `sigset_t`: 1024 bits on Linux glibc/musl.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct SigSet(pub [u64; 16]);

    impl SigSet {
        pub const fn empty() -> Self {
            SigSet([0; 16])
        }
        pub fn add(&mut self, sig: c_int) {
            let bit = (sig - 1) as usize;
            self.0[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// Userspace `struct sigaction`, x86_64 glibc/musl layout (identical
    /// on both): handler, mask, flags, restorer.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct SigAction {
        pub handler: usize,
        pub mask: SigSet,
        pub flags: c_int,
        pub restorer: usize,
    }

    impl SigAction {
        pub const fn zeroed() -> Self {
            SigAction {
                handler: 0,
                mask: SigSet::empty(),
                flags: 0,
                restorer: 0,
            }
        }
    }

    /// `siginfo_t` prefix, x86_64 Linux: three ints, padding, then the
    /// fault address for SIGSEGV. 128 bytes total.
    #[repr(C)]
    pub struct SigInfo {
        pub si_signo: c_int,
        pub si_errno: c_int,
        pub si_code: c_int,
        _pad: c_int,
        pub si_addr: usize,
        _rest: [u64; 13],
    }

    /// `stack_t` for `sigaltstack`.
    #[repr(C)]
    pub struct StackT {
        pub ss_sp: usize,
        pub ss_flags: c_int,
        pub ss_size: usize,
    }

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            off: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        pub fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        pub fn sigaltstack(ss: *const StackT, old: *mut StackT) -> c_int;
        pub fn pthread_sigmask(how: c_int, set: *const SigSet, old: *mut SigSet) -> c_int;
        pub fn pthread_self() -> usize;
        pub fn pthread_kill(thread: usize, sig: c_int) -> c_int;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn abort() -> !;
    }
}

// ---------------------------------------------------------------------
// Signal handlers: SIGURG preemption + SIGSEGV guard-page conversion.
// ---------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod signals {
    use super::*;
    use core::ffi::{c_int, c_void};
    use std::sync::atomic::Ordering;
    use std::sync::Once;

    static INSTALL: Once = Once::new();
    /// The SIGSEGV disposition we displaced (usually Rust std's own
    /// stack-overflow reporter); non-guard faults chain to it.
    static mut PREV_SEGV: sys::SigAction = sys::SigAction::zeroed();

    thread_local! {
        static ALTSTACK_READY: Cell<bool> = const { Cell::new(false) };
    }

    /// Install the process-wide handlers (once) and make sure this OS
    /// thread has a signal altstack (SIGSEGV from a blown guard must not
    /// be delivered on the very stack that just ran out).
    pub(super) fn ensure() {
        INSTALL.call_once(install_handlers);
        ensure_altstack();
    }

    fn install_handlers() {
        unsafe {
            let urg = sys::SigAction {
                handler: sigurg_handler as *const () as usize,
                mask: sys::SigSet::empty(),
                flags: sys::SA_SIGINFO,
                restorer: 0,
            };
            sys::sigaction(sys::SIGURG, &urg, std::ptr::null_mut());
            let segv = sys::SigAction {
                handler: sigsegv_handler as *const () as usize,
                mask: sys::SigSet::empty(),
                flags: sys::SA_SIGINFO | sys::SA_ONSTACK,
                restorer: 0,
            };
            sys::sigaction(sys::SIGSEGV, &segv, std::ptr::addr_of_mut!(PREV_SEGV));
        }
    }

    fn ensure_altstack() {
        ALTSTACK_READY.with(|r| {
            if r.get() {
                return;
            }
            unsafe {
                let mut old = sys::StackT {
                    ss_sp: 0,
                    ss_flags: 0,
                    ss_size: 0,
                };
                sys::sigaltstack(std::ptr::null(), &mut old);
                if old.ss_sp == 0 || old.ss_flags & sys::SS_DISABLE != 0 {
                    // Rust std normally installs one per thread; this is
                    // the belt-and-braces path for threads where it
                    // didn't. Leaked once per such thread.
                    const ALT_SIZE: usize = 64 << 10;
                    let buf: &'static mut [u8] = Box::leak(vec![0u8; ALT_SIZE].into_boxed_slice());
                    let ss = sys::StackT {
                        ss_sp: buf.as_mut_ptr() as usize,
                        ss_flags: 0,
                        ss_size: ALT_SIZE,
                    };
                    sys::sigaltstack(&ss, std::ptr::null_mut());
                }
            }
            r.set(true);
        });
    }

    /// Re-open SIGURG/SIGSEGV after a rescue: the rescuing handler
    /// switched away instead of `sigreturn`ing, so the kernel still has
    /// the signal blocked on this thread.
    pub(super) fn unblock_after_rescue() {
        let mut set = sys::SigSet::empty();
        set.add(sys::SIGURG);
        set.add(sys::SIGSEGV);
        unsafe { sys::pthread_sigmask(sys::SIG_UNBLOCK, &set, std::ptr::null_mut()) };
    }

    /// Watchdog preemption. Runs on the wedged fiber's stack. Only
    /// touches const-init TLS cells and, if every gate condition passes,
    /// performs the rescue switch back to the host continuation. A
    /// refused delivery (gate closed, no fiber running, no request) just
    /// returns — the monitor re-sends every tick while the stall lasts.
    extern "C" fn sigurg_handler(_sig: c_int, _info: *mut sys::SigInfo, _uctx: *mut c_void) {
        let pp = PREEMPT_PTR.get();
        if pp == 0 {
            return;
        }
        let preempt = unsafe { &*(pp as *const watchdog::PreemptState) };
        if !preempt.requested.load(Ordering::Acquire) {
            return;
        }
        if ENGINE_DEPTH.get() != 0 || SWITCHING.get() {
            return;
        }
        let slot = CUR_SP_SLOT.get();
        if slot.is_null() {
            return;
        }
        preempt.requested.store(false, Ordering::Release);
        RESCUE.set(RESCUE_HANG);
        RESCUE_TID.set(CUR_TID.get());
        let host = unsafe { *HOST_SP_SLOT.get() };
        // Abandon the wedged fiber: save its (mid-handler) context into
        // its slot — never to be resumed — and adopt the host's.
        unsafe { arch::switch_stacks(slot, host) };
        unreachable!("an abandoned fiber was resumed");
    }

    /// Guard-page conversion. On-altstack. Faults outside the running
    /// fiber's guard region chain to the displaced handler (Rust std's
    /// overflow reporter, or the default action).
    extern "C" fn sigsegv_handler(sig: c_int, info: *mut sys::SigInfo, uctx: *mut c_void) {
        let addr = unsafe { (*info).si_addr };
        let (lo, hi) = (GUARD_LO.get(), GUARD_HI.get());
        if !(lo != 0 && addr >= lo && addr < hi) {
            unsafe { chain_prev(sig, info, uctx) };
            return;
        }
        if ENGINE_DEPTH.get() != 0 || SWITCHING.get() || CUR_SP_SLOT.get().is_null() {
            // Engine frames overflowed the fiber stack: the runtime's
            // own state cannot be trusted, so recovery is impossible.
            // Fail fast, async-signal-safely.
            let msg = b"cdsspec: fiber guard page hit inside engine internals; aborting\n";
            unsafe {
                sys::write(2, msg.as_ptr() as *const c_void, msg.len());
                sys::abort();
            }
        }
        RESCUE.set(RESCUE_OVERFLOW);
        RESCUE_TID.set(CUR_TID.get());
        let slot = CUR_SP_SLOT.get();
        let host = unsafe { *HOST_SP_SLOT.get() };
        unsafe { arch::switch_stacks(slot, host) };
        unreachable!("an abandoned fiber was resumed");
    }

    /// Invoke (or re-instate) the displaced SIGSEGV disposition for a
    /// fault that is not ours.
    unsafe fn chain_prev(sig: c_int, info: *mut sys::SigInfo, uctx: *mut c_void) {
        let prev = std::ptr::addr_of!(PREV_SEGV).read();
        match prev.handler {
            sys::SIG_DFL => {
                // Re-instate the default action and return: the faulting
                // instruction re-executes, re-faults, and now terminates
                // the process with the default disposition.
                sys::sigaction(sys::SIGSEGV, &prev, std::ptr::null_mut());
            }
            sys::SIG_IGN => {}
            h if prev.flags & sys::SA_SIGINFO != 0 => {
                let f: extern "C" fn(c_int, *mut sys::SigInfo, *mut c_void) =
                    std::mem::transmute(h);
                f(sig, info, uctx);
            }
            h => {
                let f: extern "C" fn(c_int) = std::mem::transmute(h);
                f(sig);
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod signals {
    /// No preemption machinery off Linux/x86_64: [`super::host_choice`]
    /// only picks fibers+watchdog where it exists, and canary checks are
    /// the (portable) overflow detection.
    pub(super) fn ensure() {}
    pub(super) fn unblock_after_rescue() {}
}

// ---------------------------------------------------------------------
// Watchdog monitor: one detached thread watching every armed host.
// ---------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod watchdog {
    use super::*;
    use parking_lot::{Condvar, Mutex};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Once, OnceLock};
    use std::time::Instant;

    /// Shared between the monitor (producer) and the SIGURG handler
    /// (consumer) of one armed host.
    pub(super) struct PreemptState {
        /// Set by the monitor when the heartbeat stalls past the
        /// timeout; cleared by the handler when it performs the rescue
        /// (and by the monitor when progress resumes). Re-armed and
        /// re-signalled every tick while the stall lasts, so a delivery
        /// that lands with the preemption gate closed simply retries.
        pub requested: AtomicBool,
    }

    struct Entry {
        /// pthread handle of the explorer OS thread hosting the fibers.
        /// Only used (`pthread_kill`) while the entry is registered —
        /// `WatchGuard::drop` removes the entry under the registry lock
        /// before the host's `run_execution` returns, so the monitor can
        /// never signal a handle that may have been reclaimed.
        host: usize,
        preempt: Arc<PreemptState>,
        shared: Arc<Shared>,
        timeout: Duration,
        last_progress: u64,
        last_change: Instant,
    }

    struct Registry {
        entries: Mutex<Vec<Entry>>,
        wake: Condvar,
    }

    fn registry() -> &'static Registry {
        static R: OnceLock<Registry> = OnceLock::new();
        R.get_or_init(|| Registry {
            entries: Mutex::new(Vec::new()),
            wake: Condvar::new(),
        })
    }

    /// De-registration token; dropping it disarms the watchdog for this
    /// execution.
    pub(super) struct WatchGuard {
        preempt: Arc<PreemptState>,
    }

    impl Drop for WatchGuard {
        fn drop(&mut self) {
            // Order matters: detach the handler's pointer before this
            // guard's `Arc` (the pointee's co-owner) can go away, then
            // remove the entry under the registry lock so the monitor
            // never signals a de-registered host.
            PREEMPT_PTR.set(0);
            let mut entries = registry().entries.lock();
            entries.retain(|e| !Arc::ptr_eq(&e.preempt, &self.preempt));
        }
    }

    /// Register the calling (host) thread with the monitor for the span
    /// of one execution. `None` timeout ⇒ no watchdog.
    pub(super) fn arm(shared: &Arc<Shared>, timeout: Option<Duration>) -> Option<WatchGuard> {
        let timeout = timeout?;
        // The monitor is spawned outside `registry()`'s initializer: it
        // calls `registry()` itself, and `OnceLock::get_or_init`
        // re-entry would deadlock.
        static MONITOR: Once = Once::new();
        MONITOR.call_once(|| {
            std::thread::Builder::new()
                .name("cdsspec-watchdog".into())
                .spawn(monitor_loop)
                .expect("failed to spawn the fiber watchdog monitor");
        });
        // Arm runs once per *execution* — a hot path at ~10^5
        // executions/sec — so the per-host `PreemptState` is cached in a
        // thread-local and the monitor is never explicitly woken: it
        // samples the registry on its own tick, which merely delays the
        // first look at a fresh entry by up to one tick (≤ 250 ms,
        // noise against any useful hang timeout).
        thread_local! {
            static CACHED: RefCell<Option<Arc<PreemptState>>> = const { RefCell::new(None) };
        }
        let preempt = CACHED.with(|c| {
            Arc::clone(c.borrow_mut().get_or_insert_with(|| {
                Arc::new(PreemptState {
                    requested: AtomicBool::new(false),
                })
            }))
        });
        preempt.requested.store(false, Ordering::Release);
        PREEMPT_PTR.set(Arc::as_ptr(&preempt) as usize);
        registry().entries.lock().push(Entry {
            host: unsafe { sys::pthread_self() },
            preempt: Arc::clone(&preempt),
            shared: Arc::clone(shared),
            timeout,
            last_progress: shared.progress.load(Ordering::Relaxed),
            last_change: Instant::now(),
        });
        Some(WatchGuard { preempt })
    }

    fn monitor_loop() {
        let reg = registry();
        let mut entries = reg.entries.lock();
        loop {
            if entries.is_empty() {
                // Nobody notifies this condvar (see `arm`): the wait is
                // a lock-released sleep, and an idle monitor costs four
                // wakeups a second.
                reg.wake.wait_for(&mut entries, Duration::from_millis(250));
                continue;
            }
            let mut tick = Duration::from_millis(250);
            for e in entries.iter_mut() {
                let slice =
                    (e.timeout / 8).clamp(Duration::from_millis(5), Duration::from_millis(250));
                tick = tick.min(slice);
                let progress = e.shared.progress.load(Ordering::Relaxed);
                if progress != e.last_progress {
                    e.last_progress = progress;
                    e.last_change = Instant::now();
                    e.preempt.requested.store(false, Ordering::Release);
                } else if e.last_change.elapsed() >= e.timeout {
                    e.preempt.requested.store(true, Ordering::Release);
                    unsafe { sys::pthread_kill(e.host, sys::SIGURG) };
                }
            }
            reg.wake.wait_for(&mut entries, tick);
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod watchdog {
    use super::Shared;
    use std::sync::Arc;
    use std::time::Duration;

    pub(super) struct WatchGuard;

    pub(super) fn arm(_shared: &Arc<Shared>, timeout: Option<Duration>) -> Option<WatchGuard> {
        debug_assert!(
            timeout.is_none(),
            "host_choice only picks watchdogged fiber hosting where preemption is implemented"
        );
        None
    }
}

/// The machine-dependent pieces: a System-V x86_64 stack switch and the
/// initial-frame layout that makes [`arch::switch_stacks`] "return" into
/// [`fiber_entry`] on a fresh stack.
#[cfg(all(target_arch = "x86_64", unix))]
mod arch {
    use super::{fiber_entry, Stack};

    /// Save the callee-saved register state on the current stack, park the
    /// resulting stack pointer in `*save_sp`, adopt `load_sp`, restore its
    /// register state, and continue where that context left off.
    ///
    /// Caller-saved registers are covered by the `extern "C"` call
    /// convention; x87/SSE control words are not switched (nothing in
    /// this process changes them).
    ///
    /// # Safety
    /// `load_sp` must be a stack pointer previously produced by this
    /// function or by [`craft_initial_frame`], on a live stack no other
    /// context is using.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch_stacks(save_sp: *mut usize, load_sp: usize) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// Entered via the `ret` of [`switch_stacks`] on a fresh stack: moves
    /// the smuggled argument into place and calls [`fiber_entry`], which
    /// never returns.
    #[unsafe(naked)]
    unsafe extern "C" fn fiber_trampoline() {
        core::arch::naked_asm!(
            "pop rdi",
            "call {entry}",
            "ud2",
            entry = sym fiber_entry,
        )
    }

    /// Lay out a fresh stack so that switching to it enters
    /// [`fiber_trampoline`] with `arg` on top: from the aligned top
    /// downward, `arg`, the trampoline address, then six zeroed slots for
    /// the callee-saved registers [`switch_stacks`] will pop. The
    /// alignment works out so `fiber_entry` sees the ABI-required
    /// `rsp % 16 == 8` at its entry.
    pub(super) fn craft_initial_frame(stack: &mut Stack, arg: usize) {
        let base = stack.mem.lo_mut() as usize;
        let top = (base + stack.size()) & !15;
        unsafe {
            let mut p = top as *mut usize;
            p = p.sub(1);
            *p = arg;
            p = p.sub(1);
            *p = fiber_trampoline as *const () as usize;
            for _ in 0..6 {
                p = p.sub(1);
                *p = 0;
            }
            *stack.sp = p as usize;
        }
    }
}

#[cfg(all(test, target_arch = "x86_64", unix))]
mod switch_tests {
    use super::*;

    thread_local! {
        static HOST_SP: Cell<usize> = const { Cell::new(0) };
        static SIDE_SP: Cell<usize> = const { Cell::new(0) };
        static TRACE_LOG: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    extern "C" fn side_entry(arg: usize) -> ! {
        TRACE_LOG.with(|l| l.borrow_mut().push(arg as u32));
        // Bounce back and forth twice, then exit for good.
        for i in 0..2u32 {
            let mut sp = 0usize;
            let host = HOST_SP.with(|h| unsafe { *(h.get() as *const usize) });
            SIDE_SP.with(|s| s.set(&mut sp as *mut usize as usize));
            unsafe { arch::switch_stacks(&mut sp, host) };
            TRACE_LOG.with(|l| l.borrow_mut().push(100 + i));
        }
        let host = HOST_SP.with(|h| unsafe { *(h.get() as *const usize) });
        let mut scratch = 0usize;
        unsafe { arch::switch_stacks(&mut scratch, host) };
        unreachable!("resumed a finished test fiber");
    }

    /// Drives the raw primitive without the runtime: host -> fiber ->
    /// host ... verifying control lands where expected with data intact.
    #[test]
    fn raw_switch_round_trips() {
        let mut stack = Stack::new(DEFAULT_STACK_SIZE);
        // Abuse the craft path with `side_entry` via a stand-in: craft
        // pushes `fiber_entry`, so hand-roll the same frame here.
        let base = stack.mem.lo_mut() as usize;
        let top = (base + stack.size()) & !15;
        unsafe {
            let mut p = top as *mut usize;
            p = p.sub(1);
            *p = 7; // arg
            p = p.sub(1);
            *p = test_trampoline as *const () as usize;
            for _ in 0..6 {
                p = p.sub(1);
                *p = 0;
            }
            *stack.sp = p as usize;
        }
        let mut host_sp = 0usize;
        for step in 0..3 {
            HOST_SP.with(|h| h.set(&mut host_sp as *mut usize as usize));
            let load = if step == 0 {
                *stack.sp
            } else {
                SIDE_SP.with(|s| unsafe { *(s.get() as *const usize) })
            };
            unsafe { arch::switch_stacks(&mut host_sp, load) };
            TRACE_LOG.with(|l| l.borrow_mut().push(200 + step));
        }
        let log = TRACE_LOG.with(|l| l.borrow().clone());
        assert_eq!(log, vec![7, 200, 100, 201, 101, 202]);
    }

    #[unsafe(naked)]
    unsafe extern "C" fn test_trampoline() {
        core::arch::naked_asm!(
            "pop rdi",
            "call {entry}",
            "ud2",
            entry = sym side_entry,
        )
    }
}

#[cfg(test)]
mod host_choice_tests {
    use super::*;

    #[test]
    fn default_config_rides_fibers_where_preemption_exists() {
        // Pin `fiber_hosting` explicitly so the test holds even when the
        // suite itself runs under `CDSSPEC_FIBER_HOSTING=0`.
        let c = Config {
            fiber_hosting: true,
            ..Config::default()
        };
        assert!(c.hang_timeout.is_some(), "default keeps the watchdog");
        if PREEMPT_SUPPORTED {
            assert!(
                enabled_here(&c),
                "the watchdog must no longer force the OS-thread pool"
            );
        }
    }

    #[test]
    fn fiber_hosting_false_forces_the_reference_host() {
        let mut c = Config {
            fiber_hosting: false,
            ..Config::default()
        };
        assert!(!enabled_here(&c));
        assert_eq!(host_choice(&c), HostChoice::Pool);
        c.hang_timeout = None;
        assert_eq!(host_choice(&c), HostChoice::Pool);
    }

    #[test]
    fn watchdog_free_configs_keep_fibers_on_all_supported_targets() {
        let c = Config {
            hang_timeout: None,
            fiber_hosting: true,
            ..Config::default()
        };
        assert_eq!(enabled_here(&c), SUPPORTED);
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;

    #[test]
    fn fresh_stack_has_armed_canary() {
        let s = Stack::new(DEFAULT_STACK_SIZE);
        assert!(s.canary_ok());
    }

    #[test]
    fn smashed_canary_is_detected() {
        let mut s = Stack::new(DEFAULT_STACK_SIZE);
        unsafe { s.mem.lo_mut().write(0xAB) };
        assert!(!s.canary_ok());
    }

    #[test]
    fn checkout_rearms_pooled_canary() {
        // A contaminated stack returned to the pool must come back out
        // sanitized (or not at all).
        let mut s = Stack::new(DEFAULT_STACK_SIZE);
        unsafe { s.mem.lo_mut().add(8).write(0xCD) };
        assert!(!s.canary_ok());
        STACK_POOL.with(|p| p.borrow_mut().push(s));
        let out = checkout_stack(DEFAULT_STACK_SIZE);
        assert!(out.canary_ok(), "checkout must re-arm the canary");
        poison_pool();
    }

    #[test]
    fn poisoned_pool_hands_out_fresh_stacks_only() {
        STACK_POOL.with(|p| p.borrow_mut().push(Stack::new(DEFAULT_STACK_SIZE)));
        STACK_POOL.with(|p| p.borrow_mut().push(Stack::new(DEFAULT_STACK_SIZE)));
        poison_pool();
        assert_eq!(pool_size(), 0, "poisoning empties the pool");
        let s = checkout_stack(DEFAULT_STACK_SIZE);
        assert!(s.canary_ok());
    }

    #[test]
    fn effective_size_rounds_and_clamps() {
        assert_eq!(effective_stack_size(0), DEFAULT_STACK_SIZE);
        assert_eq!(effective_stack_size(1), MIN_STACK_SIZE);
        assert_eq!(effective_stack_size(MIN_STACK_SIZE), MIN_STACK_SIZE);
        assert_eq!(
            effective_stack_size(MIN_STACK_SIZE + 1),
            MIN_STACK_SIZE + PAGE
        );
        assert_eq!(effective_stack_size(256 << 10), 256 << 10);
    }

    #[test]
    fn custom_sized_stacks_keep_guard_and_canary() {
        // The guard/canary machinery must hold at non-default sizes.
        let sz = effective_stack_size(256 << 10);
        let mut s = Stack::new(sz);
        assert_eq!(s.size(), sz);
        assert!(s.canary_ok());
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if let StackMem::Mapped { .. } = &s.mem {
            let (lo, hi) = s.guard_range();
            assert_eq!(hi - lo, GUARD_SIZE);
            assert_eq!(hi, s.mem.lo() as usize, "guard sits just below the stack");
        }
        assert!(s.reverify(), "reverify holds at custom sizes");
    }

    #[test]
    fn checkout_is_keyed_by_size() {
        poison_pool();
        let small = effective_stack_size(128 << 10);
        STACK_POOL.with(|p| p.borrow_mut().push(Stack::new(small)));
        // Asking for the default size must not hand out the small stack.
        let big = checkout_stack(DEFAULT_STACK_SIZE);
        assert_eq!(big.size(), DEFAULT_STACK_SIZE);
        assert_eq!(pool_size(), 1, "the small stack stays pooled");
        let reused = checkout_stack(small);
        assert_eq!(reused.size(), small);
        assert_eq!(pool_size(), 0, "size match reuses the pooled stack");
        poison_pool();
    }

    #[test]
    fn engine_section_depth_balances() {
        assert_eq!(ENGINE_DEPTH.get(), 0);
        {
            let _a = engine_section();
            assert_eq!(ENGINE_DEPTH.get(), 1);
            {
                let _b = engine_section();
                assert_eq!(ENGINE_DEPTH.get(), 2);
            }
            assert_eq!(ENGINE_DEPTH.get(), 1);
        }
        assert_eq!(ENGINE_DEPTH.get(), 0);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn mapped_stacks_have_guard_regions() {
        let s = Stack::new(DEFAULT_STACK_SIZE);
        match &s.mem {
            StackMem::Mapped { .. } => {
                let (lo, hi) = s.guard_range();
                assert_ne!(lo, 0);
                assert_eq!(hi - lo, GUARD_SIZE);
            }
            StackMem::Heap(_) => {
                // mmap failed (resource limits); the fallback is legal,
                // just assert its shape.
                assert_eq!(s.guard_range(), (0, 0));
            }
        }
    }
}

/// Stub for targets without a stack-switch implementation: fiber hosting
/// reports unsupported ([`SUPPORTED`] is `false`), so none of these can
/// be reached.
#[cfg(not(all(target_arch = "x86_64", unix)))]
mod arch {
    use super::Stack;

    pub(super) unsafe extern "C" fn switch_stacks(_save_sp: *mut usize, _load_sp: usize) {
        unreachable!("fiber hosting is not supported on this target");
    }

    pub(super) fn craft_initial_frame(_stack: &mut Stack, _arg: usize) {
        unreachable!("fiber hosting is not supported on this target");
    }
}
