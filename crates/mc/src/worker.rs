//! Worker-pool plumbing: pooled OS threads hosting modeled threads, the
//! per-thread context, and the quiet panic hook.
//!
//! Scheduling itself lives in [`crate::runtime`] (token-passing: the
//! worker that parks last decides who runs next). Pool threads are reused
//! across executions — thread spawn cost would otherwise dominate
//! exploration time (EXPERIMENTS.md records the visible-op round trip).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Once};

use cdsspec_c11::{SpecNote, Tid};
use parking_lot::MutexGuard;

use crate::runtime::{self, ExecState, Shared};

/// Marker panic payload used to unwind a modeled thread when the runtime
/// abandons an execution (`Reply::Die`): a diverged, buggy or
/// engine-failed one, or a sleep-blocked run-out that tripped a bound or
/// a bug. Sleep-blocked executions, most of the abandoned ones, run out
/// to a normal return and unwind nothing.
pub(crate) struct DieMarker;

/// The running modeled thread's context, as [`with_ctx`] hands it out.
pub(crate) struct Ctx<'a> {
    pub tid: Tid,
    pub shared: &'a Shared,
}

impl Ctx<'_> {
    /// Lock the execution state as this thread: see [`Shared::lock_as`].
    pub fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.shared.lock_as(self.tid)
    }

    /// A new handle on the execution (a spawn hands one to the child).
    pub fn shared_arc(&self) -> Arc<Shared> {
        let ptr: *const Shared = self.shared;
        // SAFETY: `ptr` is `Arc::as_ptr` of an `Arc` that is alive while
        // the context is installed (see `CTX`), so its count may be
        // bumped and a new `Arc` built on it.
        unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }
}

thread_local! {
    /// The modeled thread this OS thread is running: its tid and
    /// `Arc::as_ptr` of its execution's [`Shared`], null outside a model
    /// run. The `Arc` is owned by the job ([`run_job`]'s frame) or by the
    /// fiber host's runtime, and each clears or re-points this slot before
    /// letting go of it. A plain `Cell`: reading the context clones no
    /// `Arc` and borrows no `RefCell`, and a fiber switch re-points it
    /// with one store.
    static CTX: Cell<(Tid, *const Shared)> = const { Cell::new((Tid::MAIN, std::ptr::null())) };
    /// Annotations the running modeled thread recorded since its last
    /// engine call, committed by that thread's next [`Shared::lock_as`].
    /// Control moves between modeled threads only inside engine calls,
    /// which commit first, so one buffer per OS thread serves every
    /// fiber it hosts and the commit order is the recording order.
    static NOTES: RefCell<Vec<SpecNote>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with the current modeled-thread context. Panics (with a clear
/// message) when called outside `mc::explore`/`mc::model`.
pub(crate) fn with_ctx<R>(f: impl FnOnce(&Ctx<'_>) -> R) -> R {
    // Preemption gate, held across `f`: every `with_ctx` callback is
    // engine code (they lock `Shared::inner`, the arena, the pending-bug
    // slot or the note buffer), and a signal rescue abandoning a fiber
    // inside one of those would deadlock the explorer when the host
    // relocks on its side. Holding the gate across a suspension inside
    // `f` is fine: the switch paths save and restore each fiber's depth.
    let _gate = crate::fiber::engine_section();
    let (tid, shared) = CTX.get();
    if shared.is_null() {
        panic!("cdsspec-mc primitives may only be used inside mc::explore/mc::model");
    }
    // SAFETY: see `CTX`; the owner outlives every callback, including
    // one that suspends this fiber.
    f(&Ctx {
        tid,
        shared: unsafe { &*shared },
    })
}

/// Is the caller inside a modeled thread?
pub fn in_model() -> bool {
    !CTX.get().1.is_null()
}

/// Make modeled thread `tid` of `shared`'s execution the running context
/// of this OS thread: a job does it when it starts, and the fiber host,
/// which runs many modeled threads on one OS thread, at every switch.
///
/// # Safety
///
/// `shared` must stay alive until the context is cleared ([`clear_ctx`])
/// or set again: [`with_ctx`] hands out references through it.
pub(crate) unsafe fn set_ctx(tid: Tid, shared: &Arc<Shared>) {
    CTX.set((tid, Arc::as_ptr(shared)));
}

/// Clear this OS thread's running context: it runs no modeled thread.
pub(crate) fn clear_ctx() {
    CTX.set((Tid::MAIN, std::ptr::null()));
}

/// Buffer an annotation of the running modeled thread (see `NOTES`).
pub(crate) fn buffer_note(note: SpecNote) {
    NOTES.with(|n| n.borrow_mut().push(note));
}

/// Hand this OS thread's buffered annotations to `commit`, in recording
/// order, and empty the buffer.
pub(crate) fn drain_notes(mut commit: impl FnMut(SpecNote)) {
    NOTES.with(|n| {
        let mut n = n.borrow_mut();
        if !n.is_empty() {
            n.drain(..).for_each(&mut commit);
        }
    });
}

/// A unit of work for a pooled OS thread or a fiber: run `body` as
/// modeled thread `tid` of the execution owned by `shared`.
pub(crate) struct Job {
    pub tid: Tid,
    pub shared: Arc<Shared>,
    pub body: Body,
}

/// What a modeled thread runs.
pub(crate) enum Body {
    /// The main thread runs the test closure itself: a shared handle, so
    /// starting an execution boxes nothing.
    Main(Arc<dyn Fn() + Send + Sync>),
    /// A spawned thread runs its own closure.
    Spawned(Box<dyn FnOnce() + Send + 'static>),
}

struct WorkerHandle {
    job_tx: Sender<Job>,
}

/// A reusable pool of OS threads hosting modeled threads.
pub(crate) struct Pool {
    workers: Vec<WorkerHandle>,
    free_rx: Receiver<usize>,
    free_tx: Sender<usize>,
}

impl Pool {
    pub fn new() -> Self {
        install_quiet_panic_hook();
        let (free_tx, free_rx) = channel();
        Pool {
            workers: Vec::new(),
            free_rx,
            free_tx,
        }
    }

    /// Dispatch a job onto a free worker, growing the pool when necessary.
    /// A worker whose OS thread has died (its job channel is closed) is
    /// respawned in place and the dispatch retried — one lost thread must
    /// not take down the whole exploration.
    ///
    /// Respawns are bounded: a host where fresh pool threads die
    /// immediately on every start (resource exhaustion, a broken runtime)
    /// would otherwise spin here forever. After [`Pool::MAX_RESPAWNS`]
    /// consecutive failed hand-offs — each preceded by an exponentially
    /// growing backoff sleep — the dispatch gives up and returns `false`;
    /// callers surface the failure as [`crate::StopReason::Errored`]
    /// instead of hanging the exploration.
    #[must_use = "a failed dispatch must abort the execution, not be ignored"]
    pub fn dispatch(&mut self, job: Job) -> bool {
        let mut job = job;
        let mut respawns = 0u32;
        loop {
            let idx = match self.free_rx.try_recv() {
                Ok(i) => i,
                Err(_) => {
                    let i = self.workers.len();
                    self.workers.push(spawn_worker(i, self.free_tx.clone()));
                    i
                }
            };
            job = match self.workers[idx].job_tx.send(job) {
                Ok(()) => return true,
                Err(std::sync::mpsc::SendError(j)) => j,
            };
            // Dead worker: replace it and hand the fresh one the job
            // directly (it never announced itself free). Back off first —
            // if threads are dying from transient resource pressure, an
            // immediate respawn just burns the retry budget.
            if respawns >= Self::MAX_RESPAWNS {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_micros(50u64 << respawns.min(12)));
            respawns += 1;
            self.workers[idx] = spawn_worker(idx, self.free_tx.clone());
            job = match self.workers[idx].job_tx.send(job) {
                Ok(()) => return true,
                Err(std::sync::mpsc::SendError(j)) => j,
            };
        }
    }
}

impl Pool {
    /// Consecutive dead-worker respawns tolerated by one dispatch before
    /// it reports failure (total backoff ≈ 0.8 s at the cap).
    pub(crate) const MAX_RESPAWNS: u32 = 8;
}

/// Run `body(w, inputs[w])` for every input: worker 0 on the calling
/// thread, workers `1..` on scoped OS threads; collect the results in
/// worker order. The fan-out of the exploration engine
/// (`crate::parallel`) and of injection campaigns. One input spawns no
/// thread.
///
/// Spawned threads are named `cdsspec-shard-N`, deliberately NOT matched
/// by the quiet panic hook below: a crashing shard explorer is an engine
/// bug worth printing, unlike the routine unwinds of the modeled-thread
/// pool. A panic in any body, the caller's included, comes back as an
/// `Err` result rather than propagating, so one dead body cannot take
/// down its siblings' results.
pub fn run_shard_threads<T, R, F>(inputs: Vec<T>, body: F) -> Vec<std::thread::Result<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return Vec::new();
    };
    std::thread::scope(|s| {
        let body = &body;
        let handles: Vec<_> = (1..)
            .zip(inputs)
            .map(|(w, input)| {
                std::thread::Builder::new()
                    .name(format!("cdsspec-shard-{w}"))
                    .spawn_scoped(s, move || body(w, input))
                    .expect("failed to spawn shard explorer")
            })
            .collect();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(0, first)));
        std::iter::once(first)
            .chain(handles.into_iter().map(|h| h.join()))
            .collect()
    })
}

/// Worker threads unwind constantly (every diverged or buggy execution
/// panics with [`DieMarker`], and `mc_assert!` failures are caught and
/// reported through the bug machinery), so the default panic hook's stderr
/// output — possibly with full backtraces — would dominate exploration
/// time. Silence panics
/// on pool threads and inside any modeled-thread context (fibers host
/// modeled threads on the explorer thread); everything else keeps the
/// default hook.
fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_worker = std::thread::current()
                .name()
                .map(|n| n.starts_with("cdsspec-worker"))
                .unwrap_or(false);
            if !on_worker && !in_model() {
                default(info);
            }
        }));
    });
}

fn spawn_worker(index: usize, free_tx: Sender<usize>) -> WorkerHandle {
    let (job_tx, job_rx) = channel::<Job>();
    std::thread::Builder::new()
        .name(format!("cdsspec-worker-{index}"))
        .spawn(move || {
            while let Ok(job) = job_rx.recv() {
                run_job(job);
                if free_tx.send(index).is_err() {
                    break; // pool dropped
                }
            }
        })
        .expect("failed to spawn pool worker");
    WorkerHandle { job_tx }
}

/// Host one modeled thread to completion: install its context, run the
/// body, catch any unwind, and report the exit to the runtime. The body
/// of every pool worker and of every fiber root (`crate::fiber`).
pub(crate) fn run_job(job: Job) {
    let Job { tid, shared, body } = job;
    debug_assert!(
        NOTES.with(|n| n.borrow().is_empty()),
        "annotations left over from an earlier modeled thread"
    );
    // SAFETY: `shared` lives in this frame until after `clear_ctx` below.
    unsafe { set_ctx(tid, &shared) };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match body {
        Body::Main(test) => test(),
        Body::Spawned(closure) => closure(),
    }));
    clear_ctx();
    match result {
        Ok(()) => runtime::thread_finished(&shared, tid),
        Err(payload) => {
            if payload.is::<DieMarker>() {
                runtime::thread_aborted(&shared, tid);
            } else {
                runtime::thread_panicked(&shared, tid, panic_message(&payload));
            }
        }
    }
    runtime::job_exited(&shared);
}

pub(crate) fn panic_message(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_ctx_outside_model_panics() {
        let r = std::panic::catch_unwind(|| with_ctx(|_| ()));
        assert!(r.is_err());
        assert!(!in_model());
    }
}
