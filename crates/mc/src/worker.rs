//! Worker-pool plumbing: pooled OS threads hosting modeled threads, the
//! per-thread context, and the quiet panic hook.
//!
//! Scheduling itself lives in [`crate::runtime`] (token-passing: the
//! worker that parks last decides who runs next). Pool threads are reused
//! across executions — thread spawn cost would otherwise dominate
//! exploration time (see `benches/exploration.rs`).

use std::any::Any;
use std::cell::RefCell;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Once};

use cdsspec_c11::Tid;

use crate::runtime::{self, Shared};

/// Marker panic payload used to unwind a worker when the runtime abandons
/// an execution.
pub(crate) struct DieMarker;

/// Per-modeled-thread context installed in the worker's thread-local while
/// it runs a job.
pub(crate) struct Ctx {
    pub tid: Tid,
    pub shared: Arc<Shared>,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Run `f` with the current modeled-thread context. Panics (with a clear
/// message) when called outside `mc::explore`/`mc::model`.
///
/// The context is cloned out (a `Tid` copy plus one `Arc` bump) so the
/// `RefCell` borrow is released *before* `f` runs. This is load-bearing
/// under fiber hosting: `f` may suspend the calling fiber mid-operation,
/// and the fiber that runs next re-points `CTX` for itself — a borrow
/// held across the switch would make that re-point panic.
pub(crate) fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> R {
    // Preemption gate, held across `f` as well as the `RefCell` borrow:
    // every `with_ctx` callback is engine code (they lock `Shared::inner`,
    // the arena, or the pending-bug slot), and a signal rescue abandoning
    // a fiber inside one of those locks would deadlock the explorer when
    // the host relocks on its side. Holding the gate across a suspension
    // inside `f` is fine — the switch paths save/restore each fiber's
    // depth — but the borrow still must not span a switch, so it stays
    // scoped tightly below.
    let _gate = crate::fiber::engine_section();
    let ctx = CTX.with(|c| {
        let b = c.borrow();
        let ctx = b
            .as_ref()
            .expect("cdsspec-mc primitives may only be used inside mc::explore/mc::model");
        Ctx {
            tid: ctx.tid,
            shared: Arc::clone(&ctx.shared),
        }
    });
    f(&ctx)
}

/// Is the caller inside a modeled thread?
pub fn in_model() -> bool {
    let _gate = crate::fiber::engine_section();
    CTX.with(|c| c.borrow().is_some())
}

/// Install (or clear) the modeled-thread context directly — used by the
/// fiber host, which multiplexes many modeled threads on one OS thread
/// and must re-point the context at every stack switch.
pub(crate) fn set_fiber_ctx(ctx: Option<Ctx>) {
    let _gate = crate::fiber::engine_section();
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// A unit of work for a pooled OS thread: run `closure` as modeled thread
/// `tid` of the execution owned by `shared`.
pub(crate) struct Job {
    pub tid: Tid,
    pub shared: Arc<Shared>,
    pub closure: Box<dyn FnOnce() + Send + 'static>,
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

/// Run `n` shard-explorer bodies on dedicated OS threads and collect their
/// results in worker-index order — the spawn half of the parallel engine
/// (`crate::parallel`), kept here with the rest of the thread plumbing.
///
/// Shard threads are named `cdsspec-shard-N`, deliberately NOT matched by
/// the quiet panic hook below: a crashing shard explorer is an engine bug
/// worth printing, unlike the routine unwinds of the modeled-thread pool.
/// A `Err` join result is surfaced to the caller rather than propagated,
/// so one dead shard cannot take down its siblings' results.
pub(crate) fn run_shard_threads<R, F>(n: usize, body: F) -> Vec<std::thread::Result<R>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    std::thread::scope(|s| {
        let body = &body;
        let handles: Vec<_> = (0..n)
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("cdsspec-shard-{w}"))
                    .spawn_scoped(s, move || body(w))
                    .expect("failed to spawn shard explorer")
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

/// Worker threads unwind constantly (every abandoned execution panics with
/// [`DieMarker`], and `mc_assert!` failures are caught and reported through
/// the bug machinery), so the default panic hook's stderr output — possibly
/// with full backtraces — would dominate exploration time. Silence panics
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
/// closure, catch any unwind, and report the exit to the runtime. The
/// body of every pool worker and of every fiber root (`crate::fiber`).
pub(crate) fn run_job(job: Job) {
    let Job {
        tid,
        shared,
        closure,
    } = job;
    {
        // Gate the `RefCell` borrow against signal rescue (see with_ctx).
        let _gate = crate::fiber::engine_section();
        CTX.with(|c| {
            *c.borrow_mut() = Some(Ctx {
                tid,
                shared: Arc::clone(&shared),
            });
        });
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(closure));
    {
        let _gate = crate::fiber::engine_section();
        CTX.with(|c| {
            *c.borrow_mut() = None;
        });
    }
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
