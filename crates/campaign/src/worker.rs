//! The worker side of the campaign wire: what `cdsspec-campaign
//! --worker-mode` (over stdin/stdout) and `--attach` (over TCP) run.
//!
//! A worker is a thin, *stateless* shell around the in-process explorer:
//! read one `run` frame, execute that shard through the benchmark
//! registry's ordinary `check` entry point, write one `result` frame,
//! repeat. All state lives in the supervisor; a worker can be SIGKILLed
//! at any instant and the campaign loses nothing but the in-flight
//! shard's CPU time. Both transports run the same [`serve`] loop, and
//! the in-process campaign runs the same `execute_run`, so the task
//! semantics cannot drift between them.
//!
//! A background thread heartbeats the currently-running task id so the
//! supervisor keeps extending the lease of a long exploration. Output is
//! serialized under one mutex — a heartbeat can never split a result
//! frame.

use crate::frame::{read_frame, write_frame};
use crate::proto::{FromWorker, ToWorker};
use cdsspec_mc::{Config, ShardSpec};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

/// Worker-mode settings (decoded from `--worker-mode` flags).
#[derive(Clone, Debug)]
pub struct WorkerOpts {
    /// Heartbeat interval.
    pub heartbeat: Duration,
    /// Explorer threads for each task.
    pub worker_threads: usize,
    /// Fault injection: `abort()` on receiving this benchmark (simulates
    /// a shard that reliably crashes its worker).
    pub poison: Option<String>,
}

/// Sentinel meaning "no task running" in the heartbeat cell.
const IDLE: u64 = u64::MAX;

/// Execute one `Run` dispatch end to end: poison check, registry
/// lookup, ordering weakening, exploration, panic containment. Returns
/// exactly one reply (`Result` or `Error`). Shared by the [`serve`] loop
/// and the in-process campaign — the transports differ, the task
/// semantics must not.
pub(crate) fn execute_run(
    task: u64,
    bench: String,
    shard: ShardSpec,
    mut config: Config,
    weaken: &[usize],
    opts: &WorkerOpts,
) -> FromWorker {
    if opts.poison.as_deref() == Some(bench.as_str()) {
        // Fault injection: die exactly the way a native crash
        // would — no unwinding, no reply, just SIGABRT.
        std::process::abort();
    }
    let all = cdsspec_structures::registry::benchmarks();
    let Some(b) = all.iter().find(|b| b.name == bench) else {
        return FromWorker::Error {
            task,
            message: format!("unknown benchmark {bench:?}"),
        };
    };
    config.workers = opts.worker_threads.max(1);
    config.resume_script = None;
    config.resume_shards = Some(vec![shard]);
    let mut ords = b.default_ords();
    if let Some(&s) = weaken.iter().find(|&&s| s >= ords.len()) {
        return FromWorker::Error {
            task,
            message: format!(
                "weaken site {s} out of range for {bench:?} ({} sites)",
                ords.len()
            ),
        };
    }
    for &s in weaken {
        ords.weaken(s);
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (b.check)(config, ords)));
    match result {
        Ok(stats) => FromWorker::Result { task, stats },
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "check panicked".into());
            FromWorker::Error {
                task,
                message: format!("check panicked: {message}"),
            }
        }
    }
}

/// How a [`serve`] loop ended.
#[derive(Debug, PartialEq, Eq)]
pub enum ServeEnd {
    /// The supervisor sent `Exit`.
    Exit,
    /// The stream ended, died or carried a corrupt frame, or a reply
    /// could not be written.
    Hangup,
    /// A frame decoded to something that is not a supervisor message.
    BadMessage,
}

/// Serve `run` frames from `reader` until `Exit` or the stream ends,
/// writing each reply — and a heartbeat every `opts.heartbeat` while a
/// task runs — as one frame on `writer`.
pub fn serve(mut reader: impl Read, writer: impl Write + Send, opts: &WorkerOpts) -> ServeEnd {
    let writer = Mutex::new(writer);
    let send = |msg: &FromWorker| {
        let mut w = writer.lock().unwrap_or_else(|p| p.into_inner());
        write_frame(&mut *w, &msg.encode()).is_ok()
    };
    let current = &AtomicU64::new(IDLE);
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        // Heartbeat failures are ignored: the loop below notices a dead
        // stream on its next read or reply.
        s.spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(opts.heartbeat) {
                let task = current.load(Ordering::Relaxed);
                if task != IDLE {
                    send(&FromWorker::Heartbeat { task });
                }
            }
        });
        let end = loop {
            let Ok(payload) = read_frame(&mut reader) else {
                break ServeEnd::Hangup;
            };
            match ToWorker::decode(&payload) {
                Ok(ToWorker::Run {
                    task,
                    bench,
                    shard,
                    config,
                    weaken,
                }) => {
                    current.store(task, Ordering::Relaxed);
                    let reply = execute_run(task, bench, shard, config, &weaken, opts);
                    current.store(IDLE, Ordering::Relaxed);
                    if !send(&reply) {
                        break ServeEnd::Hangup;
                    }
                }
                Ok(ToWorker::Exit) => break ServeEnd::Exit,
                Err(e) => {
                    eprintln!("cdsspec-campaign worker: bad supervisor message: {e}");
                    break ServeEnd::BadMessage;
                }
            }
        };
        drop(stop);
        end
    })
}

/// The `--worker-mode` process: [`serve`] over stdin/stdout. Returns the
/// process exit code (1 only for a message that is not the protocol).
pub fn worker_main(opts: WorkerOpts) -> i32 {
    match serve(std::io::stdin(), std::io::stdout(), &opts) {
        ServeEnd::BadMessage => 1,
        ServeEnd::Exit | ServeEnd::Hangup => 0,
    }
}
