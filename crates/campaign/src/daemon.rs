//! `cdsspec-netd`: the long-running exploration service.
//!
//! The daemon owns three things and wires them together:
//!
//! - a **worker registry**: TCP connections that completed the
//!   [`crate::net::NetHello::Attach`] handshake. Each has a dedicated
//!   reader thread routing its [`crate::proto`] frames to
//!   whatever supervisor slot the worker is currently wired to; a
//!   connection that dies while wired surfaces as [`Event::Eof`] and
//!   the supervisor requeues its lease — byte-for-byte the same
//!   recovery path as a SIGKILLed subprocess.
//! - a **served result cache**: client campaign requests run through
//!   the ordinary [`crate::campaign`] pipeline with the daemon's cache
//!   directory, so warm rows are answered without dispatching a single
//!   shard, and fresh rows are stored for the next client.
//! - a **status surface**: per-connection counters over the same wire,
//!   rendered by `cdsspec-campaign --status`.
//!
//! Campaigns are serialized behind one mutex: the registry is a single
//! pool and the determinism argument is per-campaign, so concurrent
//! interleaving would only add scheduling noise for zero throughput
//! (the pool is the bottleneck either way).

use crate::campaign::{run_campaign_with, CampaignOpts};
use crate::frame::{read_frame, write_frame};
use crate::net::{
    registry_hash, CampaignRequest, NetHello, NetReply, StatusReport, WorkerStatus,
    HANDSHAKE_TIMEOUT, PROTO_VERSION,
};
use crate::proto::ToWorker;
use crate::supervisor::{Event, Provision, SupervisorOpts, Transport, WorkerLink};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Daemon settings (the `cdsspec-netd` CLI builds one of these).
#[derive(Clone, Debug)]
pub struct DaemonOpts {
    /// Listen address (`127.0.0.1:0` picks a free port; the bound
    /// address is printed on stdout either way).
    pub listen: String,
    /// Result-cache directory backing all served campaigns (`None` =
    /// serve without a cache — every request computes live).
    pub cache_dir: Option<PathBuf>,
    /// Supervisor settings for served campaigns. `workers` bounds
    /// concurrent leases; `attach_timeout` bounds how long a campaign
    /// waits for the first worker to attach before abandoning.
    pub sup: SupervisorOpts,
    /// Exit after serving this many campaign requests (tests use this
    /// for a deterministic shutdown; `None` = run forever).
    pub max_campaigns: Option<u64>,
}

impl Default for DaemonOpts {
    fn default() -> Self {
        DaemonOpts {
            listen: "127.0.0.1:0".into(),
            cache_dir: None,
            sup: SupervisorOpts::default(),
            max_campaigns: None,
        }
    }
}

/// Where an attached worker's incoming messages currently go.
enum Route {
    /// Attached, not wired to any slot; messages are dropped (a worker
    /// speaks only when spoken to, so there is nothing to drop in
    /// practice beyond a late heartbeat).
    Idle,
    /// Wired to supervisor slot `slot` at provision `epoch`; messages
    /// forward to the supervisor's event channel.
    Wired {
        slot: usize,
        epoch: u64,
        tx: mpsc::Sender<Event>,
    },
    /// The connection is gone; the registry entry is garbage.
    Dead,
}

/// One attached worker connection, as held by the idle pool (identity
/// lives on the roster entry sharing the same `route`).
struct RemoteWorker {
    writer: TcpStream,
    route: Arc<Mutex<Route>>,
}

struct RosterEntry {
    pid: u32,
    addr: String,
    route: Arc<Mutex<Route>>,
}

/// All attached worker connections: an idle pool the transport checks
/// links out of, plus a roster for the status surface.
#[derive(Default)]
struct WorkerRegistry {
    idle: Mutex<Vec<RemoteWorker>>,
    roster: Mutex<Vec<RosterEntry>>,
}

impl WorkerRegistry {
    /// Register a handshaken connection and start its reader thread.
    fn attach(&self, stream: TcpStream, pid: u32, addr: String) {
        let Ok(writer) = stream.try_clone() else {
            return; // connection already dead; nothing to register
        };
        let route = Arc::new(Mutex::new(Route::Idle));
        self.roster.lock().unwrap().push(RosterEntry {
            pid,
            addr,
            route: Arc::clone(&route),
        });
        {
            let route = Arc::clone(&route);
            let mut reader = stream;
            std::thread::spawn(move || loop {
                match read_frame(&mut reader) {
                    Ok(payload) => {
                        let r = route.lock().unwrap_or_else(|p| p.into_inner());
                        match &*r {
                            Route::Wired { slot, epoch, tx } => {
                                let _ = tx.send(Event::Message(*slot, *epoch, payload));
                            }
                            Route::Idle => {} // late heartbeat; drop
                            Route::Dead => break,
                        }
                    }
                    Err(_) => {
                        let mut r = route.lock().unwrap_or_else(|p| p.into_inner());
                        if let Route::Wired { slot, epoch, tx } = &*r {
                            let _ = tx.send(Event::Eof(*slot, *epoch));
                        }
                        *r = Route::Dead;
                        break;
                    }
                }
            });
        }
        self.idle
            .lock()
            .unwrap()
            .push(RemoteWorker { writer, route });
    }

    /// Pop an idle live worker and wire it to `(slot, epoch, tx)`.
    fn checkout(&self, slot: usize, epoch: u64, tx: &mpsc::Sender<Event>) -> Option<RemoteWorker> {
        let mut idle = self.idle.lock().unwrap();
        while let Some(worker) = idle.pop() {
            let mut r = worker.route.lock().unwrap_or_else(|p| p.into_inner());
            if matches!(*r, Route::Dead) {
                drop(r);
                continue; // died while idle; discard
            }
            *r = Route::Wired {
                slot,
                epoch,
                tx: tx.clone(),
            };
            drop(r);
            return Some(worker);
        }
        None
    }

    /// Snapshot for the status surface, dropping dead entries.
    fn status(&self) -> Vec<WorkerStatus> {
        let mut roster = self.roster.lock().unwrap();
        roster.retain(|e| {
            !matches!(
                *e.route.lock().unwrap_or_else(|p| p.into_inner()),
                Route::Dead
            )
        });
        roster
            .iter()
            .map(|e| WorkerStatus {
                pid: e.pid,
                addr: e.addr.clone(),
                busy: matches!(
                    *e.route.lock().unwrap_or_else(|p| p.into_inner()),
                    Route::Wired { .. }
                ),
            })
            .collect()
    }
}

/// The [`Transport`] that provisions supervisor slots from the attach
/// registry instead of spawning subprocesses.
struct NetTransport {
    registry: Arc<WorkerRegistry>,
}

impl Transport for NetTransport {
    fn provision(&mut self, slot: usize, epoch: u64, tx: &mpsc::Sender<Event>) -> Provision {
        match self.registry.checkout(slot, epoch, tx) {
            Some(worker) => Provision::Link(Box::new(NetLink {
                worker: Some(worker),
                registry: Arc::clone(&self.registry),
            })),
            // No worker attached right now — not a failure; one may
            // attach any moment. The supervisor retries without
            // charging the slot (its attach_timeout bounds the wait).
            None => Provision::Unavailable,
        }
    }
}

struct NetLink {
    worker: Option<RemoteWorker>,
    registry: Arc<WorkerRegistry>,
}

impl WorkerLink for NetLink {
    fn send(&mut self, msg: &ToWorker) -> bool {
        match &mut self.worker {
            Some(w) => write_frame(&mut w.writer, &msg.encode()).is_ok(),
            None => false,
        }
    }

    fn kill(&mut self) {
        if let Some(w) = self.worker.take() {
            // Mark dead first so the reader can't forward anything more,
            // then sever the socket: the remote worker sees the close
            // and reconnects as a fresh attach.
            *w.route.lock().unwrap_or_else(|p| p.into_inner()) = Route::Dead;
            let _ = w.writer.shutdown(std::net::Shutdown::Both);
        }
    }

    fn release(mut self: Box<Self>) {
        if let Some(w) = self.worker.take() {
            let mut r = w.route.lock().unwrap_or_else(|p| p.into_inner());
            if matches!(*r, Route::Dead) {
                return; // died while wired; nothing to return
            }
            // Unlike a subprocess link there is no Exit here: the worker
            // outlives the campaign and goes back in the pool.
            *r = Route::Idle;
            drop(r);
            self.registry.idle.lock().unwrap().push(w);
        }
    }
}

impl Drop for NetLink {
    fn drop(&mut self) {
        self.kill();
    }
}

#[derive(Default)]
struct DaemonStats {
    attaches: AtomicU64,
    rejects: AtomicU64,
    campaigns: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    dispatches: AtomicU64,
    requeues: AtomicU64,
    worker_deaths: AtomicU64,
}

struct DaemonState {
    opts: DaemonOpts,
    registry: Arc<WorkerRegistry>,
    stats: DaemonStats,
    /// Serializes served campaigns (see the module docs).
    campaign_lock: Mutex<()>,
    registry_hash: u64,
    started: Instant,
    stop: AtomicBool,
    self_addr: std::net::SocketAddr,
}

/// Run the daemon until `max_campaigns` is reached (or forever).
/// Returns the process exit code. Prints
/// `cdsspec-netd listening on <addr>` to stdout once bound — scripts
/// and tests parse that line to learn the picked port.
pub fn run_daemon(opts: DaemonOpts) -> Result<i32, String> {
    let listener = TcpListener::bind(&opts.listen)
        .map_err(|e| format!("cannot listen on {}: {e}", opts.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("no local addr: {e}"))?;
    println!("cdsspec-netd listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    run_daemon_on(listener, opts)
}

/// Serve on an already-bound listener (no banner). Lets a host that
/// needs the picked port *before* the accept loop starts — such as a
/// benchmark hosting a loopback daemon on a thread — bind `127.0.0.1:0`
/// itself and read `local_addr` directly.
pub fn run_daemon_on(listener: TcpListener, opts: DaemonOpts) -> Result<i32, String> {
    let addr = listener
        .local_addr()
        .map_err(|e| format!("no local addr: {e}"))?;
    let state = Arc::new(DaemonState {
        opts,
        registry: Arc::new(WorkerRegistry::default()),
        stats: DaemonStats::default(),
        campaign_lock: Mutex::new(()),
        registry_hash: registry_hash(),
        started: Instant::now(),
        stop: AtomicBool::new(false),
        self_addr: addr,
    });

    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(&state);
        std::thread::spawn(move || handle_conn(stream, &state));
    }
    Ok(0)
}

fn reject(stream: &mut TcpStream, state: &DaemonState, reason: String) {
    state.stats.rejects.fetch_add(1, Ordering::Relaxed);
    let _ = write_frame(stream, &NetReply::Reject { reason }.encode());
}

fn handle_conn(mut stream: TcpStream, state: &DaemonState) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    // A generous handshake deadline so a wedged client can't pin this
    // thread forever; cleared for worker connections, which legally
    // stay silent between campaigns.
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let hello = match read_frame(&mut stream) {
        Ok(line) => match NetHello::decode(&line) {
            Ok(h) => h,
            Err(e) => {
                reject(&mut stream, state, format!("bad hello: {e}"));
                return;
            }
        },
        Err(_) => return, // died before saying anything; not worth counting
    };
    let guard = |proto: u64, registry: Option<u64>| -> Option<String> {
        if proto != PROTO_VERSION {
            return Some(format!(
                "protocol version {proto} != daemon's {PROTO_VERSION}"
            ));
        }
        if let Some(r) = registry {
            if r != state.registry_hash {
                return Some(format!(
                    "benchmark registry hash {r:#018x} != daemon's {:#018x} \
                     (mismatched build — results would not be comparable)",
                    state.registry_hash
                ));
            }
        }
        None
    };
    match hello {
        NetHello::Attach {
            proto,
            registry,
            pid,
        } => {
            if let Some(reason) = guard(proto, Some(registry)) {
                reject(&mut stream, state, reason);
                return;
            }
            if write_frame(
                &mut stream,
                &NetReply::Welcome {
                    pid: std::process::id(),
                }
                .encode(),
            )
            .is_err()
            {
                return;
            }
            let _ = stream.set_read_timeout(None);
            state.stats.attaches.fetch_add(1, Ordering::Relaxed);
            state.registry.attach(stream, pid, peer);
        }
        NetHello::Campaign {
            proto,
            registry,
            req,
        } => {
            if let Some(reason) = guard(proto, Some(registry)) {
                reject(&mut stream, state, reason);
                return;
            }
            serve_campaign(stream, state, req);
        }
        NetHello::Status { proto } => {
            if let Some(reason) = guard(proto, None) {
                reject(&mut stream, state, reason);
                return;
            }
            let status = snapshot_status(state);
            let _ = write_frame(&mut stream, &NetReply::Status(status).encode());
        }
    }
}

fn snapshot_status(state: &DaemonState) -> StatusReport {
    let s = &state.stats;
    StatusReport {
        pid: std::process::id(),
        uptime_ms: state.started.elapsed().as_millis() as u64,
        attaches: s.attaches.load(Ordering::Relaxed),
        rejects: s.rejects.load(Ordering::Relaxed),
        campaigns: s.campaigns.load(Ordering::Relaxed),
        cache_hits: s.cache_hits.load(Ordering::Relaxed),
        cache_misses: s.cache_misses.load(Ordering::Relaxed),
        dispatches: s.dispatches.load(Ordering::Relaxed),
        requeues: s.requeues.load(Ordering::Relaxed),
        worker_deaths: s.worker_deaths.load(Ordering::Relaxed),
        workers: state.registry.status(),
    }
}

fn serve_campaign(mut stream: TcpStream, state: &DaemonState, req: CampaignRequest) {
    let _guard = state
        .campaign_lock
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    // The request may have queued behind a long campaign; give the
    // reply write (and nothing else) unlimited patience from here on.
    let _ = stream.set_read_timeout(None);

    let opts = CampaignOpts {
        bench_filter: req.bench_filter,
        split: req.split,
        max_executions: req.max_executions,
        stable: req.stable,
        weaken: req.weaken,
        in_process: false,
        cache_dir: state.opts.cache_dir.clone(),
        sup: state.opts.sup.clone(),
        ..CampaignOpts::default()
    };
    let transport = NetTransport {
        registry: Arc::clone(&state.registry),
    };
    let mut report = Vec::new();
    let reply = match run_campaign_with(&opts, &mut report, Some(Box::new(transport))) {
        Ok(outcome) => {
            let s = &state.stats;
            let sum = &outcome.summary;
            s.cache_hits
                .fetch_add(sum.cache_hits as u64, Ordering::Relaxed);
            s.cache_misses.fetch_add(sum.live as u64, Ordering::Relaxed);
            s.dispatches
                .fetch_add(sum.sup.dispatches, Ordering::Relaxed);
            s.requeues.fetch_add(sum.sup.requeues, Ordering::Relaxed);
            s.worker_deaths
                .fetch_add(sum.sup.worker_deaths, Ordering::Relaxed);
            NetReply::Report {
                code: outcome.code,
                report: String::from_utf8_lossy(&report).into_owned(),
                summary: outcome.summary.render(),
            }
        }
        Err(e) => NetReply::Reject {
            reason: format!("campaign failed: {e}"),
        },
    };
    // Count the campaign before replying: a client that reads the reply
    // and then asks for `--status` must see it served.
    let served = state.stats.campaigns.fetch_add(1, Ordering::Relaxed) + 1;
    let _ = write_frame(&mut stream, &reply.encode());
    if state.opts.max_campaigns.is_some_and(|max| served >= max) {
        // Unblock the accept loop so the daemon can notice the stop
        // flag and exit cleanly.
        state.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(state.self_addr);
    }
}
