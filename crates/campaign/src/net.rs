//! The networked campaign wire: the attach handshake and the
//! client/worker sides of the daemon protocol.
//!
//! ## Framing
//!
//! Every message on a socket is one [`crate::frame`] frame — the codec
//! the worker pipe, the journal and the cache use too, re-exported here
//! for clients that speak to a daemon directly. A frame that fails any
//! check is [`crate::frame::FrameError::Corrupt`]: the connection is
//! declared dead, exactly like a SIGKILLed subprocess. Corruption can
//! requeue a shard, never misparse into a different message.
//!
//! ## Handshake
//!
//! The first frame on any connection names what the connection is:
//!
//! - a **worker** sends [`NetHello::Attach`] with its protocol version
//!   and the daemon-side benchmark-registry hash; mismatches are
//!   [`NetReply::Reject`]ed (a stale worker binary must not silently
//!   compute different shards).
//! - a **client** sends [`NetHello::Campaign`] (same version/registry
//!   guard) or [`NetHello::Status`].
//!
//! Everything after the handshake is ordinary [`crate::proto`]
//! messages served by [`crate::worker::serve`] (worker connections) or
//! a single [`NetReply`] frame (client connections).

pub use crate::frame::{frame_bytes, read_frame, write_frame};
use crate::hash::Fnv1a;
use crate::json::Json;
use crate::wire::spec_hash;
use crate::worker::{serve, ServeEnd, WorkerOpts};
use cdsspec_mc::explore::TREE_VERSION;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How long either side of a connection waits for the other's handshake
/// frame. A silent peer must not pin a daemon thread or an attaching
/// worker forever.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Version of the TCP protocol. Bumped on any change to the framing,
/// the handshake, or the [`crate::proto`] message set; the daemon
/// rejects mismatched peers at attach time. Version 2 moved the socket
/// onto the shared little-endian [`crate::frame`] codec.
pub const PROTO_VERSION: u64 = 2;

/// FNV fold over every registered benchmark's name and spec hash, in
/// registry order, and over the explorer's [`TREE_VERSION`]. Two
/// binaries with the same registry hash agree on what every
/// `(bench, shard)` task *means*: the same spec, and the same choice
/// tree for its shard scripts to address. The attach handshake rejects
/// anything else, because a worker with a drifted spec or tree would
/// poison the shared result cache with wrong-but-plausible rows.
pub fn registry_hash() -> u64 {
    let mut h = Fnv1a::new();
    for bench in cdsspec_structures::registry::benchmarks() {
        h.update_str(bench.name).update_u64(spec_hash(&bench));
    }
    h.update_u64(TREE_VERSION).finish()
}

/// Campaign parameters a remote client ships to the daemon — the
/// subset of [`crate::CampaignOpts`] that describes *what to check*.
/// Where results come from (cache, journal, worker pool) is the
/// daemon's business.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignRequest {
    /// Benchmarks to run (registry display names); `None` = all.
    pub bench_filter: Option<Vec<String>>,
    /// Probe execution cap (`0` = no splitting).
    pub split: u64,
    /// Execution cap per task.
    pub max_executions: u64,
    /// Mask wall-clock in the report.
    pub stable: bool,
    /// Ordering sites to weaken before checking.
    pub weaken: Vec<usize>,
}

impl CampaignRequest {
    fn to_json(&self) -> Json {
        let filter = match &self.bench_filter {
            None => Json::Null,
            Some(names) => Json::Arr(names.iter().map(|n| Json::str(n.clone())).collect()),
        };
        Json::obj(vec![
            ("filter", filter),
            ("split", Json::num(self.split)),
            ("max_executions", Json::num(self.max_executions)),
            ("stable", Json::Bool(self.stable)),
            (
                "weaken",
                Json::Arr(self.weaken.iter().map(|&s| Json::num(s as u64)).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<CampaignRequest, String> {
        let bench_filter = match v.get("filter") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(names)) => Some(
                names
                    .iter()
                    .map(|n| {
                        n.as_str()
                            .map(str::to_string)
                            .ok_or("non-string filter entry")
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Some(_) => return Err("filter must be null or an array".into()),
        };
        Ok(CampaignRequest {
            bench_filter,
            split: v
                .get("split")
                .and_then(Json::as_u64)
                .ok_or("campaign missing split")?,
            max_executions: v
                .get("max_executions")
                .and_then(Json::as_u64)
                .ok_or("campaign missing max_executions")?,
            stable: v
                .get("stable")
                .and_then(Json::as_bool)
                .ok_or("campaign missing stable")?,
            weaken: v
                .get("weaken")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|s| s.as_usize().ok_or("non-integer weaken entry"))
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

/// The first frame any connection sends to the daemon.
#[derive(Debug)]
pub enum NetHello {
    /// "I am a worker; use me." Version and registry hashes must match
    /// the daemon's own or the connection is rejected.
    Attach {
        /// The worker's [`PROTO_VERSION`].
        proto: u64,
        /// The worker's [`registry_hash`].
        registry: u64,
        /// The worker's OS pid (diagnostics only).
        pid: u32,
    },
    /// "Run this campaign and send me the report."
    Campaign {
        /// The client's [`PROTO_VERSION`].
        proto: u64,
        /// The client's [`registry_hash`].
        registry: u64,
        /// What to check.
        req: CampaignRequest,
    },
    /// "Describe yourself" (counters; no registry guard — status must
    /// work from any client version that shares the framing).
    Status {
        /// The client's [`PROTO_VERSION`].
        proto: u64,
    },
}

impl NetHello {
    /// Encode to a single JSON line.
    pub fn encode(&self) -> String {
        match self {
            NetHello::Attach {
                proto,
                registry,
                pid,
            } => Json::obj(vec![
                ("msg", Json::str("attach")),
                ("proto", Json::num(*proto)),
                ("registry", Json::Num(*registry as i128)),
                ("pid", Json::num(*pid)),
            ]),
            NetHello::Campaign {
                proto,
                registry,
                req,
            } => Json::obj(vec![
                ("msg", Json::str("campaign")),
                ("proto", Json::num(*proto)),
                ("registry", Json::Num(*registry as i128)),
                ("req", req.to_json()),
            ]),
            NetHello::Status { proto } => Json::obj(vec![
                ("msg", Json::str("status")),
                ("proto", Json::num(*proto)),
            ]),
        }
        .encode()
    }

    /// Decode one line.
    pub fn decode(line: &str) -> Result<NetHello, String> {
        let v = Json::parse(line)?;
        let proto = v
            .get("proto")
            .and_then(Json::as_u64)
            .ok_or("hello missing proto")?;
        let registry = || {
            v.get("registry")
                .and_then(Json::as_num)
                .map(|n| n as u64)
                .ok_or("hello missing registry")
        };
        match v.get("msg").and_then(Json::as_str) {
            Some("attach") => Ok(NetHello::Attach {
                proto,
                registry: registry()?,
                pid: v
                    .get("pid")
                    .and_then(Json::as_u64)
                    .and_then(|p| u32::try_from(p).ok())
                    .ok_or("attach missing pid")?,
            }),
            Some("campaign") => Ok(NetHello::Campaign {
                proto,
                registry: registry()?,
                req: CampaignRequest::from_json(v.get("req").ok_or("campaign missing req")?)?,
            }),
            Some("status") => Ok(NetHello::Status { proto }),
            other => Err(format!("unknown hello {other:?}")),
        }
    }
}

/// Per-attached-worker line in a [`StatusReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerStatus {
    /// The worker's reported OS pid.
    pub pid: u32,
    /// The worker's remote socket address.
    pub addr: String,
    /// Is the worker currently wired to a supervisor slot?
    pub busy: bool,
}

/// Daemon counters answered to a `Status` request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// The daemon's OS pid.
    pub pid: u32,
    /// Milliseconds since the daemon started listening.
    pub uptime_ms: u64,
    /// Worker attach handshakes accepted since start.
    pub attaches: u64,
    /// Connections rejected (version/registry mismatch, bad hello).
    pub rejects: u64,
    /// Campaigns served since start.
    pub campaigns: u64,
    /// Benchmark rows answered straight from the result cache.
    pub cache_hits: u64,
    /// Benchmark rows that had to be computed live.
    pub cache_misses: u64,
    /// Tasks dispatched to workers across all campaigns.
    pub dispatches: u64,
    /// Tasks requeued after a worker failure.
    pub requeues: u64,
    /// Worker deaths observed (disconnects, kills, lease expiries).
    pub worker_deaths: u64,
    /// Currently attached workers, one entry each (busy = leased to a
    /// running campaign right now).
    pub workers: Vec<WorkerStatus>,
}

impl StatusReport {
    /// Encode to a single JSON line.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("pid", Json::num(self.pid)),
            ("uptime_ms", Json::num(self.uptime_ms)),
            ("attaches", Json::num(self.attaches)),
            ("rejects", Json::num(self.rejects)),
            ("campaigns", Json::num(self.campaigns)),
            ("cache_hits", Json::num(self.cache_hits)),
            ("cache_misses", Json::num(self.cache_misses)),
            ("dispatches", Json::num(self.dispatches)),
            ("requeues", Json::num(self.requeues)),
            ("worker_deaths", Json::num(self.worker_deaths)),
            (
                "workers",
                Json::Arr(
                    self.workers
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("pid", Json::num(w.pid)),
                                ("addr", Json::str(w.addr.clone())),
                                ("busy", Json::Bool(w.busy)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decode from JSON.
    pub fn from_json(v: &Json) -> Result<StatusReport, String> {
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("status missing {name}"))
        };
        let workers = v
            .get("workers")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|w| -> Result<WorkerStatus, String> {
                Ok(WorkerStatus {
                    pid: w
                        .get("pid")
                        .and_then(Json::as_u64)
                        .and_then(|p| u32::try_from(p).ok())
                        .ok_or("worker status missing pid")?,
                    addr: w
                        .get("addr")
                        .and_then(Json::as_str)
                        .ok_or("worker status missing addr")?
                        .to_string(),
                    busy: w
                        .get("busy")
                        .and_then(Json::as_bool)
                        .ok_or("worker status missing busy")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StatusReport {
            pid: u32::try_from(field("pid")?).map_err(|_| "pid out of range")?,
            uptime_ms: field("uptime_ms")?,
            attaches: field("attaches")?,
            rejects: field("rejects")?,
            campaigns: field("campaigns")?,
            cache_hits: field("cache_hits")?,
            cache_misses: field("cache_misses")?,
            dispatches: field("dispatches")?,
            requeues: field("requeues")?,
            worker_deaths: field("worker_deaths")?,
            workers,
        })
    }

    /// Human-readable rendering (`cdsspec-campaign --status` output).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let busy = self.workers.iter().filter(|w| w.busy).count();
        let _ = writeln!(
            s,
            "cdsspec-netd pid {} up {}s",
            self.pid,
            self.uptime_ms / 1000
        );
        let _ = writeln!(
            s,
            "workers: {} attached ({busy} busy), {} attaches, {} rejected",
            self.workers.len(),
            self.attaches,
            self.rejects
        );
        let _ = writeln!(
            s,
            "campaigns: {} served, cache {} hit(s) / {} miss(es)",
            self.campaigns, self.cache_hits, self.cache_misses
        );
        let _ = writeln!(
            s,
            "dispatch: {} task(s), {} requeue(s), {} worker death(s), {busy} in-flight lease(s)",
            self.dispatches, self.requeues, self.worker_deaths
        );
        for w in &self.workers {
            let _ = writeln!(
                s,
                "  worker pid {} at {}  {}",
                w.pid,
                w.addr,
                if w.busy { "busy" } else { "idle" }
            );
        }
        s
    }
}

/// The daemon's single reply frame on client connections (worker
/// connections get a `Welcome`/`Reject` then switch to proto lines).
#[derive(Debug)]
pub enum NetReply {
    /// Attach accepted; the connection is now a worker link.
    Welcome {
        /// The daemon's OS pid (diagnostics only).
        pid: u32,
    },
    /// Handshake refused; the connection closes after this frame.
    Reject {
        /// Human-readable cause.
        reason: String,
    },
    /// A served campaign's outcome.
    Report {
        /// The campaign's process-style exit code
        /// ([`crate::EXIT_CLEAN`] etc.).
        code: i32,
        /// The rendered report (the bytes `run_campaign` writes to
        /// stdout).
        report: String,
        /// The `campaign-summary:`/`worker-report:` stderr lines.
        summary: String,
    },
    /// Daemon counters.
    Status(StatusReport),
}

impl NetReply {
    /// Encode to a single JSON line.
    pub fn encode(&self) -> String {
        match self {
            NetReply::Welcome { pid } => Json::obj(vec![
                ("msg", Json::str("welcome")),
                ("pid", Json::num(*pid)),
            ]),
            NetReply::Reject { reason } => Json::obj(vec![
                ("msg", Json::str("reject")),
                ("reason", Json::str(reason.clone())),
            ]),
            NetReply::Report {
                code,
                report,
                summary,
            } => Json::obj(vec![
                ("msg", Json::str("report")),
                ("code", Json::num(*code)),
                ("report", Json::str(report.clone())),
                ("summary", Json::str(summary.clone())),
            ]),
            NetReply::Status(status) => Json::obj(vec![
                ("msg", Json::str("status")),
                ("status", status.to_json()),
            ]),
        }
        .encode()
    }

    /// Decode one line.
    pub fn decode(line: &str) -> Result<NetReply, String> {
        let v = Json::parse(line)?;
        match v.get("msg").and_then(Json::as_str) {
            Some("welcome") => Ok(NetReply::Welcome {
                pid: v
                    .get("pid")
                    .and_then(Json::as_u64)
                    .and_then(|p| u32::try_from(p).ok())
                    .ok_or("welcome missing pid")?,
            }),
            Some("reject") => Ok(NetReply::Reject {
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or("reject missing reason")?
                    .to_string(),
            }),
            Some("report") => Ok(NetReply::Report {
                code: v
                    .get("code")
                    .and_then(Json::as_num)
                    .and_then(|n| i32::try_from(n).ok())
                    .ok_or("report missing code")?,
                report: v
                    .get("report")
                    .and_then(Json::as_str)
                    .ok_or("report missing report")?
                    .to_string(),
                summary: v
                    .get("summary")
                    .and_then(Json::as_str)
                    .ok_or("report missing summary")?
                    .to_string(),
            }),
            Some("status") => Ok(NetReply::Status(StatusReport::from_json(
                v.get("status").ok_or("status missing status")?,
            )?)),
            other => Err(format!("unknown daemon reply {other:?}")),
        }
    }
}

/// Ask a daemon for its status.
pub fn request_status(addr: &str) -> Result<StatusReport, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    write_frame(
        &mut stream,
        &NetHello::Status {
            proto: PROTO_VERSION,
        }
        .encode(),
    )
    .map_err(|e| format!("send failed: {e}"))?;
    let line = read_frame(&mut stream).map_err(|e| format!("daemon hung up: {e}"))?;
    match NetReply::decode(&line)? {
        NetReply::Status(status) => Ok(status),
        NetReply::Reject { reason } => Err(format!("daemon rejected status request: {reason}")),
        other => Err(format!("unexpected daemon reply {other:?}")),
    }
}

/// Run a campaign on a remote daemon: ship the request, stream the
/// report into `out`, and return `(exit code, summary text)` — the
/// summary is the daemon-side `campaign-summary:` block, which the CLI
/// prints to its own stderr so remote runs look exactly like local
/// ones to scripts.
pub fn remote_campaign(
    addr: &str,
    req: &CampaignRequest,
    out: &mut dyn Write,
) -> Result<(i32, String), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    write_frame(
        &mut stream,
        &NetHello::Campaign {
            proto: PROTO_VERSION,
            registry: registry_hash(),
            req: req.clone(),
        }
        .encode(),
    )
    .map_err(|e| format!("send failed: {e}"))?;
    let line = read_frame(&mut stream).map_err(|e| format!("daemon hung up: {e}"))?;
    match NetReply::decode(&line)? {
        NetReply::Report {
            code,
            report,
            summary,
        } => {
            out.write_all(report.as_bytes())
                .map_err(|e| format!("write failed: {e}"))?;
            Ok((code, summary))
        }
        NetReply::Reject { reason } => Err(format!("daemon rejected campaign: {reason}")),
        other => Err(format!("unexpected daemon reply {other:?}")),
    }
}

/// Settings for a TCP attach worker (`cdsspec-campaign --attach`).
#[derive(Clone, Debug)]
pub struct AttachOpts {
    /// Daemon address to attach to.
    pub addr: String,
    /// Task-execution settings (heartbeat interval, explorer threads,
    /// poison fault injection) — identical semantics to the stdio
    /// worker's.
    pub worker: WorkerOpts,
    /// Give up after this long of consecutive failed attaches (a
    /// refused connect, or a connection that ends or stays silent
    /// before `Welcome`). A worker that has attached at least once exits
    /// 0 when the budget runs out (the daemon went away — normal
    /// shutdown); one that never attached exits 1.
    pub reconnect_budget: Duration,
}

/// Run a TCP worker: attach to the daemon, serve `Run` dispatches, and
/// reconnect whenever the socket dies. Every attach that fails — no
/// connection, or a connection that ends before `Welcome` or sends
/// nothing within the 10 s handshake bound and the rest of the budget —
/// waits out a doubling backoff and counts against the reconnect
/// budget. Returns the process exit code.
pub fn attach_worker(opts: &AttachOpts) -> i32 {
    let mut ever_attached = false;
    let mut last_contact = Instant::now();
    let mut backoff = Duration::from_millis(50);
    loop {
        let budget_left = opts.reconnect_budget.saturating_sub(last_contact.elapsed());
        let failure = match attach_once(opts, budget_left) {
            Attach::Served(ServeEnd::Exit) => return 0,
            Attach::Served(_) => {
                // The daemon may come back, or the budget expires.
                ever_attached = true;
                last_contact = Instant::now();
                backoff = Duration::from_millis(50);
                continue;
            }
            Attach::Rejected(reason) => {
                // Retrying cannot help: a restart of the same binaries
                // would mismatch again.
                eprintln!("cdsspec-campaign worker: attach rejected: {reason}");
                return 1;
            }
            Attach::Failed(why) => why,
        };
        if last_contact.elapsed() >= opts.reconnect_budget {
            if !ever_attached {
                eprintln!(
                    "cdsspec-campaign worker: cannot attach to {}: {failure}",
                    opts.addr
                );
            }
            return i32::from(!ever_attached);
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_secs(1));
    }
}

enum Attach {
    /// The handshake completed and the serve loop ran until this end.
    Served(ServeEnd),
    /// The daemon refused the handshake.
    Rejected(String),
    /// No handshake: the connect failed, or the connection ended or
    /// timed out first.
    Failed(String),
}

/// One attach: connect, handshake and serve. Connecting and waiting for
/// `Welcome` each take at most the smaller of [`HANDSHAKE_TIMEOUT`] and
/// `budget_left`; the serve loop itself has no read timeout, because a
/// worker legally idles between campaigns.
fn attach_once(opts: &AttachOpts, budget_left: Duration) -> Attach {
    // A zero timeout is an error for both calls below.
    let bound = HANDSHAKE_TIMEOUT
        .min(budget_left)
        .max(Duration::from_millis(1));
    let mut stream = match connect_within(&opts.addr, bound) {
        Ok(s) => s,
        Err(e) => return Attach::Failed(format!("connect failed: {e}")),
    };
    if let Err(e) = stream.set_read_timeout(Some(bound)) {
        return Attach::Failed(format!("socket setup failed: {e}"));
    }
    let hello = NetHello::Attach {
        proto: PROTO_VERSION,
        registry: registry_hash(),
        pid: std::process::id(),
    };
    if let Err(e) = write_frame(&mut stream, &hello.encode()) {
        return Attach::Failed(format!("attach not sent: {e}"));
    }
    match read_frame(&mut stream).map(|reply| NetReply::decode(&reply)) {
        Ok(Ok(NetReply::Welcome { .. })) => {}
        Ok(Ok(NetReply::Reject { reason })) => return Attach::Rejected(reason),
        Ok(Ok(other)) => return Attach::Failed(format!("unexpected daemon reply {other:?}")),
        Ok(Err(e)) => return Attach::Failed(format!("bad daemon reply: {e}")),
        Err(e) => return Attach::Failed(format!("no welcome from the daemon: {e}")),
    }
    if let Err(e) = stream.set_read_timeout(None) {
        return Attach::Failed(format!("socket setup failed: {e}"));
    }
    match stream.try_clone() {
        Ok(writer) => Attach::Served(serve(stream, writer, &opts.worker)),
        Err(e) => Attach::Failed(format!("socket clone failed: {e}")),
    }
}

/// Connect to the first address `addr` resolves to that answers within
/// `timeout`.
fn connect_within(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("{addr} resolves to no address"),
    );
    for sock in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_and_reply_round_trip() {
        let req = CampaignRequest {
            bench_filter: Some(vec!["SPSC Queue".into(), "RCU".into()]),
            split: 500,
            max_executions: 10_000,
            stable: true,
            weaken: vec![2, 0],
        };
        for hello in [
            NetHello::Attach {
                proto: PROTO_VERSION,
                registry: registry_hash(),
                pid: 42,
            },
            NetHello::Campaign {
                proto: PROTO_VERSION,
                registry: registry_hash(),
                req: req.clone(),
            },
            NetHello::Status {
                proto: PROTO_VERSION,
            },
        ] {
            let line = hello.encode();
            assert!(!line.contains('\n'));
            let back = NetHello::decode(&line).unwrap();
            assert_eq!(format!("{back:?}"), format!("{hello:?}"));
        }
        let status = StatusReport {
            pid: 7,
            uptime_ms: 1234,
            attaches: 3,
            rejects: 1,
            campaigns: 2,
            cache_hits: 10,
            cache_misses: 5,
            dispatches: 40,
            requeues: 2,
            worker_deaths: 1,
            workers: vec![WorkerStatus {
                pid: 99,
                addr: "127.0.0.1:5000".into(),
                busy: true,
            }],
        };
        for reply in [
            NetReply::Welcome { pid: 1 },
            NetReply::Reject {
                reason: "protocol version 0 != 1".into(),
            },
            NetReply::Report {
                code: 2,
                report: "Structure ...\nTotal: 1\n".into(),
                summary: "campaign-summary: benches=1\n".into(),
            },
            NetReply::Status(status.clone()),
        ] {
            let line = reply.encode();
            assert!(!line.contains('\n'));
            let back = NetReply::decode(&line).unwrap();
            assert_eq!(format!("{back:?}"), format!("{reply:?}"));
        }
        assert!(status.render().contains("1 attached (1 busy)"));
        assert!(status.render().contains("cache 10 hit(s) / 5 miss(es)"));
    }

    #[test]
    fn registry_hash_is_stable_within_a_build() {
        assert_eq!(registry_hash(), registry_hash());
        assert_ne!(registry_hash(), 0);
    }

    #[test]
    fn registry_hash_covers_the_tree_version() {
        let mut unversioned = Fnv1a::new();
        for bench in cdsspec_structures::registry::benchmarks() {
            unversioned
                .update_str(bench.name)
                .update_u64(spec_hash(&bench));
        }
        assert_ne!(registry_hash(), unversioned.finish());
    }
}
