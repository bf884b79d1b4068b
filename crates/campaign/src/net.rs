//! The networked campaign wire: CRC-guarded frames over TCP, the
//! attach handshake, and the client/worker sides of the daemon
//! protocol.
//!
//! ## Framing
//!
//! The supervisor ⇄ worker protocol ([`crate::proto`]) is
//! newline-delimited JSON; over a pipe the OS guarantees stream
//! integrity, over TCP nothing guards against a half-written buffer
//! from a dying peer. Every payload line therefore travels as one
//! frame:
//!
//! ```text
//! [len: u32 BE] [crc32(payload): u32 BE] [payload bytes]
//! ```
//!
//! A frame that fails *any* check — truncated header, truncated
//! payload, oversized length, CRC mismatch, non-UTF-8 — is
//! [`FrameError::Corrupt`]: the connection is declared dead, exactly
//! like a SIGKILLed subprocess. Corruption can requeue a shard, never
//! misparse into a different message — the same stance the journal and
//! cache take toward torn writes.
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
//! Everything after the handshake is ordinary [`crate::proto`] lines
//! in frames (worker connections) or a single [`NetReply`] frame
//! (client connections).

use crate::hash::{crc32, Fnv1a};
use crate::json::Json;
use crate::proto::{FromWorker, ToWorker};
use crate::wire::spec_hash;
use crate::worker::{execute_run, WorkerOpts, IDLE};
use cdsspec_mc::explore::TREE_VERSION;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Version of the framed TCP protocol. Bumped on any change to the
/// framing, the handshake, or the [`crate::proto`] message set; the
/// daemon rejects mismatched peers at attach time.
pub const PROTO_VERSION: u64 = 1;

/// Hard cap on a single frame's payload (defense against a corrupt or
/// hostile length word committing us to a multi-gigabyte read). Result
/// lines with large frontiers run to kilobytes; 16 MiB is orders of
/// magnitude of headroom.
pub const MAX_FRAME: usize = 16 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The stream died mid-frame or carried a frame that fails
    /// validation (truncation, oversize, CRC mismatch, bad UTF-8).
    /// Indistinguishable from peer death — treated exactly like it.
    Corrupt(String),
    /// The underlying socket read failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// Encode `payload` as one frame (length + CRC header, then the
/// bytes). Pure function of the payload — shared by the socket writer
/// and the proptest suite.
pub fn frame_bytes(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(8 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(bytes).to_be_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Write one framed payload and flush it.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    w.write_all(&frame_bytes(payload))?;
    w.flush()
}

/// Read one frame. Distinguishes a clean close *between* frames
/// ([`FrameError::Closed`]) from every flavor of mid-frame death or
/// corruption ([`FrameError::Corrupt`]).
pub fn read_frame(r: &mut impl Read) -> Result<String, FrameError> {
    let mut header = [0u8; 8];
    // First byte by hand: EOF here is a clean close, EOF anywhere later
    // is a truncated frame.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    header[0] = first[0];
    r.read_exact(&mut header[1..])
        .map_err(|_| FrameError::Corrupt("truncated header".into()))?;
    decode_header_and_read(&header, |buf| {
        r.read_exact(buf)
            .map_err(|_| FrameError::Corrupt("truncated payload".into()))
    })
}

/// Shared validation: parse an 8-byte header, obtain the payload via
/// `fill`, check CRC and UTF-8.
fn decode_header_and_read(
    header: &[u8; 8],
    fill: impl FnOnce(&mut [u8]) -> Result<(), FrameError>,
) -> Result<String, FrameError> {
    let len = u32::from_be_bytes(header[0..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_be_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(FrameError::Corrupt(format!(
            "frame length {len} exceeds cap {MAX_FRAME}"
        )));
    }
    let mut payload = vec![0u8; len];
    fill(&mut payload)?;
    let got_crc = crc32(&payload);
    if got_crc != want_crc {
        return Err(FrameError::Corrupt(format!(
            "crc mismatch: header {want_crc:#010x}, payload {got_crc:#010x}"
        )));
    }
    String::from_utf8(payload).map_err(|_| FrameError::Corrupt("payload is not UTF-8".into()))
}

/// Incremental frame decoder over an in-memory byte stream. Feed bytes
/// in arbitrary chunks with [`FrameSplitter::push`], pull complete
/// payloads with [`FrameSplitter::next_frame`]. Exists so the proptest
/// suite can exercise the exact header/CRC/UTF-8 validation logic over
/// arbitrary splits without sockets.
#[derive(Default)]
pub struct FrameSplitter {
    buf: Vec<u8>,
}

impl FrameSplitter {
    /// An empty splitter.
    pub fn new() -> Self {
        FrameSplitter::default()
    }

    /// Append raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete frame, `Ok(None)` if more bytes are
    /// needed. After the first `Err` the stream is dead; behavior of
    /// further calls is unspecified (a real connection is torn down).
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        if self.buf.len() < 8 {
            return Ok(None);
        }
        let header: [u8; 8] = self.buf[0..8].try_into().unwrap();
        let len = u32::from_be_bytes(header[0..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(FrameError::Corrupt(format!(
                "frame length {len} exceeds cap {MAX_FRAME}"
            )));
        }
        if self.buf.len() < 8 + len {
            return Ok(None);
        }
        let rest = self.buf.split_off(8 + len);
        let whole = std::mem::replace(&mut self.buf, rest);
        let payload = decode_header_and_read(&header, |buf| {
            buf.copy_from_slice(&whole[8..]);
            Ok(())
        })?;
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

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
    /// Give up after this long of consecutive failed connection
    /// attempts. A worker that has attached at least once exits 0 when
    /// the budget runs out (the daemon went away — normal shutdown);
    /// one that never attached exits 1.
    pub reconnect_budget: Duration,
}

/// Run a TCP worker: attach to the daemon, serve `Run` dispatches, and
/// reconnect (with backoff) whenever the socket dies. Returns the
/// process exit code.
pub fn attach_worker(opts: &AttachOpts) -> i32 {
    let mut ever_attached = false;
    let mut last_contact = Instant::now();
    let mut backoff = Duration::from_millis(50);
    loop {
        let stream = match TcpStream::connect(&opts.addr) {
            Ok(s) => s,
            Err(e) => {
                if last_contact.elapsed() >= opts.reconnect_budget {
                    if !ever_attached {
                        eprintln!("cdsspec-campaign worker: cannot reach {}: {e}", opts.addr);
                    }
                    return i32::from(!ever_attached);
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
                continue;
            }
        };
        backoff = Duration::from_millis(50);
        match serve_connection(stream, opts) {
            ServeEnd::Exit => return 0,
            ServeEnd::Rejected => return 1,
            ServeEnd::Disconnected { attached } => {
                if attached {
                    ever_attached = true;
                    last_contact = Instant::now();
                }
                // Loop: the daemon may come back, or the budget expires.
            }
        }
    }
}

enum ServeEnd {
    /// The daemon sent `Exit` (it has no further use for us).
    Exit,
    /// The daemon refused the handshake — retrying cannot help (wrong
    /// version or registry; a restart of the same binaries would
    /// mismatch again).
    Rejected,
    /// The socket died; maybe reconnect.
    Disconnected {
        /// Did the handshake complete on this connection?
        attached: bool,
    },
}

fn serve_connection(stream: TcpStream, opts: &AttachOpts) -> ServeEnd {
    let mut reader = stream;
    let Ok(writer) = reader.try_clone() else {
        return ServeEnd::Disconnected { attached: false };
    };
    let writer = Arc::new(Mutex::new(writer));
    let send = |msg: &FromWorker| -> bool {
        let mut w = writer.lock().unwrap_or_else(|p| p.into_inner());
        write_frame(&mut *w, &msg.encode()).is_ok()
    };

    let hello = NetHello::Attach {
        proto: PROTO_VERSION,
        registry: registry_hash(),
        pid: std::process::id(),
    };
    {
        let mut w = writer.lock().unwrap_or_else(|p| p.into_inner());
        if write_frame(&mut *w, &hello.encode()).is_err() {
            return ServeEnd::Disconnected { attached: false };
        }
    }
    match read_frame(&mut reader) {
        Ok(line) => match NetReply::decode(&line) {
            Ok(NetReply::Welcome { .. }) => {}
            Ok(NetReply::Reject { reason }) => {
                eprintln!("cdsspec-campaign worker: attach rejected: {reason}");
                return ServeEnd::Rejected;
            }
            _ => return ServeEnd::Disconnected { attached: false },
        },
        Err(_) => return ServeEnd::Disconnected { attached: false },
    }

    // Heartbeat thread for this connection's lifetime. Send failures
    // are ignored here — the serve loop notices the dead socket on its
    // next read and tears the connection down.
    let current = Arc::new(AtomicU64::new(IDLE));
    let stop = Arc::new(AtomicBool::new(false));
    let hb = {
        let current = Arc::clone(&current);
        let stop = Arc::clone(&stop);
        let writer = Arc::clone(&writer);
        let interval = opts.worker.heartbeat;
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                let task = current.load(Ordering::Relaxed);
                if task != IDLE {
                    let mut w = writer.lock().unwrap_or_else(|p| p.into_inner());
                    let _ = write_frame(&mut *w, &FromWorker::Heartbeat { task }.encode());
                }
            }
        })
    };
    let end = loop {
        let line = match read_frame(&mut reader) {
            Ok(line) => line,
            Err(_) => break ServeEnd::Disconnected { attached: true },
        };
        match ToWorker::decode(&line) {
            Ok(ToWorker::Run {
                task,
                bench,
                shard,
                config,
                weaken,
            }) => {
                let reply = execute_run(task, bench, shard, config, weaken, &opts.worker, &current);
                if !send(&reply) {
                    break ServeEnd::Disconnected { attached: true };
                }
            }
            Ok(ToWorker::Exit) => break ServeEnd::Exit,
            Err(e) => {
                eprintln!("cdsspec-campaign worker: bad daemon message: {e}");
                break ServeEnd::Disconnected { attached: true };
            }
        }
    };
    stop.store(true, Ordering::Relaxed);
    let _ = reader.shutdown(std::net::Shutdown::Both);
    let _ = hb.join();
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_cursor() {
        for payload in ["", "x", "{\"msg\":\"hello\",\"pid\":1}", "π — non-ascii"] {
            let bytes = frame_bytes(payload);
            let mut cursor = std::io::Cursor::new(bytes);
            assert_eq!(read_frame(&mut cursor).unwrap(), payload);
            assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_not_misparsed() {
        let mut bytes = frame_bytes("{\"msg\":\"heartbeat\",\"task\":4}");
        // Flip a payload bit: CRC must catch it.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Corrupt(_))
        ));

        // Truncated payload.
        let mut bytes = frame_bytes("hello");
        bytes.truncate(bytes.len() - 2);
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Corrupt(_))
        ));

        // Truncated header.
        let mut cursor = std::io::Cursor::new(vec![0u8; 5]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Corrupt(_))
        ));

        // Oversized length word.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_be_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Corrupt(_))
        ));
    }

    #[test]
    fn splitter_reassembles_across_arbitrary_chunks() {
        let payloads = ["first", "", "third with spaces"];
        let mut stream = Vec::new();
        for p in payloads {
            stream.extend_from_slice(&frame_bytes(p));
        }
        // Push one byte at a time: worst-case fragmentation.
        let mut splitter = FrameSplitter::new();
        let mut got = Vec::new();
        for b in stream {
            splitter.push(&[b]);
            while let Some(p) = splitter.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(splitter.pending(), 0);
    }

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
