//! End-to-end tests for the networked campaign service: the
//! `cdsspec-netd` daemon, TCP attach workers, and the `--connect`
//! client. The tentpole guarantee extends PR 3's: **moving a campaign
//! over TCP — including chaos (`kill -9`) on a remote worker mid-run —
//! changes no byte of the `--stable` report** relative to the
//! in-process baseline, and a warm daemon answers a repeated campaign
//! entirely from its cache with zero shard dispatches.
//!
//! Benchmark choice mirrors `campaign_integration.rs`: `SPSC Queue`,
//! `RCU`, `Seqlock` exhaust fast in debug builds; `MPMC Queue` runs a
//! couple of seconds — long enough to reliably `kill -9` a remote
//! worker mid-shard.

use cdsspec_campaign::net::{
    attach_worker, read_frame, registry_hash, request_status, write_frame, NetHello, NetReply,
    PROTO_VERSION,
};
use cdsspec_campaign::{AttachOpts, WorkerOpts, EXIT_CLEAN, EXIT_ERROR};
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_cdsspec-campaign");
const NETD: &str = env!("CARGO_BIN_EXE_cdsspec-netd");

/// Benchmarks that exhaust quickly in debug builds.
const FAST: &str = "SPSC Queue,RCU,Seqlock";

fn campaign(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn cdsspec-campaign")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exited via exit code")
}

/// Parse the `campaign-summary: k=v ...` stderr block (remote runs print
/// the daemon-side block on the client's stderr).
fn field_u64(err: &str, key: &str) -> u64 {
    let line = err
        .lines()
        .find(|l| l.starts_with("campaign-summary:"))
        .unwrap_or_else(|| panic!("no campaign-summary line in stderr:\n{err}"));
    line.trim_start_matches("campaign-summary:")
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("no {key} in summary:\n{err}"))
        .1
        .parse()
        .unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdsspec-netd-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `cdsspec-netd` child plus its bound address. Killed on drop
/// so a failing test never leaks a daemon.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(extra: &[&str]) -> Daemon {
        let mut child = Command::new(NETD)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cdsspec-netd");
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().expect("piped stdout"))
            .read_line(&mut line)
            .expect("daemon banner");
        let addr = line
            .trim()
            .strip_prefix("cdsspec-netd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    /// Wait (bounded) for the daemon to exit on its own and return its
    /// exit code.
    fn wait_exit(&mut self, limit: Duration) -> i32 {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait daemon") {
                return status.code().expect("daemon exit code");
            }
            assert!(
                start.elapsed() < limit,
                "daemon did not exit within {limit:?}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn a TCP attach worker process against `addr`.
fn attach(addr: &str, reconnect_ms: u32) -> Child {
    Command::new(BIN)
        .args(["--attach", addr, "--reconnect-ms"])
        .arg(reconnect_ms.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn attach worker")
}

/// Poll the daemon's status until `want` workers are attached (bounded).
fn await_workers(addr: &str, want: usize) {
    let start = Instant::now();
    loop {
        if let Ok(status) = request_status(addr) {
            if status.workers.len() >= want {
                return;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{want} workers never attached"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn wait_code(mut child: Child, limit: Duration) -> i32 {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.code().expect("exit code");
        }
        if start.elapsed() >= limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("child did not exit within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The acceptance bar for the whole networked layer: a campaign routed
/// through the daemon and two TCP workers renders the byte-identical
/// `--stable` report an in-process run produces, and the clean daemon
/// shutdown path (`--max-campaigns`) plus worker reconnect-budget exits
/// all land on exit code 0.
#[test]
fn tcp_remote_report_matches_in_process_bytes() {
    let base = campaign(&["--bench", FAST, "--stable", "--in-process", "--split", "20"]);
    assert_eq!(code(&base), EXIT_CLEAN, "baseline:\n{}", stderr(&base));

    let cache = tmp_dir("tcp-bytes");
    let mut daemon = Daemon::start(&[
        "--cache-dir",
        cache.to_str().unwrap(),
        "--workers",
        "2",
        "--max-campaigns",
        "1",
    ]);
    let w1 = attach(&daemon.addr, 1500);
    let w2 = attach(&daemon.addr, 1500);
    await_workers(&daemon.addr, 2);

    let remote = campaign(&[
        "--connect",
        &daemon.addr,
        "--bench",
        FAST,
        "--stable",
        "--split",
        "20",
    ]);
    assert_eq!(code(&remote), EXIT_CLEAN, "remote:\n{}", stderr(&remote));
    assert_eq!(
        stdout(&remote),
        stdout(&base),
        "TCP transport changed report bytes"
    );
    // The daemon-side summary lands on the client's stderr, so scripts
    // (and these assertions) read it exactly like a local run's.
    assert!(field_u64(&stderr(&remote), "dispatches") > 0);
    assert_eq!(field_u64(&stderr(&remote), "benches"), 3);

    assert_eq!(daemon.wait_exit(Duration::from_secs(10)), 0);
    // Workers notice the daemon is gone and exit 0 (they had attached).
    assert_eq!(wait_code(w1, Duration::from_secs(15)), 0);
    assert_eq!(wait_code(w2, Duration::from_secs(15)), 0);
}

/// A second identical campaign against a warm daemon is answered
/// entirely from the served cache: zero shard dispatches, all rows
/// cache hits, and — of course — the same bytes.
#[test]
fn warm_daemon_answers_repeat_campaign_from_cache() {
    let cache = tmp_dir("warm-cache");
    let mut daemon = Daemon::start(&[
        "--cache-dir",
        cache.to_str().unwrap(),
        "--workers",
        "2",
        "--max-campaigns",
        "2",
    ]);
    let worker = attach(&daemon.addr, 1500);
    await_workers(&daemon.addr, 1);

    let args = [
        "--connect",
        &daemon.addr,
        "--bench",
        FAST,
        "--stable",
        "--split",
        "20",
    ];
    let cold = campaign(&args);
    assert_eq!(code(&cold), EXIT_CLEAN, "cold:\n{}", stderr(&cold));
    assert!(
        field_u64(&stderr(&cold), "dispatches") > 0,
        "cold run works"
    );

    // Counters between campaigns: one worker attached, one campaign
    // served, and the daemon's aggregate mirrors the summary.
    let status = request_status(&daemon.addr).expect("status");
    assert_eq!(status.campaigns, 1);
    assert_eq!(status.workers.len(), 1);
    assert!(status.attaches >= 1);
    assert!(status.dispatches > 0);

    let warm = campaign(&args);
    assert_eq!(code(&warm), EXIT_CLEAN, "warm:\n{}", stderr(&warm));
    assert_eq!(stdout(&warm), stdout(&cold), "cache hit changed bytes");
    let err = stderr(&warm);
    assert_eq!(
        field_u64(&err, "dispatches"),
        0,
        "warm campaign must not dispatch a single shard:\n{err}"
    );
    assert_eq!(field_u64(&err, "cache_hits"), 3, "every bench from cache");
    assert_eq!(field_u64(&err, "live"), 0);

    assert_eq!(daemon.wait_exit(Duration::from_secs(10)), 0);
    assert_eq!(wait_code(worker, Duration::from_secs(15)), 0);
}

/// `kill -9` on a remote worker mid-campaign: its socket dies, the
/// daemon's supervisor requeues the lease on the surviving worker, and
/// the final report is byte-identical to the in-process baseline — the
/// same invisibility the subprocess supervisor guarantees, now over TCP.
#[test]
fn kill9_remote_worker_mid_run_is_invisible() {
    // MPMC Queue runs long enough to kill a worker mid-shard.
    let bench = "MPMC Queue,SPSC Queue,RCU";
    let base = campaign(&[
        "--bench",
        bench,
        "--stable",
        "--in-process",
        "--split",
        "20",
    ]);
    assert_eq!(code(&base), EXIT_CLEAN, "baseline:\n{}", stderr(&base));

    let cache = tmp_dir("kill9");
    let mut daemon = Daemon::start(&[
        "--cache-dir",
        cache.to_str().unwrap(),
        "--workers",
        "2",
        "--max-campaigns",
        "1",
    ]);
    let victim = attach(&daemon.addr, 1500);
    let survivor = attach(&daemon.addr, 1500);
    await_workers(&daemon.addr, 2);

    let victim_pid = victim.id();
    let killer = std::thread::spawn(move || {
        // Let the campaign get dispatched, then kill one worker cold.
        std::thread::sleep(Duration::from_millis(600));
        unsafe { libc_kill(victim_pid as i32, 9) };
    });
    let remote = campaign(&[
        "--connect",
        &daemon.addr,
        "--bench",
        bench,
        "--stable",
        "--split",
        "20",
    ]);
    killer.join().unwrap();

    assert_eq!(code(&remote), EXIT_CLEAN, "remote:\n{}", stderr(&remote));
    assert_eq!(
        stdout(&remote),
        stdout(&base),
        "a killed remote worker changed report bytes"
    );

    assert_eq!(daemon.wait_exit(Duration::from_secs(10)), 0);
    let mut victim = victim;
    let status = victim.wait().expect("reap killed worker");
    assert!(!status.success(), "the victim really was killed");
    assert_eq!(wait_code(survivor, Duration::from_secs(15)), 0);
}

// Minimal FFI shim: the test only needs kill(2) and libc isn't a
// workspace dependency.
extern "C" {
    #[link_name = "kill"]
    fn libc_kill(pid: i32, sig: i32) -> i32;
}

/// Handshake guards: a wrong protocol version and a wrong registry hash
/// are both rejected with a reason, a worker whose attach is rejected
/// exits 1 immediately (retrying cannot help), and one whose every
/// connection ends before a welcome backs off and exits 1 when its
/// reconnect budget runs out.
#[test]
fn handshake_mismatches_are_rejected() {
    let daemon = Daemon::start(&["--workers", "1"]);

    // Wrong protocol version.
    let mut s = TcpStream::connect(&daemon.addr).unwrap();
    let hello = NetHello::Attach {
        proto: PROTO_VERSION + 1,
        registry: registry_hash(),
        pid: std::process::id(),
    };
    write_frame(&mut s, &hello.encode()).unwrap();
    let reply = NetReply::decode(&read_frame(&mut s).unwrap()).unwrap();
    match reply {
        NetReply::Reject { reason } => assert!(reason.contains("protocol version"), "{reason}"),
        other => panic!("expected reject, got {other:?}"),
    }

    // Wrong registry hash on a campaign request.
    let mut s = TcpStream::connect(&daemon.addr).unwrap();
    let hello = NetHello::Campaign {
        proto: PROTO_VERSION,
        registry: registry_hash() ^ 1,
        req: cdsspec_campaign::CampaignRequest {
            bench_filter: None,
            split: 0,
            max_executions: 1,
            stable: true,
            weaken: Vec::new(),
        },
    };
    write_frame(&mut s, &hello.encode()).unwrap();
    let reply = NetReply::decode(&read_frame(&mut s).unwrap()).unwrap();
    match reply {
        NetReply::Reject { reason } => assert!(reason.contains("registry hash"), "{reason}"),
        other => panic!("expected reject, got {other:?}"),
    }

    // A rejected attach worker gives up immediately with exit 1: spin a
    // fake daemon that rejects every hello.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let _ = read_frame(&mut conn);
        let _ = write_frame(
            &mut conn,
            &NetReply::Reject {
                reason: "registry hash mismatch (test)".into(),
            }
            .encode(),
        );
    });
    let attach_opts = |addr: String, reconnect_budget: Duration| AttachOpts {
        addr,
        worker: WorkerOpts {
            heartbeat: Duration::from_millis(500),
            worker_threads: 1,
            poison: None,
        },
        reconnect_budget,
    };
    let code = attach_worker(&attach_opts(fake_addr, Duration::from_secs(5)));
    assert_eq!(code, EXIT_ERROR, "rejected attach must exit 1, not retry");
    fake.join().unwrap();

    // A listener that closes every connection before any welcome: each
    // attach fails, so the worker backs off between attempts and gives
    // up once its budget is spent, instead of reconnecting in a hot loop.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let closer_addr = listener.local_addr().unwrap().to_string();
    let accepted = Arc::new(AtomicUsize::new(0));
    {
        let accepted = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                accepted.fetch_add(1, Ordering::SeqCst);
                drop(conn);
            }
        });
    }
    let (done, code) = std::sync::mpsc::channel();
    let opts = attach_opts(closer_addr, Duration::from_millis(500));
    std::thread::spawn(move || done.send(attach_worker(&opts)));
    let code = code
        .recv_timeout(Duration::from_secs(5))
        .expect("the worker must give up within a few seconds");
    assert_eq!(code, EXIT_ERROR, "a worker that never attached exits 1");
    let seen = accepted.load(Ordering::SeqCst);
    assert!(seen <= 10, "{seen} connections in one 500 ms budget");

    // A listener that accepts every connection and never answers: the
    // wait for `Welcome` is bounded by the budget, so each silent peer is
    // one more failed attach and the worker still gives up in time.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let silent_addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for conn in listener.incoming() {
            held.push(conn);
        }
    });
    let (done, code) = std::sync::mpsc::channel();
    let opts = attach_opts(silent_addr, Duration::from_millis(500));
    std::thread::spawn(move || done.send(attach_worker(&opts)));
    let code = code
        .recv_timeout(Duration::from_secs(5))
        .expect("a silent daemon must not wedge the worker");
    assert_eq!(code, EXIT_ERROR, "a worker that never attached exits 1");
}

/// A worker that can never reach a daemon exhausts its reconnect budget
/// and exits 1; local-only flags are refused in `--connect` mode.
#[test]
fn unreachable_daemon_and_bad_flag_combinations_error() {
    // Port 1 is never listening.
    let out = campaign(&["--attach", "127.0.0.1:1", "--reconnect-ms", "200"]);
    assert_eq!(code(&out), EXIT_ERROR, "{}", stderr(&out));

    let out = campaign(&["--connect", "127.0.0.1:1", "--in-process"]);
    assert_eq!(code(&out), EXIT_ERROR);
    assert!(
        stderr(&out).contains("local-only"),
        "wants a clear diagnostic:\n{}",
        stderr(&out)
    );

    let out = campaign(&["--status"]);
    assert_eq!(code(&out), EXIT_ERROR, "--status needs --connect");
}
