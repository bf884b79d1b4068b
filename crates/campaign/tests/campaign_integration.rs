//! End-to-end fault-injection tests for the `cdsspec-campaign` binary.
//!
//! Every test here drives the real binary (`CARGO_BIN_EXE_cdsspec-campaign`)
//! through a full campaign and asserts the tentpole guarantee: **no fault —
//! chaos kill, external `kill -9`, poison shard, supervisor halt, journal
//! corruption — changes a single byte of the merged report** (under
//! `--stable`, which masks the wall-clock column), and every failure mode
//! maps to its documented exit code.
//!
//! Benchmark choice matters for wall-clock: `SPSC Queue`, `RCU` and
//! `Seqlock` exhaust in well under a second even in debug builds, while
//! `MPMC Queue` runs for a couple of seconds — long enough to reliably
//! `kill -9` a worker mid-shard.

use cdsspec_campaign::{
    Outcome, Supervisor, SupervisorOpts, TaskSpec, TaskTable, EXIT_BUG, EXIT_CLEAN, EXIT_ERROR,
    EXIT_RESUMABLE,
};
use cdsspec_mc::{Config, ShardSpec};
use std::os::unix::fs::PermissionsExt;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_cdsspec-campaign");

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
    out.status.code().expect("campaign exited via exit code")
}

/// Parse the `campaign-summary: k=v k=v ...` stderr line into pairs.
fn summary(err: &str) -> Vec<(String, String)> {
    let line = err
        .lines()
        .find(|l| l.starts_with("campaign-summary:"))
        .unwrap_or_else(|| panic!("no campaign-summary line in stderr:\n{err}"));
    line.trim_start_matches("campaign-summary:")
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn field(err: &str, key: &str) -> String {
    summary(err)
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no {key} in summary:\n{err}"))
}

fn field_u64(err: &str, key: &str) -> u64 {
    field(err, key).parse().unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cdsspec-campaign-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Pids of live `--worker-mode` children of `parent` (via /proc).
fn worker_pids(parent: u32) -> Vec<u32> {
    let mut pids = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return pids;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // The comm field may contain anything; the ppid is the 2nd field
        // after the closing paren.
        let Some((_, rest)) = stat.rsplit_once(')') else {
            continue;
        };
        let mut fields = rest.split_whitespace();
        let _state = fields.next();
        let Some(ppid) = fields.next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if ppid != parent {
            continue;
        }
        let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        if String::from_utf8_lossy(&cmdline).contains("--worker-mode") {
            pids.push(pid);
        }
    }
    pids
}

// Linux signal numbers.
const SIGKILL: i32 = 9;
const SIGSTOP: i32 = 19;

// Minimal FFI shim: the test only needs kill(2) and libc isn't a
// workspace dependency.
extern "C" {
    #[link_name = "kill"]
    fn libc_kill(pid: i32, sig: i32) -> i32;
}

/// A split campaign fans a capped probe's frontier out as one task per
/// subtree, suite parts included: the rows are the same bytes
/// with splitting off, with a tiny split, with two explorer threads per
/// task and across two worker processes. Each of these suites counts
/// every execution exactly once (MPMC: 4,451 executions, 3,936 feasible).
#[test]
fn split_rows_match_the_unsplit_rows_at_any_fan_out() {
    let benches = "MPMC Queue,Chase-Lev Deque,M&S Queue";
    let run = |extra: &[&str]| {
        let mut args = vec!["--bench", benches, "--stable"];
        args.extend_from_slice(extra);
        let out = campaign(&args);
        assert_eq!(code(&out), EXIT_CLEAN, "{extra:?}:\n{}", stderr(&out));
        (stdout(&out), stderr(&out))
    };
    let (base, _) = run(&["--in-process", "--split", "0"]);
    let mpmc = base
        .lines()
        .find(|l| l.starts_with("MPMC Queue"))
        .expect("an MPMC row");
    let counts: Vec<&str> = mpmc.split_whitespace().skip(2).take(2).collect();
    assert_eq!(counts, ["4451", "3936"], "{mpmc}");
    for extra in [
        &["--in-process", "--split", "4"][..],
        &["--in-process", "--worker-threads", "2", "--split", "1000"],
        &["--workers", "2", "--split", "4"],
    ] {
        let (out, err) = run(extra);
        assert_eq!(out, base, "{extra:?} changed the rows");
        if !extra.contains(&"--in-process") {
            // Each capped probe fans out one task per sibling subtree it
            // splits off its DFS path: 20 dispatches here, where one
            // shard per cut suite part would make 8.
            assert!(field_u64(&err, "dispatches") > 8, "{err}");
        }
    }
}

/// Under the default first-bug stop, a split campaign stops where the
/// unsplit one does: sibling subtrees after the first one that hit a bug
/// count nothing, however many of them ran. With a split of 1 the probe
/// cuts before the bug, so the bug lies in a fanned-out shard.
#[test]
fn split_first_bug_rows_match_the_unsplit_row() {
    for (bench, site) in [("SPSC Queue", "1"), ("Chase-Lev Deque", "2")] {
        let run = |extra: &[&str]| {
            let mut args = vec!["--bench", bench, "--stable", "--weaken", site];
            args.extend_from_slice(extra);
            let out = campaign(&args);
            assert_eq!(code(&out), EXIT_BUG, "{extra:?}:\n{}", stderr(&out));
            stdout(&out)
        };
        let base = run(&["--in-process", "--split", "0"]);
        for extra in [
            &["--in-process", "--split", "1"][..],
            &["--in-process", "--split", "4"],
            &["--workers", "2", "--split", "1"],
        ] {
            assert_eq!(run(extra), base, "{bench} {extra:?} changed the row");
        }
    }
}

#[test]
fn chaos_kills_do_not_change_a_single_output_byte() {
    let base = campaign(&["--bench", FAST, "--stable", "--in-process", "--split", "20"]);
    assert_eq!(
        code(&base),
        EXIT_CLEAN,
        "baseline failed:\n{}",
        stderr(&base)
    );

    let chaos = campaign(&[
        "--bench",
        FAST,
        "--stable",
        "--split",
        "20",
        "--workers",
        "2",
        "--chaos-kill-pct",
        "100",
        "--chaos-seed",
        "7",
    ]);
    assert_eq!(
        code(&chaos),
        EXIT_CLEAN,
        "chaos run failed:\n{}",
        stderr(&chaos)
    );
    assert_eq!(
        stdout(&base),
        stdout(&chaos),
        "a chaos-ridden campaign must render the exact bytes of an undisturbed one"
    );
    let err = stderr(&chaos);
    assert!(
        field_u64(&err, "chaos_kills") > 0,
        "chaos never fired:\n{err}"
    );
    assert!(field_u64(&err, "worker_deaths") > 0);
    assert_eq!(field(&err, "suspects"), "0", "chaos must never quarantine");
}

#[test]
fn kill_dash_nine_mid_campaign_is_invisible_in_the_report() {
    let base = campaign(&["--bench", "MPMC Queue", "--stable", "--in-process"]);
    assert_eq!(code(&base), EXIT_CLEAN, "{}", stderr(&base));

    let child = Command::new(BIN)
        .args(["--bench", "MPMC Queue", "--stable", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn campaign");
    let campaign_pid = child.id();

    // Freeze each worker subprocess as it appears, so none can finish
    // its shard before the kill however fast the build is; once both
    // are frozen, SIGKILL them.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut victims = Vec::new();
    while victims.len() < 2 {
        for pid in worker_pids(campaign_pid) {
            if !victims.contains(&pid) {
                unsafe { libc_kill(pid as i32, SIGSTOP) };
                victims.push(pid);
            }
        }
        assert!(Instant::now() < deadline, "workers did not appear");
        std::thread::sleep(Duration::from_millis(1));
    }
    for &pid in &victims {
        unsafe { libc_kill(pid as i32, SIGKILL) };
    }

    let out = child.wait_with_output().expect("campaign finishes");
    assert_eq!(
        out.status.code(),
        Some(EXIT_CLEAN),
        "campaign must absorb the kill:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        stdout(&base),
        "kill -9 mid-shard must not change the merged report"
    );
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(field_u64(&err, "worker_deaths") >= 1, "{err}");
}

#[test]
fn poison_shard_is_quarantined_and_the_campaign_survives() {
    let out = campaign(&[
        "--bench",
        FAST,
        "--stable",
        "--workers",
        "2",
        "--poison",
        "RCU",
    ]);
    assert_eq!(
        code(&out),
        EXIT_RESUMABLE,
        "a quarantined shard is resumable, not fatal:\n{}",
        stderr(&out)
    );
    let so = stdout(&out);
    let rcu = so
        .lines()
        .find(|l| l.starts_with("RCU"))
        .expect("RCU row present");
    assert!(rcu.contains("errored"), "poisoned row errored: {rcu}");
    assert!(rcu.contains("SUSPECT(1)"), "poisoned row flagged: {rcu}");

    // The healthy benchmarks are untouched: their rows match a fault-free
    // campaign over just those benchmarks.
    let healthy = campaign(&["--bench", "SPSC Queue,Seqlock", "--stable", "--in-process"]);
    for line in stdout(&healthy)
        .lines()
        .filter(|l| l.starts_with("SPSC Queue") || l.starts_with("Seqlock"))
    {
        assert!(so.contains(line), "missing healthy row {line:?} in:\n{so}");
    }

    let err = stderr(&out);
    assert_eq!(field(&err, "quarantined"), "1", "{err}");
    assert!(
        field_u64(&err, "worker_deaths") >= 3,
        "one death per dispatch attempt:\n{err}"
    );
}

#[test]
fn journal_resume_after_halt_matches_an_uninterrupted_run() {
    let dir = tmp_dir("halt-resume");
    let journal = dir.join("campaign.journal");
    let journal = journal.to_str().unwrap();

    let fresh = campaign(&["--bench", FAST, "--stable", "--in-process"]);
    assert_eq!(code(&fresh), EXIT_CLEAN);

    let halted = campaign(&[
        "--bench",
        FAST,
        "--stable",
        "--in-process",
        "--journal",
        journal,
        "--halt-after",
        "1",
    ]);
    assert_eq!(
        code(&halted),
        EXIT_RESUMABLE,
        "a halted campaign exits resumable:\n{}",
        stderr(&halted)
    );
    assert_eq!(field(&stderr(&halted), "halted"), "true");

    let resumed = campaign(&[
        "--bench",
        FAST,
        "--stable",
        "--in-process",
        "--journal",
        journal,
    ]);
    assert_eq!(code(&resumed), EXIT_CLEAN, "{}", stderr(&resumed));
    assert_eq!(
        stdout(&resumed),
        stdout(&fresh),
        "resume must reproduce the uninterrupted report byte-for-byte"
    );
    let err = stderr(&resumed);
    assert_eq!(field(&err, "journal_hits"), "1", "{err}");
    assert_eq!(field_u64(&err, "live"), 2);
}

#[test]
fn corrupted_journal_tail_is_recovered_end_to_end() {
    let dir = tmp_dir("corrupt-tail");
    let journal_path = dir.join("campaign.journal");
    let journal = journal_path.to_str().unwrap();

    let fresh = campaign(&["--bench", FAST, "--stable", "--in-process"]);

    let halted = campaign(&[
        "--bench",
        FAST,
        "--stable",
        "--in-process",
        "--journal",
        journal,
        "--halt-after",
        "2",
    ]);
    assert_eq!(code(&halted), EXIT_RESUMABLE);

    // Crash mid-append: chop bytes off the last record.
    let bytes = std::fs::read(&journal_path).unwrap();
    std::fs::write(&journal_path, &bytes[..bytes.len() - 3]).unwrap();

    let resumed = campaign(&[
        "--bench",
        FAST,
        "--stable",
        "--in-process",
        "--journal",
        journal,
    ]);
    assert_eq!(code(&resumed), EXIT_CLEAN, "{}", stderr(&resumed));
    assert_eq!(
        stdout(&resumed),
        stdout(&fresh),
        "recovery from a torn tail must reproduce the uninterrupted report"
    );
    assert!(
        stderr(&resumed).contains("corrupt tail"),
        "recovery is reported:\n{}",
        stderr(&resumed)
    );
}

/// Protocol corruption is worker death: a "worker" that writes garbage
/// to its stdout has its link killed on the first corrupt frame, and its
/// task is requeued, never merged. The slot retires after
/// `Supervisor::FAST_DEATH_CAP` fast deaths and the batch ends abandoned
/// instead of hanging.
#[test]
fn corrupt_worker_pipe_is_a_worker_death() {
    let dir = tmp_dir("corrupt-pipe");
    let script = dir.join("garbage-worker.sh");
    std::fs::write(
        &script,
        "#!/bin/sh\nprintf 'this is not a frame, only garbage bytes\\n'\nexec sleep 30\n",
    )
    .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();

    // More attempts than the slot's fast-death cap, so the slot retires
    // before the task could quarantine.
    let attempts = Supervisor::FAST_DEATH_CAP + 5;
    let mut sup = Supervisor::new(SupervisorOpts {
        workers: 1,
        max_attempts: attempts,
        worker_exe: Some(script),
        ..SupervisorOpts::default()
    });
    let mut table = TaskTable::new(
        vec![TaskSpec {
            bench: "SPSC Queue".into(),
            shard: ShardSpec::root(),
            max_executions: 10,
        }],
        Duration::from_secs(30),
        Duration::from_millis(10),
        attempts,
    );
    let started = Instant::now();
    let mut merged = 0;
    sup.run_batch(&Config::default(), &mut table, |_, _| merged += 1);
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "took {:?}",
        started.elapsed()
    );
    assert_eq!(merged, 0, "a corrupt worker's output is never merged");
    assert!(matches!(table.outcomes()[..], [Outcome::Abandoned]));
    let stats = sup.stats;
    assert_eq!(stats.dead_slots, 1, "{stats:?}");
    assert_eq!(stats.quarantined, 0, "{stats:?}");
    assert!(stats.worker_deaths >= 1, "{stats:?}");
    assert!(stats.requeues >= 1, "{stats:?}");
}

#[test]
fn foreign_journal_is_a_typed_error_not_a_crash() {
    let dir = tmp_dir("foreign-journal");
    let journal_path = dir.join("campaign.journal");
    std::fs::write(&journal_path, "this is not a journal\n").unwrap();
    let out = campaign(&[
        "--bench",
        "SPSC Queue",
        "--stable",
        "--in-process",
        "--journal",
        journal_path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), EXIT_ERROR);
    assert!(stderr(&out).contains("delete the file"), "{}", stderr(&out));
}

#[test]
fn second_run_is_answered_from_the_result_cache() {
    let dir = tmp_dir("cache");
    let cache = dir.to_str().unwrap();

    let first = campaign(&[
        "--bench",
        FAST,
        "--stable",
        "--in-process",
        "--cache-dir",
        cache,
    ]);
    assert_eq!(code(&first), EXIT_CLEAN, "{}", stderr(&first));
    assert_eq!(field_u64(&stderr(&first), "live"), 3);

    let second = campaign(&[
        "--bench",
        FAST,
        "--stable",
        "--in-process",
        "--cache-dir",
        cache,
    ]);
    assert_eq!(code(&second), EXIT_CLEAN, "{}", stderr(&second));
    assert_eq!(
        stdout(&second),
        stdout(&first),
        "cache hits render the exact bytes of the live run"
    );
    let err = stderr(&second);
    // The acceptance bar is ≥90% answered from cache; here it is 100%.
    assert_eq!(field_u64(&err, "cache_hits"), 3, "{err}");
    assert_eq!(field_u64(&err, "live"), 0, "{err}");
}

#[test]
fn weakened_ordering_site_finds_a_real_bug_with_exit_code_2() {
    // Site 1 of SPSC Queue is push's tail release-store; weakening it to
    // relaxed removes the publication edge (the Figure 8 experiment) and
    // the checker reports a data race.
    let sub = campaign(&["--bench", "SPSC Queue", "--stable", "--weaken", "1"]);
    assert_eq!(code(&sub), EXIT_BUG, "{}", stderr(&sub));
    let so = stdout(&sub);
    assert!(so.contains("first-bug"), "{so}");
    assert!(so.contains("bug: data race"), "{so}");

    let inp = campaign(&[
        "--bench",
        "SPSC Queue",
        "--stable",
        "--weaken",
        "1",
        "--in-process",
    ]);
    assert_eq!(code(&inp), EXIT_BUG);
    assert_eq!(
        stdout(&inp),
        so,
        "fault injection is deterministic across process modes"
    );

    // An out-of-range site is a usage error, not a campaign.
    let bad = campaign(&["--bench", "SPSC Queue", "--stable", "--weaken", "99"]);
    assert_eq!(code(&bad), EXIT_ERROR);
    assert!(stderr(&bad).contains("out of range"), "{}", stderr(&bad));
}

#[test]
fn exit_codes_match_their_documented_values() {
    // The single source of truth is the crate root; the CLI usage string
    // and this test both restate it.
    assert_eq!(EXIT_CLEAN, 0);
    assert_eq!(EXIT_ERROR, 1);
    assert_eq!(EXIT_BUG, 2);
    assert_eq!(EXIT_RESUMABLE, 3);

    let unknown_bench = campaign(&["--bench", "No Such Structure"]);
    assert_eq!(code(&unknown_bench), EXIT_ERROR);
    assert!(stderr(&unknown_bench).contains("unknown benchmark"));

    let unknown_flag = campaign(&["--frobnicate"]);
    assert_eq!(code(&unknown_flag), EXIT_ERROR);

    let clean = campaign(&["--bench", "SPSC Queue", "--stable", "--in-process"]);
    assert_eq!(code(&clean), EXIT_CLEAN);
}
