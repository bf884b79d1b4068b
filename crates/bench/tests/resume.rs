//! The `figure7`/`figure8` resume loop, driven through the binaries: a
//! run cut by its time budget, or killed, and then resumed prints the
//! table of a straight run, and a resume file that does not belong to
//! the run is refused with exit status 2.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use cdsspec_campaign::json::Json;
use cdsspec_campaign::Journal;
use cdsspec_mc::explore::TREE_VERSION;

const FIGURE7: &str = env!("CARGO_BIN_EXE_figure7");
const FIGURE8: &str = env!("CARGO_BIN_EXE_figure8");
/// Small against either binary's run time, in debug and release builds.
const BUDGET: &str = "0.05";

/// A fresh directory for one test's resume files, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("cdsspec-bench-resume-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(["--stable", "--workers", "1"])
        .args(args)
        .output()
        .expect("spawn")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

/// The straight `--stable --workers 1` table, computed once per binary.
fn straight(bin: &'static str) -> &'static str {
    static CACHE: [OnceLock<String>; 2] = [OnceLock::new(), OnceLock::new()];
    CACHE[usize::from(bin == FIGURE8)].get_or_init(|| {
        let out = run(bin, &[]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        stdout(&out)
    })
}

/// Rerun while the binary exits 3 (interrupted), and return the last run.
fn until_done(bin: &str, args: &[&str]) -> Output {
    for _ in 0..1000 {
        let out = run(bin, args);
        if out.status.code() != Some(3) {
            return out;
        }
    }
    panic!("{bin} {args:?} made no progress in 1000 runs");
}

/// The final table equals the straight one once resumed rows lose their
/// marker.
fn assert_matches_straight(bin: &'static str, out: &Output) {
    assert_eq!(out.status.code(), Some(0), "{}", stderr(out));
    let text = stdout(out);
    assert!(
        text.contains("[from checkpoint]"),
        "nothing was resumed:\n{text}"
    );
    assert_eq!(text.replace("  [from checkpoint]", ""), straight(bin));
}

fn arg(path: &Path) -> &str {
    path.to_str().unwrap()
}

/// Number of complete journal frames in `path`, read without opening it
/// as a journal (which would repair the tail under a live writer).
fn frames(path: &Path) -> usize {
    let Ok(bytes) = std::fs::read(path) else {
        return 0;
    };
    let mut pos = cdsspec_campaign::journal::MAGIC.len();
    let mut n = 0;
    while let Some(len) = bytes.get(pos..pos + 4) {
        let end = pos + 8 + u32::from_le_bytes(len.try_into().unwrap()) as usize;
        if end > bytes.len() {
            break;
        }
        (pos, n) = (end, n + 1);
    }
    n
}

#[test]
fn figure7_until_loop_matches_the_straight_run() {
    let dir = Scratch::new("loop7");
    let ck = dir.file("ck");
    // Two workers on the cut side: a parallel cut leaves several shards.
    let out = until_done(
        FIGURE7,
        &[
            "--workers",
            "2",
            "--time-budget",
            BUDGET,
            "--resume",
            arg(&ck),
        ],
    );
    assert_matches_straight(FIGURE7, &out);
    assert!(!ck.exists(), "a completed run deletes its resume file");
}

#[test]
fn figure8_until_loop_matches_the_straight_run() {
    let dir = Scratch::new("loop8");
    let ck = dir.file("ck");
    let out = until_done(FIGURE8, &["--time-budget", BUDGET, "--resume", arg(&ck)]);
    assert_matches_straight(FIGURE8, &out);
    assert!(!ck.exists(), "a completed run deletes its resume file");
}

/// SIGKILL once the first row is durable; the rerun picks up from it.
#[test]
fn killed_run_resumes_from_its_durable_rows() {
    let dir = Scratch::new("kill");
    let ck = dir.file("ck");
    for _ in 0..5 {
        let mut child = Command::new(FIGURE7)
            .args(["--stable", "--workers", "1", "--checkpoint", arg(&ck)])
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("spawn");
        let start = Instant::now();
        // The header record plus one row record.
        while frames(&ck) < 2 && start.elapsed() < Duration::from_secs(60) {
            std::thread::sleep(Duration::from_millis(1));
        }
        child.kill().unwrap();
        if child.wait().unwrap().success() {
            continue; // finished before the kill landed; try again
        }
        let out = run(FIGURE7, &["--resume", arg(&ck)]);
        assert_matches_straight(FIGURE7, &out);
        return;
    }
    panic!("figure7 always finished before it could be killed");
}

#[test]
fn torn_tail_is_cut_away_on_resume() {
    let dir = Scratch::new("torn");
    let ck = dir.file("ck");
    let first = run(
        FIGURE7,
        &["--time-budget", BUDGET, "--checkpoint", arg(&ck)],
    );
    assert_eq!(first.status.code(), Some(3), "{}", stderr(&first));
    // Half a frame: a length prefix whose payload never landed.
    let mut bytes = std::fs::read(&ck).unwrap();
    bytes.extend_from_slice(&[64, 0, 0, 0, 1, 2, 3]);
    std::fs::write(&ck, bytes).unwrap();
    let out = until_done(FIGURE7, &["--time-budget", BUDGET, "--resume", arg(&ck)]);
    assert_matches_straight(FIGURE7, &out);
}

#[test]
fn garbage_file_exits_2() {
    let dir = Scratch::new("garbage");
    let ck = dir.file("ck");
    std::fs::write(&ck, "garbage\n").unwrap();
    for bin in [FIGURE7, FIGURE8] {
        let out = run(bin, &["--resume", arg(&ck)]);
        assert_eq!(out.status.code(), Some(2), "{bin}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("not a cdsspec-journal"),
            "{}",
            stderr(&out)
        );
    }
}

#[test]
fn file_from_another_tree_exits_2_naming_both_versions() {
    let dir = Scratch::new("tree");
    let ck = dir.file("ck");
    let other = TREE_VERSION + 1;
    let header = Json::obj(vec![
        ("rec", Json::str("figure7")),
        ("tree", Json::num(other)),
        ("rf_prune", Json::Bool(true)),
    ]);
    Journal::compact(&ck, &[header]).unwrap();
    let out = run(FIGURE7, &["--resume", arg(&ck)]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains(&format!("tree version {other}"))
            && err.contains(&format!("tree version {TREE_VERSION}")),
        "{err}"
    );
}

/// A cut taken with rf pruning cannot be finished without it: the row
/// would count executions of two different trees.
#[test]
fn pruned_cut_resumed_unpruned_exits_2() {
    let dir = Scratch::new("prune");
    let ck = dir.file("ck");
    let first = run(
        FIGURE7,
        &["--time-budget", BUDGET, "--checkpoint", arg(&ck)],
    );
    assert_eq!(first.status.code(), Some(3), "{}", stderr(&first));
    let out = run(FIGURE7, &["--resume", arg(&ck), "--no-rf-prune"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("rf_prune true, but this run has rf_prune false"),
        "{}",
        stderr(&out)
    );
}

/// `--resume A --checkpoint B` continues A's run in B and leaves A alone.
#[test]
fn resume_from_one_file_into_another() {
    let dir = Scratch::new("copy");
    let (a, b) = (dir.file("a"), dir.file("b"));
    let first = run(FIGURE7, &["--time-budget", BUDGET, "--checkpoint", arg(&a)]);
    assert_eq!(first.status.code(), Some(3), "{}", stderr(&first));
    let saved = std::fs::read(&a).unwrap();
    let second = run(
        FIGURE7,
        &[
            "--time-budget",
            BUDGET,
            "--resume",
            arg(&a),
            "--checkpoint",
            arg(&b),
        ],
    );
    assert_eq!(std::fs::read(&a).unwrap(), saved, "A is only read");
    let out = match second.status.code() {
        Some(3) => until_done(FIGURE7, &["--time-budget", BUDGET, "--resume", arg(&b)]),
        _ => second,
    };
    assert_matches_straight(FIGURE7, &out);
    assert!(!b.exists(), "the completed run deletes its checkpoint");
    assert!(a.exists());
}
