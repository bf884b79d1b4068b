//! Shared harness plumbing for the evaluation binaries in `src/bin`:
//! CLI flags for wall-clock budgets and checkpoint/resume, plus the
//! figure-specific checkpoint file formats.
//!
//! The long-running harnesses (`figure7`, `figure8`) accept
//!
//! * `--time-budget <secs>` — a wall-clock budget for the whole run;
//! * `--checkpoint <path>` — where to write a checkpoint if the budget
//!   expires (exit status [`EXIT_INTERRUPTED`]);
//! * `--resume <path>` — pick up a previous run's checkpoint (also the
//!   default checkpoint destination, so repeated interruptions keep
//!   updating one file);
//! * `--workers <n>` — explorer threads per exploration (default:
//!   auto-detect available parallelism; `--workers 1` forces the
//!   sequential engine);
//! * `--stable` — mask wall-clock columns so two runs at different
//!   worker counts diff byte-for-byte;
//! * `--no-rf-prune` — disable reads-from equivalence pruning
//!   ([`mc::Config::rf_prune`]); used by the differential tests that
//!   prove pruning preserves the bug set (see `ARCHITECTURE.md`,
//!   *Exploration identity and rf-equivalence pruning*).
//!
//! `figure7` checkpoints at *exploration* granularity — completed rows
//! plus a mid-tree [`mc::Checkpoint`] for the interrupted benchmark — so
//! an interrupted-and-resumed run reports exactly the counts of a
//! straight-through one. `figure8` checkpoints at *benchmark*
//! granularity: completed Figure 8 rows are saved verbatim and the
//! interrupted benchmark's trials restart, which preserves the same
//! guarantee (a row is only ever reported from a complete trial set).

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cdsspec_mc as mc;

/// Exit status when a run stops on its time budget with a checkpoint
/// written: distinguishable from both success and failure so wrappers
/// can loop `until exit != 3`.
pub const EXIT_INTERRUPTED: i32 = 3;

/// Parsed harness flags shared by the evaluation binaries.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Wall-clock budget for the whole run.
    pub time_budget: Option<Duration>,
    /// Explicit checkpoint destination.
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint to resume from.
    pub resume: Option<PathBuf>,
    /// Per-trial detail (figure8).
    pub verbose: bool,
    /// Explorer workers (`--workers N`; `None` = auto-detect, `Some(1)` =
    /// sequential engine). Threaded into [`mc::Config::workers`].
    pub workers: Option<usize>,
    /// Suppress wall-clock columns so output is byte-comparable across
    /// runs (`diff <(figure7 --stable) <(figure7 --stable --workers 4)`).
    pub stable: bool,
    /// Reads-from equivalence pruning (`--no-rf-prune` clears it).
    /// Threaded into [`mc::Config::rf_prune`]; on by default, like the
    /// checker's.
    pub rf_prune: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            time_budget: None,
            checkpoint: None,
            resume: None,
            verbose: false,
            workers: None,
            stable: false,
            rf_prune: true,
        }
    }
}

impl HarnessArgs {
    /// Parse command-line flags (pass `std::env::args().skip(1)`).
    pub fn parse(args: impl Iterator<Item = String>) -> Result<HarnessArgs, String> {
        let mut out = HarnessArgs::default();
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--time-budget" => {
                    let secs = args
                        .next()
                        .ok_or("--time-budget needs a value in seconds")?
                        .parse::<f64>()
                        .map_err(|e| format!("--time-budget: {e}"))?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err(format!("--time-budget: bad value {secs}"));
                    }
                    out.time_budget = Some(Duration::from_secs_f64(secs));
                }
                "--checkpoint" => {
                    out.checkpoint = Some(PathBuf::from(
                        args.next().ok_or("--checkpoint needs a path")?,
                    ));
                }
                "--resume" => {
                    out.resume = Some(PathBuf::from(args.next().ok_or("--resume needs a path")?));
                }
                "--verbose" => out.verbose = true,
                "--workers" => {
                    let n = args
                        .next()
                        .ok_or("--workers needs a count")?
                        .parse::<usize>()
                        .map_err(|e| format!("--workers: {e}"))?;
                    if n == 0 {
                        return Err("--workers: must be at least 1 (omit the flag to \
                                    auto-detect)"
                            .into());
                    }
                    out.workers = Some(n);
                }
                "--stable" => out.stable = true,
                "--no-rf-prune" => out.rf_prune = false,
                other => {
                    return Err(format!(
                        "unknown flag {other} (expected --time-budget <secs>, \
                         --resume <path>, --checkpoint <path>, --workers <n>, \
                         --stable, --verbose, --no-rf-prune)"
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Where to write a checkpoint on interruption: `--checkpoint` if
    /// given, else the `--resume` path.
    pub fn checkpoint_path(&self) -> Option<&Path> {
        self.checkpoint.as_deref().or(self.resume.as_deref())
    }

    /// The wall-clock deadline implied by `--time-budget`, fixed at call
    /// time.
    pub fn deadline(&self) -> Option<Instant> {
        self.time_budget.map(|b| Instant::now() + b)
    }

    /// The value for [`mc::Config::workers`]: the `--workers` count, or
    /// `0` (auto-detect available parallelism) when the flag is absent.
    pub fn mc_workers(&self) -> usize {
        self.workers.unwrap_or(0)
    }
}

/// Budget remaining until `deadline` (zero once passed; `None` when
/// unbudgeted).
pub fn remaining(deadline: Option<Instant>) -> Option<Duration> {
    deadline.map(|d| d.saturating_duration_since(Instant::now()))
}

/// One completed Figure 7 row, preserved verbatim across interruptions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SavedRow7 {
    /// Benchmark name.
    pub name: String,
    /// Executions explored.
    pub executions: u64,
    /// Feasible executions.
    pub feasible: u64,
    /// Exploration wall-clock, in nanoseconds.
    pub elapsed_ns: u128,
    /// Stop-reason label (see [`mc::StopReason`]).
    pub stop: String,
    /// Whether the run found a bug.
    pub buggy: bool,
    /// Deepest DFS frontier reached (see [`mc::Stats::peak_depth`]).
    pub peak_depth: u64,
    /// Branches suppressed by rf-equivalence pruning (see
    /// [`mc::Stats::executions_pruned`]).
    pub executions_pruned: u64,
    /// Distinct reads-from equivalence classes among the benchmark's
    /// completed executions (`mc::Stats::rf_classes.len()`).
    pub rf_classes: u64,
}

impl SavedRow7 {
    /// Executions per second implied by the stored counters (`0.0` when
    /// no time was recorded).
    pub fn exec_per_sec(&self) -> f64 {
        exec_per_sec(self.executions, self.elapsed_ns)
    }
}

/// `executions / elapsed` in Hz, `0.0` on a zero denominator.
pub fn exec_per_sec(executions: u64, elapsed_ns: u128) -> f64 {
    if elapsed_ns == 0 {
        0.0
    } else {
        executions as f64 / (elapsed_ns as f64 / 1e9)
    }
}

/// Format name and version of [`Figure7Checkpoint::to_text`].
const FIGURE7_FORMAT: &str = "figure7-checkpoint v2";
/// Format name and version of [`Figure8Checkpoint::to_text`].
const FIGURE8_FORMAT: &str = "figure8-checkpoint v2";

/// Figure 7 checkpoint: completed rows plus the interrupted benchmark's
/// mid-tree exploration checkpoint.
#[derive(Clone, Debug, Default)]
pub struct Figure7Checkpoint {
    /// Rows already computed.
    pub done: Vec<SavedRow7>,
    /// `(benchmark name, exploration checkpoint)` of the benchmark the
    /// deadline interrupted, if it struck mid-benchmark.
    pub current: Option<(String, mc::Checkpoint)>,
}

impl Figure7Checkpoint {
    /// Serialize. Benchmark names must not contain `|` or newlines (the
    /// registry's never do).
    pub fn to_text(&self) -> String {
        let mut out = mc::report::tree_header(FIGURE7_FORMAT);
        out.push('\n');
        for r in &self.done {
            out.push_str(&format!(
                "row {}|{}|{}|{}|{}|{}|{}|{}|{}\n",
                r.name,
                r.executions,
                r.feasible,
                r.elapsed_ns,
                r.stop,
                r.buggy as u8,
                r.peak_depth,
                r.executions_pruned,
                r.rf_classes
            ));
        }
        if let Some((name, ckpt)) = &self.current {
            out.push_str(&format!("current {name}\n"));
            out.push_str(&ckpt.to_text());
        }
        out.push_str("end\n");
        out
    }

    /// Parse a [`Figure7Checkpoint::to_text`] serialization.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        mc::report::check_tree_header(FIGURE7_FORMAT, lines.next())?;
        let mut out = Figure7Checkpoint::default();
        let mut closed = false;
        while let Some(line) = lines.next() {
            if line == "end" {
                closed = true;
                break;
            } else if let Some(rest) = line.strip_prefix("row ") {
                let f: Vec<&str> = rest.split('|').collect();
                if f.len() != 9 {
                    return Err(format!("bad row line: {line}"));
                }
                let num = |s: &str| s.parse::<u64>().map_err(|e| format!("bad row field: {e}"));
                out.done.push(SavedRow7 {
                    name: f[0].to_string(),
                    executions: num(f[1])?,
                    feasible: num(f[2])?,
                    elapsed_ns: f[3].parse().map_err(|e| format!("bad row field: {e}"))?,
                    stop: f[4].to_string(),
                    buggy: f[5] == "1",
                    peak_depth: num(f[6])?,
                    executions_pruned: num(f[7])?,
                    rf_classes: num(f[8])?,
                });
            } else if let Some(name) = line.strip_prefix("current ") {
                // The embedded exploration checkpoint runs to its own
                // `end` terminator.
                let mut inner = String::new();
                for l in lines.by_ref() {
                    inner.push_str(l);
                    inner.push('\n');
                    if l == "end" {
                        break;
                    }
                }
                let ckpt = mc::Checkpoint::from_text(&inner)?;
                out.current = Some((name.to_string(), ckpt));
            } else {
                return Err(format!("unrecognized checkpoint line: {line}"));
            }
        }
        if !closed {
            return Err("truncated figure7 checkpoint (missing end)".into());
        }
        Ok(out)
    }
}

/// One completed Figure 8 row, preserved verbatim across interruptions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SavedRow8 {
    /// Benchmark name.
    pub name: String,
    /// Injections performed.
    pub injections: usize,
    /// Built-in detections.
    pub builtin: usize,
    /// Admissibility detections.
    pub admissibility: usize,
    /// Assertion detections.
    pub assertion: usize,
    /// Errored trials.
    pub errored: usize,
    /// Executions explored across all of the benchmark's trials.
    pub executions: u64,
    /// Exploration wall-clock summed across trials, in nanoseconds.
    pub elapsed_ns: u128,
    /// Deepest DFS frontier reached by any trial.
    pub peak_depth: u64,
    /// Branches suppressed by rf-equivalence pruning, summed across the
    /// benchmark's trials.
    pub executions_pruned: u64,
    /// Reads-from equivalence classes, summed across trials (each trial
    /// explores an independently weakened structure, so the per-trial
    /// class counts are independent and their sum is the meaningful
    /// campaign total).
    pub rf_classes: u64,
}

/// Figure 8 checkpoint: benchmark-granularity — completed rows only.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Figure8Checkpoint {
    /// Rows already computed.
    pub done: Vec<SavedRow8>,
}

impl Figure8Checkpoint {
    /// Serialize (same `|`-separated convention as Figure 7).
    pub fn to_text(&self) -> String {
        let mut out = mc::report::tree_header(FIGURE8_FORMAT);
        out.push('\n');
        for r in &self.done {
            out.push_str(&format!(
                "row {}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}\n",
                r.name,
                r.injections,
                r.builtin,
                r.admissibility,
                r.assertion,
                r.errored,
                r.executions,
                r.elapsed_ns,
                r.peak_depth,
                r.executions_pruned,
                r.rf_classes
            ));
        }
        out.push_str("end\n");
        out
    }

    /// Parse a [`Figure8Checkpoint::to_text`] serialization.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        mc::report::check_tree_header(FIGURE8_FORMAT, lines.next())?;
        let mut out = Figure8Checkpoint::default();
        let mut closed = false;
        for line in lines {
            if line == "end" {
                closed = true;
                break;
            }
            let rest = line
                .strip_prefix("row ")
                .ok_or_else(|| format!("bad line: {line}"))?;
            let f: Vec<&str> = rest.split('|').collect();
            if f.len() != 11 {
                return Err(format!("bad row line: {line}"));
            }
            fn num<T>(s: &str) -> Result<T, String>
            where
                T: std::str::FromStr,
                T::Err: std::fmt::Display,
            {
                s.parse().map_err(|e| format!("bad row field: {e}"))
            }
            out.done.push(SavedRow8 {
                name: f[0].to_string(),
                injections: num(f[1])?,
                builtin: num(f[2])?,
                admissibility: num(f[3])?,
                assertion: num(f[4])?,
                errored: num(f[5])?,
                executions: num(f[6])?,
                elapsed_ns: num(f[7])?,
                peak_depth: num(f[8])?,
                executions_pruned: num(f[9])?,
                rf_classes: num(f[10])?,
            });
        }
        if !closed {
            return Err("truncated figure8 checkpoint (missing end)".into());
        }
        Ok(out)
    }
}

/// Why loading or storing a checkpoint file failed. Every variant's
/// `Display` names the file and says what to do about it, so the harness
/// binaries can print it verbatim and exit.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io {
        /// The checkpoint path.
        path: PathBuf,
        /// What the filesystem said.
        error: std::io::Error,
    },
    /// The file was read but its contents did not parse — a truncated
    /// write from a crashed run, manual editing, or a file that is not a
    /// checkpoint at all.
    Malformed {
        /// The checkpoint path.
        path: PathBuf,
        /// The parser's diagnostic (includes version/header mismatches).
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, error } => {
                write!(f, "checkpoint {}: {error}", path.display())
            }
            CheckpointError::Malformed { path, detail } => write!(
                f,
                "checkpoint {} is not usable: {detail} — it may be a truncated or \
                 corrupted write from an interrupted run; delete it to start fresh, \
                 or point --resume at a valid checkpoint",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Load and parse a checkpoint file through `parse`.
pub fn load_checkpoint<T>(
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    parse(&text).map_err(|detail| CheckpointError::Malformed {
        path: path.to_path_buf(),
        detail,
    })
}

/// Write a checkpoint file (best effort is not enough here — an
/// unwritable checkpoint is a hard error, the run's work would be lost).
///
/// The write is atomic-on-crash: the text goes to a temporary file in the
/// same directory, is fsync'd, and is then `rename`d over the final path.
/// A crash at any point leaves either the old checkpoint or the new one —
/// never a half-written file — because POSIX `rename` within one
/// filesystem replaces the destination atomically.
pub fn store_checkpoint(path: &Path, text: &str) -> Result<(), CheckpointError> {
    let io_err = |error: std::io::Error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            io_err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "checkpoint path has no file name",
            ))
        })?
        .to_os_string();
    // Unique per process so concurrent harnesses sharing a directory
    // cannot clobber each other's in-flight temp file.
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(&file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            // Data must be durable *before* the rename publishes it:
            // rename-then-crash must not expose an empty or partial file.
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Best-effort directory sync so the rename itself is durable; not
        // all filesystems/platforms support opening a directory, and the
        // crash-consistency of the *data* no longer depends on it.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(io_err)
}

// ---------------------------------------------------------------------
// Machine-readable performance rows (`BENCH_hotpath.json`).
// ---------------------------------------------------------------------

/// Schema tag written into every hotpath benchmark file.
pub const BENCH_SCHEMA: &str = "cdsspec-bench-hotpath-v1";

/// One machine-readable performance measurement — a row of
/// `BENCH_hotpath.json`, written by the `hotpath` binary so successive
/// PRs can regress against a recorded trajectory.
///
/// The same schema covers end-to-end probes (`probe` =
/// `"figure7:<benchmark>"`, where `executions`/`feasible`/`peak_depth`
/// come from [`mc::Stats`]) and microbenches (`probe` = `"micro:<op>"`,
/// where `executions` counts iterations and the exploration-only fields
/// are zero).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    /// Probe name: `figure7:<benchmark>` or `micro:<op>`.
    pub probe: String,
    /// Build variant the row was measured on (`"seed"` or `"optimized"`).
    pub variant: String,
    /// Explorer worker count (1 for microbenches).
    pub workers: usize,
    /// Executions explored (microbenches: iterations run).
    pub executions: u64,
    /// Feasible executions (microbenches: 0).
    pub feasible: u64,
    /// Wall-clock of the probe, in nanoseconds.
    pub elapsed_ns: u128,
    /// Executions (iterations) per second.
    pub exec_per_sec: f64,
    /// Peak frontier depth (microbenches: 0).
    pub peak_depth: u64,
    /// Heap allocations performed during the probe (counting allocator).
    pub allocations: u64,
    /// Allocations per execution (iteration).
    pub allocs_per_exec: f64,
}

impl BenchRow {
    /// Render as a single JSON object line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"probe\":{},\"variant\":{},\"workers\":{},\"executions\":{},\
             \"feasible\":{},\"elapsed_ns\":{},\"exec_per_sec\":{:.1},\
             \"peak_depth\":{},\"allocations\":{},\"allocs_per_exec\":{:.2}}}",
            json_string(&self.probe),
            json_string(&self.variant),
            self.workers,
            self.executions,
            self.feasible,
            self.elapsed_ns,
            self.exec_per_sec,
            self.peak_depth,
            self.allocations,
            self.allocs_per_exec,
        )
    }

    /// Parse a line written by [`BenchRow::to_json_line`]. Returns `None`
    /// for lines that are not row objects (or miss a required field).
    /// This is a scanner for the fixed schema above, not a general JSON
    /// parser — exactly what merging a baseline file needs.
    pub fn from_json_line(line: &str) -> Option<BenchRow> {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            return None;
        }
        Some(BenchRow {
            probe: json_field(line, "probe")?.trim_matches('"').to_string(),
            variant: json_field(line, "variant")?.trim_matches('"').to_string(),
            workers: json_field(line, "workers")?.parse().ok()?,
            executions: json_field(line, "executions")?.parse().ok()?,
            feasible: json_field(line, "feasible")?.parse().ok()?,
            elapsed_ns: json_field(line, "elapsed_ns")?.parse().ok()?,
            exec_per_sec: json_field(line, "exec_per_sec")?.parse().ok()?,
            peak_depth: json_field(line, "peak_depth")?.parse().ok()?,
            allocations: json_field(line, "allocations")?.parse().ok()?,
            allocs_per_exec: json_field(line, "allocs_per_exec")?.parse().ok()?,
        })
    }
}

/// Escape a string for embedding in JSON. Probe and variant names are
/// ASCII identifiers-with-spaces; only quotes and backslashes need care.
fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Extract the raw value of `"key":` from a single-line JSON object.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = if let Some(stripped) = rest.strip_prefix('"') {
        stripped.find('"')? + 2
    } else {
        rest.find([',', '}'])?
    };
    Some(&rest[..end])
}

/// Render the full `BENCH_hotpath.json` document: a schema tag plus one
/// row object per line (line-oriented on purpose, so a baseline file's
/// rows can be carried over by line filtering — see
/// [`extract_bench_rows`]).
pub fn render_bench_json(rows: &[BenchRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("\"schema\": \"{BENCH_SCHEMA}\",\n"));
    out.push_str("\"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&r.to_json_line());
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n}\n");
    out
}

/// Recover every [`BenchRow`] from a rendered `BENCH_hotpath.json`.
pub fn extract_bench_rows(text: &str) -> Vec<BenchRow> {
    text.lines().filter_map(BenchRow::from_json_line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> impl Iterator<Item = String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_all_flags() {
        let a = HarnessArgs::parse(strings(&[
            "--time-budget",
            "1.5",
            "--resume",
            "ck.txt",
            "--verbose",
            "--workers",
            "4",
            "--stable",
            "--no-rf-prune",
        ]))
        .unwrap();
        assert_eq!(a.time_budget, Some(Duration::from_millis(1500)));
        assert_eq!(a.checkpoint_path(), Some(Path::new("ck.txt")));
        assert!(a.verbose);
        assert_eq!(a.workers, Some(4));
        assert_eq!(a.mc_workers(), 4);
        assert!(a.stable);
        assert!(!a.rf_prune);
        assert!(HarnessArgs::parse(strings(&["--bogus"])).is_err());
        assert!(HarnessArgs::parse(strings(&["--time-budget", "-1"])).is_err());
        assert!(HarnessArgs::parse(strings(&["--time-budget"])).is_err());
        assert!(HarnessArgs::parse(strings(&["--workers", "0"])).is_err());
        assert!(HarnessArgs::parse(strings(&["--workers"])).is_err());
    }

    #[test]
    fn workers_default_to_auto_detect() {
        let a = HarnessArgs::parse(strings(&[])).unwrap();
        assert_eq!(a.workers, None);
        assert_eq!(a.mc_workers(), 0);
        assert!(!a.stable);
        assert!(a.rf_prune, "pruning is on unless --no-rf-prune");
    }

    #[test]
    fn explicit_checkpoint_beats_resume_path() {
        let a = HarnessArgs::parse(strings(&["--resume", "a", "--checkpoint", "b"])).unwrap();
        assert_eq!(a.checkpoint_path(), Some(Path::new("b")));
    }

    #[test]
    fn figure7_checkpoint_round_trips() {
        let mut inner = mc::Checkpoint::root();
        inner.script = vec![0, 3, 1];
        inner.stats.executions = 17;
        inner.stats.stop = mc::StopReason::Deadline;
        inner.stats.elapsed = Duration::from_millis(4321);
        let ck = Figure7Checkpoint {
            done: vec![SavedRow7 {
                name: "SPSC Queue".into(),
                executions: 42,
                feasible: 30,
                elapsed_ns: 1_000_000,
                stop: "exhausted".into(),
                buggy: false,
                peak_depth: 7,
                executions_pruned: 12,
                rf_classes: 9,
            }],
            current: Some(("RCU".into(), inner)),
        };
        let back = Figure7Checkpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(back.done, ck.done);
        let (name, ckpt) = back.current.unwrap();
        assert_eq!(name, "RCU");
        assert_eq!(ckpt.script, vec![0, 3, 1]);
        assert_eq!(ckpt.stats.executions, 17);
        // The interrupted benchmark's *active* exploration time rides
        // along: figure7 resumes accumulate onto it, so the summary's
        // exec/s never includes the suspension gap between runs.
        assert_eq!(ckpt.stats.elapsed, Duration::from_millis(4321));
    }

    #[test]
    fn figure8_checkpoint_round_trips() {
        let ck = Figure8Checkpoint {
            done: vec![SavedRow8 {
                name: "Ticket Lock".into(),
                injections: 2,
                builtin: 0,
                admissibility: 0,
                assertion: 2,
                errored: 0,
                executions: 61_000,
                elapsed_ns: 2_500_000,
                peak_depth: 11,
                executions_pruned: 300,
                rf_classes: 41,
            }],
        };
        assert_eq!(Figure8Checkpoint::from_text(&ck.to_text()).unwrap(), ck);
        assert!(Figure8Checkpoint::from_text("garbage").is_err());
        let header = mc::report::tree_header(FIGURE8_FORMAT);
        assert!(Figure8Checkpoint::from_text(&format!("{header}\nrow x|1\nend")).is_err());
        assert!(Figure8Checkpoint::from_text(&format!("{header}\n")).is_err());
    }

    /// Checkpoints cut from another exploration tree, or written before
    /// checkpoints named their tree, are refused with both versions named.
    #[test]
    fn figure_checkpoints_name_their_tree() {
        let (this, other) = (mc::explore::TREE_VERSION, mc::explore::TREE_VERSION + 1);
        let moved = |format: &str, body: &str| format!("{format} tree {other}\n{body}end\n");
        let errors = [
            Figure7Checkpoint::from_text(&moved(FIGURE7_FORMAT, "")).unwrap_err(),
            Figure8Checkpoint::from_text(&moved(FIGURE8_FORMAT, "")).unwrap_err(),
            // The exploration checkpoint a figure 7 file embeds, too.
            Figure7Checkpoint::from_text(&format!(
                "{}\ncurrent RCU\n{}end\n",
                mc::report::tree_header(FIGURE7_FORMAT),
                moved("cdsspec-checkpoint v3", "")
            ))
            .unwrap_err(),
        ];
        for err in errors {
            assert!(
                err.contains(&format!("tree version {other}"))
                    && err.contains(&format!("tree version {this}")),
                "{err}"
            );
        }
        assert!(Figure7Checkpoint::from_text("figure7-checkpoint v1\nend\n").is_err());
        assert!(Figure8Checkpoint::from_text("figure8-checkpoint v1\nend\n").is_err());
    }

    #[test]
    fn bench_rows_round_trip_through_json() {
        let rows = vec![
            BenchRow {
                probe: "figure7:MPMC Queue".into(),
                variant: "seed".into(),
                workers: 1,
                executions: 10_992,
                feasible: 4_540,
                elapsed_ns: 900_000_000,
                exec_per_sec: 12_213.3,
                peak_depth: 23,
                allocations: 4_000_000,
                allocs_per_exec: 363.93,
            },
            BenchRow {
                probe: "micro:clock_join".into(),
                variant: "optimized".into(),
                workers: 1,
                executions: 100_000,
                feasible: 0,
                elapsed_ns: 5_000_000,
                exec_per_sec: 20_000_000.0,
                peak_depth: 0,
                allocations: 12,
                allocs_per_exec: 0.0,
            },
        ];
        let doc = render_bench_json(&rows);
        assert!(doc.contains(BENCH_SCHEMA));
        let back = extract_bench_rows(&doc);
        assert_eq!(back, rows);
        // Non-row lines (schema header, brackets) parse to nothing.
        assert!(BenchRow::from_json_line("\"rows\": [").is_none());
        assert!(BenchRow::from_json_line("{\"probe\":\"x\"}").is_none());
    }

    #[test]
    fn store_checkpoint_is_atomic_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("cdsspec-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.txt");
        store_checkpoint(&path, "first\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");
        // Overwrite: the rename replaces the old content in one step.
        store_checkpoint(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        // No temp debris in the directory.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_checkpoint_errors_are_typed_and_actionable() {
        let dir = std::env::temp_dir().join(format!("cdsspec-ckpt-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Missing file: Io variant naming the path.
        let missing = dir.join("nope.txt");
        let err = load_checkpoint(&missing, Figure7Checkpoint::from_text).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err:?}");
        assert!(err.to_string().contains("nope.txt"));

        // Corrupted fixture: a checkpoint truncated mid-write (no `end`
        // terminator), as a crash before the atomic-write fix could leave.
        let corrupt = dir.join("corrupt.txt");
        let header = mc::report::tree_header(FIGURE7_FORMAT);
        std::fs::write(&corrupt, format!("{header}\nrow SPSC Queue|42|30")).unwrap();
        let err = load_checkpoint(&corrupt, Figure7Checkpoint::from_text).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("corrupt.txt"), "{msg}");
        assert!(msg.contains("delete it to start fresh"), "{msg}");

        // Wrong version/header: also Malformed, with the parser's detail.
        let wrong = dir.join("wrong.txt");
        std::fs::write(&wrong, "figure9-checkpoint v9\nend\n").unwrap();
        let err = load_checkpoint(&wrong, Figure7Checkpoint::from_text).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }), "{err:?}");
        assert!(err.to_string().contains("header"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Rows of the older, shorter formats are refused.
    #[test]
    fn short_rows_are_refused() {
        let f7 = mc::report::tree_header(FIGURE7_FORMAT);
        for row in [
            "SPSC Queue|42|30|1000000|exhausted|0",
            "SPSC Queue|42|30|1000000|exhausted|0|7",
        ] {
            let text = format!("{f7}\nrow {row}\nend\n");
            assert!(Figure7Checkpoint::from_text(&text).is_err(), "{row}");
        }
        let f8 = mc::report::tree_header(FIGURE8_FORMAT);
        for row in [
            "Ticket Lock|2|0|0|2|0",
            "Ticket Lock|2|0|0|2|0|61000|2500000|11",
        ] {
            let text = format!("{f8}\nrow {row}\nend\n");
            assert!(Figure8Checkpoint::from_text(&text).is_err(), "{row}");
        }
    }
}
