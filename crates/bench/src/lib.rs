//! Shared harness plumbing for the evaluation binaries in `src/bin`:
//! CLI flags for wall-clock budgets and checkpoint/resume, plus the
//! resume file of `figure7` and `figure8`.
//!
//! The long-running harnesses (`figure7`, `figure8`) accept
//!
//! * `--time-budget <secs>` — a wall-clock budget for the whole run;
//! * `--checkpoint <path>` — the resume file to keep; a run that the
//!   budget stops exits with status [`EXIT_INTERRUPTED`];
//! * `--resume <path>` — pick up a previous run's resume file (also the
//!   default checkpoint destination, so repeated interruptions keep
//!   updating one file);
//! * `--workers <n>` — explorer threads per exploration (default:
//!   auto-detect available parallelism; `--workers 1` explores on the
//!   calling thread alone);
//! * `--stable` — mask wall-clock columns so two runs at different
//!   worker counts diff byte-for-byte;
//! * `--no-rf-prune` — disable reads-from equivalence pruning
//!   ([`mc::Config::rf_prune`]); used by the differential tests that
//!   prove pruning preserves the bug set (see `ARCHITECTURE.md`,
//!   *Exploration identity and rf-equivalence pruning*).
//!
//! The resume file is a campaign journal ([`ResumeFile`]). Each row is
//! appended as it completes. `figure7` also saves the statistics and
//! frontier shards of the benchmark a deadline cuts mid-tree, so an
//! interrupted-and-resumed run reports exactly the counts of a
//! straight-through one. `figure8` resumes at *benchmark* granularity:
//! the interrupted benchmark's trials restart, which preserves the same
//! guarantee (a row is only ever reported from a complete trial set).

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

use cdsspec_campaign::json::Json;
use cdsspec_campaign::{wire, Journal, ParseError};
use cdsspec_mc as mc;
use mc::explore::TREE_VERSION;

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
    /// the calling thread alone). Threaded into [`mc::Config::workers`].
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

    /// Whether the row was checked in full and found nothing: no bug,
    /// and the exploration ran out of executions to try rather than
    /// stopping on the execution cap or an engine error.
    pub fn clean(&self) -> bool {
        !self.buggy && self.stop == "exhausted"
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

/// A completed row as a `row` record of a resume file.
pub trait SavedRow: Sized {
    /// The benchmark the row reports.
    fn name(&self) -> &str;
    /// The row's fields.
    fn to_json(&self) -> Vec<(&'static str, Json)>;
    /// Decode the fields [`SavedRow::to_json`] wrote; every one is
    /// required.
    fn from_json(record: &Json) -> Result<Self, String>;
}

/// Field `key` of a row record, read by `get`.
fn field<T>(record: &Json, key: &str, get: impl Fn(&Json) -> Option<T>) -> Result<T, String> {
    record
        .get(key)
        .and_then(get)
        .ok_or_else(|| format!("row record missing {key}"))
}

fn as_string(v: &Json) -> Option<String> {
    v.as_str().map(str::to_string)
}

fn as_u128(v: &Json) -> Option<u128> {
    v.as_num().and_then(|n| u128::try_from(n).ok())
}

impl SavedRow for SavedRow7 {
    fn name(&self) -> &str {
        &self.name
    }

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::str(&self.name)),
            ("executions", Json::num(self.executions)),
            ("feasible", Json::num(self.feasible)),
            ("elapsed_ns", Json::Num(self.elapsed_ns as i128)),
            ("stop", Json::str(&self.stop)),
            ("buggy", Json::Bool(self.buggy)),
            ("peak_depth", Json::num(self.peak_depth)),
            ("executions_pruned", Json::num(self.executions_pruned)),
            ("rf_classes", Json::num(self.rf_classes)),
        ]
    }

    fn from_json(r: &Json) -> Result<Self, String> {
        Ok(SavedRow7 {
            name: field(r, "name", as_string)?,
            executions: field(r, "executions", Json::as_u64)?,
            feasible: field(r, "feasible", Json::as_u64)?,
            elapsed_ns: field(r, "elapsed_ns", as_u128)?,
            stop: field(r, "stop", as_string)?,
            buggy: field(r, "buggy", Json::as_bool)?,
            peak_depth: field(r, "peak_depth", Json::as_u64)?,
            executions_pruned: field(r, "executions_pruned", Json::as_u64)?,
            rf_classes: field(r, "rf_classes", Json::as_u64)?,
        })
    }
}

impl SavedRow for SavedRow8 {
    fn name(&self) -> &str {
        &self.name
    }

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::str(&self.name)),
            ("injections", Json::num(self.injections as u64)),
            ("builtin", Json::num(self.builtin as u64)),
            ("admissibility", Json::num(self.admissibility as u64)),
            ("assertion", Json::num(self.assertion as u64)),
            ("errored", Json::num(self.errored as u64)),
            ("executions", Json::num(self.executions)),
            ("elapsed_ns", Json::Num(self.elapsed_ns as i128)),
            ("peak_depth", Json::num(self.peak_depth)),
            ("executions_pruned", Json::num(self.executions_pruned)),
            ("rf_classes", Json::num(self.rf_classes)),
        ]
    }

    fn from_json(r: &Json) -> Result<Self, String> {
        Ok(SavedRow8 {
            name: field(r, "name", as_string)?,
            injections: field(r, "injections", Json::as_usize)?,
            builtin: field(r, "builtin", Json::as_usize)?,
            admissibility: field(r, "admissibility", Json::as_usize)?,
            assertion: field(r, "assertion", Json::as_usize)?,
            errored: field(r, "errored", Json::as_usize)?,
            executions: field(r, "executions", Json::as_u64)?,
            elapsed_ns: field(r, "elapsed_ns", as_u128)?,
            peak_depth: field(r, "peak_depth", Json::as_u64)?,
            executions_pruned: field(r, "executions_pruned", Json::as_u64)?,
            rf_classes: field(r, "rf_classes", Json::as_u64)?,
        })
    }
}

fn row_record(row: &impl SavedRow) -> Json {
    let mut pairs = vec![("rec", Json::str("row"))];
    pairs.extend(row.to_json());
    Json::obj(pairs)
}

fn cut_record(name: &str, stats: &mc::Stats) -> Json {
    Json::obj(vec![
        ("rec", Json::str("cut")),
        ("name", Json::str(name)),
        ("stats", wire::stats_to_json(stats)),
    ])
}

/// What a resume file held when the run started.
#[derive(Debug)]
pub struct Resumed<R> {
    /// Completed rows, in the order they completed.
    pub rows: Vec<R>,
    /// The benchmark a deadline cut mid-tree, with its statistics so far
    /// (figure 7 only; their frontier shards are the unexplored rest).
    pub cut: Option<(String, mc::Stats)>,
}

impl<R: SavedRow> Resumed<R> {
    fn decode(records: &[Json]) -> Result<Self, String> {
        let mut out = Resumed {
            rows: Vec::new(),
            cut: None,
        };
        for record in records {
            match record.get("rec").and_then(Json::as_str) {
                Some("row") => out.rows.push(R::from_json(record)?),
                Some("cut") => {
                    let name = field(record, "name", as_string)?;
                    let stats = record.get("stats").ok_or("cut record missing stats")?;
                    out.cut = Some((name, wire::stats_from_json(stats)?));
                }
                other => return Err(format!("unknown record kind {other:?}")),
            }
        }
        // A cut whose benchmark completed later is spent.
        if let Some((name, _)) = &out.cut {
            if out.rows.iter().any(|r| r.name() == name) {
                out.cut = None;
            }
        }
        Ok(out)
    }
}

/// The resume file of a `figure7` or `figure8` run: a campaign
/// [`Journal`] whose first record names the figure, the exploration tree
/// ([`TREE_VERSION`]) and `rf_prune`, followed by one `row` record per
/// completed row and, for figure 7, a `cut` record for the benchmark a
/// deadline interrupted mid-tree. Each record is fsync'd when appended,
/// and a torn tail from a crash is cut away when the file is read.
#[derive(Debug)]
pub struct ResumeFile {
    journal: Option<Journal>,
}

impl ResumeFile {
    /// Read `--resume` (a missing file is a fresh start), then rewrite
    /// the checkpoint path with what is still live and open it for
    /// appending. That copies a `--resume` file into a different
    /// `--checkpoint`, and drops spent cuts. Without either flag nothing
    /// is written.
    ///
    /// A file written by the other figure, from another exploration tree
    /// or under the other `rf_prune` setting is a
    /// [`ParseError::WrongCampaign`] naming both values.
    pub fn open<R: SavedRow>(
        args: &HarnessArgs,
        figure: &str,
    ) -> Result<(ResumeFile, Resumed<R>), ParseError> {
        let header = Json::obj(vec![
            ("rec", Json::str(figure)),
            ("tree", Json::num(TREE_VERSION)),
            ("rf_prune", Json::Bool(args.rf_prune)),
        ]);
        let mut saved = Resumed {
            rows: Vec::new(),
            cut: None,
        };
        if let Some(path) = args.resume.as_deref().filter(|p| p.exists()) {
            let (_, recovery) = Journal::open(path)?;
            if let Some((first, records)) = recovery.records.split_first() {
                check_header(path, first, &header)?;
                saved = Resumed::decode(records).map_err(|detail| ParseError::Malformed {
                    path: path.to_path_buf(),
                    detail,
                })?;
            }
        }
        let journal = match args.checkpoint_path() {
            None => None,
            Some(path) => {
                let mut records = vec![header];
                records.extend(saved.rows.iter().map(row_record));
                records.extend(saved.cut.iter().map(|(n, s)| cut_record(n, s)));
                Journal::compact(path, &records)?;
                Some(Journal::open(path)?.0)
            }
        };
        Ok((ResumeFile { journal }, saved))
    }

    fn append(&mut self, record: &Json) -> Result<(), ParseError> {
        match &mut self.journal {
            Some(journal) => journal.append(record),
            None => Ok(()),
        }
    }

    /// Record a completed row.
    pub fn append_row(&mut self, row: &impl SavedRow) -> Result<(), ParseError> {
        self.append(&row_record(row))
    }

    /// Record the statistics of benchmark `name`, which a deadline cut
    /// mid-tree.
    pub fn append_cut(&mut self, name: &str, stats: &mc::Stats) -> Result<(), ParseError> {
        self.append(&cut_record(name, stats))
    }

    /// The time budget ran out after `done` of `total` rows: say where
    /// the file is and exit with [`EXIT_INTERRUPTED`].
    pub fn interrupt(&self, done: usize, total: usize) -> ! {
        match &self.journal {
            None => eprintln!(
                "\ntime budget exhausted and no --checkpoint/--resume path given; \
                 partial results are lost"
            ),
            Some(journal) => eprintln!(
                "\ntime budget exhausted after {done} of {total} rows; checkpoint written \
                 to {0}; rerun with --resume {0} to continue",
                journal.path().display()
            ),
        }
        exit(EXIT_INTERRUPTED)
    }

    /// A completed run leaves no resume file behind.
    pub fn finish(self) {
        if let Some(journal) = self.journal {
            let path = journal.path().to_path_buf();
            drop(journal);
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Refuse a resume file whose header differs from this run's: rows and
/// frontier shards mean something only for the figure, exploration tree
/// and pruning setting that made them.
fn check_header(path: &Path, found: &Json, expected: &Json) -> Result<(), ParseError> {
    if found == expected {
        return Ok(());
    }
    let show = |v: &Json, key| v.get(key).map_or("none".into(), Json::encode);
    let detail = match ["rec", "tree", "rf_prune"]
        .into_iter()
        .find(|&k| found.get(k) != expected.get(k))
    {
        Some("tree") => format!(
            "cut from exploration tree version {}, but this build explores tree version {}",
            show(found, "tree"),
            show(expected, "tree")
        ),
        Some("rf_prune") => format!(
            "cut with rf_prune {}, but this run has rf_prune {}",
            show(found, "rf_prune"),
            show(expected, "rf_prune")
        ),
        _ => format!(
            "header {}, but this run expects {}",
            found.encode(),
            expected.encode()
        ),
    };
    Err(ParseError::WrongCampaign {
        path: path.to_path_buf(),
        detail,
    })
}

/// Print `error` as `bin: error` and exit with `code`.
pub fn die(bin: &str, code: i32, error: impl std::fmt::Display) -> ! {
    eprintln!("{bin}: {error}");
    exit(code)
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
    fn only_an_exhausted_bug_free_row_is_clean() {
        let row = |stop: &str, buggy: bool| SavedRow7 {
            name: "SPSC Queue".into(),
            executions: 42,
            feasible: 30,
            elapsed_ns: 1_000_000,
            stop: stop.into(),
            buggy,
            peak_depth: 7,
            executions_pruned: 12,
            rf_classes: 9,
        };
        assert!(row("exhausted", false).clean());
        assert!(!row("first-bug", true).clean());
        assert!(!row("execution-cap", false).clean());
        assert!(!row("errored", false).clean());
    }

    fn row7() -> SavedRow7 {
        SavedRow7 {
            name: "RCU".into(),
            executions: 42,
            feasible: 30,
            elapsed_ns: u128::from(u64::MAX) + 1,
            stop: "exhausted".into(),
            buggy: false,
            peak_depth: 7,
            executions_pruned: 12,
            rf_classes: 9,
        }
    }

    /// Rows come back field for field, and a record missing any field is
    /// refused rather than defaulted.
    #[test]
    fn rows_round_trip_through_records() {
        let r7 = row7();
        assert_eq!(SavedRow7::from_json(&row_record(&r7)), Ok(r7.clone()));
        let r8 = SavedRow8 {
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
        };
        assert_eq!(SavedRow8::from_json(&row_record(&r8)), Ok(r8));
        for (key, _) in r7.to_json() {
            let Json::Obj(mut pairs) = row_record(&r7) else {
                unreachable!()
            };
            pairs.retain(|(k, _)| k != key);
            let err = SavedRow7::from_json(&Json::Obj(pairs)).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }

    /// A run that is cut and then finishes its benchmark leaves a spent
    /// cut behind; reopening drops it and keeps the row.
    #[test]
    fn reopening_keeps_rows_and_only_a_live_cut() {
        let dir = std::env::temp_dir().join(format!("cdsspec-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck");
        let args = HarnessArgs {
            resume: Some(path.clone()),
            ..HarnessArgs::default()
        };
        let cut = mc::Stats {
            executions: 3,
            stop: mc::StopReason::Deadline,
            shard_frontiers: vec![mc::ShardSpec::from_script(vec![0, 1])],
            ..mc::Stats::default()
        };
        let (mut file, saved) = ResumeFile::open::<SavedRow7>(&args, "figure7").unwrap();
        assert!(saved.rows.is_empty() && saved.cut.is_none());
        file.append_cut("RCU", &cut).unwrap();
        drop(file);
        let (mut file, saved) = ResumeFile::open::<SavedRow7>(&args, "figure7").unwrap();
        let (name, stats) = saved.cut.expect("the cut survives");
        assert_eq!((name.as_str(), stats.executions), ("RCU", 3));
        assert_eq!(stats.shard_frontiers, cut.shard_frontiers);
        file.append_row(&row7()).unwrap();
        drop(file);
        let (file, saved) = ResumeFile::open::<SavedRow7>(&args, "figure7").unwrap();
        assert_eq!(saved.rows, vec![row7()]);
        assert!(saved.cut.is_none(), "RCU completed, so its cut is spent");
        file.finish();
        assert!(!path.exists(), "a finished run removes its file");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
