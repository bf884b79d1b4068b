//! Campaign orchestration: per-benchmark probe → split → supervised (or
//! in-process) shard execution → deterministic merge → journal → cache.
//!
//! ## Determinism
//!
//! Every code path that produces a benchmark's row goes through the same
//! task decomposition and the same fold:
//!
//! 1. A **probe** task explores the root shard under the split cap (or
//!    the full cap when splitting is off).
//! 2. If the probe hit the split cap, its leftover frontier shards — the
//!    sibling subtrees along its DFS path, deepest first (see
//!    `cdsspec_mc::explore`) — become one task each, dispatched largest
//!    (shallowest) first and run to completion in any order, on any
//!    worker, with any number of crash/retry cycles in between.
//! 3. The merge folds task results **in frontier order** — never dispatch
//!    or completion order — so the merged row is a pure function of the
//!    per-task results, which are themselves deterministic (the
//!    partition invariant), and it stops counting at the first task
//!    that stopped on its first bug, as one explorer draining the
//!    frontier in order would have. Worker deaths only ever discard *partial*
//!    output and rerun whole shards, so a chaos-ridden campaign renders
//!    the exact bytes an undisturbed one does (`--stable` masks
//!    wall-clock, the one nondeterministic column).
//!
//! The same argument makes the journal and cache sound: both store
//! completed per-bench merges keyed by content, and replaying or
//! cache-hitting a row reproduces the live rendering byte-for-byte.

use crate::cache::{CacheKey, ResultCache};
use crate::journal::Journal;
use crate::json::Json;
use crate::lease::{Outcome, TaskSpec, TaskTable};
use crate::proto::FromWorker;
use crate::supervisor::{SlotStats, Supervisor, SupervisorOpts, SupervisorStats, Transport};
use crate::wire::{config_hash, row_to_json, spec_hash, stats_from_json, stats_to_json, task_key};
use crate::worker::{execute_run, WorkerOpts};
use crate::{EXIT_BUG, EXIT_CLEAN, EXIT_RESUMABLE};
use cdsspec_mc::{Config, ShardSpec, Stats, StopReason};
use cdsspec_structures::registry::{benchmarks, Benchmark};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// Everything a campaign run needs (the CLI builds one of these).
#[derive(Clone, Debug)]
pub struct CampaignOpts {
    /// Benchmarks to run (registry display names); `None` = all.
    pub bench_filter: Option<Vec<String>>,
    /// Probe execution cap; a probe that hits it fans its leftover
    /// frontier out as one task per shard. `0` = no splitting (one task
    /// per benchmark).
    pub split: u64,
    /// Execution cap per (non-probe) task.
    pub max_executions: u64,
    /// Mask wall-clock in all output (byte-identity across runs).
    pub stable: bool,
    /// Run tasks in this process instead of worker subprocesses (the
    /// fault-free baseline chaos runs are diffed against).
    pub in_process: bool,
    /// Journal path (`None` = no journal).
    pub journal: Option<PathBuf>,
    /// Result-cache directory (`None` = no cache).
    pub cache_dir: Option<PathBuf>,
    /// Stop (exit code 3, journal intact) after this many live-computed
    /// benchmarks — simulates a supervisor crash for resume testing.
    pub halt_after: Option<usize>,
    /// Ordering sites to weaken one step before checking each benchmark
    /// (Figure 8-style fault injection; empty = default orderings).
    /// Part of the campaign identity: it changes results, so it is folded
    /// into the config hash the journal header and cache key use.
    pub weaken: Vec<usize>,
    /// Worker pool settings. With `in_process` only `worker_threads`
    /// applies: tasks run here with that many explorer threads each.
    pub sup: SupervisorOpts,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        CampaignOpts {
            bench_filter: None,
            split: 0,
            max_executions: 1_000_000,
            stable: false,
            in_process: false,
            journal: None,
            cache_dir: None,
            halt_after: None,
            weaken: Vec::new(),
            sup: SupervisorOpts::default(),
        }
    }
}

impl CampaignOpts {
    /// The semantic exploration config this campaign hashes and ships to
    /// workers.
    pub fn base_config(&self) -> Config {
        Config {
            max_executions: self.max_executions,
            ..Config::default()
        }
    }
}

/// Where a row's numbers came from (reported on stderr only — stdout is
/// identical either way).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    Live,
    Cache,
    JournalReplay,
}

struct Row {
    name: String,
    stats: Stats,
    suspects: usize,
    abandoned: usize,
    source: Source,
}

#[derive(Default)]
struct JournalState {
    tasks: HashMap<String, Stats>,
    benches: HashMap<String, (Stats, usize, usize)>,
}

/// Campaign counters, rendered as the `campaign-summary:` stderr block.
/// Returned structured (not just printed) so the daemon can aggregate
/// across served campaigns and ship the text to the remote client.
#[derive(Clone, Debug, Default)]
pub struct CampaignSummary {
    /// Rows in the report.
    pub benches: usize,
    /// Rows computed live this run.
    pub live: usize,
    /// Rows answered from the result cache.
    pub cache_hits: usize,
    /// Rows answered from journal replay.
    pub journal_hits: usize,
    /// Worker-pool counters (zeroed for in-process runs).
    pub sup: SupervisorStats,
    /// Per-slot counters, in slot order (empty for in-process runs).
    pub slots: Vec<SlotStats>,
    /// Shards abandoned because the pool died.
    pub abandoned: usize,
    /// Shards quarantined as suspect.
    pub suspects: usize,
    /// Did `--halt-after` stop the run early?
    pub halted: bool,
    /// Live benchmarks completed before a halt.
    pub live_done: usize,
}

impl CampaignSummary {
    /// The stderr block local runs print and remote runs ship to the
    /// client: the `campaign-summary:` counters line, one
    /// `worker-report:` line per pool slot (requeue/reconnect churn is
    /// reported, never silently absorbed), and the halt notice.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "campaign-summary: benches={} live={} cache_hits={} journal_hits={} \
             worker_deaths={} chaos_kills={} quarantined={} abandoned={} suspects={} halted={} \
             dispatches={} requeues={}",
            self.benches,
            self.live,
            self.cache_hits,
            self.journal_hits,
            self.sup.worker_deaths,
            self.sup.chaos_kills,
            self.sup.quarantined,
            self.abandoned,
            self.suspects,
            self.halted,
            self.sup.dispatches,
            self.sup.requeues,
        );
        for (i, slot) in self.slots.iter().enumerate() {
            let _ = writeln!(
                s,
                "worker-report: slot={i} spawns={} deaths={} requeues={} completed={}",
                slot.spawns, slot.deaths, slot.requeues, slot.completed
            );
        }
        if self.halted {
            let _ = writeln!(
                s,
                "cdsspec-campaign: halted after {} benchmark(s); \
                 resume with the same --journal to continue",
                self.live_done
            );
        }
        s
    }
}

/// A finished campaign: the exit code plus its summary counters.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Process-style exit code ([`crate::EXIT_CLEAN`] etc.).
    pub code: i32,
    /// The counters behind the `campaign-summary:` block.
    pub summary: CampaignSummary,
}

/// Run a campaign; returns the process exit code. Prints the summary
/// block to stderr (the structured variant is [`run_campaign_with`]).
pub fn run_campaign(opts: &CampaignOpts, out: &mut dyn Write) -> Result<i32, String> {
    let outcome = run_campaign_with(opts, out, None)?;
    eprint!("{}", outcome.summary.render());
    Ok(outcome.code)
}

/// Run a campaign over an explicit worker transport (`None` = the
/// default: in-process when `opts.in_process`, else local
/// subprocesses). The report is written to `out`; the summary is
/// *returned*, not printed — callers decide where it goes (the CLI
/// prints it to stderr, the daemon ships it to the remote client).
pub fn run_campaign_with(
    opts: &CampaignOpts,
    out: &mut dyn Write,
    transport: Option<Box<dyn Transport>>,
) -> Result<CampaignOutcome, String> {
    let base_config = opts.base_config();
    let cfg_hash = {
        // Weakened orderings change every result, so they are part of the
        // campaign identity exactly like the semantic config.
        let mut h = crate::hash::Fnv1a::new();
        h.update_u64(config_hash(&base_config));
        for &s in &opts.weaken {
            h.update_u64(s as u64);
        }
        h.finish()
    };
    let benches = select_benches(opts)?;

    let mut journal = None;
    let mut replay = JournalState::default();
    if let Some(path) = &opts.journal {
        let (j, recovered) = open_journal(path, opts, cfg_hash, &mut replay)?;
        if recovered > 0 {
            eprintln!(
                "cdsspec-campaign: journal {}: dropped {recovered} byte(s) of corrupt tail, \
                 resuming from the last valid record",
                path.display()
            );
        }
        journal = Some(j);
    }
    let cache = match &opts.cache_dir {
        Some(dir) => Some(ResultCache::open(dir).map_err(|e| e.to_string())?),
        None => None,
    };
    let mut sup = if opts.in_process && transport.is_none() {
        None
    } else {
        let mut sup_opts = opts.sup.clone();
        sup_opts.weaken = opts.weaken.clone();
        Some(match transport {
            Some(t) => Supervisor::with_transport(sup_opts, t),
            None => Supervisor::new(sup_opts),
        })
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut live_done = 0usize;
    let mut halted = false;
    for bench in &benches {
        // Journal replay: this bench already completed in a prior run of
        // the same campaign.
        if let Some((stats, suspects, abandoned)) = replay.benches.get(bench.name) {
            rows.push(Row {
                name: bench.name.to_string(),
                stats: stats.clone(),
                suspects: *suspects,
                abandoned: *abandoned,
                source: Source::JournalReplay,
            });
            continue;
        }
        let key = CacheKey {
            structure: bench.name.to_string(),
            spec_hash: spec_hash(bench),
            config_hash: cfg_hash,
        };
        if let Some(stats) = cache.as_ref().and_then(|c| c.lookup(&key)) {
            journal_bench(&mut journal, bench.name, &stats, 0, 0);
            rows.push(Row {
                name: bench.name.to_string(),
                stats,
                suspects: 0,
                abandoned: 0,
                source: Source::Cache,
            });
            continue;
        }
        if opts.halt_after.is_some_and(|n| live_done >= n) {
            halted = true;
            break;
        }
        let (stats, suspects, abandoned) = run_bench(
            bench,
            opts,
            &base_config,
            sup.as_mut(),
            &mut journal,
            &replay,
        )?;
        journal_bench(&mut journal, bench.name, &stats, suspects, abandoned);
        if suspects == 0
            && abandoned == 0
            && matches!(stats.stop, StopReason::Exhausted | StopReason::FirstBug)
        {
            if let Some(cache) = &cache {
                if let Err(e) = cache.store(&key, &stats) {
                    eprintln!("cdsspec-campaign: cache store failed: {e}");
                }
            }
        }
        live_done += 1;
        rows.push(Row {
            name: bench.name.to_string(),
            stats,
            suspects,
            abandoned,
            source: Source::Live,
        });
    }
    if let Some(sup) = &mut sup {
        sup.shutdown();
    }

    render(&rows, opts.stable, out).map_err(|e| format!("write failed: {e}"))?;

    let suspects: usize = rows.iter().map(|r| r.suspects).sum();
    let abandoned: usize = rows.iter().map(|r| r.abandoned).sum();
    let bugs: usize = rows.iter().map(|r| r.stats.bugs.len()).sum();
    let count = |s: Source| rows.iter().filter(|r| r.source == s).count();
    let summary = CampaignSummary {
        benches: rows.len(),
        live: count(Source::Live),
        cache_hits: count(Source::Cache),
        journal_hits: count(Source::JournalReplay),
        sup: sup.as_ref().map(|s| s.stats).unwrap_or_default(),
        slots: sup.as_ref().map(|s| s.slot_stats()).unwrap_or_default(),
        abandoned,
        suspects,
        halted,
        live_done,
    };

    let code = if halted || suspects + abandoned > 0 {
        EXIT_RESUMABLE
    } else if bugs > 0 {
        EXIT_BUG
    } else {
        EXIT_CLEAN
    };
    Ok(CampaignOutcome { code, summary })
}

fn select_benches(opts: &CampaignOpts) -> Result<Vec<Benchmark>, String> {
    let mut all = benchmarks();
    if let Some(names) = &opts.bench_filter {
        for name in names {
            if !all.iter().any(|b| b.name == *name) {
                let known: Vec<&str> = all.iter().map(|b| b.name).collect();
                return Err(format!(
                    "unknown benchmark {name:?}; known: {}",
                    known.join(", ")
                ));
            }
        }
        // Registry order, not filter order: output must not depend on how
        // the user spelled the filter.
        all.retain(|b| names.iter().any(|n| n == b.name));
    }
    for bench in &all {
        if let Some(&s) = opts.weaken.iter().find(|&&s| s >= bench.sites.len()) {
            return Err(format!(
                "--weaken {s} is out of range for {:?} ({} sites)",
                bench.name,
                bench.sites.len()
            ));
        }
    }
    Ok(all)
}

/// Campaign-identity fields stored in the journal header record. A resume
/// with different parameters would silently compute different rows, so it
/// is rejected instead.
fn campaign_record(opts: &CampaignOpts, cfg_hash: u64) -> Json {
    let filter = match &opts.bench_filter {
        None => "*".to_string(),
        Some(names) => names.join(","),
    };
    Json::obj(vec![
        ("rec", Json::str("campaign")),
        ("config_hash", Json::Num(cfg_hash as i128)),
        ("split", Json::num(opts.split)),
        ("filter", Json::str(filter)),
    ])
}

fn open_journal(
    path: &std::path::Path,
    opts: &CampaignOpts,
    cfg_hash: u64,
    replay: &mut JournalState,
) -> Result<(Journal, u64), String> {
    let (mut journal, recovery) = Journal::open(path).map_err(|e| e.to_string())?;
    let expected = campaign_record(opts, cfg_hash);
    if recovery.records.is_empty() {
        journal.append(&expected).map_err(|e| e.to_string())?;
        return Ok((journal, 0));
    }
    if recovery.records[0] != expected {
        return Err(crate::error::ParseError::WrongCampaign {
            path: path.to_path_buf(),
            detail: format!(
                "journal header {} vs current campaign {}",
                recovery.records[0].encode(),
                expected.encode()
            ),
        }
        .to_string());
    }
    for record in &recovery.records[1..] {
        match record.get("rec").and_then(Json::as_str) {
            Some("task") => {
                let (Some(key), Some(stats)) = (
                    record.get("key").and_then(Json::as_str),
                    record.get("stats").and_then(|s| stats_from_json(s).ok()),
                ) else {
                    continue; // CRC-valid but semantically off: recompute
                };
                replay.tasks.insert(key.to_string(), stats);
            }
            Some("bench") => {
                let (Some(name), Some(stats)) = (
                    record.get("name").and_then(Json::as_str),
                    record.get("stats").and_then(|s| stats_from_json(s).ok()),
                ) else {
                    continue;
                };
                let suspects = record.get("suspects").and_then(Json::as_usize).unwrap_or(0);
                let abandoned = record
                    .get("abandoned")
                    .and_then(Json::as_usize)
                    .unwrap_or(0);
                replay
                    .benches
                    .insert(name.to_string(), (stats, suspects, abandoned));
            }
            _ => {}
        }
    }
    Ok((journal, recovery.dropped_bytes))
}

fn journal_task(journal: &mut Option<Journal>, key: &str, stats: &Stats) {
    if let Some(journal) = journal {
        let record = Json::obj(vec![
            ("rec", Json::str("task")),
            ("key", Json::str(key)),
            ("stats", stats_to_json(stats)),
        ]);
        if let Err(e) = journal.append(&record) {
            eprintln!("cdsspec-campaign: journal append failed: {e}");
        }
    }
}

fn journal_bench(
    journal: &mut Option<Journal>,
    name: &str,
    stats: &Stats,
    suspects: usize,
    abandoned: usize,
) {
    if let Some(journal) = journal {
        let record = Json::obj(vec![
            ("rec", Json::str("bench")),
            ("name", Json::str(name)),
            ("stats", row_to_json(stats)),
            ("suspects", Json::num(suspects as u64)),
            ("abandoned", Json::num(abandoned as u64)),
        ]);
        if let Err(e) = journal.append(&record) {
            eprintln!("cdsspec-campaign: journal append failed: {e}");
        }
    }
}

/// Probe, optionally split, execute, merge: one benchmark's row.
fn run_bench(
    bench: &Benchmark,
    opts: &CampaignOpts,
    base_config: &Config,
    mut sup: Option<&mut Supervisor>,
    journal: &mut Option<Journal>,
    replay: &JournalState,
) -> Result<(Stats, usize, usize), String> {
    let probe_cap = if opts.split > 0 {
        opts.split.min(opts.max_executions)
    } else {
        opts.max_executions
    };
    let probe_spec = TaskSpec {
        bench: bench.name.to_string(),
        shard: ShardSpec::root(),
        max_executions: probe_cap,
    };
    let probe = run_tasks(
        vec![probe_spec.clone()],
        opts,
        base_config,
        sup.as_deref_mut(),
        journal,
        replay,
    )
    .pop()
    .expect("one probe outcome");

    let probe_stats = match probe {
        Outcome::Done(stats) => stats,
        Outcome::Quarantined { .. } => {
            // The whole benchmark crashes its workers: report it suspect
            // with an errored, resumable row (its shard is the root).
            return Ok((errored_root_stats(), 1, 0));
        }
        Outcome::Abandoned => {
            return Ok((errored_root_stats(), 0, 1));
        }
    };

    // Fan out only when the probe was cut by its cap and left work.
    let leftover = probe_stats.shard_frontiers.clone();
    if opts.split == 0 || probe_stats.stop != StopReason::ExecutionCap || leftover.is_empty() {
        return Ok((probe_stats, 0, 0));
    }
    // A capped probe's frontier runs from its deepest sibling subtree to
    // its shallowest, the biggest: dispatch it reversed, largest first,
    // so no worker is left with the biggest shard at the end, and merge
    // in frontier order, so the row does not depend on dispatch order.
    let mut shard_specs: Vec<TaskSpec> = leftover
        .into_iter()
        .rev()
        .map(|shard| TaskSpec {
            bench: bench.name.to_string(),
            shard,
            max_executions: opts.max_executions,
        })
        .collect();
    let mut outcomes = run_tasks(shard_specs.clone(), opts, base_config, sup, journal, replay);
    shard_specs.reverse();
    outcomes.reverse();
    Ok(merge(probe_stats, &shard_specs, outcomes))
}

/// The row for a benchmark whose probe never completed: zero counters,
/// errored, with the whole (root) shard left on the resumable frontier.
fn errored_root_stats() -> Stats {
    Stats {
        stop: StopReason::Errored,
        shard_frontiers: vec![ShardSpec::root()],
        ..Stats::default()
    }
}

/// Execute a batch of tasks, answering journaled tasks without running
/// them and journaling fresh completions.
fn run_tasks(
    specs: Vec<TaskSpec>,
    opts: &CampaignOpts,
    base_config: &Config,
    sup: Option<&mut Supervisor>,
    journal: &mut Option<Journal>,
    replay: &JournalState,
) -> Vec<Outcome> {
    let keys: Vec<String> = specs
        .iter()
        .map(|s| task_key(&s.bench, &s.shard, s.max_executions))
        .collect();
    match sup {
        Some(sup) => {
            let mut table = TaskTable::new(
                specs,
                opts.sup.lease,
                Duration::from_millis(50),
                opts.sup.max_attempts,
            );
            for (id, key) in keys.iter().enumerate() {
                if let Some(stats) = replay.tasks.get(key) {
                    table.preload_done(id, stats.clone());
                }
            }
            sup.run_batch(base_config, &mut table, |id, stats| {
                journal_task(journal, &keys[id], stats);
            });
            table.outcomes()
        }
        None => {
            // The same task executor a worker runs, minus the fault
            // injection that only makes sense across a process boundary.
            let worker = WorkerOpts {
                heartbeat: opts.sup.heartbeat,
                worker_threads: opts.sup.worker_threads,
                poison: None,
            };
            specs
                .into_iter()
                .zip(keys)
                .enumerate()
                .map(|(id, (spec, key))| {
                    if let Some(stats) = replay.tasks.get(&key) {
                        return Outcome::Done(stats.clone());
                    }
                    let mut config = base_config.clone();
                    config.max_executions = spec.max_executions;
                    let reply = execute_run(
                        id as u64,
                        spec.bench,
                        spec.shard,
                        config,
                        &opts.weaken,
                        &worker,
                    );
                    match reply {
                        FromWorker::Result { stats, .. } => {
                            journal_task(journal, &key, &stats);
                            Outcome::Done(stats)
                        }
                        _ => Outcome::Quarantined { attempts: 1 },
                    }
                })
                .collect()
        }
    }
}

/// Fold task outcomes (in frontier order) into the probe's stats with
/// [`Stats::merge`]: each task's bugs number after the executions folded
/// before it. Quarantined and abandoned shards stay on the frontier — the
/// row is resumable — and force `StopReason::Errored`.
///
/// Frontier order is DFS order, so the first shard that stopped on its
/// first bug is where one explorer draining the frontier would have
/// stopped: the shards after it count nothing and stay on the frontier,
/// and the row equals the unsplit one at any fan-out.
fn merge(probe: Stats, specs: &[TaskSpec], outcomes: Vec<Outcome>) -> (Stats, usize, usize) {
    let mut merged = probe;
    let mut stop = StopReason::Exhausted;
    let mut leftover: Vec<ShardSpec> = Vec::new();
    let mut suspects = 0;
    let mut abandoned = 0;
    let mut first_bug = false;
    for (spec, outcome) in specs.iter().zip(outcomes) {
        if first_bug {
            if let Outcome::Done(s) = &outcome {
                merged.elapsed += s.elapsed;
            }
            leftover.push(spec.shard.clone());
            continue;
        }
        match outcome {
            Outcome::Done(mut s) => {
                first_bug = s.stop == StopReason::FirstBug;
                stop = stop.worst(s.stop);
                leftover.append(&mut s.shard_frontiers);
                merged.merge(s);
            }
            Outcome::Quarantined { .. } => {
                suspects += 1;
                stop = stop.worst(StopReason::Errored);
                leftover.push(spec.shard.clone());
            }
            Outcome::Abandoned => {
                abandoned += 1;
                stop = stop.worst(StopReason::Errored);
                leftover.push(spec.shard.clone());
            }
        }
    }
    merged.stop = stop;
    merged.shard_frontiers = leftover;
    (merged, suspects, abandoned)
}

fn render(rows: &[Row], stable: bool, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "{:<22} {:>12} {:>12} {:>6} {:>5}  {:<13} {:>10}",
        "Structure", "#Execs", "#Feasible", "Peak", "Bugs", "Stop", "Time"
    )?;
    writeln!(out, "{}", "-".repeat(88))?;
    for row in rows {
        let time = if stable {
            "-".to_string()
        } else {
            format!("{:.2?}", row.stats.elapsed)
        };
        let suspect = if row.suspects + row.abandoned > 0 {
            format!("  SUSPECT({})", row.suspects + row.abandoned)
        } else {
            String::new()
        };
        writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>6} {:>5}  {:<13} {:>10}{}",
            row.name,
            row.stats.executions,
            row.stats.feasible,
            row.stats.peak_depth,
            row.stats.bugs.len(),
            row.stats.stop.to_string(),
            time,
            suspect
        )?;
        for bug in &row.stats.bugs {
            writeln!(out, "    bug: {}", bug.bug)?;
        }
    }
    writeln!(out, "{}", "-".repeat(88))?;
    let execs: u64 = rows.iter().map(|r| r.stats.executions).sum();
    let bugs: usize = rows.iter().map(|r| r.stats.bugs.len()).sum();
    let suspects: usize = rows.iter().map(|r| r.suspects + r.abandoned).sum();
    writeln!(
        out,
        "Total: {} benchmark(s), {execs} executions, {bugs} bug(s), {suspects} suspect shard(s)",
        rows.len()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bench: &str) -> TaskSpec {
        TaskSpec {
            bench: bench.into(),
            shard: ShardSpec {
                floor: 1,
                script: vec![7],
            },
            max_executions: 10,
        }
    }

    fn assertion(message: String, execution: u64) -> cdsspec_mc::FoundBug {
        cdsspec_mc::FoundBug {
            bug: cdsspec_mc::Bug::Restored {
                category: cdsspec_mc::BugCategory::Assertion,
                message,
            },
            execution,
            trace: String::new(),
            worker: 0,
            shard: vec![],
        }
    }

    #[test]
    fn merge_is_order_of_tasks_not_completion() {
        let probe = Stats {
            executions: 5,
            feasible: 3,
            stop: StopReason::ExecutionCap,
            ..Stats::default()
        };
        let a = Stats {
            executions: 10,
            feasible: 6,
            peak_depth: 4,
            stop: StopReason::Exhausted,
            ..Stats::default()
        };
        let b = Stats {
            executions: 20,
            feasible: 12,
            peak_depth: 9,
            stop: StopReason::Exhausted,
            ..Stats::default()
        };
        let specs = [spec("X"), spec("X")];
        let (m1, s1, a1) = merge(
            probe.clone(),
            &specs,
            vec![Outcome::Done(a.clone()), Outcome::Done(b.clone())],
        );
        assert_eq!((s1, a1), (0, 0));
        assert_eq!(m1.executions, 35);
        assert_eq!(m1.feasible, 21);
        assert_eq!(m1.peak_depth, 9);
        assert_eq!(
            m1.stop,
            StopReason::Exhausted,
            "probe's cap is not inherited"
        );
        assert!(m1.frontier().is_none());
    }

    #[test]
    fn merge_stops_counting_after_the_first_first_bug_shard() {
        let probe = Stats {
            executions: 5,
            stop: StopReason::ExecutionCap,
            ..Stats::default()
        };
        let bug = |message: &str| assertion(message.into(), 1);
        let clean = Stats {
            executions: 10,
            stop: StopReason::Exhausted,
            ..Stats::default()
        };
        let buggy = Stats {
            executions: 3,
            bugs: vec![bug("first")],
            stop: StopReason::FirstBug,
            shard_frontiers: vec![ShardSpec {
                floor: 1,
                script: vec![1],
            }],
            ..Stats::default()
        };
        let later = Stats {
            executions: 50,
            bugs: vec![bug("later")],
            stop: StopReason::FirstBug,
            ..Stats::default()
        };
        let specs = [spec("X"), spec("X"), spec("X")];
        let (m, _, _) = merge(
            probe,
            &specs,
            vec![
                Outcome::Done(clean),
                Outcome::Done(buggy),
                Outcome::Done(later),
            ],
        );
        assert_eq!(m.executions, 18, "the shard after the bug counts nothing");
        assert_eq!(m.bugs.len(), 1);
        assert_eq!(m.stop, StopReason::FirstBug);
        let left = m.shard_frontiers;
        assert_eq!(left.len(), 2, "the bug shard's rest, then the later shard");
        assert_eq!(left[1], specs[2].shard);
    }

    /// A split row keeps every counter of its tasks, not only the
    /// probe's: pruned branches sum and rf classes union.
    #[test]
    fn merge_keeps_task_pruning_and_rf_classes() {
        let probe = Stats {
            executions_pruned: 1,
            rf_classes: [1].into(),
            stop: StopReason::ExecutionCap,
            ..Stats::default()
        };
        let task = Stats {
            executions_pruned: 5,
            rf_classes: [2].into(),
            ..Stats::default()
        };
        let (m, _, _) = merge(probe, &[spec("X")], vec![Outcome::Done(task)]);
        assert_eq!(m.executions_pruned, 6);
        assert_eq!(m.rf_classes, [1, 2].into());
    }

    #[test]
    fn quarantined_shards_stay_on_frontier_and_error_the_row() {
        let probe = Stats {
            executions: 5,
            stop: StopReason::ExecutionCap,
            ..Stats::default()
        };
        let done = Stats {
            executions: 10,
            stop: StopReason::Exhausted,
            ..Stats::default()
        };
        let specs = [spec("X"), spec("X")];
        let (m, suspects, abandoned) = merge(
            probe,
            &specs,
            vec![Outcome::Done(done), Outcome::Quarantined { attempts: 3 }],
        );
        assert_eq!(suspects, 1);
        assert_eq!(abandoned, 0);
        assert_eq!(m.stop, StopReason::Errored);
        assert_eq!(
            m.shard_frontiers,
            vec![specs[1].shard.clone()],
            "the unexplored quarantined shard is resumable"
        );
    }

    #[test]
    fn merged_bugs_dedup_and_number_after_the_probe() {
        let probe = Stats {
            executions: 5,
            bugs: vec![assertion("dup".into(), 1)],
            stop: StopReason::ExecutionCap,
            ..Stats::default()
        };
        let task = Stats {
            bugs: vec![assertion("dup".into(), 9), assertion("other".into(), 2)],
            stop: StopReason::Exhausted,
            ..Stats::default()
        };
        let specs = [spec("X")];
        let (m, _, _) = merge(probe, &specs, vec![Outcome::Done(task)]);
        assert_eq!(m.bugs.len(), 2);
        assert_eq!(m.bugs[0].execution, 1, "first occurrence wins");
        assert_eq!(m.bugs[1].execution, 7, "numbered after the probe");
    }

    #[test]
    fn merged_bugs_keep_the_record_cap() {
        let probe = Stats {
            stop: StopReason::ExecutionCap,
            ..Stats::default()
        };
        let task = |name: &str| Stats {
            bugs: (0..20)
                .map(|i| assertion(format!("{name} {i}"), i))
                .collect(),
            stop: StopReason::Exhausted,
            ..Stats::default()
        };
        let specs = [spec("X"), spec("X")];
        let (m, _, _) = merge(
            probe,
            &specs,
            vec![Outcome::Done(task("a")), Outcome::Done(task("b"))],
        );
        assert_eq!(m.bugs.len(), 24);
        assert_eq!(m.bugs[23].bug.to_string(), "b 3", "earlier tasks first");
    }

    /// A cached row comes back without its rf-class hashes and with
    /// every other field intact, so the warm report renders the cold
    /// report's bytes.
    #[test]
    fn cached_row_drops_its_classes_and_renders_the_live_bytes() {
        use cdsspec_mc::{Bug, BugCategory, FoundBug};
        let dir = std::env::temp_dir().join(format!("cdsspec-row-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let key = CacheKey {
            structure: "MPMC Queue".into(),
            spec_hash: 1,
            config_hash: 2,
        };
        let live = Stats {
            executions: 4705,
            feasible: 3936,
            executions_pruned: 12,
            peak_depth: 24,
            rf_classes: [3, 7, u64::MAX].into(),
            bugs: vec![FoundBug {
                bug: Bug::Restored {
                    category: BugCategory::Assertion,
                    message: "queue lost an item".into(),
                },
                execution: 17,
                trace: String::new(),
                worker: 1,
                shard: vec![0, 2],
            }],
            stop: StopReason::FirstBug,
            elapsed: Duration::from_millis(80),
            ..Stats::default()
        };
        cache.store(&key, &live).unwrap();
        let hit = cache.lookup(&key).expect("stored row hits");
        assert!(hit.rf_classes.is_empty(), "a cached row has no classes");
        let classless = Stats {
            rf_classes: Default::default(),
            ..live.clone()
        };
        assert_eq!(stats_to_json(&hit), stats_to_json(&classless));
        let report = |stats: Stats, source| {
            let row = Row {
                name: key.structure.clone(),
                stats,
                suspects: 0,
                abandoned: 0,
                source,
            };
            let mut out = Vec::new();
            render(&[row], true, &mut out).unwrap();
            out
        };
        assert_eq!(report(hit, Source::Cache), report(live, Source::Live));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_is_deterministic_and_masks_time_under_stable() {
        let rows = vec![Row {
            name: "SPSC Queue".into(),
            stats: Stats {
                executions: 18,
                feasible: 18,
                peak_depth: 6,
                elapsed: Duration::from_millis(3),
                ..Stats::default()
            },
            suspects: 0,
            abandoned: 0,
            source: Source::Live,
        }];
        let mut a = Vec::new();
        render(&rows, true, &mut a).unwrap();
        let mut b = Vec::new();
        render(&rows, true, &mut b).unwrap();
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert!(!text.contains("3.00ms"), "{text}");
        assert!(text.contains("SPSC Queue"));
        assert!(text.contains("Total: 1 benchmark(s), 18 executions"));

        let mut c = Vec::new();
        render(&rows, false, &mut c).unwrap();
        assert!(String::from_utf8(c).unwrap().contains("ms"));
    }

    #[test]
    fn campaign_record_captures_identity() {
        let opts = CampaignOpts::default();
        let h = config_hash(&opts.base_config());
        let a = campaign_record(&opts, h);
        let mut other = opts.clone();
        other.split = 500;
        assert_ne!(campaign_record(&other, h), a, "split is identity");
        let mut filt = opts.clone();
        filt.bench_filter = Some(vec!["RCU".into()]);
        assert_ne!(campaign_record(&filt, h), a, "filter is identity");
        let mut cfg = opts.clone();
        cfg.max_executions += 1;
        assert_ne!(
            campaign_record(&cfg, config_hash(&cfg.base_config())),
            a,
            "config hash is identity"
        );
    }
}
