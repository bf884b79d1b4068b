//! Regenerates **Figure 7** of the paper: per-benchmark exploration
//! statistics (# executions, # feasible, total time) for the standard
//! unit tests under the CDSSpec checker with correct orderings.
//!
//! Absolute counts differ from the paper's — CDSChecker enumerates
//! execution graphs with promises, we enumerate schedules × reads-from
//! choices — so the paper's numbers are printed alongside for the shape
//! comparison recorded in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p cdsspec-bench --release --bin figure7 -- \
//!     [--time-budget <secs>] [--resume <path>] [--checkpoint <path>] \
//!     [--workers <n>] [--stable] [--no-rf-prune]
//! ```
//!
//! With `--time-budget`, an expiring run writes a checkpoint (completed
//! rows plus a mid-tree exploration checkpoint of the interrupted
//! benchmark) and exits with status 3; `--resume` continues it. Resumed
//! runs report exactly the execution/feasible counts of a
//! straight-through run — including parallel runs, whose checkpoints
//! carry one frontier shard per abandoned subtree.
//!
//! `--workers <n>` sets the explorer thread count (default: available
//! parallelism). All benchmarks here explore exhaustively, so the
//! execution/feasible counts are identical at every worker count;
//! `--stable` masks the time column so the identity can be checked with
//! `diff <(figure7 --stable --workers 1) <(figure7 --stable --workers 4)`.
//!
//! `--no-rf-prune` disables reads-from equivalence pruning. Execution
//! counts rise several-fold but the bug verdicts and rf-class counts are
//! identical — the differential the pruning soundness tests pin down
//! (see `ARCHITECTURE.md`, *Exploration identity and rf-equivalence
//! pruning*).

use std::process::exit;

use cdsspec_bench::{
    exec_per_sec, load_checkpoint, remaining, store_checkpoint, Figure7Checkpoint, HarnessArgs,
    SavedRow7, EXIT_INTERRUPTED,
};
use cdsspec_mc as mc;
use cdsspec_structures::registry::benchmarks;

/// Paper-reported (executions, feasible, seconds) per Figure 7 row.
const PAPER: &[(&str, u64, u64, f64)] = &[
    ("Chase-Lev Deque", 893, 158, 0.10),
    ("SPSC Queue", 18, 15, 0.01),
    ("RCU", 47, 18, 0.01),
    ("Lockfree Hashtable", 6, 6, 0.01),
    ("MCS Lock", 21_126, 13_786, 3.00),
    ("MPMC Queue", 2_911, 1_274, 4.83),
    ("M&S Queue", 296, 150, 0.03),
    ("Linux RW Lock", 69_386, 1_822, 13.71),
    ("Seqlock", 89, 36, 0.01),
    ("Ticket Lock", 1_790, 978, 0.17),
];

fn print_row(row: &SavedRow7, resumed: bool, stable: bool) {
    let paper = PAPER.iter().find(|(n, ..)| *n == row.name);
    let (pe, pf, pt) = paper
        .map(|(_, e, f, t)| (*e, *f, *t))
        .unwrap_or((0, 0, 0.0));
    let truncated = !matches!(row.stop.as_str(), "exhausted" | "first-bug");
    // `--stable` masks the wall-clock column — the only timing-dependent
    // field — so worker counts can be compared with a plain `diff`.
    let ours_t = if stable {
        format!("{:>10}", "-")
    } else {
        format!("{:>10.2}", row.elapsed_ns as f64 / 1e9)
    };
    println!(
        "{:<20} {:>12} {:>12} {}   {:>12} {:>12} {:>10.2}{}{}{}",
        row.name,
        row.executions,
        row.feasible,
        ours_t,
        pe,
        pf,
        pt,
        if truncated { "  [truncated]" } else { "" },
        if resumed { "  [from checkpoint]" } else { "" },
        if row.buggy {
            "  [BUG — should not happen with correct orderings!]"
        } else {
            ""
        },
    );
}

fn save_and_exit(args: &HarnessArgs, ckpt: &Figure7Checkpoint) -> ! {
    let Some(path) = args.checkpoint_path() else {
        eprintln!(
            "\ntime budget exhausted and no --checkpoint/--resume path given; \
             partial results are lost"
        );
        exit(EXIT_INTERRUPTED);
    };
    if let Err(e) = store_checkpoint(path, &ckpt.to_text()) {
        eprintln!("\n{e}");
        exit(1);
    }
    eprintln!(
        "\ntime budget exhausted after {} completed row(s); checkpoint written to {}; \
         rerun with --resume {2} to continue",
        ckpt.done.len(),
        path.display(),
        path.display()
    );
    exit(EXIT_INTERRUPTED);
}

fn main() {
    let args = match HarnessArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("figure7: {e}");
            exit(2);
        }
    };
    let mut state = Figure7Checkpoint::default();
    // A missing resume file is a fresh start, not an error: the binary
    // deletes its checkpoint on completion, so `until figure7 --resume
    // ck; do :; done` works from the first invocation.
    if let Some(path) = args.resume.as_ref().filter(|p| p.exists()) {
        match load_checkpoint(path, Figure7Checkpoint::from_text) {
            Ok(ck) => state = ck,
            Err(e) => {
                eprintln!("figure7: {e}");
                exit(2);
            }
        }
    }
    let deadline = args.deadline();

    println!("Figure 7 — benchmark results (ours vs. paper)\n");
    println!(
        "{:<20} {:>12} {:>12} {:>10}   {:>12} {:>12} {:>10}",
        "Benchmark", "# Exec", "# Feasible", "Time (s)", "paper Exec", "paper Feas", "paper s"
    );
    println!("{}", "-".repeat(96));

    let mut total_ok = true;
    for bench in benchmarks() {
        if let Some(saved) = state.done.iter().find(|r| r.name == bench.name) {
            total_ok &= !saved.buggy;
            print_row(saved, true, args.stable);
            continue;
        }

        let budget = remaining(deadline);
        if budget.is_some_and(|b| b.is_zero()) {
            save_and_exit(&args, &state);
        }
        let mut config = mc::Config {
            max_executions: 3_000_000,
            time_budget: budget,
            workers: args.mc_workers(),
            rf_prune: args.rf_prune,
            ..mc::Config::default()
        };
        // Pick up mid-tree if a previous run was interrupted inside this
        // benchmark's exploration. A parallel run leaves several frontier
        // shards; resuming through `resume_shards` replays exactly the
        // unexplored remainder, regardless of the worker count now.
        let prior = match state.current.take() {
            Some((name, ckpt)) if name == bench.name => {
                let shards = ckpt.stats.frontier_shards();
                if shards.len() > 1 || shards.iter().any(|s| s.floor != 0) {
                    config.resume_shards = Some(shards);
                } else {
                    config.resume_script = Some(ckpt.script.clone());
                }
                Some(ckpt.stats)
            }
            other => {
                state.current = other;
                None
            }
        };
        let fresh = bench.check_default(config);
        let stats = match prior {
            Some(mut p) => {
                p.continue_with(fresh);
                p
            }
            None => fresh,
        };

        if stats.stop == mc::StopReason::Deadline {
            let ckpt = stats
                .checkpoint()
                .expect("a deadline stop leaves a frontier");
            state.current = Some((bench.name.to_string(), ckpt));
            save_and_exit(&args, &state);
        }

        let row = SavedRow7 {
            name: bench.name.to_string(),
            executions: stats.executions,
            feasible: stats.feasible,
            elapsed_ns: stats.elapsed.as_nanos(),
            peak_depth: stats.peak_depth,
            stop: stats.stop.to_string(),
            buggy: stats.buggy(),
            executions_pruned: stats.executions_pruned,
            rf_classes: stats.rf_classes.len() as u64,
        };
        total_ok &= !row.buggy;
        print_row(&row, false, args.stable);
        state.done.push(row);
    }

    // A completed run leaves no checkpoint behind.
    if let Some(path) = args.checkpoint_path() {
        let _ = std::fs::remove_file(path);
    }
    // Throughput summary. Executions, pruned branches, rf classes and
    // peak depth are deterministic across worker counts; only the rate is
    // timing-dependent, so only the rate is masked under `--stable`.
    let total_exec: u64 = state.done.iter().map(|r| r.executions).sum();
    let total_ns: u128 = state.done.iter().map(|r| r.elapsed_ns).sum();
    let depth = state.done.iter().map(|r| r.peak_depth).max().unwrap_or(0);
    let pruned: u64 = state.done.iter().map(|r| r.executions_pruned).sum();
    let classes: u64 = state.done.iter().map(|r| r.rf_classes).sum();
    let rate = if args.stable {
        "-".to_string()
    } else {
        format!("{:.0}", exec_per_sec(total_exec, total_ns))
    };
    println!(
        "\nThroughput: {total_exec} executions at {rate} exec/s, {pruned} rf-pruned \
         branches, {classes} rf classes, peak frontier depth {depth}."
    );
    // Named from the execution counts (deterministic), not the timings.
    let dominant = state
        .done
        .iter()
        .max_by_key(|r| r.executions)
        .map_or("-", |r| r.name.as_str());
    println!(
        "\nAll benchmarks clean: {}. Shape claim preserved: every benchmark finishes \
         at unit-test scale (the paper's slowest row took 13.71 s; ours stays within \
         the same order). Which benchmark dominates differs — the paper's RW lock vs \
         our {dominant}, the row with the most executions — because the enumeration \
         strategies weigh spin loops and rf choices differently (DESIGN.md §2.2).",
        total_ok
    );
}
