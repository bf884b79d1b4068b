//! # cdsspec-inject
//!
//! The fault-injection framework behind the paper's §6.4.2 experiment
//! (Figure 8) and the §6.4.3 overly-strong-parameter search.
//!
//! An injection weakens exactly one memory-order parameter of one atomic
//! operation to its next-weaker value (`seq_cst → acq_rel`,
//! `acq_rel → release/acquire`, `acquire/release → relaxed`) and re-runs
//! the benchmark's standard unit test under the CDSSpec checker. The first
//! defect found classifies the detection:
//!
//! * **Built-in** — CDSChecker-style checks (data race, uninitialized
//!   load, deadlock, panic);
//! * **Admissibility** — the execution left required-ordered calls
//!   unordered;
//! * **Assertion** — a specification condition failed.
//!
//! ## Resilience
//!
//! A campaign is only useful if it finishes: one crashing trial must not
//! take the other several dozen rows down with it. Every `check` call is
//! therefore run under [`std::panic::catch_unwind`]; a panicking trial is
//! retried **once** at a reduced budget (a tenth of the execution cap,
//! half the time budget), and if the retry also dies the trial is
//! recorded as [`Trial::errored`] rather than aborting the campaign.
//! Trials whose exploration ended with [`mc::StopReason::Errored`] (a
//! specification plugin panicked and the checker contained it) are
//! classified the same way — an errored trial is *no verdict*, not an
//! assertion detection.
//!
//! ## Parallelism
//!
//! Campaigns dispatch their trials across [`mc::Config::workers`]
//! threads — the caller plus scoped threads from the exploration engine's
//! own fan-out ([`mc::run_shard_threads`]); each trial explores on one
//! worker, so the parallelism budget is spent *across* trials (which are
//! fully independent) rather than nested inside them. Results come back
//! in site order at every worker count — a parallel campaign's rows are
//! identical to a one-thread one's.

#![warn(missing_docs)]

use cdsspec_mc as mc;
use cdsspec_structures::registry::Benchmark;
use cdsspec_structures::Ords;

use cdsspec_c11::MemOrd;
use mc::BugCategory;

/// Outcome of one single-site injection trial.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Weakened site name.
    pub site: &'static str,
    /// Ordering before weakening.
    pub from: MemOrd,
    /// Ordering after weakening.
    pub to: MemOrd,
    /// First detection category, or `None` if the weakened structure
    /// passed every check.
    pub detected: Option<BugCategory>,
    /// First bug message (diagnostics).
    pub message: Option<String>,
    /// Executions explored in the trial.
    pub executions: u64,
    /// Branches suppressed by rf-equivalence pruning during the trial.
    pub executions_pruned: u64,
    /// Distinct reads-from equivalence classes among the trial's
    /// completed executions.
    pub rf_classes: u64,
    /// Wall-clock of the trial's exploration, in nanoseconds.
    pub elapsed_ns: u128,
    /// Deepest DFS frontier the trial's exploration reached.
    pub peak_depth: u64,
    /// The trial produced no usable verdict: the benchmark's `check`
    /// panicked twice (initial attempt plus the reduced-budget retry) or
    /// the exploration stopped with [`mc::StopReason::Errored`].
    pub errored: bool,
}

/// Per-benchmark aggregate (one Figure 8 row).
#[derive(Clone, Debug, Default)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Number of injections performed.
    pub injections: usize,
    /// Detected by built-in checks.
    pub builtin: usize,
    /// Detected as admissibility failures.
    pub admissibility: usize,
    /// Detected as specification (assertion) violations.
    pub assertion: usize,
    /// Trials with no usable verdict (see [`Trial::errored`]).
    pub errored: usize,
}

impl Row {
    /// Total detections. Errored trials are not detections.
    pub fn detected(&self) -> usize {
        self.builtin + self.admissibility + self.assertion
    }

    /// Detection rate in percent (100 when nothing was injectable).
    /// Errored trials count against the rate: a trial we could not judge
    /// is conservatively reported as a miss.
    pub fn rate(&self) -> f64 {
        if self.injections == 0 {
            100.0
        } else {
            100.0 * self.detected() as f64 / self.injections as f64
        }
    }
}

/// Render a panic payload for diagnostics.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one trial's `check` under panic containment.
///
/// A panicking attempt gets exactly one retry at a reduced budget — a
/// tenth of the execution cap and half the wall-clock budget — on the
/// theory that crashes in modeled code often depend on how deep the
/// exploration gets. If both attempts die, a synthetic
/// [`mc::StopReason::Errored`] result is returned so the campaign keeps
/// its row. The second tuple element carries panic diagnostics, if any.
fn run_guarded(bench: &Benchmark, config: &mc::Config, ords: &Ords) -> (mc::Stats, Option<String>) {
    let attempt = |cfg: mc::Config| {
        let ords = ords.clone();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (bench.check)(cfg, ords)))
    };
    match attempt(config.clone()) {
        Ok(stats) => (stats, None),
        Err(payload) => {
            let first = panic_text(payload.as_ref());
            let reduced = mc::Config {
                max_executions: (config.max_executions / 10).max(1),
                time_budget: config.time_budget.map(|d| d / 2),
                ..config.clone()
            };
            match attempt(reduced) {
                Ok(stats) => {
                    let note =
                        format!("check panicked, retry at reduced budget succeeded: {first}");
                    (stats, Some(note))
                }
                Err(second) => {
                    let stats = mc::Stats {
                        stop: mc::StopReason::Errored,
                        ..mc::Stats::default()
                    };
                    let note = format!(
                        "check panicked twice: {first}; retry: {}",
                        panic_text(second.as_ref())
                    );
                    (stats, Some(note))
                }
            }
        }
    }
}

/// Run one single-site trial: apply `weaken` to a fresh default ordering
/// set, check under panic containment, and classify the first defect.
/// Returns `None` when `weaken` declines the site (nothing to inject).
fn run_trial(
    bench: &Benchmark,
    config: &mc::Config,
    site_idx: usize,
    weaken: impl Fn(&mut Ords, usize) -> bool,
) -> Option<Trial> {
    let mut ords = Ords::defaults(bench.sites);
    let from = ords.get(site_idx);
    if !weaken(&mut ords, site_idx) {
        return None;
    }
    let to = ords.get(site_idx);
    let (stats, note) = run_guarded(bench, config, &ords);
    let errored = stats.stop == mc::StopReason::Errored;
    let detected = if errored {
        None
    } else {
        stats.bugs.first().map(|b| b.bug.category())
    };
    let bug_message = stats.bugs.first().map(|b| b.bug.to_string());
    let message = if errored {
        note.or(bug_message)
    } else {
        bug_message.or(note)
    };
    Some(Trial {
        benchmark: bench.name,
        site: bench.sites[site_idx].name,
        from,
        to,
        detected,
        message,
        executions: stats.executions,
        executions_pruned: stats.executions_pruned,
        rf_classes: stats.rf_classes.len() as u64,
        elapsed_ns: stats.elapsed.as_nanos(),
        peak_depth: stats.peak_depth,
        errored,
    })
}

/// Dispatch one trial per injectable site across `Config::workers`
/// threads, the caller included, and return the outcomes **in site
/// order**, independent of thread timing. Each trial's own exploration
/// runs on one worker (`workers: 1`) — the parallelism budget is spent
/// across trials, not nested inside them, which keeps thread count
/// bounded and keeps every individual trial's statistics identical to a
/// one-thread campaign's.
fn dispatch_trials(
    bench: &Benchmark,
    config: &mc::Config,
    weaken: impl Fn(&mut Ords, usize) -> bool + Sync,
) -> Vec<Trial> {
    let sites = bench.default_ords().injectable_sites();
    let trial_config = mc::Config {
        workers: 1,
        ..config.clone()
    };
    let workers = config.effective_workers().min(sites.len().max(1));
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let ran = mc::run_shard_threads(vec![(); workers], |_, ()| {
        let mut mine = Vec::new();
        loop {
            let k = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(&site_idx) = sites.get(k) else {
                break mine;
            };
            mine.extend(run_trial(bench, &trial_config, site_idx, &weaken).map(|t| (k, t)));
        }
    });
    let mut trials = Vec::with_capacity(sites.len());
    for r in ran {
        match r {
            Ok(mine) => trials.extend(mine),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    trials.sort_by_key(|&(k, _)| k);
    trials.into_iter().map(|(_, t)| t).collect()
}

/// Run the full one-step-weakening campaign against one benchmark,
/// trials dispatched across [`mc::Config::workers`] threads.
///
/// Never panics out of a trial: see the module-level *Resilience* notes.
/// The returned row always covers every injectable site, in site order,
/// at every worker count.
pub fn inject_benchmark(bench: &Benchmark, config: &mc::Config) -> (Row, Vec<Trial>) {
    let trials = dispatch_trials(bench, config, |ords, i| ords.weaken(i));
    let mut row = Row {
        name: bench.name,
        injections: trials.len(),
        ..Row::default()
    };
    for t in &trials {
        if t.errored {
            row.errored += 1;
        } else {
            match t.detected {
                Some(BugCategory::BuiltIn) | Some(BugCategory::Internal) => row.builtin += 1,
                Some(BugCategory::Admissibility) => row.admissibility += 1,
                Some(BugCategory::Assertion) => row.assertion += 1,
                None => {}
            }
        }
    }
    (row, trials)
}

/// Run the campaign over a benchmark suite.
pub fn run_campaign(benchmarks: &[Benchmark], config: &mc::Config) -> Vec<(Row, Vec<Trial>)> {
    benchmarks
        .iter()
        .map(|b| inject_benchmark(b, config))
        .collect()
}

/// §6.4.3: drop each non-relaxed site of a benchmark all the way to
/// `relaxed` and report the sites that trigger **no** violation — the
/// candidates for overly strong memory-order parameters.
///
/// Errored trials are **not** survivors: a crashed check is no evidence
/// that the site tolerates `relaxed`. Trials run across
/// [`mc::Config::workers`] threads like [`inject_benchmark`]'s.
pub fn find_overly_strong(bench: &Benchmark, config: &mc::Config) -> Vec<Trial> {
    dispatch_trials(bench, config, |ords, i| {
        ords.set(i, MemOrd::Relaxed);
        true
    })
    .into_iter()
    .filter(|t| !t.errored && t.detected.is_none())
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsspec_structures::registry::benchmarks;

    fn quick_config() -> mc::Config {
        let cap = if cfg!(debug_assertions) {
            15_000
        } else {
            30_000
        };
        mc::Config {
            max_executions: cap,
            ..mc::Config::default()
        }
    }

    #[test]
    fn row_arithmetic() {
        let row = Row {
            name: "x",
            injections: 5,
            builtin: 1,
            admissibility: 1,
            assertion: 1,
            errored: 1,
        };
        assert_eq!(row.detected(), 3, "errored trials are not detections");
        assert!(
            (row.rate() - 60.0).abs() < 1e-9,
            "errored trials count against the rate"
        );
        assert_eq!(Row::default().rate(), 100.0);
    }

    /// The ticket lock has exactly two injectable sites and both
    /// injections must be caught (the paper's 2/2 row).
    #[test]
    fn ticket_lock_row_matches_paper_shape() {
        let bench = benchmarks()
            .into_iter()
            .find(|b| b.name == "Ticket Lock")
            .unwrap();
        let (row, trials) = inject_benchmark(&bench, &quick_config());
        assert_eq!(row.injections, 2, "{trials:?}");
        assert_eq!(row.detected(), 2, "{trials:?}");
    }

    /// RCU's injections are all caught by built-in checks (the paper's
    /// 3/3-built-in row shape).
    #[test]
    fn rcu_detections_are_builtin() {
        let bench = benchmarks().into_iter().find(|b| b.name == "RCU").unwrap();
        let (row, trials) = inject_benchmark(&bench, &quick_config());
        assert!(row.injections >= 2);
        assert_eq!(row.detected(), row.injections, "{trials:?}");
        assert_eq!(
            row.builtin,
            row.detected(),
            "all RCU detections are built-in: {trials:?}"
        );
    }

    /// A campaign dispatched across threads reports exactly the rows and
    /// trial order of a sequential one.
    #[test]
    fn parallel_campaign_matches_sequential() {
        let bench = benchmarks()
            .into_iter()
            .find(|b| b.name == "Ticket Lock")
            .unwrap();
        let seq = inject_benchmark(&bench, &quick_config());
        let par = inject_benchmark(
            &bench,
            &mc::Config {
                workers: 2,
                ..quick_config()
            },
        );
        assert_eq!(seq.0.injections, par.0.injections);
        assert_eq!(seq.0.builtin, par.0.builtin);
        assert_eq!(seq.0.admissibility, par.0.admissibility);
        assert_eq!(seq.0.assertion, par.0.assertion);
        assert_eq!(seq.0.errored, par.0.errored);
        let sites = |trials: &[Trial]| trials.iter().map(|t| t.site).collect::<Vec<_>>();
        assert_eq!(sites(&seq.1), sites(&par.1), "trial order is site order");
    }

    /// The Chase-Lev top CAS survives full weakening (the §6.4.3 finding).
    #[test]
    fn chase_lev_has_an_overly_strong_cas() {
        let bench = benchmarks()
            .into_iter()
            .find(|b| b.name == "Chase-Lev Deque")
            .unwrap();
        let survivors = find_overly_strong(&bench, &quick_config());
        assert!(
            survivors.iter().any(|t| t.site.contains("top_cas")),
            "expected a top CAS to survive weakening; survivors: {:?}",
            survivors.iter().map(|t| t.site).collect::<Vec<_>>()
        );
    }
}
