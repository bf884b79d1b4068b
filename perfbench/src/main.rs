//! The CDSSpec checker's benchmark: one workload per process, every
//! verdict checked against a reference, metrics printed as one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--t0-ns <unix ns at spawn>] [--setup-only]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs half as
//! many passes untraced and then the same passes traced, and prints the
//! per-layer metrics.
//! `perfbench/run.py` builds this binary and drives it; see the README.

mod campaign_net;
mod inject;
mod measure;
mod spec_wide;
mod trace;
mod verify;
mod workload;

use std::path::Path;
use std::process::exit;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use measure::{allocs, count_allocs, median, quantile, usage};
use trace::{CoreLayer, Tracer};
use workload::{Tally, Traced, Workload, CONFIG_ENV};

#[global_allocator]
static GLOBAL: measure::CountingAlloc = measure::CountingAlloc;

const WORKLOADS: [&str; 4] = ["verify-fig7", "spec-wide", "inject-fig8", "campaign-net"];

/// Where spans and temp directories go, relative to the working
/// directory (the checkout root).
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    t0_ns: Option<u128>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        t0_ns: None,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--t0-ns" => args.t0_ns = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Times of a run's passes.
struct Passes {
    /// Each pass's time.
    pass_s: Vec<f64>,
    /// Each item's fastest time over the passes.
    best_s: Vec<f64>,
}

impl Passes {
    /// The fixed work's time with every item at its fastest. The work of
    /// an item is deterministic and the host only ever slows it: on the
    /// shared reference machine the CPU speed swings by tens of percent
    /// in phases lasting seconds, which moves a median over passes by as
    /// much, while each item's fastest time repeats far better.
    fn best(&self) -> f64 {
        self.best_s.iter().sum()
    }
}

/// Run `count` passes, or fewer when `cap_s` seconds have gone by (at
/// least one).
fn run_passes(
    w: &mut dyn Workload,
    count: usize,
    cap_s: f64,
    traced: Option<&Traced>,
    tally: &mut Tally,
) -> Passes {
    let start = Instant::now();
    let mut p = Passes {
        pass_s: Vec::new(),
        best_s: Vec::new(),
    };
    for index in 0..count {
        let t = Instant::now();
        let items = w.pass(index, traced, tally);
        p.pass_s.push(t.elapsed().as_secs_f64());
        if p.best_s.is_empty() {
            p.best_s = items;
        } else {
            p.best_s
                .iter_mut()
                .zip(items)
                .for_each(|(b, x)| *b = b.min(x));
        }
        if start.elapsed().as_secs_f64() > cap_s {
            break;
        }
    }
    p
}

/// Passes in a run: as many as take `--seconds` at the workload's nominal
/// pass time on the reference machine (at least one). The work is thus a
/// function of the arguments alone, so counts and memory repeat from run
/// to run while the run still lasts about `--seconds`. A host slower
/// than half that speed ends the run early, after `1.5 x --seconds`.
fn passes(args: &Args) -> usize {
    let nominal_s = match args.workload.as_str() {
        "verify-fig7" => 2.0,
        "spec-wide" => 1.0,
        "inject-fig8" => 6.5,
        _ => 0.12,
    };
    ((args.seconds / nominal_s) as usize).max(1)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn untraced_run(w: &mut dyn Workload, args: &Args, setup_s: f64) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let p = run_passes(w, passes(args), 1.5 * args.seconds, None, &mut tally);
    let peak_rss_mb = usage().max_rss_kb as f64 / 1024.0;
    let shown: Vec<String> = p.pass_s.iter().map(|t| format!("{t:.4}")).collect();
    println!("pass_s: {}", shown.join(" "));
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("wall_s", p.best(), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    (tally, metrics)
}

/// The untraced passes, then the same passes traced. Per-layer figures
/// come from the traced passes, except allocation counts and verdict
/// latencies, which the timing plugin's probes would disturb.
fn traced_run(w: &mut dyn Workload, args: &Args, out: &Path) -> (Tally, Metrics) {
    count_allocs(true);
    let mut plain = Tally::default();
    let a0 = allocs();
    let count = (passes(args) / 2).max(1);
    let plain_times = run_passes(w, count, 0.75 * args.seconds, None, &mut plain);
    let plain_allocs = allocs() - a0;

    let tracer = Arc::new(Tracer::new());
    let core = Arc::new(Mutex::new(CoreLayer::default()));
    let root = tracer.open();
    let ctx = Traced {
        tracer: Arc::clone(&tracer),
        core: Arc::clone(&core),
        root: root.id,
    };
    let mut t = Tally::default();
    let count = plain_times.pass_s.len();
    let traced_times = run_passes(w, count, f64::INFINITY, Some(&ctx), &mut t);
    tracer.close(root, "workload", 0, 0);
    count_allocs(false);
    w.finish(&mut t);

    // The traced passes must reproduce the untraced deterministic counts.
    let differ = plain
        .counts
        .iter()
        .zip(&t.counts)
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("untraced {a:?}, traced {b:?}"));
    let same_len = plain.counts.len() == t.counts.len();
    let lens = (plain.counts.len(), t.counts.len());
    t.verdict(
        differ.is_none() && same_len,
        format_args!("traced counts differ from untraced: {differ:?} ({lens:?} items)"),
    );
    let core = std::mem::take(&mut *core.lock().expect("core layer poisoned"));
    t.verdict(
        core.capped == 0,
        format_args!("{} execution(s) hit the history cap", core.capped),
    );

    let spans_path = out.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    match tracer.write(&spans_path) {
        Ok(rows) => {
            eprintln!(
                "spans: {} ({} spans)",
                spans_path.display(),
                tracer.span_count()
            );
            eprintln!(
                "{:<18} {:>9} {:>11} {:>11}",
                "span", "count", "total_s", "self_s"
            );
            for (name, count, total, own) in rows {
                eprintln!("{name:<18} {count:>9} {total:>11.6} {own:>11.6}");
            }
        }
        Err(e) => eprintln!("spans: cannot write {}: {e}", spans_path.display()),
    }

    let passes = count as f64;
    let per_pass = |x: f64| x / passes;
    let m = &t.mc;
    let check_ns: u64 = core.check_ns.iter().sum();
    let probe_ns = core.plugin_ns.saturating_sub(check_ns);
    let busy_s = per_pass(m.busy_ns.saturating_sub(probe_ns) as f64 * 1e-9);
    let check_s = per_pass(check_ns as f64 * 1e-9);
    let executions = per_pass(m.executions as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let calls = core.check_ns.len() as f64;
    let mut check_us: Vec<f64> = core.check_ns.iter().map(|&n| n as f64 * 1e-3).collect();
    let mut histories: Vec<f64> = core.histories.iter().map(|&n| n as f64).collect();
    let (extract_s, order_s, enumerate_s) = (
        per_pass(core.extract_ns as f64 * 1e-9),
        per_pass(core.order_ns as f64 * 1e-9),
        per_pass(core.enumerate_ns as f64 * 1e-9),
    );
    let inj = &mut t.inject;
    let inject_overhead = if inj.trials > 0 {
        per_pass(traced_times.pass_s.iter().sum::<f64>() - inj.trial_s.iter().sum::<f64>())
    } else {
        0.0
    };
    let c = &mut t.campaign;
    let cold_s = median(&mut c.cold_s);
    let u = usage();
    let plain_pass_s = plain_times.best();
    let traced_pass_s = traced_times.best();

    // Every per-layer metric, each workload alike; one that does not apply
    // to this workload reads 0.
    let metrics: Metrics = vec![
        ("mc.executions", executions, "count"),
        ("mc.feasible", per_pass(m.feasible as f64), "count"),
        (
            "mc.executions_pruned",
            per_pass(m.executions_pruned as f64),
            "count",
        ),
        ("mc.sleep_pruned", per_pass(m.sleep_pruned as f64), "count"),
        ("mc.diverged", per_pass(m.diverged as f64), "count"),
        ("mc.rf_classes", per_pass(m.rf_classes as f64), "count"),
        ("mc.peak_depth", m.peak_depth as f64, "count"),
        ("mc.busy_s", busy_s, "s"),
        ("mc.exec_per_s", ratio(executions, busy_s), "1/s"),
        (
            "mc.useful_ratio",
            ratio(m.feasible as f64, m.executions as f64),
            "ratio",
        ),
        (
            "mc.allocs_per_exec",
            ratio(plain_allocs as f64, plain.mc.executions as f64),
            "count",
        ),
        ("mc.engine_s", busy_s - check_s, "s"),
        (
            "c11.events_per_exec",
            ratio(core.events as f64, calls),
            "count",
        ),
        ("core.check_calls", per_pass(calls), "count"),
        ("core.check_s", check_s, "s"),
        ("core.check_us_p50", quantile(&mut check_us, 0.5), "us"),
        ("core.check_us_p99", quantile(&mut check_us, 0.99), "us"),
        ("core.share", ratio(check_s, busy_s), "ratio"),
        ("core.extract_s", extract_s, "s"),
        ("core.order_s", order_s, "s"),
        ("core.enumerate_s", enumerate_s, "s"),
        (
            "core.replay_s",
            (check_s - extract_s - order_s - enumerate_s).max(0.0),
            "s",
        ),
        (
            "core.calls_per_exec",
            ratio(core.calls as f64, calls),
            "count",
        ),
        (
            "core.histories_per_exec_p50",
            quantile(&mut histories, 0.5),
            "count",
        ),
        (
            "core.histories_per_exec_max",
            histories.iter().copied().fold(0.0, f64::max),
            "count",
        ),
        (
            "core.justify_histories",
            per_pass(core.justify_histories as f64),
            "count",
        ),
        ("core.history_capped", core.capped as f64, "count"),
        ("inject.trials", per_pass(inj.trials as f64), "count"),
        ("inject.detected", per_pass(inj.detected as f64), "count"),
        ("inject.errored", inj.errored as f64, "count"),
        ("inject.trial_s_p50", quantile(&mut inj.trial_s, 0.5), "s"),
        (
            "inject.trial_s_max",
            inj.trial_s.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        ("inject.undetected_s", per_pass(inj.undetected_s), "s"),
        (
            "inject.execs_to_bug_p50",
            quantile(&mut inj.execs_to_bug, 0.5),
            "count",
        ),
        ("inject.overhead_s", inject_overhead, "s"),
        ("campaign.cold_s", cold_s, "s"),
        (
            "campaign.dispatches",
            per_pass(c.dispatches as f64),
            "count",
        ),
        (
            "campaign.dispatch_per_s",
            ratio(per_pass(c.dispatches as f64), cold_s),
            "1/s",
        ),
        (
            "campaign.cache_hits",
            per_pass(c.cache_hits as f64),
            "count",
        ),
        ("campaign.live", per_pass(c.live as f64), "count"),
        ("campaign.requeues", per_pass(c.requeues as f64), "count"),
        ("campaign.worker_deaths", c.worker_deaths as f64, "count"),
        ("campaign.cache_lookup_us", c.cache_lookup_us, "us"),
        ("campaign.cache_store_us", c.cache_store_us, "us"),
        ("campaign.wire_encode_us", c.wire_encode_us, "us"),
        ("campaign.wire_decode_us", c.wire_decode_us, "us"),
        ("campaign.frame_bytes", c.frame_bytes, "bytes"),
        ("proc.cpu_s", u.cpu_s, "s"),
        (
            "proc.ctx_switches_invol",
            u.ctx_switches_invol as f64,
            "count",
        ),
        ("proc.minor_faults", u.minor_faults as f64, "count"),
        ("verdict_ms_p50", quantile(&mut plain.verdict_ms, 0.5), "ms"),
        ("verdict_ms_p90", quantile(&mut plain.verdict_ms, 0.9), "ms"),
        ("verdict_samples", plain.verdict_ms.len() as f64, "count"),
        (
            "trace.overhead_pct",
            (ratio(traced_pass_s, plain_pass_s) - 1.0) * 100.0,
            "%",
        ),
        ("trace.spans", tracer.span_count() as f64, "count"),
        ("trace.passes", passes, "count"),
        ("trace.untraced_pass_s", plain_pass_s, "s"),
        ("trace.traced_pass_s", traced_pass_s, "s"),
    ];
    t.attempted += plain.attempted;
    t.failed += plain.failed;
    (t, metrics)
}

/// JSON number: finite values as Rust prints them (every digit, no
/// exponent); anything else as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2);
        }
    };
    if let Some(var) = CONFIG_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes the measured config");
        exit(2);
    }
    let started = Instant::now();
    let since_start = || -> f64 {
        match args.t0_ns {
            Some(t0) => {
                let now = SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .unwrap_or(Duration::ZERO);
                now.as_nanos().saturating_sub(t0) as f64 * 1e-9
            }
            None => started.elapsed().as_secs_f64(),
        }
    };
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        exit(1);
    }

    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "verify-fig7" => Box::new(verify::Verify::new(args.seed)),
        "spec-wide" => Box::new(spec_wide::SpecWide::new(args.seed)),
        "inject-fig8" => Box::new(inject::Inject::new(args.seed)),
        _ => Box::new(campaign_net::CampaignNet::new(args.seed, out)),
    };
    w.warm_up();
    let setup_s = since_start();
    if args.setup_only {
        w.cleanup();
        println!("{{\"setup_s\": {}}}", number(setup_s));
        exit(0);
    }
    println!("config: {}", w.describe());

    let (tally, metrics) = if args.trace {
        traced_run(w.as_mut(), &args, out)
    } else {
        untraced_run(w.as_mut(), &args, setup_s)
    };
    w.cleanup();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    // The campaign daemon and its workers have no shutdown of their own;
    // exiting ends them with the process.
    exit(0);
}
