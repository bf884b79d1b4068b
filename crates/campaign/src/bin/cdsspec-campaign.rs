//! `cdsspec-campaign` — fault-tolerant multi-process checking campaigns.
//!
//! ```text
//! cdsspec-campaign [--bench A,B] [--workers N] [--worker-threads N]
//!                  [--split N] [--max-executions N] [--stable]
//!                  [--journal PATH] [--cache-dir DIR] [--in-process]
//!                  [--lease-ms N] [--heartbeat-ms N] [--max-attempts N]
//!                  [--chaos-kill-pct P] [--chaos-seed S] [--weaken S1,S2]
//!                  [--connect ADDR [--status]] [--attach ADDR]
//! ```
//!
//! Exit codes are documented on the `cdsspec_campaign` crate root
//! (`0` clean, `1` error, `2` bug found, `3` resumable).
//!
//! Networked modes (see the README daemon quickstart):
//! `--connect ADDR` runs the campaign on a `cdsspec-netd` daemon
//! (`--status` instead asks for its counters); `--attach ADDR` turns
//! this process into a TCP worker serving that daemon.
//!
//! Hidden flags (used by the supervisor and the fault-injection tests):
//! `--worker-mode`, `--poison BENCH`, `--halt-after N`.

use cdsspec_campaign::net::{attach_worker, remote_campaign, request_status};
use cdsspec_campaign::{
    run_campaign, worker_main, AttachOpts, CampaignOpts, CampaignRequest, WorkerOpts, EXIT_ERROR,
};
use std::time::Duration;

const USAGE: &str = "usage: cdsspec-campaign [options]
  --bench A,B          only these benchmarks (registry names, comma-separated)
  --workers N          worker subprocess slots (default 2)
  --worker-threads N   explorer threads inside each task (default 1)
  --split N            probe cap; leftover frontier fans out as shard tasks (0 = off)
  --max-executions N   execution cap per task (default 1000000)
  --stable             mask wall-clock times (byte-stable output)
  --journal PATH       append-only campaign journal (resume by re-running)
  --cache-dir DIR      content-addressed result cache
  --in-process         run tasks in this process (no subprocesses)
  --lease-ms N         lease duration in ms (default 30000)
  --heartbeat-ms N     worker heartbeat interval in ms (default 500)
  --max-attempts N     dispatch attempts per shard before quarantine (default 3)
  --chaos-kill-pct P   kill a worker after P% of first dispatches (testing)
  --chaos-seed S       seed for the chaos RNG
  --weaken S1,S2       weaken these ordering-site indices one step before
                       checking (fault injection; sites must exist in every
                       selected benchmark)
networked modes:
  --connect ADDR       run the campaign on a cdsspec-netd daemon at ADDR
  --connect ADDR --status
                       print the daemon's counters instead
  --attach ADDR        become a TCP worker for the daemon at ADDR
                       (honors --heartbeat-ms, --worker-threads;
                        --reconnect-ms N bounds reconnect retries, default 10000)
exit codes: 0 clean, 1 error, 2 bug found, 3 resumable";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(args));
}

fn run(args: Vec<String>) -> i32 {
    // Worker and attach modes have their own tiny flag sets; recognize
    // them first so the supervisor's spawn line (and attach scripts)
    // never trip over campaign-only validation.
    if args.iter().any(|a| a == "--worker-mode") {
        return run_worker(args);
    }
    if args.iter().any(|a| a == "--attach") {
        return run_attach(args);
    }

    let mut opts = CampaignOpts::default();
    let mut connect: Option<String> = None;
    let mut status = false;
    let mut it = args.into_iter();
    let missing = |flag: &str| {
        eprintln!("cdsspec-campaign: {flag} needs a value\n{USAGE}");
        EXIT_ERROR
    };
    while let Some(arg) = it.next() {
        macro_rules! value {
            () => {
                match it.next() {
                    Some(v) => v,
                    None => return missing(&arg),
                }
            };
        }
        macro_rules! parse {
            ($ty:ty) => {
                match value!().parse::<$ty>() {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("cdsspec-campaign: bad value for {arg}: {e}");
                        return EXIT_ERROR;
                    }
                }
            };
        }
        match arg.as_str() {
            "--bench" => {
                opts.bench_filter =
                    Some(value!().split(',').map(|s| s.trim().to_string()).collect());
            }
            "--workers" => opts.sup.workers = parse!(usize),
            "--worker-threads" => opts.sup.worker_threads = parse!(usize),
            "--split" => opts.split = parse!(u64),
            "--max-executions" => opts.max_executions = parse!(u64),
            "--stable" => opts.stable = true,
            "--journal" => opts.journal = Some(value!().into()),
            "--cache-dir" => opts.cache_dir = Some(value!().into()),
            "--in-process" => opts.in_process = true,
            "--lease-ms" => opts.sup.lease = Duration::from_millis(parse!(u64)),
            "--heartbeat-ms" => opts.sup.heartbeat = Duration::from_millis(parse!(u64)),
            "--max-attempts" => opts.sup.max_attempts = parse!(u32),
            "--chaos-kill-pct" => opts.sup.chaos_kill_pct = parse!(u32).min(100),
            "--chaos-seed" => opts.sup.chaos_seed = parse!(u64),
            "--poison" => opts.sup.poison = Some(value!()),
            "--weaken" => {
                for part in value!().split(',') {
                    match part.trim().parse::<usize>() {
                        Ok(s) => opts.weaken.push(s),
                        Err(e) => {
                            eprintln!("cdsspec-campaign: bad value for --weaken: {e}");
                            return EXIT_ERROR;
                        }
                    }
                }
            }
            "--halt-after" => opts.halt_after = Some(parse!(usize)),
            "--connect" => connect = Some(value!()),
            "--status" => status = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("cdsspec-campaign: unknown flag {other:?}\n{USAGE}");
                return EXIT_ERROR;
            }
        }
    }

    if let Some(addr) = connect {
        return run_remote(&addr, status, &opts);
    }
    if status {
        eprintln!("cdsspec-campaign: --status needs --connect ADDR\n{USAGE}");
        return EXIT_ERROR;
    }

    let stdout = std::io::stdout();
    match run_campaign(&opts, &mut stdout.lock()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("cdsspec-campaign: {message}");
            EXIT_ERROR
        }
    }
}

/// `--connect`: the campaign runs where the daemon's cache and worker
/// pool live, so flags that configure *this* machine's execution are
/// contradictions, not no-ops — reject them loudly.
fn run_remote(addr: &str, status: bool, opts: &CampaignOpts) -> i32 {
    if status {
        return match request_status(addr) {
            Ok(report) => {
                print!("{}", report.render());
                0
            }
            Err(e) => {
                eprintln!("cdsspec-campaign: {e}");
                EXIT_ERROR
            }
        };
    }
    let local_only: &[(&str, bool)] = &[
        ("--in-process", opts.in_process),
        ("--journal", opts.journal.is_some()),
        ("--cache-dir", opts.cache_dir.is_some()),
        ("--halt-after", opts.halt_after.is_some()),
        ("--chaos-kill-pct", opts.sup.chaos_kill_pct > 0),
        ("--poison", opts.sup.poison.is_some()),
    ];
    for (flag, set) in local_only {
        if *set {
            eprintln!("cdsspec-campaign: {flag} is local-only and cannot combine with --connect");
            return EXIT_ERROR;
        }
    }
    let req = CampaignRequest {
        bench_filter: opts.bench_filter.clone(),
        split: opts.split,
        max_executions: opts.max_executions,
        stable: opts.stable,
        weaken: opts.weaken.clone(),
    };
    let stdout = std::io::stdout();
    match remote_campaign(addr, &req, &mut stdout.lock()) {
        Ok((code, summary)) => {
            // The daemon-side summary goes to our stderr so scripts see
            // the same `campaign-summary:` block local runs produce.
            eprint!("{summary}");
            code
        }
        Err(message) => {
            eprintln!("cdsspec-campaign: {message}");
            EXIT_ERROR
        }
    }
}

fn run_worker(args: Vec<String>) -> i32 {
    let mut opts = WorkerOpts {
        heartbeat: Duration::from_millis(500),
        worker_threads: 1,
        poison: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--worker-mode" => {}
            "--heartbeat-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => opts.heartbeat = Duration::from_millis(ms),
                None => return EXIT_ERROR,
            },
            "--worker-threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => opts.worker_threads = n,
                None => return EXIT_ERROR,
            },
            "--poison" => match it.next() {
                Some(bench) => opts.poison = Some(bench),
                None => return EXIT_ERROR,
            },
            other => {
                eprintln!("cdsspec-campaign worker: unknown flag {other:?}");
                return EXIT_ERROR;
            }
        }
    }
    worker_main(opts)
}

fn run_attach(args: Vec<String>) -> i32 {
    let mut opts = AttachOpts {
        addr: String::new(),
        worker: WorkerOpts {
            heartbeat: Duration::from_millis(500),
            worker_threads: 1,
            poison: None,
        },
        reconnect_budget: Duration::from_millis(10_000),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--attach" => match it.next() {
                Some(addr) => opts.addr = addr,
                None => return EXIT_ERROR,
            },
            "--heartbeat-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => opts.worker.heartbeat = Duration::from_millis(ms),
                None => return EXIT_ERROR,
            },
            "--worker-threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => opts.worker.worker_threads = n,
                None => return EXIT_ERROR,
            },
            "--poison" => match it.next() {
                Some(bench) => opts.worker.poison = Some(bench),
                None => return EXIT_ERROR,
            },
            "--reconnect-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => opts.reconnect_budget = Duration::from_millis(ms),
                None => return EXIT_ERROR,
            },
            other => {
                eprintln!("cdsspec-campaign worker: unknown flag {other:?}");
                return EXIT_ERROR;
            }
        }
    }
    attach_worker(&opts)
}
