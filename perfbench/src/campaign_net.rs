//! `campaign-net`: an in-process `cdsspec-netd` on loopback with two
//! attached TCP workers. Each pass runs one cold campaign over the
//! dispatch-heavy subset with a small `split`, so many shards cross the
//! wire, then a closed loop of warm re-checks answered from the served
//! cache. Only this workload exercises the `campaign` layer.

use std::hint::black_box;
use std::io::Cursor;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cdsspec_campaign::json::Json;
use cdsspec_campaign::net::{
    attach_worker, frame_bytes, read_frame, remote_campaign, request_status,
};
use cdsspec_campaign::wire::{stats_from_json, stats_to_json};
use cdsspec_campaign::{
    run_daemon_on, AttachOpts, CacheKey, CampaignOpts, CampaignRequest, DaemonOpts, ResultCache,
    SupervisorOpts, WorkerOpts, EXIT_CLEAN,
};
use cdsspec_mc::Stats;

use crate::measure::{median, ram_backed, Rng};
use crate::trace::span;
use crate::workload::{Tally, Traced, Workload};

/// The dispatch-heavy Figure 7 subset.
const SUBSET: [&str; 5] = [
    "MPMC Queue",
    "Linux RW Lock",
    "Seqlock",
    "M&S Queue",
    "MCS Lock",
];

/// Probe execution cap. Every benchmark's probe hits it, and its leftover
/// frontier goes out as one more task (the probe explores with one worker,
/// so the frontier is one shard): two dispatches per benchmark.
const SPLIT: u64 = 4;

const MAX_EXECUTIONS: u64 = 1_000_000;

/// Warm re-checks per pass (one verdict request each, all alike).
const WARM_REQUESTS: usize = 100;

const WORKERS: usize = 2;

/// Pull one `key=value` counter out of a `campaign-summary:` line.
fn summary_field(summary: &str, key: &str) -> Option<u64> {
    let tag = format!("{key}=");
    summary
        .lines()
        .find(|l| l.starts_with("campaign-summary:"))?
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&tag))?
        .parse()
        .ok()
}

struct Served {
    code: i32,
    report: Vec<u8>,
    summary: String,
}

impl Served {
    fn field(&self, key: &str) -> u64 {
        summary_field(&self.summary, key).unwrap_or(u64::MAX)
    }
}

pub struct CampaignNet {
    seed: u64,
    addr: String,
    tmp: PathBuf,
    cache: PathBuf,
}

impl CampaignNet {
    /// Start the daemon and its workers, and wait until both workers are
    /// attached. The cache lives in a directory of this process's own
    /// under `out`.
    pub fn new(seed: u64, out: &Path) -> CampaignNet {
        let tmp = out.join(format!("campaign-net-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let cache = tmp.join("cache");
        std::fs::create_dir_all(&cache).expect("create cache directory");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local address").to_string();
        let opts = DaemonOpts {
            listen: addr.clone(),
            cache_dir: Some(cache.clone()),
            sup: SupervisorOpts {
                workers: WORKERS,
                worker_threads: 1,
                ..SupervisorOpts::default()
            },
            max_campaigns: None,
        };
        // The daemon and its workers serve until the process exits: the
        // daemon has no shutdown other than a campaign count, and a run's
        // campaign count depends on how many passes fit its time.
        std::thread::spawn(move || run_daemon_on(listener, opts));
        for _ in 0..WORKERS {
            let attach = AttachOpts {
                addr: addr.clone(),
                worker: WorkerOpts {
                    heartbeat: Duration::from_millis(500),
                    worker_threads: 1,
                    poison: None,
                },
                reconnect_budget: Duration::from_secs(2),
            };
            std::thread::spawn(move || attach_worker(&attach));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match request_status(&addr) {
                Ok(s) if s.workers.len() >= WORKERS => break,
                _ if Instant::now() > deadline => panic!("workers never attached to {addr}"),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        CampaignNet {
            seed,
            addr,
            tmp,
            cache,
        }
    }

    fn request(&self, benches: Vec<String>) -> CampaignRequest {
        CampaignRequest {
            bench_filter: Some(benches),
            split: SPLIT,
            max_executions: MAX_EXECUTIONS,
            stable: true,
            weaken: Vec::new(),
        }
    }

    fn serve(&self, req: &CampaignRequest) -> Served {
        let mut report = Vec::new();
        let (code, summary) = remote_campaign(&self.addr, req, &mut report)
            .unwrap_or_else(|e| (-1, format!("remote campaign failed: {e}")));
        Served {
            code,
            report,
            summary,
        }
    }

    fn clear_cache(&self) {
        for entry in std::fs::read_dir(&self.cache)
            .expect("read cache directory")
            .flatten()
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }

    /// The result payloads the last cold campaign stored in the cache.
    fn payloads(&self) -> Vec<String> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.cache)
            .expect("read cache directory")
            .flatten()
        {
            if let Ok(text) = std::fs::read_to_string(entry.path()) {
                out.extend(text.lines().nth(2).map(str::to_string));
            }
        }
        out
    }
}

impl Workload for CampaignNet {
    /// One cold campaign and one warm re-check: the workers' explorers
    /// and the daemon's cache path pay their first-use costs here.
    fn warm_up(&mut self) {
        let req = self.request(SUBSET.iter().map(|s| s.to_string()).collect());
        let _ = self.serve(&req);
        let _ = self.serve(&req);
    }

    /// Items: the cold campaign, then each warm re-check in turn.
    fn pass(&mut self, index: usize, traced: Option<&Traced>, tally: &mut Tally) -> Vec<f64> {
        self.clear_cache();
        let mut benches: Vec<String> = SUBSET.iter().map(|s| s.to_string()).collect();
        Rng::new(self.seed, index as u64).shuffle(&mut benches);
        let req = self.request(benches);
        let tracer = traced.map(|t| &*t.tracer);
        let root = traced.map_or(0, |t| t.root);
        let item = |k: usize| (index * (WARM_REQUESTS + 1) + k) as u64 + 1;

        let t0 = Instant::now();
        let cold = span(tracer, "campaign.cold", root, item(0), |_| self.serve(&req));
        let cold_s = t0.elapsed().as_secs_f64();
        let benches = SUBSET.len() as u64;
        tally.verdict(
            cold.code == EXIT_CLEAN
                && cold.field("live") == benches
                && cold.field("dispatches") > 0,
            format_args!(
                "cold campaign: code {} summary {}",
                cold.code,
                cold.summary.trim()
            ),
        );
        let mut item_s = vec![cold_s];
        let l = &mut tally.campaign;
        l.cold_s.push(cold_s);
        l.dispatches += cold.field("dispatches");
        l.live += cold.field("live");
        l.requeues += cold.field("requeues");
        tally
            .counts
            .push(format!("cold {}", String::from_utf8_lossy(&cold.report)));

        for k in 1..=WARM_REQUESTS {
            let t = Instant::now();
            let warm = span(tracer, "campaign.warm", root, item(k), |_| self.serve(&req));
            let warm_s = t.elapsed().as_secs_f64();
            item_s.push(warm_s);
            tally.verdict_ms.push(warm_s * 1e3);
            tally.verdict(
                warm.code == EXIT_CLEAN
                    && warm.report == cold.report
                    && warm.field("dispatches") == 0
                    && warm.field("live") == 0
                    && warm.field("cache_hits") == benches,
                format_args!(
                    "warm re-check {k}: code {}, report identical {}, summary {}",
                    warm.code,
                    warm.report == cold.report,
                    warm.summary.trim()
                ),
            );
            tally.campaign.cache_hits += warm.field("cache_hits");
            tally.campaign.requeues += warm.field("requeues");
        }

        let deaths = request_status(&self.addr).map(|s| s.worker_deaths);
        tally.verdict(
            deaths == Ok(0),
            format_args!("daemon status after pass {index}: worker deaths {deaths:?}"),
        );
        tally.campaign.worker_deaths = deaths.unwrap_or(u64::MAX);
        item_s
    }

    /// Time the cache, wire and framing calls on the payloads this run's
    /// last cold campaign stored.
    fn finish(&mut self, tally: &mut Tally) {
        let stats: Vec<Stats> = self
            .payloads()
            .iter()
            .filter_map(|p| stats_from_json(&Json::parse(p).ok()?).ok())
            .collect();
        if stats.is_empty() {
            tally.verdict(false, "no cached result payloads to time");
            return;
        }
        const REPS: usize = 200;
        let per_op_us = |t: Instant, n: usize| t.elapsed().as_secs_f64() * 1e6 / n as f64;
        let frames: Vec<Vec<u8>> = stats
            .iter()
            .map(|s| frame_bytes(&stats_to_json(s).encode()))
            .collect();
        let l = &mut tally.campaign;
        l.frame_bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;

        let t = Instant::now();
        for _ in 0..REPS {
            for s in &stats {
                black_box(frame_bytes(&stats_to_json(black_box(s)).encode()));
            }
        }
        l.wire_encode_us = per_op_us(t, REPS * stats.len());

        let t = Instant::now();
        for _ in 0..REPS {
            for f in &frames {
                let payload = read_frame(&mut Cursor::new(black_box(f))).expect("decode own frame");
                black_box(stats_from_json(&Json::parse(&payload).expect("parse own payload")).ok());
            }
        }
        l.wire_decode_us = per_op_us(t, REPS * frames.len());

        let dir = self.tmp.join("micro-cache");
        let cache = ResultCache::open(&dir).expect("open timing cache");
        let keys: Vec<CacheKey> = (0..20u64)
            .map(|i| CacheKey {
                structure: SUBSET[i as usize % SUBSET.len()].to_string(),
                spec_hash: i,
                config_hash: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            })
            .collect();
        let mut store_us: Vec<f64> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let t = Instant::now();
            cache
                .store(key, &stats[i % stats.len()])
                .expect("store into timing cache");
            store_us.push(per_op_us(t, 1));
        }
        l.cache_store_us = median(&mut store_us);
        let t = Instant::now();
        for _ in 0..REPS / keys.len() {
            for key in &keys {
                black_box(cache.lookup(key).expect("stored entry"));
            }
        }
        l.cache_lookup_us = per_op_us(t, REPS);
    }

    fn describe(&self) -> String {
        let config = CampaignOpts {
            max_executions: MAX_EXECUTIONS,
            ..CampaignOpts::default()
        }
        .base_config();
        format!(
            "daemon {} with {WORKERS} TCP workers x 1 explorer thread; split {SPLIT}; \
             cache {} (RAM-backed: {}); campaign config {config:?}",
            self.addr,
            self.cache.display(),
            ram_backed(&self.cache)
        )
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}
