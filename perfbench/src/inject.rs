//! `inject-fig8`: the Figure 8 campaign through `inject_benchmark`, all
//! one-step weakenings. Many short explorations stop at their first bug;
//! the undetected trials explore to their end.

use std::time::Instant;

use cdsspec_inject::inject_benchmark;
use cdsspec_mc::{self as mc, BugCategory};
use cdsspec_structures::registry::{benchmarks, Benchmark};

use crate::measure::Rng;
use crate::trace::span;
use crate::workload::{pinned_config, Tally, Traced, Workload};

/// Expected first-detection category of every trial, in site order
/// (`B` built-in, `A` admissibility, `S` specification assertion, `-`
/// undetected): 46 trials, 27 / 3 / 10 detected, none errored.
const EXPECTED: [(&str, &str); 10] = [
    ("Chase-Lev Deque", "SBS--SSB-"),
    ("SPSC Queue", "BBBB"),
    ("RCU", "BBB"),
    ("Lockfree Hashtable", "SSSS"),
    ("MCS Lock", "BBBB"),
    ("MPMC Queue", "A-AA--"),
    ("M&S Queue", "BSBS"),
    ("Linux RW Lock", "BBBBBB"),
    ("Seqlock", "BBBB"),
    ("Ticket Lock", "BB"),
];

/// Warm-up item: a mid-sized campaign row (six trials, ~0.1 s), so set-up
/// is dominated by steady work rather than process start.
const WARM_UP: &str = "MPMC Queue";

fn category_code(c: Option<BugCategory>) -> char {
    match c {
        Some(BugCategory::BuiltIn) | Some(BugCategory::Internal) => 'B',
        Some(BugCategory::Admissibility) => 'A',
        Some(BugCategory::Assertion) => 'S',
        None => '-',
    }
}

pub struct Inject {
    benches: Vec<Benchmark>,
    seed: u64,
    config: mc::Config,
}

impl Inject {
    pub fn new(seed: u64) -> Inject {
        Inject {
            benches: benchmarks(),
            seed,
            config: pinned_config(300_000),
        }
    }
}

impl Workload for Inject {
    fn warm_up(&mut self) {
        let bench = self
            .benches
            .iter()
            .find(|b| b.name == WARM_UP)
            .expect("warm-up benchmark");
        let _ = inject_benchmark(bench, &self.config);
    }

    /// Items: every trial (its exploration time), in registry and site
    /// order, then the pass's time outside the trials' explorations.
    fn pass(&mut self, index: usize, traced: Option<&Traced>, tally: &mut Tally) -> Vec<f64> {
        let start = Instant::now();
        let mut rows: Vec<Vec<f64>> = vec![Vec::new(); self.benches.len()];
        let mut order: Vec<usize> = (0..self.benches.len()).collect();
        Rng::new(self.seed, index as u64).shuffle(&mut order);
        for (n, i) in order.into_iter().enumerate() {
            let bench = &self.benches[i];
            let item = (index * self.benches.len() + n) as u64 + 1;
            let tracer = traced.map(|t| &*t.tracer);
            let (row, trials) = span(tracer, "item", traced.map_or(0, |t| t.root), item, |_| {
                inject_benchmark(bench, &self.config)
            });
            let got: String = trials.iter().map(|t| category_code(t.detected)).collect();
            let want = EXPECTED.iter().find(|e| e.0 == bench.name).map(|e| e.1);
            let errored: Vec<&str> = trials
                .iter()
                .filter(|t| t.errored)
                .map(|t| t.site)
                .collect();
            tally.verdict(
                want == Some(got.as_str()) && errored.is_empty(),
                format_args!(
                    "{}: categories {got} (reference {want:?}), errored {errored:?}",
                    bench.name
                ),
            );
            rows[i] = trials.iter().map(|t| t.elapsed_ns as f64 * 1e-9).collect();
            let l = &mut tally.inject;
            l.errored += row.errored as u64;
            for t in &trials {
                let secs = t.elapsed_ns as f64 * 1e-9;
                l.trials += 1;
                l.trial_s.push(secs);
                match t.detected {
                    Some(_) => {
                        l.detected += 1;
                        l.execs_to_bug.push(t.executions as f64);
                    }
                    None => l.undetected_s += secs,
                }
                let m = &mut tally.mc;
                m.executions += t.executions;
                m.executions_pruned += t.executions_pruned;
                m.rf_classes += t.rf_classes;
                m.peak_depth = m.peak_depth.max(t.peak_depth);
                m.busy_ns += t.elapsed_ns as u64;
                tally.counts.push(format!(
                    "{} {} {:?}->{:?} {} executions={} rf_classes={}",
                    t.benchmark,
                    t.site,
                    t.from,
                    t.to,
                    category_code(t.detected),
                    t.executions,
                    t.rf_classes
                ));
            }
        }
        let mut item_s: Vec<f64> = rows.concat();
        let explored: f64 = item_s.iter().sum();
        item_s.push(start.elapsed().as_secs_f64() - explored);
        item_s
    }

    fn describe(&self) -> String {
        format!("{:?}", self.config)
    }
}
