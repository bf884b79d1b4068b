//! `verify-fig7`: the ten Figure 7 benchmarks through the registry's
//! public `check`, correct orderings, exhaustive. Chase-Lev is ~95% of
//! the time, so the `mc` engine does almost all the work.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use cdsspec_core::{Spec, SpecChecker};
use cdsspec_mc::{self as mc, Plugin, StopReason};
use cdsspec_structures::registry::{benchmarks, Benchmark};
use cdsspec_structures::{
    chase_lev, hashtable, mcs_lock, mpmc, ms_queue, rcu, rw_lock, seqlock, spsc, ticket_lock, Ords,
};

use crate::measure::Rng;
use crate::trace::{span, timed_factory, Probe};
use crate::workload::{pinned_config, Tally, Traced, Workload};

/// rf classes of each benchmark's exhaustive exploration. Pruning may
/// change the execution count but must never lose a class.
const RF_CLASSES: [(&str, usize); 10] = [
    ("Chase-Lev Deque", 178),
    ("SPSC Queue", 20),
    ("RCU", 12),
    ("Lockfree Hashtable", 62),
    ("MCS Lock", 34),
    ("MPMC Queue", 3372),
    ("M&S Queue", 54),
    ("Linux RW Lock", 69),
    ("Seqlock", 32),
    ("Ticket Lock", 8),
];

/// Warm-up item: mid-sized, so setup pays for allocator and fiber-pool
/// growth without running the dominant row.
const WARM_UP: &str = "MPMC Queue";

pub struct Verify {
    benches: Vec<Benchmark>,
    seed: u64,
    config: mc::Config,
}

impl Verify {
    pub fn new(seed: u64) -> Verify {
        Verify {
            benches: benchmarks(),
            seed,
            config: pinned_config(20_000_000),
        }
    }

    fn order(&self, index: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.benches.len()).collect();
        Rng::new(self.seed, index as u64).shuffle(&mut order);
        order
    }
}

impl Workload for Verify {
    fn warm_up(&mut self) {
        let bench = self
            .benches
            .iter()
            .find(|b| b.name == WARM_UP)
            .expect("warm-up benchmark");
        let stats = bench.check_default(self.config.clone());
        assert!(!stats.buggy(), "warm-up benchmark {WARM_UP} reported a bug");
    }

    fn pass(&mut self, index: usize, traced: Option<&Traced>, tally: &mut Tally) -> Vec<f64> {
        let mut item_s = vec![0.0; self.benches.len()];
        for (n, i) in self.order(index).into_iter().enumerate() {
            let bench = &self.benches[i];
            let item = (index * self.benches.len() + n) as u64 + 1;
            let t0 = Instant::now();
            let (stats, stops) = match traced {
                None => {
                    let s = bench.check_default(self.config.clone());
                    let stop = s.stop;
                    (s, vec![stop])
                }
                Some(t) => {
                    t.tracer.item.store(item, Ordering::Relaxed);
                    span(Some(&t.tracer), "item", t.root, item, |item_span| {
                        explore_parts(bench, &self.config, t, item_span, item)
                    })
                }
            };
            let busy = t0.elapsed();
            item_s[i] = busy.as_secs_f64();
            tally.mc.add(&stats, busy);
            let want = RF_CLASSES.iter().find(|r| r.0 == bench.name).map(|r| r.1);
            let rf = stats.rf_classes.len();
            let exhausted = stops.iter().all(|s| *s == StopReason::Exhausted);
            tally.verdict(
                !stats.buggy() && exhausted && want == Some(rf),
                format_args!(
                    "{}: buggy={} stops={stops:?} rf_classes={rf} (reference {want:?})",
                    bench.name,
                    stats.buggy()
                ),
            );
            tally.counts.push(format!(
                "{} executions={} feasible={} rf_classes={rf}",
                bench.name, stats.executions, stats.feasible
            ));
        }
        item_s
    }

    fn describe(&self) -> String {
        format!("{:?}", self.config)
    }
}

/// One suite part as the traced run explores it.
struct Part {
    checker: Arc<dyn Fn() -> Box<dyn Plugin> + Send + Sync>,
    probe: Probe,
    test: Box<dyn Fn() + Send + Sync>,
}

fn part<S: Send + 'static>(
    spec: Spec<S>,
    justified: &'static [&'static str],
    test: impl Fn() + Send + Sync + 'static,
) -> Part {
    let probe = Probe {
        policy: spec.policy,
        justified,
    };
    let spec = Arc::new(spec);
    Part {
        checker: Arc::new(move || Box::new(SpecChecker::new(Arc::clone(&spec))) as Box<dyn Plugin>),
        probe,
        test: Box::new(test),
    }
}

/// The unit-test suite behind each registry `check`, part by part, with
/// the methods whose specs carry justifying conditions.
fn parts(name: &str, ords: Ords) -> Vec<Part> {
    match name {
        "Chase-Lev Deque" => vec![
            part(
                chase_lev::make_spec(),
                &["take", "steal"],
                chase_lev::unit_test(ords.clone()),
            ),
            part(
                chase_lev::make_spec(),
                &["take", "steal"],
                chase_lev::unit_test_last_element(ords),
            ),
        ],
        "SPSC Queue" => vec![part(
            spsc::make_spec(),
            &["push", "pop"],
            spsc::unit_test(ords),
        )],
        "RCU" => vec![part(rcu::make_spec(), &["read"], rcu::unit_test(ords))],
        "Lockfree Hashtable" => vec![part(
            hashtable::make_spec(),
            &[],
            hashtable::unit_test(ords),
        )],
        "MCS Lock" => vec![part(mcs_lock::make_spec(), &[], mcs_lock::unit_test(ords))],
        "MPMC Queue" => vec![
            part(mpmc::make_spec(), &[], mpmc::unit_test(ords.clone())),
            part(mpmc::make_spec(), &[], mpmc::unit_test_wrap(ords)),
        ],
        "M&S Queue" => vec![part(ms_queue::make_spec(), &[], ms_queue::unit_test(ords))],
        "Linux RW Lock" => vec![part(rw_lock::make_spec(), &[], rw_lock::unit_test(ords))],
        "Seqlock" => vec![part(
            seqlock::make_spec(),
            &["read"],
            seqlock::unit_test(ords),
        )],
        "Ticket Lock" => vec![part(
            ticket_lock::make_spec(),
            &[],
            ticket_lock::unit_test(ords),
        )],
        other => panic!("no suite parts known for benchmark {other:?}"),
    }
}

/// Explore every part of `bench`'s suite through `explore_factory` with
/// the timing plugin, merged the way `check_suite` merges parts.
fn explore_parts(
    bench: &Benchmark,
    config: &mc::Config,
    t: &Traced,
    parent: u64,
    item: u64,
) -> (mc::Stats, Vec<StopReason>) {
    let mut acc = mc::Stats::default();
    let mut stops = Vec::new();
    for p in parts(bench.name, bench.default_ords()) {
        let factory = timed_factory(
            p.checker,
            p.probe,
            Arc::clone(&t.core),
            Arc::clone(&t.tracer),
        );
        let stats = span(Some(&t.tracer), "mc.explore", parent, item, |id| {
            t.tracer.explore.store(id, Ordering::Relaxed);
            mc::explore_factory(config.clone(), factory, p.test)
        });
        stops.push(stats.stop);
        let stop_here = stats.buggy() || stats.truncated();
        acc.continue_with(stats);
        if stop_here {
            break;
        }
    }
    (acc, stops)
}
