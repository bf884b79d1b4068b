//! `spec-wide`: a seeded stream of `core::check` calls whose call order
//! `r` is wide but whose choice trees are tiny — the reverse of
//! `verify-fig7`. Every ordering point is a relaxed operation on a
//! location of its own, so `r` is just the per-thread program order and
//! a test of threads with `c1..ck` calls has `(Σc)! / Π(ci!)` histories,
//! all of which a passing spec must replay. History enumeration and spec
//! replay in `core` do almost all the work.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use cdsspec_core::{self as spec, Spec, SpecChecker};
use cdsspec_mc::{self as mc, BugCategory, MemOrd::Relaxed, Plugin, StopReason};

use crate::measure::Rng;
use crate::trace::{span, timed_factory, Probe};
use crate::workload::{pinned_config, Tally, Traced, Workload};

/// Items per pass: ten blocks of [`BLOCK`], generated once per run.
const PASS_ITEMS: usize = 100;

/// Calls per modeled thread of each item shape. Every shape stays below
/// the 50,000-history cap: 25,200 / 27,720 / 34,650 histories for the
/// passing shapes.
const SHAPE_A: &[usize] = &[3, 3, 2, 2];
const SHAPE_B: &[usize] = &[5, 4, 3];
const SHAPE_C: &[usize] = &[4, 4, 4];
const SHAPE_BUG: &[usize] = &[3, 2, 2, 2];

/// One block of ten items: a failing minority of one, and three items
/// of each passing shape. Every run has the same mix, so the latency
/// quantiles fall inside one shape (p50 in B, p90 in C) instead of
/// between two.
const BLOCK: [(&[usize], bool); 10] = [
    (SHAPE_BUG, true),
    (SHAPE_A, false),
    (SHAPE_A, false),
    (SHAPE_A, false),
    (SHAPE_B, false),
    (SHAPE_B, false),
    (SHAPE_B, false),
    (SHAPE_C, false),
    (SHAPE_C, false),
    (SHAPE_C, false),
];

#[derive(Clone, Copy, Debug)]
enum Call {
    Add(i64),
    Put(i64),
    Probe,
}

struct Item {
    /// Calls of modeled thread `t`; thread 0 is the test's main thread.
    threads: Arc<Vec<Vec<Call>>>,
    /// Checked against the spec that fails on some history.
    buggy: bool,
}

#[derive(Default)]
struct State {
    sum: i64,
    puts: u64,
    last_put: i64,
}

/// The spec an item is checked against. Without `monotone` every
/// method commutes, so every history passes and every one must be
/// replayed. With it, `put` values must arrive in increasing order,
/// which two concurrent puts of different values violate in some
/// history. `probe` carries a justifying condition, so its
/// justification subhistories are searched too.
fn make_spec(monotone: bool) -> Spec<State> {
    let spec = Spec::new("spec-wide", State::default)
        .method("add", |m| {
            m.side_effect(|s, e| s.sum += e.arg(0).as_i64())
                .post(|s, e| s.sum >= e.arg(0).as_i64())
        })
        .method("probe", |m| {
            m.side_effect(|s, e| e.set_s_ret(s.puts as i64))
                .post(|_, e| e.ret().as_i64() == 0)
                .justify_post(|s, _| s.sum >= 0)
        });
    if monotone {
        spec.method("put", |m| {
            m.side_effect(|s, e| {
                e.set_s_ret(s.last_put);
                s.last_put = e.arg(0).as_i64();
            })
            .post(|_, e| e.arg(0).as_i64() > e.s_ret.as_i64())
        })
    } else {
        spec.method("put", |m| {
            m.side_effect(|s, _| s.puts += 1).post(|s, _| s.puts >= 1)
        })
    }
}

/// One method call: its ordering point is a relaxed access to a fresh
/// location nobody else touches.
fn invoke(obj: u64, call: Call) {
    let loc = mc::Atomic::new(0i64);
    let (name, arg) = match call {
        Call::Add(k) => ("add", k),
        Call::Put(v) => ("put", v),
        Call::Probe => {
            spec::method_begin(obj, "probe");
            let v = loc.load(Relaxed);
            spec::op_define();
            spec::method_end(v);
            return;
        }
    };
    spec::method_begin(obj, name);
    spec::arg(arg);
    loc.store(arg, Relaxed);
    spec::op_define();
    spec::method_end(());
}

fn unit_test(threads: &Arc<Vec<Vec<Call>>>) -> impl Fn() + Send + Sync + 'static {
    let threads = Arc::clone(threads);
    move || {
        let obj = mc::new_object_id();
        let handles: Vec<_> = (1..threads.len())
            .map(|t| {
                let threads = Arc::clone(&threads);
                mc::thread::spawn(move || threads[t].iter().for_each(|&c| invoke(obj, c)))
            })
            .collect();
        threads[0].iter().for_each(|&c| invoke(obj, c));
        handles.into_iter().for_each(|h| h.join());
    }
}

fn generate(rng: &mut Rng, shape: &[usize], buggy: bool) -> Item {
    let mut counts = shape.to_vec();
    rng.shuffle(&mut counts);
    let mut threads: Vec<Vec<Call>> = counts
        .iter()
        .map(|&n| {
            (0..n)
                .map(|_| {
                    let arg = 1 + rng.below(100) as i64;
                    match rng.below(5) {
                        0 | 1 => Call::Add(arg),
                        2 | 3 => Call::Put(arg),
                        _ => Call::Probe,
                    }
                })
                .collect()
        })
        .collect();
    if buggy {
        // Two concurrent puts of different values guarantee a failing
        // history.
        let a = 1 + rng.below(100) as i64;
        threads[0][0] = Call::Put(a);
        threads[1][0] = Call::Put(a + 1 + rng.below(50) as i64);
    }
    Item {
        threads: Arc::new(threads),
        buggy,
    }
}

pub struct SpecWide {
    items: Vec<Item>,
    seed: u64,
    config: mc::Config,
}

impl SpecWide {
    pub fn new(seed: u64) -> SpecWide {
        let mut rng = Rng::new(seed, u64::MAX);
        let items = (0..PASS_ITEMS)
            .map(|n| {
                let (shape, buggy) = BLOCK[n % BLOCK.len()];
                generate(&mut rng, shape, buggy)
            })
            .collect();
        SpecWide {
            items,
            seed,
            config: pinned_config(20_000_000),
        }
    }
}

impl Workload for SpecWide {
    /// One block of items: a single item (~10 ms) would leave set-up
    /// dominated by process start.
    fn warm_up(&mut self) {
        for item in &self.items[..BLOCK.len()] {
            let _ = spec::check(
                self.config.clone(),
                make_spec(item.buggy),
                unit_test(&item.threads),
            );
        }
    }

    fn pass(&mut self, index: usize, traced: Option<&Traced>, tally: &mut Tally) -> Vec<f64> {
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        Rng::new(self.seed, index as u64).shuffle(&mut order);
        let mut item_s = vec![0.0; self.items.len()];
        for n in order {
            let item = &self.items[n];
            let test = unit_test(&item.threads);
            let t0 = Instant::now();
            let stats = match traced {
                None => spec::check(self.config.clone(), make_spec(item.buggy), test),
                Some(t) => {
                    let id = (index * PASS_ITEMS + n) as u64 + 1;
                    t.tracer.item.store(id, Ordering::Relaxed);
                    span(Some(&t.tracer), "item", t.root, id, |item_span| {
                        let s = Arc::new(make_spec(item.buggy));
                        let probe = Probe {
                            policy: s.policy,
                            justified: &["probe"],
                        };
                        let checker = Arc::new(move || {
                            Box::new(SpecChecker::new(Arc::clone(&s))) as Box<dyn Plugin>
                        });
                        let factory = timed_factory(
                            checker,
                            probe,
                            Arc::clone(&t.core),
                            Arc::clone(&t.tracer),
                        );
                        span(Some(&t.tracer), "mc.explore", item_span, id, |explore| {
                            t.tracer.explore.store(explore, Ordering::Relaxed);
                            mc::explore_factory(self.config.clone(), factory, test)
                        })
                    })
                }
            };
            let busy = t0.elapsed();
            item_s[n] = busy.as_secs_f64();
            tally.verdict_ms.push(busy.as_secs_f64() * 1e3);
            tally.mc.add(&stats, busy);
            let first = stats.bugs.first().map(|b| b.bug.category());
            let ok = if item.buggy {
                first == Some(BugCategory::Assertion)
            } else {
                first.is_none() && stats.stop == StopReason::Exhausted
            };
            tally.verdict(
                ok,
                format_args!(
                    "item {n} (threads {:?}, failing spec {}): first bug {first:?}, stop {:?}",
                    item.threads, item.buggy, stats.stop
                ),
            );
            tally.counts.push(format!(
                "item {n} executions={} feasible={} rf_classes={} verdict={first:?}",
                stats.executions,
                stats.feasible,
                stats.rf_classes.len()
            ));
        }
        item_s
    }

    fn describe(&self) -> String {
        format!("{:?}", self.config)
    }
}
