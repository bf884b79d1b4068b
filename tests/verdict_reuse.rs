//! Verdict reuse is invisible: a long-lived `SpecChecker`, which skips
//! executions of rf classes it has already proven clean, reports exactly
//! what a fresh checker with an empty cache reports, on every feasible
//! execution of every registry structure and of every Chase-Lev and MPMC
//! one-step weakening. A replay-counting spec shows the cache doing its
//! job: repeats of a clean class replay nothing, while capped, sampled and
//! buggy classes are re-checked on every repeat.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cdsspec::c11::relations::rf_signature;
use cdsspec::core::{self as spec, HistoryPolicy, Spec, SpecChecker};
use cdsspec::mc::{self, Atomic, Bug, Config, MemOrd::*, Plugin};
use cdsspec::structures::{self as ds, Ords};

/// What one differential exploration saw.
#[derive(Default)]
struct Report {
    /// Executions both checkers judged.
    checked: usize,
    /// rf signatures of the executions the fresh checker found buggy.
    buggy: Vec<u64>,
    /// Executions whose rendered bug lists differ.
    mismatches: Vec<String>,
}

/// Runs the reusing checker and a fresh one on every feasible trace.
struct Differential<S> {
    reusing: SpecChecker<S>,
    spec: Arc<Spec<S>>,
    report: Arc<Mutex<Report>>,
}

fn rendered(bugs: &[Bug]) -> Vec<String> {
    bugs.iter().map(Bug::to_string).collect()
}

impl<S: Send + 'static> Plugin for Differential<S> {
    fn name(&self) -> &'static str {
        "cdsspec"
    }

    fn check(&mut self, trace: &cdsspec::c11::Trace) -> Vec<Bug> {
        let got = self.reusing.check(trace);
        let want = SpecChecker::new(Arc::clone(&self.spec)).check(trace);
        let mut report = self.report.lock().unwrap();
        report.checked += 1;
        if !want.is_empty() {
            report.buggy.push(rf_signature(trace));
        }
        if rendered(&got) != rendered(&want) {
            let message = format!(
                "reusing {:?} vs fresh {:?}",
                rendered(&got),
                rendered(&want)
            );
            report.mismatches.push(message);
        }
        want
    }
}

fn differential<S, T>(config: &Config, spec: Spec<S>, test: T) -> Report
where
    S: Send + 'static,
    T: Fn() + Send + Sync + 'static,
{
    let spec = Arc::new(spec);
    let report = Arc::new(Mutex::new(Report::default()));
    let sink = Arc::clone(&report);
    let factory: mc::PluginFactory = Arc::new(move || {
        vec![Box::new(Differential {
            reusing: SpecChecker::new(Arc::clone(&spec)),
            spec: Arc::clone(&spec),
            report: Arc::clone(&sink),
        }) as Box<dyn Plugin>]
    });
    mc::explore_factory(config.clone(), factory, test);
    let report = std::mem::take(&mut *report.lock().unwrap());
    report
}

/// One unit test under its spec, run by [`differential`].
type Part = Box<dyn Fn(&Config) -> Report>;

fn part<S, T>(make_spec: fn() -> Spec<S>, make_test: impl Fn() -> T + 'static) -> Part
where
    S: Send + 'static,
    T: Fn() + Send + Sync + 'static,
{
    Box::new(move |config| differential(config, make_spec(), make_test()))
}

fn chase_lev_parts(ords: Ords) -> Vec<Part> {
    let last = ords.clone();
    vec![
        part(ds::chase_lev::make_spec, move || {
            ds::chase_lev::unit_test(ords.clone())
        }),
        part(ds::chase_lev::make_spec, move || {
            ds::chase_lev::unit_test_last_element(last.clone())
        }),
    ]
}

fn mpmc_parts(ords: Ords) -> Vec<Part> {
    let wrap = ords.clone();
    vec![
        part(ds::mpmc::make_spec, move || {
            ds::mpmc::unit_test(ords.clone())
        }),
        part(ds::mpmc::make_spec, move || {
            ds::mpmc::unit_test_wrap(wrap.clone())
        }),
    ]
}

/// Every part of every registry benchmark under its correct orderings.
fn registry_suite() -> Vec<(&'static str, Vec<Part>)> {
    macro_rules! single {
        ($m:ident) => {
            vec![part(ds::$m::make_spec, || {
                ds::$m::unit_test(Ords::defaults(ds::$m::SITES))
            })]
        };
    }
    vec![
        (
            "Chase-Lev Deque",
            chase_lev_parts(Ords::defaults(ds::chase_lev::SITES)),
        ),
        ("SPSC Queue", single!(spsc)),
        ("RCU", single!(rcu)),
        ("Lockfree Hashtable", single!(hashtable)),
        ("MCS Lock", single!(mcs_lock)),
        ("MPMC Queue", mpmc_parts(Ords::defaults(ds::mpmc::SITES))),
        ("M&S Queue", single!(ms_queue)),
        ("Linux RW Lock", single!(rw_lock)),
        ("Seqlock", single!(seqlock)),
        ("Ticket Lock", single!(ticket_lock)),
    ]
}

fn assert_agrees(what: &str, report: &Report) {
    assert!(report.checked > 0, "{what}: nothing checked");
    assert!(
        report.mismatches.is_empty(),
        "{what}: {} of {} executions differ, first: {}",
        report.mismatches.len(),
        report.checked,
        report.mismatches[0]
    );
}

#[test]
fn registry_verdicts_match_a_fresh_checker() {
    let suite = registry_suite();
    let names: Vec<&str> = suite.iter().map(|(name, _)| *name).collect();
    let registry: Vec<&str> = ds::registry::benchmarks().iter().map(|b| b.name).collect();
    assert_eq!(names, registry, "the suite covers every registry benchmark");
    for workers in [1, 2] {
        let config = Config {
            workers,
            ..Config::default()
        };
        for (name, parts) in &suite {
            for (i, run) in parts.iter().enumerate() {
                let report = run(&config);
                assert_agrees(&format!("{name} part {i} at {workers} worker(s)"), &report);
                assert!(report.buggy.is_empty(), "{name} is correct");
            }
        }
    }
}

/// Run every one-step weakening of a benchmark's sites through
/// [`differential`]; returns how many buggy executions repeated a class
/// already found buggy in the same exploration.
fn weakenings(name: &str, sites: &'static [ds::SiteSpec], parts: fn(Ords) -> Vec<Part>) -> usize {
    let config = Config {
        workers: 1,
        stop_on_first_bug: false,
        max_executions: 3_000,
        ..Config::default()
    };
    let mut repeats = 0;
    for site in Ords::defaults(sites).injectable_sites() {
        let mut ords = Ords::defaults(sites);
        if !ords.weaken(site) {
            continue;
        }
        for (i, run) in parts(ords).iter().enumerate() {
            let report = run(&config);
            let what = format!("{name} weakened at {} part {i}", sites[site].name);
            assert_agrees(&what, &report);
            let mut classes = report.buggy.clone();
            classes.sort_unstable();
            classes.dedup();
            repeats += report.buggy.len() - classes.len();
        }
    }
    repeats
}

#[test]
fn weakened_verdicts_match_a_fresh_checker() {
    let repeats = weakenings("Chase-Lev", ds::chase_lev::SITES, chase_lev_parts)
        + weakenings("MPMC", ds::mpmc::SITES, mpmc_parts);
    assert!(repeats > 0, "some buggy class must repeat");
}

/// An annotated register for the replay-counting spec.
#[derive(Clone)]
struct Register {
    obj: u64,
    cell: Atomic<i64>,
}

impl Register {
    fn new() -> Self {
        Register {
            obj: mc::new_object_id(),
            cell: Atomic::new(0),
        }
    }

    fn put(&self, v: i64) {
        spec::method_begin(self.obj, "put");
        spec::arg(v);
        self.cell.store(v, Release);
        spec::op_define();
        spec::method_end(());
    }

    fn get(&self) -> i64 {
        spec::method_begin(self.obj, "get");
        let v = self.cell.load(Acquire);
        spec::op_define();
        spec::method_end(v);
        v
    }
}

/// A register spec counting every side-effect replay in `replays`; with
/// `buggy`, every `get` fails its postcondition.
fn counting_spec(replays: &Arc<AtomicUsize>, policy: HistoryPolicy, buggy: bool) -> Spec<i64> {
    let (on_put, on_get) = (Arc::clone(replays), Arc::clone(replays));
    Spec::new("register", || 0)
        .method("put", move |m| {
            m.side_effect(move |st, e| {
                on_put.fetch_add(1, Ordering::Relaxed);
                *st = e.arg(0).as_i64();
            })
        })
        .method("get", move |m| {
            m.side_effect(move |st, e| {
                on_get.fetch_add(1, Ordering::Relaxed);
                e.set_s_ret(*st);
            })
            .post(move |_, _| !buggy)
        })
        .with_policy(policy)
}

/// Store buffering with `seq_cst` fences around a register: many
/// schedules share each rf class.
fn fenced_store_buffering() {
    let r = Register::new();
    let (x, y) = (Atomic::new(0i64), Atomic::new(0i64));
    let w = r.clone();
    let t = mc::thread::spawn(move || {
        x.store(1, Relaxed);
        mc::fence(SeqCst);
        let _ = y.load(Relaxed);
        w.put(1);
    });
    y.store(1, Relaxed);
    mc::fence(SeqCst);
    let _ = x.load(Relaxed);
    let _ = r.get();
    t.join();
}

/// Side-effect replays of every checked execution, numbered by how often
/// its rf class had been seen before: `(sighting, replays)`. Asserts that
/// every execution got the verdict `buggy` asks for.
fn replays_by_sighting(policy: HistoryPolicy, buggy: bool) -> Vec<(usize, usize)> {
    let replays = Arc::new(AtomicUsize::new(0));
    let mut checker = SpecChecker::new(Arc::new(counting_spec(&replays, policy, buggy)));
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let plugin = mc::FnPlugin::new("cdsspec", move |trace| {
        let before = replays.load(Ordering::Relaxed);
        let bugs = checker.check(trace);
        let sighting = seen.entry(rf_signature(trace)).or_insert(0);
        let replayed = replays.load(Ordering::Relaxed) - before;
        sink.lock()
            .unwrap()
            .push((*sighting, replayed, !bugs.is_empty()));
        *sighting += 1;
        bugs
    });
    let config = Config {
        workers: 1,
        stop_on_first_bug: false,
        ..Config::default()
    };
    mc::explore_with_plugins(config, vec![Box::new(plugin)], fenced_store_buffering);
    let log = std::mem::take(&mut *log.lock().unwrap());
    assert!(
        log.iter().all(|&(_, _, found)| found == buggy),
        "{policy:?}: every verdict must be buggy={buggy}"
    );
    assert!(
        log.iter().any(|&(sighting, _, _)| sighting >= 2),
        "some rf class must repeat at least twice"
    );
    log.into_iter()
        .map(|(sighting, replayed, _)| (sighting, replayed))
        .collect()
}

#[test]
fn repeats_of_a_clean_class_replay_nothing() {
    for (sighting, replayed) in replays_by_sighting(HistoryPolicy::default(), false) {
        // The first sighting only notes the signature; the second proves
        // the class clean; from the third on the verdict is reused.
        if sighting < 2 {
            assert!(replayed > 0, "sighting {sighting} must be checked");
        } else {
            assert_eq!(replayed, 0, "sighting {sighting} must be reused");
        }
    }
}

#[test]
fn capped_sampled_and_buggy_classes_are_rechecked() {
    let cases = [
        (HistoryPolicy::Exhaustive { cap: 1 }, false),
        (HistoryPolicy::Sample { count: 2, seed: 7 }, false),
        (HistoryPolicy::default(), true),
    ];
    for (policy, buggy) in cases {
        for (sighting, replayed) in replays_by_sighting(policy, buggy) {
            assert!(
                replayed > 0,
                "{policy:?} buggy={buggy}: sighting {sighting} was not re-checked"
            );
        }
    }
}
