//! A long-lived `SpecChecker`, whose enumeration buffers carry over from
//! one execution to the next, reports exactly what a fresh checker
//! reports, on every feasible execution of every registry structure and
//! of every Chase-Lev and MPMC one-step weakening. A replay-counting spec
//! shows that every execution is checked in full, however often its rf
//! class repeats.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cdsspec::c11::relations::rf_signature;
use cdsspec::core::{self as spec, Spec, SpecChecker};
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

/// Runs the long-lived checker and a fresh one on every feasible trace.
struct Differential<S> {
    long_lived: SpecChecker<S>,
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
        let got = self.long_lived.check(trace);
        let want = SpecChecker::new(Arc::clone(&self.spec)).check(trace);
        let mut report = self.report.lock().unwrap();
        report.checked += 1;
        if !want.is_empty() {
            report.buggy.push(rf_signature(trace));
        }
        if rendered(&got) != rendered(&want) {
            let message = format!(
                "long-lived {:?} vs fresh {:?}",
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
            long_lived: SpecChecker::new(Arc::clone(&spec)),
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

/// A register spec counting every side-effect replay in `replays`.
fn counting_spec(replays: &Arc<AtomicUsize>) -> Spec<i64> {
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
        })
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

#[test]
fn every_execution_replays() {
    let replays = Arc::new(AtomicUsize::new(0));
    let spec = Arc::new(counting_spec(&replays));
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    // One worker, so the factory runs once: a single checker lives for
    // the whole exploration.
    let factory: mc::PluginFactory = Arc::new(move || {
        let (replays, sink) = (Arc::clone(&replays), Arc::clone(&sink));
        let mut checker = SpecChecker::new(Arc::clone(&spec));
        let plugin = mc::FnPlugin::new("cdsspec", move |trace| {
            let before = replays.load(Ordering::Relaxed);
            let bugs = checker.check(trace);
            let replayed = replays.load(Ordering::Relaxed) - before;
            sink.lock().unwrap().push((rf_signature(trace), replayed));
            bugs
        });
        vec![Box::new(plugin) as Box<dyn Plugin>]
    });
    let config = Config {
        workers: 1,
        stop_on_first_bug: false,
        ..Config::default()
    };
    let stats = mc::explore_factory(config, factory, fenced_store_buffering);
    assert!(stats.bugs.is_empty(), "the register is correct");
    // Replays and sightings of each rf class, by signature.
    let mut classes: HashMap<u64, (usize, usize)> = HashMap::new();
    for (sig, replayed) in std::mem::take(&mut *log.lock().unwrap()) {
        match classes.entry(sig) {
            Entry::Vacant(slot) => {
                assert!(replayed > 0, "the first sighting of a class must replay");
                slot.insert((replayed, 1));
            }
            Entry::Occupied(mut slot) => {
                let (first, sightings) = slot.get_mut();
                *sightings += 1;
                assert_eq!(
                    replayed, *first,
                    "sighting {sightings} of a class must replay like the first"
                );
            }
        }
    }
    assert!(
        classes.values().any(|&(_, sightings)| sightings >= 3),
        "some rf class must be seen at least three times"
    );
}
