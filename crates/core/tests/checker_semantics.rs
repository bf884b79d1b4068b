//! Semantic tests of the checker internals (`extract_calls`,
//! `build_call_order`, history caps) against real traces produced by the
//! model checker, via a probe plugin.

use cdsspec_core as spec;
use cdsspec_mc as mc;
use mc::MemOrd::*;
use mc::{Atomic, Config};
use spec::{
    build_call_order, extract_calls, for_each_history, for_each_justifying_history, HistoryPolicy,
    Spec,
};
use std::sync::{Arc, Mutex};

/// One execution's probe record: (call name, value) list + `r` edge list.
type ProbeRecord = (Vec<(&'static str, i64)>, Vec<(usize, usize)>);

/// Record (per execution) the extracted calls and their order relation as
/// an edge list.
fn probe_orders<F>(test: F) -> Vec<ProbeRecord>
where
    F: Fn() + Send + Sync + 'static,
{
    let acc: Arc<Mutex<Vec<ProbeRecord>>> = Arc::new(Mutex::new(Vec::new()));
    let acc2 = Arc::clone(&acc);
    let plugin = mc::FnPlugin::new("probe", move |trace| {
        let calls = extract_calls(trace).expect("well-formed annotations");
        let order = build_call_order(trace, &calls);
        let names: Vec<(&'static str, i64)> = calls
            .iter()
            .map(|c| {
                let v = match c.ret {
                    spec::SpecVal::I64(v) => v,
                    _ => c.args.first().map(|a| a.as_i64()).unwrap_or(0),
                };
                (c.name, v)
            })
            .collect();
        let mut edges = Vec::new();
        for i in 0..calls.len() {
            for j in 0..calls.len() {
                if i != j && order.ordered(i, j) {
                    edges.push((i, j));
                }
            }
        }
        acc2.lock().unwrap().push((names, edges));
        Vec::new()
    });
    let stats = mc::explore_with_plugins(Config::default(), vec![Box::new(plugin)], test);
    assert!(!stats.buggy());
    Arc::try_unwrap(acc).unwrap().into_inner().unwrap()
}

/// A tiny annotated register for driving the probes.
#[derive(Clone)]
struct Probe {
    obj: u64,
    cell: Atomic<i64>,
}

impl Probe {
    fn new() -> Self {
        Probe {
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

/// Same-thread calls are always r-ordered by program order (sb ⊆ hb).
#[test]
fn program_order_always_orders_calls() {
    for (names, edges) in probe_orders(|| {
        let p = Probe::new();
        p.put(1);
        p.put(2);
        let _ = p.get();
    }) {
        assert_eq!(names.len(), 3);
        assert!(edges.contains(&(0, 1)), "{edges:?}");
        assert!(edges.contains(&(1, 2)), "{edges:?}");
        assert!(edges.contains(&(0, 2)), "transitive closure: {edges:?}");
    }
}

/// A reader that observed the writer's release store is ordered after it;
/// a reader that read the initial value is not ordered after the write.
#[test]
fn reads_from_determines_cross_thread_order() {
    let runs = probe_orders(|| {
        let p = Probe::new();
        let p1 = p.clone();
        let t = mc::thread::spawn(move || p1.put(7));
        let _ = p.get();
        t.join();
    });
    let mut saw_ordered = false;
    let mut saw_concurrent = false;
    for (names, edges) in runs {
        let put = names.iter().position(|(n, _)| *n == "put").unwrap();
        let get = names.iter().position(|(n, _)| *n == "get").unwrap();
        let got = names[get].1;
        if got == 7 {
            assert!(
                edges.contains(&(put, get)),
                "acquired read ⇒ r-ordered: {edges:?}"
            );
            saw_ordered = true;
        } else {
            assert!(
                !edges.contains(&(put, get)) && !edges.contains(&(get, put)),
                "stale read ⇒ concurrent: {edges:?}"
            );
            saw_concurrent = true;
        }
    }
    assert!(
        saw_ordered && saw_concurrent,
        "both behaviors must be explored"
    );
}

/// Calls on different objects never share an order relation (per-object
/// grouping) — `build_call_order` is computed per group by the checker,
/// but even the raw relation across objects only ever flows through
/// ordering points, which we verify by probing two disjoint registers in
/// one thread: their calls interleave in program order.
#[test]
fn per_object_extraction_keeps_instances_apart() {
    let runs = probe_orders(|| {
        let a = Probe::new();
        let b = Probe::new();
        a.put(1);
        b.put(2);
        let _ = a.get();
        let _ = b.get();
    });
    for (names, _) in runs {
        assert_eq!(names.len(), 4);
        // Extraction preserved all four calls with their objects distinct —
        // the checker groups by obj before checking; here we just confirm
        // the records exist and carry values.
        assert_eq!(names.iter().filter(|(n, _)| *n == "put").count(), 2);
    }
}

/// OPClear inside a retry loop leaves exactly the final attempt as the
/// ordering point: a CAS-retry method is ordered by its last (successful)
/// operation, so two contending calls are always r-ordered.
#[test]
fn retry_loops_order_by_final_attempt() {
    #[derive(Clone)]
    struct Counter {
        obj: u64,
        cell: Atomic<i64>,
    }
    impl Counter {
        fn bump(&self) -> i64 {
            spec::method_begin(self.obj, "bump");
            let mut cur = self.cell.load(Acquire);
            loop {
                match self.cell.compare_exchange(cur, cur + 1, AcqRel, Acquire) {
                    Ok(old) => {
                        spec::op_clear_define();
                        spec::method_end(old);
                        return old;
                    }
                    Err(now) => {
                        cur = now;
                        mc::spin_loop();
                    }
                }
            }
        }
    }
    let runs = probe_orders(|| {
        let c = Counter {
            obj: mc::new_object_id(),
            cell: Atomic::new(0),
        };
        let c1 = c.clone();
        let t = mc::thread::spawn(move || {
            let _ = c1.bump();
        });
        let _ = c.bump();
        t.join();
    });
    for (names, edges) in runs {
        assert_eq!(names.len(), 2);
        assert!(
            edges.contains(&(0, 1)) || edges.contains(&(1, 0)),
            "contending RMW calls must always be ordered: {names:?} {edges:?}"
        );
    }
}

/// Three unsynchronized `put`s joined before a `get`: the `get`'s r-prefix
/// is the three pairwise-concurrent puts, so it has 3! = 6 justifying
/// subhistories and the execution 6 full histories.
fn wide_prefix() {
    let p = Probe::new();
    let handles: Vec<_> = (1..=3)
        .map(|v| {
            let p = p.clone();
            mc::thread::spawn(move || p.put(v))
        })
        .collect();
    handles.into_iter().for_each(|h| h.join());
    let _ = p.get();
}

/// A register spec whose `get` is never justified.
fn unjustifiable(policy: HistoryPolicy) -> Spec<()> {
    Spec::new("register", || ())
        .method("put", |m| m)
        .method("get", |m| m.justify_post(|_, _| false))
        .with_policy(policy)
}

fn first_bug(policy: HistoryPolicy) -> String {
    let stats = spec::check(Config::default(), unjustifiable(policy), wide_prefix);
    assert!(stats.buggy(), "an unjustifiable get must be reported");
    stats.bugs[0].bug.to_string()
}

/// A justification search cut short by the cap says so; only a complete
/// search reports that no subhistory permits the return value.
#[test]
fn capped_justification_is_not_a_failed_justification() {
    let capped = first_bug(HistoryPolicy::Exhaustive { cap: 3 });
    assert!(
        capped.contains("but the search was capped at 3 subhistories (prefix of 3 call(s))"),
        "{capped}"
    );
    assert!(!capped.contains("no justifying subhistory"), "{capped}");

    let complete = first_bug(HistoryPolicy::default());
    assert!(
        complete.contains("but no justifying subhistory permits it (prefix of 3 call(s))"),
        "{complete}"
    );
}

/// A sampled justification search reports how many subhistories it drew,
/// not that none exists.
#[test]
fn sampled_justification_names_its_sample() {
    let sampled = first_bug(HistoryPolicy::Sample { count: 2, seed: 7 });
    assert!(
        sampled.contains("but none of the 2 sampled subhistories permits it (prefix of 3 call(s))"),
        "{sampled}"
    );
    assert!(!sampled.contains("no justifying subhistory"), "{sampled}");
}

/// On the same wide order, a capped enumeration produces exactly `cap`
/// full histories and `cap` justifying subhistories.
#[test]
fn capped_enumeration_produces_exactly_cap_histories() {
    let counts = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&counts);
    let plugin = mc::FnPlugin::new("probe", move |trace| {
        let calls = extract_calls(trace).expect("well-formed annotations");
        let order = build_call_order(trace, &calls);
        let get = calls.iter().position(|c| c.name == "get").expect("one get");
        let count = |policy| {
            (
                for_each_history(&order, policy, |_| true),
                for_each_justifying_history(&order, get, policy, |h| {
                    assert_eq!(h.last(), Some(&get), "get is placed last");
                    true
                }),
            )
        };
        sink.lock().unwrap().push((
            count(HistoryPolicy::default()),
            count(HistoryPolicy::Exhaustive { cap: 3 }),
        ));
        Vec::new()
    });
    let stats = mc::explore_with_plugins(Config::default(), vec![Box::new(plugin)], wide_prefix);
    assert!(!stats.buggy());
    let counts = counts.lock().unwrap();
    assert!(!counts.is_empty());
    for &(full, capped) in counts.iter() {
        assert_eq!(full, (6, 6));
        assert_eq!(capped, (3, 3));
    }
}
