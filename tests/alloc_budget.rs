//! Heap allocations per execution stay within a pinned budget on every
//! Figure 7 benchmark, and a warm explorer with the specification checker
//! allocates nothing per execution.
//!
//! A counting global allocator tallies `alloc` and `realloc` calls per
//! OS thread. Each exploration runs on one worker with fiber hosting, so
//! every modeled thread runs on the test thread and the tally covers the
//! whole exploration; the counts are deterministic, the same in debug and
//! release builds. Each budget is 1.10 times the lowest count the row has
//! been measured at, so an allocation regression of more than 10% on any
//! row fails here, while wall-clock performance is left to `perfbench`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cdsspec::c11::relations::rf_signature;
use cdsspec::core::{self as spec, SpecChecker};
use cdsspec::mc::{self, Atomic, Data, MemOrd};
use cdsspec::structures::registry::benchmarks;

thread_local! {
    /// `alloc` plus `realloc` calls made on this OS thread. A
    /// const-initialized `Cell` needs no destructor and never allocates,
    /// so the allocator can use it at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and touches no memory it hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations per execution allowed for each benchmark, in Figure 7
/// order.
const BUDGET: [(&str, f64); 10] = [
    ("Chase-Lev Deque", 11.54),
    ("SPSC Queue", 16.07),
    ("RCU", 31.08),
    ("Lockfree Hashtable", 13.03),
    ("MCS Lock", 10.14),
    ("MPMC Queue", 6.85),
    ("M&S Queue", 10.68),
    ("Linux RW Lock", 6.76),
    ("Seqlock", 8.43),
    ("Ticket Lock", 15.13),
];

#[test]
fn allocations_per_execution_stay_within_budget() {
    let benches = benchmarks();
    assert_eq!(benches.len(), BUDGET.len());
    let mut over = Vec::new();
    for (bench, &(name, budget)) in benches.iter().zip(&BUDGET) {
        assert_eq!(bench.name, name);
        // One worker and fiber hosting keep all the work on this thread,
        // whatever `CDSSPEC_WORKERS` or `CDSSPEC_FIBER_HOSTING` say.
        let config = mc::Config {
            max_executions: 3_000_000,
            workers: 1,
            fiber_hosting: true,
            debug_audit: false,
            ..mc::Config::default()
        };
        let before = allocs();
        let stats = bench.check_default(config);
        let per_exec = (allocs() - before) as f64 / stats.executions as f64;
        assert!(!stats.buggy(), "{name}: bug under correct orderings");
        assert_eq!(stats.stop, mc::StopReason::Exhausted, "{name}");
        println!("{name:<20} {per_exec:>6.2} allocs/exec (budget {budget:.2})");
        if per_exec > budget {
            over.push(format!("{name}: {per_exec:.2} > {budget:.2}"));
        }
    }
    assert!(over.is_empty(), "allocs/exec over budget: {over:?}");
}

/// A register whose handle is two words and whose specification state is
/// an `i64`: exploring it, only the engine and the checker could allocate.
#[derive(Clone, Copy)]
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

    fn write(self, v: i64) {
        spec::method_begin(self.obj, "write");
        spec::arg(v);
        self.cell.store(v, MemOrd::Relaxed);
        spec::op_define();
        spec::method_end(());
    }

    fn read(self) -> i64 {
        spec::method_begin(self.obj, "read");
        let v = self.cell.load(MemOrd::Relaxed);
        spec::op_define();
        spec::method_end(v);
        v
    }
}

/// A read returns the last write of some justifying prefix, or the value
/// of a concurrent write (the §2.2 register, which exercises `CONCURRENT`
/// and the justification walk).
fn register_spec() -> spec::Spec<i64> {
    spec::Spec::new("register", || 0i64)
        .method("write", |m| m.side_effect(|s, e| *s = e.arg(0).as_i64()))
        .method("read", |m| {
            m.side_effect(|s, e| e.set_s_ret(*s)).justify_post(|_, e| {
                e.ret() == e.s_ret
                    || e.concurrent
                        .iter()
                        .any(|c| c.name == "write" && c.arg(0) == e.ret())
            })
        })
}

/// Room for this many executions in the statics below.
const MAX_EXECS: usize = 1 << 12;

/// Allocations on the test thread when execution `k` started, stored by
/// the test closure itself (statics, so recording allocates nothing).
static STARTED_AT: [AtomicU64; MAX_EXECS] = [const { AtomicU64::new(0) }; MAX_EXECS];
/// Executions started so far.
static STARTED: AtomicU64 = AtomicU64::new(0);
/// Execution `k` completed with an rf class no earlier one had.
static FRESH: [AtomicBool; MAX_EXECS] = [const { AtomicBool::new(false) }; MAX_EXECS];

/// Boxed closures per execution: each `mc::thread::spawn` boxes its
/// closure, which captures the register.
const SPAWN_BOXES: u64 = 2;

/// After warm-up, an execution costs the engine, the axiom audit and the
/// specification checker no allocation at all: from one execution's start
/// to the next one's, the only allocations are the execution's two spawn
/// boxes. The one exception is an execution that completes with a new rf
/// class, which may grow the explorer's class set. The reduced tree
/// (sleep sets and rf pruning) runs many sleep-blocked executions out; the
/// unreduced one completes many executions of an already-seen class, each
/// checked by the plugin.
#[test]
fn a_warm_explorer_allocates_only_spawn_boxes() {
    let reduced = mc::Config {
        workers: 1,
        fiber_hosting: true,
        ..mc::Config::default()
    };
    let unreduced = mc::Config {
        sleep_sets: false,
        rf_prune: false,
        ..reduced.clone()
    };
    for config in [reduced, unreduced] {
        STARTED.store(0, Ordering::SeqCst);
        for fresh in &FRESH {
            fresh.store(false, Ordering::SeqCst);
        }
        let spec = Arc::new(register_spec());
        let factory: mc::PluginFactory = Arc::new(move || {
            let mut plugins = SpecChecker::plugins(Arc::clone(&spec));
            let mut classes = HashSet::with_capacity(MAX_EXECS);
            plugins.push(Box::new(mc::FnPlugin::new("fresh-class", move |trace| {
                let k = STARTED.load(Ordering::SeqCst) as usize - 1;
                FRESH[k].store(classes.insert(rf_signature(trace)), Ordering::SeqCst);
                Vec::new()
            })));
            plugins
        });
        let stats = mc::explore_factory(config, factory, || {
            let k = STARTED.fetch_add(1, Ordering::SeqCst) as usize;
            STARTED_AT[k].store(allocs(), Ordering::SeqCst);
            let r = Register::new();
            let d = Data::new(0u32);
            d.write(1);
            let a = mc::thread::spawn(move || {
                r.write(1);
                let _ = d.read();
                let _ = r.read();
            });
            let b = mc::thread::spawn(move || {
                r.write(2);
                let _ = r.read();
                let _ = r.read();
            });
            r.write(3);
            let _ = r.read();
            a.join();
            b.join();
            let _ = r.read();
        });
        let what = stats.summary();
        assert!(!stats.buggy(), "{what}");
        assert_eq!(stats.stop, mc::StopReason::Exhausted, "{what}");
        let execs = STARTED.load(Ordering::SeqCst) as usize;
        assert_eq!(execs as u64, stats.executions, "{what}");
        let mut checked = 0;
        let mut extra = Vec::new();
        for k in execs / 2..execs - 1 {
            if FRESH[k].load(Ordering::SeqCst) {
                continue;
            }
            checked += 1;
            let spent =
                STARTED_AT[k + 1].load(Ordering::SeqCst) - STARTED_AT[k].load(Ordering::SeqCst);
            if spent != SPAWN_BOXES {
                extra.push((k, spent));
            }
        }
        println!("{what}: {checked} executions checked after warm-up, {extra:?} over budget");
        assert!(checked >= 30, "{what}");
        assert!(
            extra.is_empty(),
            "{what}: (execution, allocations) after warm-up: {extra:?}"
        );
    }
}
