//! Heap allocations per execution stay within a pinned budget on every
//! Figure 7 benchmark.
//!
//! A counting global allocator tallies `alloc` and `realloc` calls per
//! OS thread. Each benchmark is explored exhaustively on one worker with
//! fiber hosting, so every modeled thread runs on the test thread and the
//! tally covers the whole exploration; the counts are deterministic, the
//! same in debug and release builds. Each bound is 1.10 times the lowest
//! count the row has been measured at, so an allocation regression of
//! more than 10% on any row fails here, while wall-clock performance is
//! left to `perfbench`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cdsspec::mc;
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
    ("Chase-Lev Deque", 38.94),
    ("SPSC Queue", 47.05),
    ("RCU", 48.59),
    ("Lockfree Hashtable", 46.08),
    ("MCS Lock", 29.28),
    ("MPMC Queue", 38.39),
    ("M&S Queue", 34.24),
    ("Linux RW Lock", 30.29),
    ("Seqlock", 28.59),
    ("Ticket Lock", 29.61),
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
