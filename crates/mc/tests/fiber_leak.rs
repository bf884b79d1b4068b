//! Fiber-hosted executions return every heap block they allocate.
//!
//! A fiber's root frame ends in a terminal stack switch and is never
//! unwound, so anything it still owned at that point would leak once per
//! fiber: the boxed job and a count on the execution's shared harness
//! (and, through it, the harness's trace and memory-state buffers). A
//! counting global allocator pins the fix: after a warm-up, more
//! explorations leave the number of live heap blocks unchanged.
//!
//! The explorations cover every way a fiber ends: completed executions,
//! sleep-pruned, diverged and buggy ones (whose threads drain through
//! `DieMarker` unwinds), and a fiber that is aborted before it ever ran.
//! Blocks are counted per OS thread: a fiber-hosted exploration runs
//! every modeled thread on the exploring thread, while the watchdog
//! monitor and the test harness allocate on their own schedule.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cdsspec_mc as mc;
use mc::MemOrd::{Acquire, Relaxed, Release};
use mc::{mc_assert, Atomic, Config, Stats};

thread_local! {
    /// Heap blocks allocated minus blocks freed on this OS thread. A
    /// const-initialized `Cell` needs no destructor and never allocates,
    /// so the allocator can use it at any point of a thread's life.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and touches no memory it hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-1);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn config() -> Config {
    Config {
        fiber_hosting: true,
        workers: 1,
        stop_on_first_bug: false,
        max_steps_per_thread: 24,
        ..Config::default()
    }
}

/// Release/acquire message passing: every execution completes.
fn message_passing() {
    let data = Atomic::new(0i32);
    let flag = Atomic::new(0i32);
    let t = mc::thread::spawn(move || {
        data.store(1, Relaxed);
        flag.store(1, Release);
    });
    if flag.load(Acquire) == 1 {
        mc_assert!(data.load(Relaxed) == 1);
    }
    t.join();
}

/// Store buffering between three threads on two locations: independent
/// stores and loads leave sleep-blocked executions behind.
fn store_buffering() {
    let x = Atomic::new(0i32);
    let y = Atomic::new(0i32);
    let a = mc::thread::spawn(move || {
        x.store(1, Relaxed);
        y.load(Relaxed);
    });
    let b = mc::thread::spawn(move || {
        y.store(1, Relaxed);
        x.load(Relaxed);
    });
    x.load(Relaxed);
    y.load(Relaxed);
    a.join();
    b.join();
}

/// A spin loop without a progress hint: executions that keep reading the
/// stale flag run past the step bound and diverge.
fn unbounded_spin() {
    let flag = Atomic::new(0i32);
    let t = mc::thread::spawn(move || flag.store(1, Release));
    while flag.load(Acquire) == 0 {}
    t.join();
}

/// Relaxed message passing: the stale read fails an assertion.
fn racy_message_passing() {
    let data = Atomic::new(0i32);
    let flag = Atomic::new(0i32);
    let t = mc::thread::spawn(move || {
        data.store(1, Relaxed);
        flag.store(1, Relaxed);
    });
    if flag.load(Relaxed) == 1 {
        mc_assert!(data.load(Relaxed) == 1);
    }
    t.join();
}

/// The main thread fails before the child it spawned ever runs: the
/// child's fiber is started only to be aborted.
fn fails_before_child_runs() {
    let x = Atomic::new(0i32);
    let _t = mc::thread::spawn(move || {
        x.store(1, Relaxed);
    });
    mc_assert!(false, "main fails first");
}

fn explore_all() -> Vec<Stats> {
    let bodies: [fn(); 5] = [
        message_passing,
        store_buffering,
        unbounded_spin,
        racy_message_passing,
        fails_before_child_runs,
    ];
    bodies.iter().map(|&b| mc::explore(config(), b)).collect()
}

#[test]
fn fiber_hosted_explorations_do_not_leak() {
    // Warm-up: thread-local stack pools, the watchdog registry and the
    // panic hook reach their steady size.
    let stats = explore_all();
    let sum = |f: fn(&Stats) -> u64| stats.iter().map(f).sum::<u64>();
    assert!(sum(|s| s.feasible) > 0);
    assert!(sum(|s| s.sleep_pruned) > 0, "no sleep-pruned execution");
    assert!(sum(|s| s.diverged) > 0, "no diverged execution");
    assert!(stats[3].buggy() && stats[4].buggy(), "no buggy execution");
    let executions = sum(|s| s.executions);
    drop(stats);
    drop(explore_all());

    let before = live();
    for _ in 0..3 {
        drop(explore_all());
    }
    let after = live();
    assert_eq!(
        after - before,
        0,
        "{} live heap blocks leaked over 3 rounds of {executions} executions",
        after - before
    );
}
