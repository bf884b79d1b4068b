//! Fiber hosting must be a pure transport change.
//!
//! With `Config::fiber_hosting` (the default) on x86_64 the runtime hosts
//! every modeled thread of an execution on the explorer's own OS thread,
//! moving control with userspace stack switches (`crate::fiber`) — on
//! Linux even with a hang watchdog configured, whose stall detection then
//! runs on a monitor thread. With `fiber_hosting: false` it hosts them on
//! pooled OS threads parked on condvars. The scheduling *decisions* are
//! made by the same code on the same state in all modes, so an
//! exploration must be indistinguishable between them: same executions in
//! the same DFS order, same per-execution traces, same bugs, same prune
//! counters.
//!
//! These tests pin that equivalence: random weakly-ordered programs are
//! explored under the fiber host (watchdog-free *and* watchdog-on) and
//! the OS-thread reference host, and every deterministic statistic plus
//! the exact per-execution rf-signature *sequence* must match; the bug
//! paths (user panics — i.e. unwinds through a fiber root — divergence
//! bounds, and watchdog hang injection) are exercised explicitly.

use std::sync::{Arc, Mutex};

use cdsspec_c11::{relations, Trace};
use cdsspec_mc as mc;
use mc::MemOrd::{self, *};
use mc::{Atomic, Bug, Config, Plugin};
use proptest::prelude::*;

/// A step of a random program (mirrors `proptest_lockstep`).
#[derive(Clone, Copy, Debug)]
enum Step {
    Load(usize),
    Store(usize, i64),
    FetchAdd(usize, i64),
    Cas(usize, i64, i64),
    Fence,
}

type Program = Vec<Vec<(Step, MemOrd)>>;

fn ord_strategy() -> impl Strategy<Value = MemOrd> {
    prop_oneof![
        Just(Relaxed),
        Just(Acquire),
        Just(Release),
        Just(AcqRel),
        Just(SeqCst),
    ]
}

fn step_strategy(locs: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..locs).prop_map(Step::Load),
        (0..locs, 1..6i64).prop_map(|(l, v)| Step::Store(l, v)),
        (0..locs, 1..3i64).prop_map(|(l, v)| Step::FetchAdd(l, v)),
        (0..locs, 0..6i64, 1..6i64).prop_map(|(l, e, n)| Step::Cas(l, e, n)),
        Just(Step::Fence),
    ]
}

fn program_strategy(threads: usize, steps: usize, locs: usize) -> impl Strategy<Value = Program> {
    prop::collection::vec(
        prop::collection::vec((step_strategy(locs), ord_strategy()), 1..=steps),
        1..=threads,
    )
}

fn legal_ord(step: Step, ord: MemOrd) -> MemOrd {
    match step {
        Step::Load(_) => match ord {
            Release | AcqRel => Acquire,
            o => o,
        },
        Step::Store(..) => match ord {
            Acquire | AcqRel => Release,
            o => o,
        },
        _ => ord,
    }
}

fn interp(steps: &[(Step, MemOrd)], cells: &[Atomic<i64>]) {
    for &(step, ord) in steps {
        let ord = legal_ord(step, ord);
        match step {
            Step::Load(l) => {
                cells[l].load(ord);
            }
            Step::Store(l, v) => cells[l].store(v, ord),
            Step::FetchAdd(l, v) => {
                cells[l].fetch_add(v, ord);
            }
            Step::Cas(l, e, n) => {
                let fail = ord.weaken_load().unwrap_or(Relaxed);
                let _ = cells[l].compare_exchange(e, n, ord, fail);
            }
            Step::Fence => mc::fence(ord),
        }
    }
}

fn modeled_closure(prog: Arc<Program>, locs: usize) -> impl Fn() + Send + Sync + 'static {
    move || {
        let cells: Vec<Atomic<i64>> = (0..locs).map(|_| Atomic::new(0)).collect();
        let mut handles = Vec::new();
        for steps in prog.iter().skip(1) {
            let steps = steps.clone();
            let cells = cells.clone();
            handles.push(mc::thread::spawn(move || {
                interp(&steps, &cells);
            }));
        }
        interp(&prog[0], &cells);
        for h in handles {
            h.join();
        }
    }
}

/// Records the rf signature of every feasible execution, in the order the
/// explorer produced them — a fingerprint of the entire DFS trajectory.
struct SigLog(Arc<Mutex<Vec<u64>>>);

impl Plugin for SigLog {
    fn name(&self) -> &'static str {
        "siglog"
    }
    fn check(&mut self, trace: &Trace) -> Vec<Bug> {
        self.0.lock().unwrap().push(relations::rf_signature(trace));
        Vec::new()
    }
}

/// The watchdog-free fiber host (the original fiber fast path).
fn fiber_config() -> Config {
    Config {
        max_executions: 300_000,
        hang_timeout: None,
        ..Config::default()
    }
}

/// The *default*-shaped fiber host: watchdog on, stall detection on the
/// monitor thread. On targets without watchdog preemption this resolves
/// to the pool — the equivalence assertions hold trivially there.
fn fiber_watchdog_config() -> Config {
    Config {
        hang_timeout: Some(std::time::Duration::from_secs(30)),
        ..fiber_config()
    }
}

/// The OS-thread reference host: `fiber_hosting: false` is the explicit
/// host switch (a configured watchdog no longer implies the pool).
fn os_thread_config() -> Config {
    Config {
        fiber_hosting: false,
        hang_timeout: Some(std::time::Duration::from_secs(30)),
        ..fiber_config()
    }
}

/// Explore `prog` under `config` and return the deterministic face of the
/// result: the counters plus the per-execution signature sequence.
#[allow(clippy::type_complexity)]
fn run(
    config: Config,
    prog: Arc<Program>,
) -> ((u64, u64, u64, u64, u64, u64), Vec<String>, Vec<u64>) {
    let sigs = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&sigs);
    let factory: mc::PluginFactory =
        Arc::new(move || vec![Box::new(SigLog(Arc::clone(&sink))) as Box<dyn Plugin>]);
    let stats = mc::explore_factory(config, factory, modeled_closure(prog, 2));
    let bugs: Vec<String> = stats.bugs.iter().map(|b| b.bug.to_string()).collect();
    let sigs = Arc::try_unwrap(sigs).unwrap().into_inner().unwrap();
    (
        (
            stats.executions,
            stats.feasible,
            stats.diverged,
            stats.sleep_pruned,
            stats.executions_pruned,
            stats.peak_depth,
        ),
        bugs,
        sigs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random programs: all three hosts — watchdog-free fibers,
    /// watchdog-on fibers (the `Config::default` shape), and the
    /// OS-thread pool — walk the identical DFS.
    #[test]
    fn fiber_and_os_hosting_explore_identically(prog in program_strategy(3, 3, 2)) {
        let prog = Arc::new(prog);
        let fib = run(fiber_config(), Arc::clone(&prog));
        let wd = run(fiber_watchdog_config(), Arc::clone(&prog));
        let os = run(os_thread_config(), prog);
        prop_assert_eq!(&fib, &os);
        prop_assert_eq!(&wd, &os);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Two workers: each shard explorer hosts its own fibers; the merged
    /// result must still match the OS-thread host at the same worker
    /// count (exhaustive runs are worker-count independent, so the
    /// per-worker signature interleaving is compared as a multiset).
    #[test]
    fn fiber_hosting_composes_with_shard_workers(prog in program_strategy(3, 3, 2)) {
        let prog = Arc::new(prog);
        let two = |base: Config| Config { workers: 2, ..base };
        let (fstats, fbugs, mut fsigs) = run(two(fiber_config()), Arc::clone(&prog));
        let (ostats, obugs, mut osigs) = run(two(os_thread_config()), prog);
        fsigs.sort_unstable();
        osigs.sort_unstable();
        prop_assert_eq!((fstats, fbugs, fsigs), (ostats, obugs, osigs));
    }
}

/// Smallest possible fiber exploration: one modeled thread, no spawns —
/// host→main switch, self-scheduling, finish, exit back to the host.
#[test]
fn a_single_fiber_round_trip() {
    let stats = mc::explore(fiber_config(), || {
        let a = Atomic::new(0i64);
        a.store(1, Relaxed);
        mc::mc_assert!(a.load(Relaxed) == 1);
    });
    assert!(!stats.buggy(), "{:?}", stats.bugs);
    assert_eq!(stats.feasible, 1);
}

/// Single fiber plus the DieMarker abort path (spin divergence, no
/// spawns): unwinding on a fiber stack, then exiting to the host.
#[test]
fn a_single_fiber_die_marker_unwind() {
    let stats = mc::explore(
        Config {
            max_spins: 3,
            ..fiber_config()
        },
        || {
            let a = Atomic::new(0i64);
            while a.load(Relaxed) == 0 {
                mc::spin_loop();
            }
        },
    );
    assert!(stats.diverged > 0, "{}", stats.summary());
}

/// Minimal two-fiber interaction: one spawn, one store, one join.
#[test]
fn a_two_fiber_spawn_join() {
    let stats = mc::explore(fiber_config(), || {
        let a = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            a.store(1, Relaxed);
        });
        t.join();
        mc::mc_assert!(a.load(Relaxed) == 1);
    });
    assert!(!stats.buggy(), "{:?}", stats.bugs);
    assert!(stats.feasible > 0);
}

/// A panic in a *spawned* modeled thread unwinds through a fiber root;
/// both hosts must report the same `UserPanic` and keep the harness
/// reusable for the rest of the exploration.
#[test]
fn user_panic_in_child_reported_identically() {
    let body = || {
        let flag = Atomic::new(0i32);
        let t = mc::thread::spawn(move || {
            if flag.load(Acquire) == 0 {
                panic!("child died");
            }
            flag.store(2, Release);
        });
        flag.store(1, Release);
        t.join();
    };
    let fib = mc::explore(
        Config {
            stop_on_first_bug: false,
            ..fiber_config()
        },
        body,
    );
    let os = mc::explore(
        Config {
            stop_on_first_bug: false,
            ..os_thread_config()
        },
        body,
    );
    let render = |s: &mc::Stats| {
        let mut b: Vec<String> = s.bugs.iter().map(|f| f.bug.to_string()).collect();
        b.sort();
        (s.executions, s.feasible, b)
    };
    assert!(fib.buggy(), "panic not detected under fibers");
    assert_eq!(render(&fib), render(&os));
}

/// A thread that panics right after spawning leaves its child *unstarted*
/// at abort time: the child picks up the `Die` only by starting, running
/// user code to its first visible op, and unwinding there. The child's
/// never-consumed reply must not linger after its death — a stale reply
/// for a dead thread once steered the fiber host into a dead stack.
#[test]
fn abort_with_unstarted_child_drains_cleanly() {
    let body = || {
        let a = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            a.store(1, Relaxed);
        });
        let _ = t.tid();
        panic!("parent died with an unstarted child");
    };
    let fib = mc::explore(fiber_config(), body);
    let os = mc::explore(os_thread_config(), body);
    assert!(fib.buggy(), "parent panic not detected under fibers");
    let render = |s: &mc::Stats| {
        let mut b: Vec<String> = s.bugs.iter().map(|f| f.bug.to_string()).collect();
        b.sort();
        (s.executions, b)
    };
    assert_eq!(render(&fib), render(&os));
}

/// Spin-bound divergence: the `DieMarker` abort path unwinds every live
/// fiber in turn. The run must terminate with the same counters as the
/// OS-thread host (where each worker unwinds on its own thread).
#[test]
fn divergence_abort_drains_fibers() {
    let body = || {
        let flag = Atomic::new(0i32);
        let t = mc::thread::spawn(move || {
            while flag.load(Acquire) == 0 {
                mc::spin_loop();
            }
        });
        flag.store(1, Release);
        t.join();
    };
    let cap = |base: Config| Config {
        max_spins: 3,
        ..base
    };
    let fib = mc::explore(cap(fiber_config()), body);
    let os = mc::explore(cap(os_thread_config()), body);
    assert!(!fib.buggy(), "{:?}", fib.bugs);
    assert!(fib.diverged > 0, "spin bound never hit: {}", fib.summary());
    assert_eq!(
        (fib.executions, fib.feasible, fib.diverged, fib.peak_depth),
        (os.executions, os.feasible, os.diverged, os.peak_depth),
    );
}

/// Hang injection: one rf-branch of the program wedges forever. Under
/// the OS-thread host the explorer's watchdog poll detects the stall and
/// leaks the wedged worker; under the fiber host the monitor thread
/// preempts the wedged fiber with a signal and the explorer drains in
/// place. Both must report the *same* `InternalHang` rendering (built
/// from the configured limit and the deterministic trace, never from
/// measured time) and keep exploring the remaining branches with
/// identical counters.
#[test]
fn injected_hang_reported_identically_and_exploration_continues() {
    let body = || {
        let flag = Atomic::new(0i32);
        let t = mc::thread::spawn(move || {
            flag.store(1, Release);
        });
        if flag.load(Acquire) == 1 {
            // Wedge: no visible op, no progress hint — only the watchdog
            // can end this branch. Parking (rather than spinning) keeps
            // the leaked OS-thread-host worker from burning CPU for the
            // rest of the test process.
            loop {
                std::thread::park();
            }
        }
        t.join();
    };
    let short = |base: Config| Config {
        hang_timeout: Some(std::time::Duration::from_millis(300)),
        stop_on_first_bug: false,
        ..base
    };
    let fib = mc::explore(short(fiber_watchdog_config()), body);
    let os = mc::explore(short(os_thread_config()), body);
    assert!(fib.buggy(), "injected hang not detected under fibers");
    assert!(
        fib.bugs
            .iter()
            .any(|f| f.bug.to_string().contains("internal hang")),
        "{:?}",
        fib.bugs
    );
    // Exploration continued past the wedged branch: the read-from-init
    // branch completed as a feasible execution too.
    assert!(fib.executions > 1, "{}", fib.summary());
    assert!(fib.feasible > 0, "{}", fib.summary());
    let render = |s: &mc::Stats| {
        let mut b: Vec<String> = s.bugs.iter().map(|f| f.bug.to_string()).collect();
        b.sort();
        (s.executions, s.feasible, s.diverged, b)
    };
    assert_eq!(render(&fib), render(&os));
}

/// Deeper thread fan-out than the default probe programs: exercises fiber
/// stack pooling and reuse across many executions in one exploration.
#[test]
fn many_threads_on_pooled_stacks() {
    let body = || {
        let c = Atomic::new(0i64);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                mc::thread::spawn(move || {
                    c.fetch_add(1, AcqRel);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        mc::mc_assert!(c.load(Acquire) == 4);
    };
    let fib = mc::explore(fiber_config(), body);
    let os = mc::explore(os_thread_config(), body);
    assert!(!fib.buggy(), "{:?}", fib.bugs);
    assert_eq!(
        (fib.executions, fib.feasible, &fib.rf_classes),
        (os.executions, os.feasible, &os.rf_classes),
    );
}
