//! Edge-case tests for the token-passing runtime: thread limits,
//! truncation, yields, deep nesting, pool reuse across explorations, the
//! verbose/validating config paths, the resilience layer (watchdog,
//! deadlines, checkpoint/resume, sampling degradation), how sleep-blocked
//! executions end, and the step bound on `Data` accesses.

use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::Duration;

use cdsspec_mc as mc;
use mc::MemOrd::*;
use mc::{mc_assert, Atomic, Config};

/// Exceeding `max_threads` is a reported bug, not a hang.
#[test]
fn max_threads_is_enforced() {
    let config = Config {
        max_threads: 3,
        ..Config::default()
    };
    let stats = mc::explore(config, || {
        let mut handles = Vec::new();
        for _ in 0..5 {
            handles.push(mc::thread::spawn(|| {}));
        }
        for h in handles {
            h.join();
        }
    });
    assert!(stats.buggy());
    assert!(stats.bugs[0].bug.to_string().contains("max_threads"));
}

/// `max_executions` truncates and says so. (`workers: 1`: the parallel
/// engine may overshoot the cap by in-flight executions, so the exact
/// count here is a sequential-engine guarantee.)
#[test]
fn truncation_is_reported() {
    // rf-equivalence pruning collapses this program to 3 executions, so
    // the cap sits at 2 to still fire mid-tree.
    let config = Config {
        max_executions: 2,
        workers: 1,
        ..Config::default()
    };
    let stats = mc::explore(config, || {
        let x = Atomic::new(0i64);
        let t = mc::thread::spawn(move || x.store(1, Relaxed));
        let _ = x.load(Relaxed);
        let _ = x.load(Relaxed);
        t.join();
    });
    assert!(stats.truncated());
    assert_eq!(stats.stop, mc::StopReason::ExecutionCap);
    assert_eq!(stats.executions, 2);
    assert!(stats.frontier().is_some(), "a capped run must be resumable");
}

/// `yield_now` is a scheduling point with no memory effect.
#[test]
fn yield_now_works() {
    let stats = mc::explore(Config::validating(), || {
        let x = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            mc::yield_now();
            x.store(1, Relaxed);
        });
        mc::yield_now();
        let _ = x.load(Relaxed);
        t.join();
    });
    assert!(!stats.buggy());
    assert!(stats.feasible >= 2, "yield must create interleavings");
}

/// Deep spawn chains (each thread spawns the next) work and synchronize.
#[test]
fn deep_spawn_chain() {
    mc::model(|| {
        let x = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            let inner = mc::thread::spawn(move || {
                let inner2 = mc::thread::spawn(move || {
                    x.store(3, Release);
                });
                inner2.join();
            });
            inner.join();
        });
        t.join();
        mc_assert!(x.load(Acquire) == 3);
    });
}

/// A thread that is never joined still finishes and its effects are
/// explorable (the execution completes when all threads finish).
#[test]
fn unjoined_threads_complete() {
    let stats = mc::explore(Config::validating(), || {
        let x = Atomic::new(0i64);
        let h = mc::thread::spawn(move || {
            x.store(1, Relaxed);
        });
        // Deliberately do not join: the handle is consumed via drop.
        let _ = h.tid();
        #[allow(clippy::mem_forget)]
        drop(h);
        let _ = x.load(Relaxed);
    });
    assert!(!stats.buggy());
    assert!(
        stats.feasible >= 2,
        "store may land before or after the load"
    );
}

/// The same process can run many explorations back-to-back (pool threads
/// and panic hooks don't leak state across runs).
#[test]
fn repeated_explorations_are_independent() {
    for round in 0..5 {
        let stats = mc::explore(Config::default(), move || {
            let x = Atomic::new(round as i64);
            mc_assert!(x.load(Relaxed) == round as i64);
        });
        assert_eq!(stats.executions, 1);
        assert!(!stats.buggy());
    }
}

/// Exploration with `verbose` exercises the trace renderer on every
/// execution without panicking.
#[test]
fn verbose_rendering_smoke() {
    let config = Config {
        verbose: true,
        ..Config::default()
    };
    let stats = mc::explore(config, || {
        let x = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            x.fetch_add(1, AcqRel);
        });
        let _ = x.compare_exchange(0, 5, SeqCst, Relaxed);
        mc::fence(SeqCst);
        t.join();
    });
    assert!(!stats.buggy());
}

/// Two explorations in parallel from different OS threads don't interfere
/// (thread-local contexts are per-worker).
#[test]
fn parallel_explorations() {
    let h1 = std::thread::spawn(|| {
        mc::model(|| {
            let x = Atomic::new(1i64);
            mc_assert!(x.load(Relaxed) == 1);
        })
    });
    let h2 = std::thread::spawn(|| {
        mc::model(|| {
            let y = Atomic::new(2i64);
            mc_assert!(y.load(Relaxed) == 2);
        })
    });
    h1.join().unwrap();
    h2.join().unwrap();
}

/// A branchy but tiny workload shared by the resilience tests: two
/// storer threads racing two loads gives a choice tree of a few dozen
/// leaves — big enough to interrupt, small enough to exhaust instantly.
fn branchy_workload() {
    let x = Atomic::new(0i64);
    let y = Atomic::new(0i64);
    let t1 = mc::thread::spawn(move || x.store(1, Relaxed));
    let t2 = mc::thread::spawn(move || y.store(1, Relaxed));
    let _ = x.load(Relaxed);
    let _ = y.load(Relaxed);
    t1.join();
    t2.join();
}

/// A deliberately wedged modeled thread (never reaches another visible
/// operation) no longer hangs exploration: the watchdog aborts the
/// execution and reports `Bug::InternalHang`.
#[test]
fn watchdog_aborts_wedged_thread() {
    let config = Config {
        hang_timeout: Some(Duration::from_millis(200)),
        ..Config::default()
    };
    let stats = mc::explore(config, || {
        let x = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            x.store(1, Relaxed);
            // Wedge: user code that never returns and never performs
            // another visible operation. (`park` rather than a spin so
            // the leaked OS thread doesn't burn a core for the rest of
            // the test process's life.)
            loop {
                std::thread::park();
            }
        });
        let _ = x.load(Relaxed);
        t.join();
    });
    assert!(
        stats.buggy(),
        "wedged thread must be reported: {}",
        stats.summary()
    );
    let hang = stats
        .bugs
        .iter()
        .find(|b| matches!(b.bug, mc::Bug::InternalHang { .. }));
    let hang = hang.expect("expected an InternalHang bug");
    assert_eq!(hang.bug.category(), mc::BugCategory::BuiltIn);
    assert_eq!(stats.stop, mc::StopReason::FirstBug);
}

/// Explore `branchy_workload` from the frontier `cut` left and fold the
/// continuation onto `cut`.
fn resume(cut: &mc::Stats) -> mc::Stats {
    let mut total = cut.clone();
    let config = Config {
        resume_shards: Some(cut.shard_frontiers.clone()),
        ..Config::default()
    };
    total.continue_with(mc::explore(config, branchy_workload));
    total
}

/// Deadline expiry stops between executions with a resumable frontier,
/// and resuming reproduces the straight-through run's aggregate counts
/// exactly.
#[test]
fn deadline_expiry_reports_and_resumes() {
    let full = mc::explore(Config::default(), branchy_workload);
    assert_eq!(full.stop, mc::StopReason::Exhausted);
    assert!(full.frontier().is_none());
    assert!(
        full.executions > 4,
        "workload too small to interrupt: {}",
        full.summary()
    );

    let config = Config {
        time_budget: Some(Duration::ZERO),
        ..Config::default()
    };
    let cut = mc::explore(config, branchy_workload);
    assert_eq!(cut.stop, mc::StopReason::Deadline);
    assert!(cut.executions < full.executions);
    assert!(
        !cut.shard_frontiers.is_empty(),
        "deadline leaves a frontier"
    );

    let resumed = resume(&cut);
    assert_eq!(resumed.stop, mc::StopReason::Exhausted);
    assert_eq!(resumed.executions, full.executions);
    assert_eq!(resumed.feasible, full.feasible);
    assert_eq!(resumed.diverged, full.diverged);
    assert_eq!(resumed.sleep_pruned, full.sleep_pruned);
}

/// `Config::resume_script` threads resumption through APIs that only
/// accept a `Config` (the benchmark registry's `check` fn pointers);
/// executions partition exactly.
#[test]
fn resume_script_threads_through_config() {
    let full = mc::explore(Config::default(), branchy_workload);
    // `workers: 1` on the cut: `Config::resume_script` is a single
    // script, so the cut must leave a single-shard frontier.
    let cut = mc::explore(
        Config {
            max_executions: 2,
            workers: 1,
            ..Config::default()
        },
        branchy_workload,
    );
    assert_eq!(cut.stop, mc::StopReason::ExecutionCap);
    let frontier = cut
        .frontier()
        .expect("capped run leaves a frontier")
        .to_vec();
    let resumed = mc::explore(
        Config {
            resume_script: Some(frontier),
            ..Config::default()
        },
        branchy_workload,
    );
    assert_eq!(
        cut.executions + resumed.executions,
        full.executions,
        "cut {} + resumed {} != full {}",
        cut.summary(),
        resumed.summary(),
        full.summary()
    );
}

/// Resumed elapsed time accumulates the cut run's *active* exploration
/// time plus the resumed run's own — never the wall-clock age of the cut.
/// A cut journaled an hour before resumption
/// must not inflate `Stats::elapsed` (and through it the figure7/figure8
/// exec/s summaries) by that hour.
#[test]
fn resume_elapsed_excludes_suspension_gap() {
    let cut = mc::explore(
        Config {
            max_executions: 2,
            workers: 1,
            ..Config::default()
        },
        branchy_workload,
    );
    assert!(
        !cut.shard_frontiers.is_empty(),
        "capped run leaves a frontier"
    );
    assert!(
        resume(&cut).elapsed >= cut.elapsed,
        "the resumed total keeps the cut's elapsed"
    );
    // Simulate a long suspension by aging the stored active time: the
    // resumed total must sit just above it, proving the engine adds only
    // its own active time on top of what the cut recorded.
    let hour = Duration::from_secs(3600);
    let mut aged = cut.clone();
    aged.elapsed = hour;
    let resumed = resume(&aged);
    assert!(resumed.elapsed >= hour, "{:?}", resumed.elapsed);
    assert!(
        resumed.elapsed < hour + Duration::from_secs(60),
        "resume added wall-clock beyond its own active time: {:?}",
        resumed.elapsed
    );
}

/// With `deadline_samples`, a deadline-cut run degrades to seeded
/// random-walk probes of the unexplored region — deterministically.
#[test]
fn deadline_degrades_to_sampling_deterministically() {
    // Sampling needs a single floor-0 frontier shard, which a one-worker
    // deadline cut leaves (several workers may leave one each), so pin
    // `workers: 1`.
    let config = Config {
        time_budget: Some(Duration::ZERO),
        deadline_samples: 5,
        sample_seed: 42,
        workers: 1,
        ..Config::default()
    };
    let a = mc::explore(config.clone(), branchy_workload);
    let b = mc::explore(config, branchy_workload);
    assert_eq!(a.stop, mc::StopReason::Deadline);
    assert!(
        a.sampled > 0,
        "expected sampling to kick in: {}",
        a.summary()
    );
    assert!(a.sampled <= 5);
    assert_eq!(a.executions, b.executions, "sampling must be deterministic");
    assert_eq!(a.sampled, b.sampled);
    assert_eq!(a.feasible, b.feasible);
    assert_eq!(a.diverged, b.diverged);
}

/// Stats bookkeeping: executions = feasible + diverged + sleep-pruned.
#[test]
fn stats_partition_executions() {
    let stats = mc::explore(Config::validating(), || {
        let x = Atomic::new(0i64);
        let y = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            x.store(1, Release);
            y.store(1, Release);
        });
        let _ = y.load(Acquire);
        let _ = x.load(Acquire);
        t.join();
    });
    assert!(!stats.buggy());
    assert_eq!(
        stats.executions,
        stats.feasible + stats.diverged + stats.sleep_pruned,
        "{}",
        stats.summary()
    );
}

/// `std`'s sequentially consistent ordering, for the run-out tests' side
/// channel (`SeqCst` here is the model's `MemOrd`).
const STD_SEQ_CST: std::sync::atomic::Ordering = std::sync::atomic::Ordering::SeqCst;

/// Per-exploration tallies of the run-out tests' drop guards and their
/// side channel. The side channel is plain `std` state, invisible to the
/// model, so it can tell a sleep-blocked schedule from the explored ones.
#[derive(Default)]
struct Tally {
    started: AtomicU64,
    dropped: AtomicU64,
    dropped_panicking: AtomicU64,
    /// Executions in which `a` saw `b` store first.
    b_first_seen: AtomicU64,
    a_stored: AtomicBool,
    b_first: AtomicBool,
}

/// Owned by each modeled thread from its first line to its end.
struct Guard(Arc<Tally>);

impl Guard {
    fn new(tally: &Arc<Tally>) -> Self {
        tally.started.fetch_add(1, STD_SEQ_CST);
        Guard(Arc::clone(tally))
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.dropped.fetch_add(1, STD_SEQ_CST);
        if std::thread::panicking() {
            self.0.dropped_panicking.fetch_add(1, STD_SEQ_CST);
        }
    }
}

/// What thread `a` does when `b`'s store ran before its own, which only
/// a sleep-blocked execution's run-out does: the explored executions
/// order the two independent stores `a` first.
#[derive(Clone, Copy, Debug)]
enum RunOutEnd {
    /// Return normally.
    Finish,
    /// Fail an `mc_assert!`.
    Assert,
    /// Spin on a load that never changes, past `max_spins`.
    Spin,
}

/// `a` and `b` store to different locations, so every schedule that runs
/// `b`'s store first is sleep-blocked before `a` stores; `c` reads `y`,
/// which gives the tree a few more leaves without touching `x`, and
/// `main` joins all three.
fn run_out_program(tally: Arc<Tally>, end: RunOutEnd) -> impl Fn() + Send + Sync + 'static {
    move || {
        let _g = Guard::new(&tally);
        tally.a_stored.store(false, STD_SEQ_CST);
        tally.b_first.store(false, STD_SEQ_CST);
        let x = Atomic::new(0i32);
        let y = Atomic::new(0i32);
        let ta = Arc::clone(&tally);
        let a = mc::thread::spawn(move || {
            let _g = Guard::new(&ta);
            x.store(1, Relaxed);
            ta.a_stored.store(true, STD_SEQ_CST);
            if ta.b_first.load(STD_SEQ_CST) {
                ta.b_first_seen.fetch_add(1, STD_SEQ_CST);
                match end {
                    RunOutEnd::Finish => {}
                    RunOutEnd::Assert => mc_assert!(false, "b stored first"),
                    RunOutEnd::Spin => {
                        while x.load(Relaxed) != 2 {
                            mc::spin_loop();
                        }
                    }
                }
            }
        });
        let tb = Arc::clone(&tally);
        let b = mc::thread::spawn(move || {
            let _g = Guard::new(&tb);
            y.store(1, Relaxed);
            if !tb.a_stored.load(STD_SEQ_CST) {
                tb.b_first.store(true, STD_SEQ_CST);
            }
        });
        let tc = Arc::clone(&tally);
        let c = mc::thread::spawn(move || {
            let _g = Guard::new(&tc);
            let _ = y.load(Relaxed);
        });
        a.join();
        b.join();
        c.join();
    }
}

/// The counters of an exploration the run-out must leave untouched:
/// executions, feasible, diverged, sleep-pruned, rf-pruned branches, rf
/// classes and peak depth. Measured while sleep-blocked executions were
/// still unwound at once, for every `RunOutEnd`.
const RUN_OUT_TREE: [u64; 7] = [4, 2, 0, 2, 2, 2, 3];

fn tree_counts(stats: &mc::Stats) -> [u64; 7] {
    [
        stats.executions,
        stats.feasible,
        stats.diverged,
        stats.sleep_pruned,
        stats.executions_pruned,
        stats.rf_classes.len() as u64,
        stats.peak_depth,
    ]
}

/// Explore `run_out_program` on one worker, on fibers or on the OS-thread
/// pool, and check what holds for every run-out end: no bug, the pinned
/// tree, and exactly one guard drop per started thread.
fn explore_run_out(end: RunOutEnd, fiber_hosting: bool) -> Arc<Tally> {
    let tally = Arc::new(Tally::default());
    let config = Config {
        fiber_hosting,
        workers: 1,
        stop_on_first_bug: false,
        ..Config::default()
    };
    let stats = mc::explore(config, run_out_program(Arc::clone(&tally), end));
    let what = format!(
        "{end:?}, fiber_hosting {fiber_hosting}: {}",
        stats.summary()
    );
    assert!(!stats.buggy(), "{what}");
    assert_eq!(tree_counts(&stats), RUN_OUT_TREE, "{what}");
    let started = tally.started.load(STD_SEQ_CST);
    assert_eq!(started, 4 * stats.executions, "{what}");
    assert_eq!(tally.dropped.load(STD_SEQ_CST), started, "{what}");
    assert!(
        tally.b_first_seen.load(STD_SEQ_CST) > 0,
        "{what}: no run-out reached `a`"
    );
    tally
}

/// A sleep-blocked execution runs its threads out to their normal return:
/// every started thread's guard drops exactly once, and none during an
/// unwind. (Were the execution abandoned with `Reply::Die`, the guards of
/// the threads parked at that point would drop while panicking, and `a`
/// would never see `b` store first.)
#[test]
fn sleep_blocked_threads_run_to_their_end() {
    for fiber_hosting in [true, false] {
        let tally = explore_run_out(RunOutEnd::Finish, fiber_hosting);
        assert_eq!(
            tally.dropped_panicking.load(STD_SEQ_CST),
            0,
            "fiber_hosting {fiber_hosting}: a guard dropped during an unwind"
        );
    }
}

/// A run-out that fails an `mc_assert!` or trips the spin bound falls back
/// to unwinding the threads still live: it leaks no guard, reports no bug
/// and stays sleep-pruned, with every counter as pinned.
#[test]
fn run_out_cut_short_unwinds_and_stays_sleep_pruned() {
    for end in [RunOutEnd::Assert, RunOutEnd::Spin] {
        for fiber_hosting in [true, false] {
            let tally = explore_run_out(end, fiber_hosting);
            assert!(
                tally.dropped_panicking.load(STD_SEQ_CST) > 0,
                "{end:?}, fiber_hosting {fiber_hosting}: no run-out unwound"
            );
        }
    }
}

/// `Data` accesses append trace events without a scheduling point, and
/// each counts toward `max_steps_per_thread`: a thread spinning on
/// `Data::read` alone ends its execution as diverged at the bound instead
/// of growing the trace until the watchdog fires.
#[test]
fn data_read_spin_diverges_at_the_step_bound() {
    for fiber_hosting in [true, false] {
        let stats = mc::explore(
            Config {
                fiber_hosting,
                max_steps_per_thread: 50,
                ..Config::default()
            },
            || {
                let d = mc::Data::new(0u32);
                let flag = Atomic::new(0i32);
                let t = mc::thread::spawn(move || flag.store(1, Release));
                if flag.load(Acquire) == 1 {
                    while d.read() == 0 {}
                }
                t.join();
            },
        );
        let what = format!("fiber_hosting {fiber_hosting}: {}", stats.summary());
        assert!(!stats.buggy(), "{what}");
        assert!(stats.diverged > 0, "{what}");
        assert!(stats.feasible > 0, "{what}");
        assert_eq!(stats.stop, mc::StopReason::Exhausted, "{what}");
    }
}
