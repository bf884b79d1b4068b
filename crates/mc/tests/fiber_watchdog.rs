//! Hardening tests for watchdog-compatible fiber hosting.
//!
//! `Config::default` now rides the fiber fast path with its hang watchdog
//! armed: a monitor thread samples the shared heartbeat and, on stall,
//! preempts the wedged fiber with a signal so the explorer can abandon it
//! and keep exploring. A `PROT_NONE` guard region below every fiber stack
//! (plus canary words for the portable fallback) turns stack overflow
//! into a clean bug report instead of silent corruption.
//!
//! These tests exercise the failure paths end to end: injected hangs must
//! be rescued with exploration continuing on fresh stacks, and deep
//! recursion must produce a deterministic report under both hosts. The
//! fiber/pool *equivalence* of these paths is pinned separately in
//! `fiber_equivalence.rs`.
//!
//! The fiber-stack overflow tests pin `fiber_hosting: true`. Under
//! `CDSSPEC_FIBER_HOSTING=0` the default host is the OS-thread pool, where
//! the same overflow aborts the whole process; that path is covered by
//! `os_host_stack_overflow_aborts_cleanly` in a subprocess.

use std::time::Duration;

use cdsspec_mc as mc;
use mc::MemOrd::{Acquire, Relaxed, Release};
use mc::{Atomic, Config};

/// Watchdog-on fiber config with a short stall limit for hang injection.
fn watchdog_config(limit_ms: u64) -> Config {
    Config {
        hang_timeout: Some(Duration::from_millis(limit_ms)),
        ..Config::default()
    }
}

/// A wedged fiber is rescued by the monitor thread: the exploration
/// reports `InternalHang` (with the wedged tid and last-committed event)
/// and continues through the remaining branches — and because the rescue
/// poisons the thread-local stack pool, every later execution runs on
/// fresh stacks. The clean follow-up exploration on this same OS thread
/// is the integration-level regression for "a poisoned pool never hands
/// out a contaminated stack".
#[test]
fn injected_hang_is_rescued_and_exploration_continues() {
    let body = || {
        let flag = Atomic::new(0i32);
        let t = mc::thread::spawn(move || {
            flag.store(1, Release);
        });
        if flag.load(Acquire) == 1 {
            // Wedge with no visible op and no progress hint: only the
            // watchdog can end this branch.
            loop {
                std::thread::park();
            }
        }
        t.join();
    };
    let stats = mc::explore(
        Config {
            stop_on_first_bug: false,
            ..watchdog_config(250)
        },
        body,
    );
    assert!(stats.buggy(), "injected hang not detected");
    let rendered: Vec<String> = stats.bugs.iter().map(|f| f.bug.to_string()).collect();
    assert!(
        rendered
            .iter()
            .any(|b| b.contains("internal hang: no scheduling progress for 250 ms")),
        "{rendered:?}"
    );
    // The rendering carries the wedged thread and its last-committed
    // event as a deterministic anchor.
    assert!(
        rendered.iter().any(|b| b.contains("wedged after")),
        "{rendered:?}"
    );
    // Exploration continued past the wedged branch: the read-from-init
    // branch completed as a feasible execution.
    assert!(stats.executions > 1, "{}", stats.summary());
    assert!(stats.feasible > 0, "{}", stats.summary());

    // Post-rescue hygiene: a follow-up exploration on this same OS
    // thread (same thread-local stack pool) must be spotless.
    let clean = mc::explore(watchdog_config(30_000), || {
        let a = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            a.fetch_add(1, mc::MemOrd::AcqRel);
        });
        t.join();
        mc::mc_assert!(a.load(Acquire) == 1);
    });
    assert!(!clean.buggy(), "{:?}", clean.bugs);
    assert!(clean.feasible > 0);
}

/// Frames of ~4 KiB, recursion far deeper than any stack: whoever hosts
/// this must stop it, not run off the end of memory.
#[inline(never)]
fn deep(n: u64) -> u64 {
    let mut frame = [0u8; 4096];
    frame[0] = (n & 0xff) as u8;
    std::hint::black_box(&mut frame[..]);
    if n == 0 {
        return u64::from(frame[0]);
    }
    // The add after the recursive call keeps this from becoming a loop.
    deep(n - 1).wrapping_add(u64::from(std::hint::black_box(frame[4095])))
}

/// Under the fiber host, runaway recursion hits the `PROT_NONE` guard
/// region below the fiber stack; the SIGSEGV handler (on the alternate
/// signal stack) converts the fault into a deterministic
/// `Bug::StackOverflow` and exploration shuts down cleanly. Gated to the
/// guarded-mapping target: on the heap-stack fallback unbounded recursion
/// would be genuine UB, which is exactly why guard pages exist.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn fiber_stack_overflow_reports_cleanly() {
    let stats = mc::explore(
        Config {
            fiber_hosting: true,
            ..watchdog_config(30_000)
        },
        || {
            let a = Atomic::new(0i64);
            a.store(1, Relaxed);
            std::hint::black_box(deep(u64::MAX));
        },
    );
    assert!(stats.buggy(), "overflow not detected");
    let rendered: Vec<String> = stats.bugs.iter().map(|f| f.bug.to_string()).collect();
    assert!(
        rendered
            .iter()
            .any(|b| b.contains("stack overflow") && b.contains("overran its fiber stack")),
        "{rendered:?}"
    );
}

/// Stacks come back out of the thread-local pool without their guard
/// being re-`mprotect`ed, so the guard set when the stack was mapped must
/// still catch an overflow. One worker hosts every execution on this
/// thread: the clean exploration leaves its stacks in the pool, and the
/// overflowing one runs on them.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn pooled_stack_still_reports_overflow() {
    let config = Config {
        workers: 1,
        fiber_hosting: true,
        ..watchdog_config(30_000)
    };
    let clean = mc::explore(config.clone(), || {
        let a = Atomic::new(0i64);
        let t = mc::thread::spawn(move || a.store(1, Relaxed));
        a.store(2, Relaxed);
        t.join();
    });
    assert!(!clean.buggy(), "{:?}", clean.bugs);
    assert!(clean.executions > 1, "{}", clean.summary());

    let overflow = mc::explore(config, || {
        let a = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            a.store(1, Relaxed);
            std::hint::black_box(deep(u64::MAX));
        });
        t.join();
    });
    let rendered: Vec<String> = overflow.bugs.iter().map(|f| f.bug.to_string()).collect();
    assert!(
        rendered
            .iter()
            .any(|b| b.contains("stack overflow") && b.contains("overran its fiber stack")),
        "{rendered:?}"
    );
}

/// `Config::fiber_stack` really sizes the stacks: a recursion that fits
/// comfortably inside the default 1 MiB overflows a 64 KiB stack, and the
/// guard-page machinery converts it into the same deterministic
/// `Bug::StackOverflow` at the smaller size. The flip side — the same
/// workload is clean at the default — pins that the small-stack report
/// comes from the configured size, not from a latent bug.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn fiber_stack_config_sizes_the_guarded_stacks() {
    // ~40 frames x ~4 KiB ≈ 160 KiB: inside the 1 MiB default, far
    // outside a 64 KiB stack.
    let body = || {
        let a = Atomic::new(0i64);
        a.store(1, Relaxed);
        std::hint::black_box(deep(40));
    };
    let fibers = Config {
        fiber_hosting: true,
        ..watchdog_config(30_000)
    };
    let small = mc::explore(
        Config {
            fiber_stack: 64 << 10,
            ..fibers.clone()
        },
        body,
    );
    assert!(small.buggy(), "64 KiB stack survived a 160 KiB recursion");
    let rendered: Vec<String> = small.bugs.iter().map(|f| f.bug.to_string()).collect();
    assert!(
        rendered.iter().any(|b| b.contains("stack overflow")),
        "{rendered:?}"
    );

    let roomy = mc::explore(fibers, body);
    assert!(
        !roomy.buggy(),
        "default stack must fit the same recursion: {:?}",
        roomy.bugs
    );
    assert!(roomy.feasible > 0);
}

/// A custom (non-default, non-overflowing) stack size hosts a normal
/// multi-threaded exploration cleanly — the canary, pooling, and switch
/// machinery have no hidden dependence on the default size.
#[test]
fn custom_fiber_stack_hosts_cleanly() {
    let stats = mc::explore(
        Config {
            fiber_stack: 256 << 10,
            ..watchdog_config(30_000)
        },
        || {
            let a = Atomic::new(0i64);
            let t = mc::thread::spawn(move || {
                a.fetch_add(1, mc::MemOrd::AcqRel);
            });
            t.join();
            mc::mc_assert!(a.load(Acquire) == 1);
        },
    );
    assert!(!stats.buggy(), "{:?}", stats.bugs);
    assert!(stats.feasible > 0);
}

/// Under the OS-thread reference host the same recursion overflows a pool
/// worker's native stack. There is no in-process report to give — std's
/// own guard page turns it into the standard "has overflowed its stack"
/// process abort — but that is still a *clean, attributed* death, not
/// silent corruption. Run it in a subprocess and assert the message.
#[test]
fn os_host_stack_overflow_aborts_cleanly() {
    if std::env::var_os("CDSSPEC_OVERFLOW_CHILD").is_some() {
        // Child: overflow a pool worker. This aborts the process.
        let _ = mc::explore(
            Config {
                fiber_hosting: false,
                ..watchdog_config(30_000)
            },
            || {
                std::hint::black_box(deep(u64::MAX));
            },
        );
        return; // unreachable on a working guard
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "os_host_stack_overflow_aborts_cleanly",
            "--exact",
            "--nocapture",
        ])
        .env("CDSSPEC_OVERFLOW_CHILD", "1")
        .output()
        .expect("re-exec test binary");
    assert!(
        !out.status.success(),
        "child survived an unbounded recursion"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("has overflowed its stack"),
        "expected std's overflow abort, got: {err}"
    );
}

/// Regression for a rescue-vs-engine-lock deadlock. Invisible operations
/// (`mc::new_object_id`, `Data` accesses, `Atomic::new`, `mc::alloc`, …)
/// lock `Shared::inner` through `with_ctx` without posting a visible op,
/// so a thread wedged in a pure `mc::new_object_id` loop holds the engine
/// lock for a large fraction of every iteration while never feeding the
/// heartbeat — the exact workload the watchdog exists for. The preemption
/// gate must cover those acquisitions: a rescue landing inside one would
/// abandon the fiber with `inner` locked, and the explorer's own relock
/// in `fiber_rescued` would deadlock permanently. With the gate held
/// across the whole `with_ctx` body, the retried rescue signal can only
/// land in the gate-open window between iterations, and this exploration
/// terminates. The loop appends no trace events, so memory stays flat
/// until the rescue; a `Data::read` spin no longer reaches the watchdog
/// (it diverges at `max_steps_per_thread`, see `runtime_edges.rs`).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn invisible_op_spin_wedge_is_rescued_without_deadlock() {
    let body = || {
        let flag = Atomic::new(0i32);
        let t = mc::thread::spawn(move || {
            flag.store(1, Release);
        });
        if flag.load(Acquire) == 1 {
            // Wedge entirely in invisible ops: every iteration locks the
            // engine, none posts a visible op, appends an event or feeds
            // the heartbeat.
            while mc::new_object_id() != 0 {}
        }
        t.join();
    };
    let stats = mc::explore(
        Config {
            fiber_hosting: true,
            stop_on_first_bug: false,
            ..watchdog_config(250)
        },
        body,
    );
    assert!(stats.buggy(), "invisible-op wedge not detected");
    let rendered: Vec<String> = stats.bugs.iter().map(|f| f.bug.to_string()).collect();
    assert!(
        rendered.iter().any(|b| b.contains("internal hang")),
        "{rendered:?}"
    );
    // Exploration survived the rescue and finished the clean branch.
    assert!(stats.executions > 1, "{}", stats.summary());
    assert!(stats.feasible > 0, "{}", stats.summary());
}

/// A freshly spawned fiber runs until its first visible operation without
/// any scheduling decision (`fiber_next` transfers to it directly), so a
/// child that wedges before its first visible op was never `last_sched`.
/// The rescue path must report the tid the signal handler actually
/// preempted — not the scheduler's last pick (the parent).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn hang_report_names_a_never_scheduled_child() {
    let stats = mc::explore(
        Config {
            fiber_hosting: true,
            ..watchdog_config(250)
        },
        || {
            let t = mc::thread::spawn(|| {
                // Wedge before the first visible op: this thread never
                // becomes the target of a scheduling decision.
                loop {
                    std::thread::park();
                }
            });
            t.join();
        },
    );
    assert!(stats.buggy(), "wedged child not detected");
    let rendered: Vec<String> = stats.bugs.iter().map(|f| f.bug.to_string()).collect();
    assert!(
        rendered
            .iter()
            .any(|b| b.contains("internal hang") && b.contains("T1 wedged")),
        "the report must name the wedged child, not the last-scheduled parent: {rendered:?}"
    );
}
