//! Cross-crate litmus tests through the facade: a condensed version of
//! the `cdsspec-mc` suite plus combined checker+litmus scenarios that only
//! make sense at the workspace level.

use cdsspec::mc;
use cdsspec::prelude::*;
use mc::mc_assert;
use mc::MemOrd::*;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// The full release-sequence rule through the facade: an acquire read of
/// an RMW chain synchronizes with the release head.
#[test]
fn release_sequence_via_facade() {
    mc::model(|| {
        let data = Atomic::new(0i64);
        let x = Atomic::new(0i64);
        let t1 = mc::thread::spawn(move || {
            data.store(5, Relaxed);
            x.store(1, Release);
        });
        let t2 = mc::thread::spawn(move || {
            x.fetch_add(1, Relaxed);
        });
        if x.load(Acquire) == 2 {
            // Read the RMW: synchronizes with the release head through
            // the release sequence.
            mc_assert!(data.load(Relaxed) == 5);
        }
        t1.join();
        t2.join();
    });
}

/// Dekker-style mutual exclusion with SC fences: both threads entering is
/// impossible.
#[test]
fn dekker_with_sc_fences() {
    let entered: Arc<Mutex<u32>> = Arc::new(Mutex::new(0));
    let e2 = Arc::clone(&entered);
    let stats = mc::explore(Config::validating(), move || {
        let flag0 = Atomic::new(0i64);
        let flag1 = Atomic::new(0i64);
        let in_crit = mc::Data::new(0i64);
        let e3 = Arc::clone(&e2);
        let t = mc::thread::spawn(move || {
            flag1.store(1, Relaxed);
            mc::fence(SeqCst);
            if flag0.load(Relaxed) == 0 {
                // critical section
                in_crit.write(in_crit.read() + 1);
                *e3.lock().unwrap() += 1;
            }
        });
        flag0.store(1, Relaxed);
        mc::fence(SeqCst);
        if flag1.load(Relaxed) == 0 {
            in_crit.write(in_crit.read() + 1);
        }
        t.join();
    });
    // If both ever entered, the Data race detector would fire.
    assert!(
        !stats.buggy(),
        "Dekker violated: {:?}",
        stats.bugs.first().map(|b| &b.bug)
    );
}

/// Transitive release/acquire chains across three threads.
#[test]
fn transitive_message_passing() {
    mc::model(|| {
        let data = Atomic::new(0i64);
        let f1 = Atomic::new(0i64);
        let f2 = Atomic::new(0i64);
        let a = mc::thread::spawn(move || {
            data.store(9, Relaxed);
            f1.store(1, Release);
        });
        let b = mc::thread::spawn(move || {
            if f1.load(Acquire) == 1 {
                f2.store(1, Release);
            }
        });
        if f2.load(Acquire) == 1 {
            mc_assert!(data.load(Relaxed) == 9, "transitivity lost");
        }
        a.join();
        b.join();
    });
}

/// Modification-order coherence observed through the facade: two readers
/// can disagree about *when* they see stores, but never read backwards.
#[test]
fn coherence_never_reads_backwards() {
    mc::model(|| {
        let x = Atomic::new(0i64);
        let w = mc::thread::spawn(move || {
            x.store(1, Relaxed);
            x.store(2, Relaxed);
        });
        let r = mc::thread::spawn(move || {
            let a = x.load(Relaxed);
            let b = x.load(Relaxed);
            mc_assert!(b >= a, "coherence violated: {} then {}", a, b);
        });
        w.join();
        r.join();
    });
}

/// A relaxed reader that saw the last store to `y` may still read any
/// store to `x` its writer made before it, back to the initial value:
/// nothing orders them, so every one of them is a load candidate.
#[test]
fn relaxed_reads_reach_every_older_store() {
    let seen: Arc<Mutex<BTreeSet<i64>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let sink = Arc::clone(&seen);
    let stats = mc::explore(Config::validating(), move || {
        let x = Atomic::new(0i64);
        let y = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            x.store(1, Relaxed);
            x.store(2, Relaxed);
            x.store(3, Relaxed);
            y.store(1, Relaxed);
        });
        if y.load(Relaxed) == 1 {
            let v = x.load(Relaxed);
            sink.lock().unwrap().insert(v);
        }
        t.join();
    });
    assert!(!stats.buggy());
    let seen = seen.lock().unwrap();
    assert_eq!(*seen, BTreeSet::from([0, 1, 2, 3]));
}

/// Weak CAS spurious failure is observable; strong CAS reading the
/// expected latest value is not allowed to fail.
#[test]
fn weak_vs_strong_cas() {
    let outcomes: Arc<Mutex<BTreeSet<(bool, bool)>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let oc = Arc::clone(&outcomes);
    let stats = mc::explore(Config::validating(), move || {
        let x = Atomic::new(0i64);
        let weak = x.compare_exchange_weak(0, 1, AcqRel, Relaxed).is_ok();
        let strong = x
            .compare_exchange(if weak { 1 } else { 0 }, 2, AcqRel, Relaxed)
            .is_ok();
        oc.lock().unwrap().insert((weak, strong));
    });
    assert!(!stats.buggy());
    let outcomes = outcomes.lock().unwrap();
    assert!(outcomes.contains(&(true, true)));
    assert!(
        outcomes.contains(&(false, true)),
        "weak CAS must fail spuriously sometimes"
    );
    // A single-threaded strong CAS with the correct expected value never
    // fails: no (_, false) outcome.
    assert!(outcomes.iter().all(|&(_, s)| s), "{outcomes:?}");
}

/// A modeled thread panicking inside nested spawns is reported cleanly.
#[test]
fn nested_spawn_panic_reporting() {
    let stats = mc::explore(Config::default(), || {
        let t = mc::thread::spawn(|| {
            let inner = mc::thread::spawn(|| {
                panic!("inner failure");
            });
            inner.join();
        });
        t.join();
    });
    assert!(stats.buggy());
    assert!(stats.bugs[0].bug.to_string().contains("inner failure"));
}
