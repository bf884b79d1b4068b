//! Where a specification annotation lands in the trace.
//!
//! `mc::annotate` buffers a note in the running thread and the thread's
//! next engine call commits it, anchored to the thread's last event. That
//! is exact because control moves between modeled threads only inside
//! engine calls: every note must come out with the anchor and in the
//! position it would have had if it were committed the moment it was
//! recorded. This test annotates on both sides of every kind of engine
//! call a thread makes (`Atomic::new`, `Data::new`, a `Data` write, a
//! spawn, a visible op, a join, a normal return and an `mc_assert!`
//! failure) and checks every completed execution's annotation sequence,
//! on fibers and on the OS-thread pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cdsspec_c11::{SpecNote, SpecVal, Trace};
use cdsspec_mc as mc;
use mc::MemOrd::Relaxed;
use mc::{mc_assert, Atomic, Config, Data, FnPlugin, PluginFactory};

/// Record note `n` for the calling thread.
fn note(n: i64) {
    mc::annotate(SpecNote::MethodArg {
        val: SpecVal::I64(n),
    });
}

/// One annotation as [`EXPECTED`] lists it.
type Entry = (u32, u32, i64);

/// (execution index, annotation sequence) per completed execution.
type Seen = Arc<Mutex<Vec<(u64, Vec<Entry>)>>>;

/// What a completed execution's annotations must read, in order: the
/// recording thread, the per-thread sequence number of its last event
/// when it recorded the note (0 before its first), and the note.
///
/// `T0`'s events are the initialising store of `Atomic::new` (1), the
/// initialising write of `Data::new` (2), the `Data` write (3), a store
/// made while it is the only thread (4), the spawn (5), a store racing
/// `T1` (6), the join (7), the `Data` read (8) and its finish; `T1`'s are
/// its load (1), its `Data` write (2) and its finish. `T0` records 7
/// before its join parks it, and `T1` can only read 2 (the only completed
/// case) after `T0`'s second store, so `T1`'s notes come between 7 and 8.
const EXPECTED: [Entry; 11] = [
    (0, 0, 1),
    (0, 1, 2),
    (0, 2, 3),
    (0, 3, 4),
    (0, 4, 5),
    (0, 5, 6),
    (0, 6, 7),
    (1, 1, 11),
    (1, 2, 12),
    (0, 7, 8),
    (0, 8, 9),
];

/// The annotations of `trace` in the form of [`EXPECTED`].
fn sequence(trace: &Trace) -> Vec<Entry> {
    trace
        .annotations
        .iter()
        .map(|a| {
            let after = a.after.map_or(0, |e| {
                assert_eq!(trace.tid(e), a.tid, "anchored to another thread's event");
                trace.seq(e)
            });
            let n = match a.note {
                SpecNote::MethodArg {
                    val: SpecVal::I64(n),
                } => n,
                ref other => panic!("unexpected note {other:?}"),
            };
            (a.tid.0, after, n)
        })
        .collect()
}

/// Executions started (a `std` side channel, invisible to the model).
static STARTED: AtomicU64 = AtomicU64::new(0);

/// When `T1` read `T0`'s first store, `T0` fails an `mc_assert!` as the
/// last live thread, with note 10 buffered: that note must be committed
/// to the failing execution, and never leak into a later one.
fn program() {
    STARTED.fetch_add(1, Ordering::SeqCst);
    note(1);
    let x = Atomic::new(0i64);
    note(2);
    let d = Data::new(0i64);
    note(3);
    d.write(1);
    note(4);
    x.store(1, Relaxed);
    note(5);
    let t = mc::thread::spawn(move || {
        let v = x.load(Relaxed);
        note(11);
        d.write(v);
        note(12);
    });
    note(6);
    x.store(2, Relaxed);
    note(7);
    t.join();
    note(8);
    let v = d.read();
    note(9);
    if v == 1 {
        note(10);
        mc_assert!(v == 2, "T1 read a stale value");
    }
}

#[test]
fn annotations_commit_where_they_were_recorded() {
    for fiber_hosting in [true, false] {
        STARTED.store(0, Ordering::SeqCst);
        let seen: Seen = Arc::default();
        let record = Arc::clone(&seen);
        let factory: PluginFactory = Arc::new(move || {
            let record = Arc::clone(&record);
            vec![Box::new(FnPlugin::new("annotations", move |trace| {
                let k = STARTED.load(Ordering::SeqCst) - 1;
                record.lock().unwrap().push((k, sequence(trace)));
                Vec::new()
            }))]
        });
        let config = Config {
            fiber_hosting,
            workers: 1,
            stop_on_first_bug: false,
            ..Config::default()
        };
        let stats = mc::explore_factory(config, factory, program);
        let what = format!("fiber_hosting {fiber_hosting}: {}", stats.summary());
        assert_eq!(stats.stop, mc::StopReason::Exhausted, "{what}");
        assert_eq!(stats.bugs.len(), 1, "{what}");
        assert!(
            stats.bugs[0]
                .bug
                .to_string()
                .contains("T1 read a stale value"),
            "{what}"
        );
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len() as u64, stats.feasible - 1, "{what}");
        for (k, sequence) in seen.iter() {
            assert_eq!(sequence, &EXPECTED, "{what}: completed execution {k}");
        }
        // Some completed execution comes after the failing one, so a note
        // the failing one left buffered would have shown up above.
        let failing = stats.bugs[0].execution;
        assert!(
            seen.iter().any(|&(k, _)| k > failing),
            "{what}: no completed execution after the failing one ({failing})"
        );
    }
}
