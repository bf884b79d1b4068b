//! Criterion microbenches for the allocation hot paths: clock
//! snapshot-and-join, clock dominance, rf-candidate enumeration, and
//! event append. These are the operations the copy-on-write clock
//! representation and the reusable candidate buffers target. Allocations
//! per execution of whole explorations are gated by the workspace test
//! `tests/alloc_budget.rs`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cdsspec_c11::clock::Clock;
use cdsspec_c11::{LocId, MemOrd, Tid};
use cdsspec_mc::memstate::MemState;

/// A clock pair shaped like mid-exploration state: several threads and
/// locations with staggered knowledge, neither side dominating.
fn sample_clocks() -> (Clock, Clock) {
    let mut a = Clock::new();
    let mut b = Clock::new();
    for t in 0..4u32 {
        a.vc.set(Tid(t), 10 + t);
        b.vc.set(Tid(t), 13 - t);
    }
    for l in 0..6u32 {
        a.wmax.raise(LocId(l), l);
        a.rmax.raise(LocId(l), l / 2);
        b.wmax.raise(LocId(l), 5 - l.min(5));
        b.rmax.raise(LocId(l), l);
    }
    (a, b)
}

/// Two threads, one contended location with a short store history.
fn sample_memstate() -> (MemState, Tid, LocId) {
    let mut st = MemState::new();
    let main = Tid::MAIN;
    let child = st.spawn_thread(main);
    let loc = st.alloc_atomic(main, Some(0));
    for i in 0..4u64 {
        st.apply_store(main, loc, MemOrd::Release, i);
        st.apply_store(child, loc, MemOrd::Relaxed, 100 + i);
    }
    let rf = st.load_candidates(child, loc, MemOrd::Acquire)[0];
    st.apply_load(child, loc, MemOrd::Acquire, rf);
    (st, child, loc)
}

fn bench_hotpath(c: &mut Criterion) {
    let (a, b) = sample_clocks();
    c.bench_function("clock-snapshot-join", |bench| {
        bench.iter(|| {
            let mut snap = a.clone();
            snap.join(black_box(&b));
            snap.vc.get(Tid(0))
        })
    });

    let mut joined = a.clone();
    joined.join(&b);
    c.bench_function("clock-includes", |bench| {
        bench.iter(|| {
            black_box(joined.vc.includes(black_box(&a.vc)))
                ^ black_box(a.vc.includes(black_box(&joined.vc)))
        })
    });

    let (st, tid, loc) = sample_memstate();
    c.bench_function("load-candidates", |bench| {
        bench.iter(|| {
            st.load_candidates(black_box(tid), black_box(loc), MemOrd::Acquire)
                .len()
        })
    });

    c.bench_function("push-event-x100", |bench| {
        bench.iter(|| {
            let mut st = MemState::new();
            let loc = st.alloc_atomic(Tid::MAIN, Some(0));
            for i in 0..100u64 {
                st.apply_store(Tid::MAIN, loc, MemOrd::Relaxed, i);
            }
            st.trace.len()
        })
    });
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
