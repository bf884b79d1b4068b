//! Criterion benches for sequential-history enumeration (the checker's
//! inner loop), including the DESIGN.md ablation: exhaustive enumeration
//! vs. random sampling as the call graph widens.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cdsspec_core::{all_histories, for_each_history, CallOrder, HistoryPolicy};

/// One chain per entry of `shape`, of that many calls, with no cross
/// edges — the worst case for exhaustive enumeration (multinomial
/// growth).
fn parallel_chains(shape: &[usize]) -> CallOrder {
    let mut o = CallOrder::new(shape.iter().sum());
    let mut base = 0;
    for &len in shape {
        for i in 1..len {
            o.add_edge(base + i - 1, base + i);
        }
        base += len;
    }
    o.close();
    o
}

fn bench_history_enum(c: &mut Criterion) {
    let mut group = c.benchmark_group("history-enumeration");

    for shape in [&[3usize, 3][..], &[3, 3, 3], &[5, 5]] {
        let order = parallel_chains(shape);
        let label = format!("{}x{}", shape.len(), shape[0]);
        group.bench_with_input(
            BenchmarkId::new("exhaustive", &label),
            &order,
            |b, order| {
                b.iter(|| all_histories(order, HistoryPolicy::Exhaustive { cap: 100_000 }).len())
            },
        );
        group.bench_with_input(BenchmarkId::new("sample-64", &label), &order, |b, order| {
            b.iter(|| all_histories(order, HistoryPolicy::Sample { count: 64, seed: 1 }).len())
        });
    }

    // The `spec-wide` workload's thread shapes (25,200 / 27,720 / 34,650
    // histories), walked without collecting, as the checker does; and a
    // 70-call chain, whose rows span two mask words.
    for shape in [&[3usize, 3, 2, 2][..], &[5, 4, 3], &[4, 4, 4], &[70]] {
        let order = parallel_chains(shape);
        let label = shape.iter().map(|l| l.to_string()).collect::<Vec<_>>();
        group.bench_with_input(
            BenchmarkId::new("walk", label.join(",")),
            &order,
            |b, order| {
                b.iter(|| for_each_history(order, HistoryPolicy::default(), |h| h[0] < usize::MAX))
            },
        );
    }
    group.finish();

    // Transitive closure cost on a dense order.
    c.bench_function("call-order-close-32", |b| {
        b.iter(|| {
            let mut o = CallOrder::new(32);
            for i in 0..31 {
                o.add_edge(i, i + 1);
            }
            o.close();
            o.ordered(0, 31)
        })
    });
}

criterion_group!(benches, bench_history_enum);
criterion_main!(benches);
