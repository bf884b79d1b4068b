//! Property tests for sequential-history enumeration and call extraction,
//! including a differential check of the bitset enumerator against an
//! indegree reference enumerator.

use cdsspec_core::{
    all_histories, for_each_history, for_each_justifying_history, CallOrder, HistoryPolicy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a random DAG over `n` nodes: edge (i, j) with i < j included per
/// the bitmask — guarantees acyclicity by construction.
fn dag_strategy(n: usize) -> impl Strategy<Value = CallOrder> {
    let bits = n * (n - 1) / 2;
    prop::collection::vec(any::<bool>(), bits).prop_map(move |mask| {
        let mut o = CallOrder::new(n);
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if mask[k] {
                    o.add_edge(i, j);
                }
                k += 1;
            }
        }
        o.close();
        o
    })
}

/// A DAG over `n` calls from `seed`: each edge `i → j` with `i < j` is
/// present with probability `pct`%, so the order is acyclic by
/// construction.
fn seeded_dag(n: usize, seed: u64, pct: u32) -> CallOrder {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut o = CallOrder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_range(0..100u32) < pct {
                o.add_edge(i, j);
            }
        }
    }
    o.close();
    o
}

/// `k` chains of `len` calls with no cross edges: chains straddle the
/// 64-call word boundary once `k * len > 64`.
fn parallel_chains(k: usize, len: usize) -> CallOrder {
    let mut o = CallOrder::new(k * len);
    for chain in 0..k {
        for i in 1..len {
            o.add_edge(chain * len + i - 1, chain * len + i);
        }
    }
    o.close();
    o
}

/// The reference enumerator: per-call indegrees over the closed relation,
/// ready calls tried in ascending index order at every depth, random
/// sorts drawn uniformly from the ascending ready list. The bitset walk
/// must agree with it history for history, not just in count.
fn reference(order: &CallOrder, policy: HistoryPolicy) -> Vec<Vec<usize>> {
    if order.cyclic() {
        return Vec::new();
    }
    let n = order.len();
    let indegree = || -> Vec<usize> {
        (0..n)
            .map(|b| (0..n).filter(|&a| order.ordered(a, b)).count())
            .collect()
    };
    let mut out = Vec::new();
    match policy {
        HistoryPolicy::Exhaustive { cap } => {
            let mut used = vec![false; n];
            let mut prefix = Vec::with_capacity(n);
            reference_recurse(
                order,
                &mut indegree(),
                &mut used,
                &mut prefix,
                cap,
                &mut out,
            );
        }
        HistoryPolicy::Sample { count, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..count {
                let mut indegree = indegree();
                let mut used = vec![false; n];
                let mut h = Vec::with_capacity(n);
                while h.len() < n {
                    let ready: Vec<usize> =
                        (0..n).filter(|&v| !used[v] && indegree[v] == 0).collect();
                    let v = ready[rng.gen_range(0..ready.len())];
                    used[v] = true;
                    h.push(v);
                    (0..n)
                        .filter(|&b| order.ordered(v, b))
                        .for_each(|b| indegree[b] -= 1);
                }
                out.push(h);
            }
        }
    }
    out
}

fn reference_recurse(
    order: &CallOrder,
    indegree: &mut [usize],
    used: &mut [bool],
    prefix: &mut Vec<usize>,
    cap: usize,
    out: &mut Vec<Vec<usize>>,
) -> bool {
    let n = order.len();
    if prefix.len() == n {
        out.push(prefix.clone());
        return out.len() < cap;
    }
    for v in 0..n {
        if used[v] || indegree[v] != 0 {
            continue;
        }
        used[v] = true;
        prefix.push(v);
        (0..n)
            .filter(|&b| order.ordered(v, b))
            .for_each(|b| indegree[b] -= 1);
        let go = reference_recurse(order, indegree, used, prefix, cap, out);
        (0..n)
            .filter(|&b| order.ordered(v, b))
            .for_each(|b| indegree[b] += 1);
        prefix.pop();
        used[v] = false;
        if !go {
            return false;
        }
    }
    true
}

/// The justifying subhistories of `m` by restriction: the reference
/// enumerator over `restrict(predecessors_of(m) ++ [m])`, mapped back to
/// original call indices.
fn reference_justifying(order: &CallOrder, m: usize, policy: HistoryPolicy) -> Vec<Vec<usize>> {
    let mut scope = order.predecessors_of(m);
    scope.push(m);
    let sub = order.restrict(&scope);
    let hs = reference(&sub, policy);
    // `m` follows its whole prefix, so every sort ends in it.
    assert!(hs.iter().all(|h| *h.last().unwrap() == scope.len() - 1));
    hs.into_iter()
        .map(|h| h.into_iter().map(|i| scope[i]).collect())
        .collect()
}

fn justifying(order: &CallOrder, m: usize, policy: HistoryPolicy) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let n = for_each_justifying_history(order, m, policy, |h| {
        out.push(h.to_vec());
        true
    });
    assert_eq!(n, out.len());
    out
}

/// Both enumerators agree on every history, on every justifying
/// subhistory of every call, and on the returned counts.
fn assert_matches_reference(o: &CallOrder, policy: HistoryPolicy) {
    let hs = all_histories(o, policy);
    assert_eq!(hs, reference(o, policy), "{policy:?}");
    assert_eq!(for_each_history(o, policy, |_| true), hs.len());
    for m in 0..o.len() {
        assert_eq!(
            justifying(o, m, policy),
            reference_justifying(o, m, policy),
            "call {m} under {policy:?}"
        );
    }
}

/// Brute-force topological-sort count by filtering all permutations.
fn brute_force_count(o: &CallOrder) -> usize {
    fn perms(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in perms(n - 1) {
            for pos in 0..=p.len() {
                let mut q = p.clone();
                q.insert(pos, n - 1);
                out.push(q);
            }
        }
        out
    }
    perms(o.len())
        .into_iter()
        .filter(|p| {
            let pos: Vec<usize> = {
                let mut v = vec![0; p.len()];
                for (i, &x) in p.iter().enumerate() {
                    v[x] = i;
                }
                v
            };
            (0..o.len()).all(|a| (0..o.len()).all(|b| !o.ordered(a, b) || pos[a] < pos[b]))
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Exhaustive enumeration produces exactly the valid permutations.
    #[test]
    fn exhaustive_matches_brute_force(o in dag_strategy(5)) {
        let hs = all_histories(&o, HistoryPolicy::Exhaustive { cap: 100_000 });
        prop_assert_eq!(hs.len(), brute_force_count(&o));
        // Each history is a valid permutation respecting every edge.
        for h in &hs {
            let mut seen = vec![false; o.len()];
            for &x in h {
                seen[x] = true;
            }
            prop_assert!(seen.iter().all(|&s| s), "not a permutation: {:?}", h);
            let pos: Vec<usize> = {
                let mut v = vec![0; h.len()];
                for (i, &x) in h.iter().enumerate() { v[x] = i; }
                v
            };
            for a in 0..o.len() {
                for b in 0..o.len() {
                    if o.ordered(a, b) {
                        prop_assert!(pos[a] < pos[b], "edge {}->{} violated in {:?}", a, b, h);
                    }
                }
            }
        }
        // No duplicates.
        let mut sorted = hs.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), hs.len());
    }

    /// Random sampling only ever produces valid histories.
    #[test]
    fn sampling_respects_order(o in dag_strategy(6), seed in any::<u64>()) {
        let hs = all_histories(&o, HistoryPolicy::Sample { count: 12, seed });
        prop_assert_eq!(hs.len(), 12);
        for h in &hs {
            let pos: Vec<usize> = {
                let mut v = vec![0; h.len()];
                for (i, &x) in h.iter().enumerate() { v[x] = i; }
                v
            };
            for a in 0..o.len() {
                for b in 0..o.len() {
                    if o.ordered(a, b) {
                        prop_assert!(pos[a] < pos[b]);
                    }
                }
            }
        }
    }

    /// `predecessors_of` + `restrict` agree with the closed reachability:
    /// restriction to a prefix keeps exactly the inherited order.
    #[test]
    fn restriction_is_consistent(o in dag_strategy(6), target in 0usize..6) {
        let prefix = o.predecessors_of(target);
        let mut scope = prefix.clone();
        scope.push(target);
        let sub = o.restrict(&scope);
        prop_assert_eq!(sub.len(), scope.len());
        for (i, &a) in scope.iter().enumerate() {
            for (j, &b) in scope.iter().enumerate() {
                if i != j {
                    prop_assert_eq!(sub.ordered(i, j), o.ordered(a, b));
                }
            }
        }
        // The target can always be last in some sorting of the scope.
        let hs = all_histories(&sub, HistoryPolicy::Exhaustive { cap: 100_000 });
        let last_pos = scope.len() - 1;
        prop_assert!(
            hs.iter().any(|h| *h.last().unwrap() == last_pos),
            "target cannot be placed last"
        );
    }

    /// Small DAGs of up to 9 calls, under caps that cut some enumerations
    /// short and leave others complete.
    #[test]
    fn exhaustive_matches_reference(
        n in 0usize..=9,
        seed in any::<u64>(),
        pct in 0u32..=100,
        cap in 1usize..=3_000,
    ) {
        assert_matches_reference(&seeded_dag(n, seed, pct), HistoryPolicy::Exhaustive { cap });
    }

    /// Orders of 60–70 calls cross the 64-call word boundary; dense ones
    /// keep the history count small, sparse ones are cut by small caps.
    #[test]
    fn wide_orders_match_reference(
        n in 60usize..=70,
        seed in any::<u64>(),
        pct in 30u32..=100,
        cap in 1usize..=40,
    ) {
        assert_matches_reference(&seeded_dag(n, seed, pct), HistoryPolicy::Exhaustive { cap });
    }

    /// The word-wise closure agrees with graph search over the direct
    /// edges, on sparse orders whose paths cross the word boundary.
    #[test]
    fn closure_matches_reachability(n in 0usize..=70, seed in any::<u64>(), pct in 0u32..=8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut succ = vec![Vec::new(); n];
        let mut o = CallOrder::new(n);
        for (i, out) in succ.iter_mut().enumerate() {
            for j in (i + 1)..n {
                if rng.gen_range(0..100u32) < pct {
                    out.push(j);
                    o.add_edge(i, j);
                }
            }
        }
        o.close();
        for a in 0..n {
            let mut seen = vec![false; n];
            let mut stack = succ[a].clone();
            while let Some(b) = stack.pop() {
                if !std::mem::replace(&mut seen[b], true) {
                    stack.extend(&succ[b]);
                }
            }
            for (b, &reached) in seen.iter().enumerate() {
                prop_assert_eq!(o.ordered(a, b), reached, "{} -> {}", a, b);
            }
        }
    }

    /// Seeded samples pick the same call at every step as the reference.
    #[test]
    fn samples_match_reference(
        n in prop_oneof![0usize..=9, 60usize..=70],
        seed in any::<u64>(),
        pct in 0u32..=100,
        count in 0usize..=6,
        sample_seed in any::<u64>(),
    ) {
        let o = seeded_dag(n, seed, pct);
        assert_matches_reference(&o, HistoryPolicy::Sample { count, seed: sample_seed });
    }
}

/// Parallel chains straddling the word boundary, each chain's calls on
/// both sides of bit 64.
#[test]
fn chains_across_word_boundary_match_reference() {
    for (k, len) in [(2, 33), (2, 35), (5, 13), (7, 10)] {
        let o = parallel_chains(k, len);
        for cap in [1, 7, 500] {
            assert_matches_reference(&o, HistoryPolicy::Exhaustive { cap });
        }
        assert_matches_reference(&o, HistoryPolicy::Sample { count: 5, seed: 11 });
    }
}

/// A 70-call total order has exactly one history, in index order.
#[test]
fn long_chain_has_one_history() {
    let o = parallel_chains(1, 70);
    let hs = all_histories(&o, HistoryPolicy::default());
    assert_eq!(hs, vec![(0..70).collect::<Vec<_>>()]);
    assert_eq!(o.predecessors_of(69), (0..69).collect::<Vec<_>>());
    assert_eq!(justifying(&o, 69, HistoryPolicy::default()), hs);
}
