//! Sequential-history enumeration.
//!
//! The checker topologically sorts the method-call ordering relation `r` to
//! produce the *valid sequential histories* of an execution (Definition 2)
//! and the *justifying subhistories* of a method call (Definition 3). By
//! default all sortings are generated and checked; because the count can be
//! factorial, a cap plus random sampling is available — mirroring the
//! CDSSpec checker's "user-customized number of sequential histories"
//! option (paper §5.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bits per mask word.
const WORD: usize = u64::BITS as usize;

/// The ordering relation `r` over method calls of one execution (edge
/// `a → b` means `a` must precede `b`).
///
/// Each call `b` owns a predecessor bitset: bit `a` of row `b` is set iff
/// `a → b`, packed into `⌈n/64⌉` `u64` words. [`CallOrder::close`] closes
/// the rows transitively, after which row `b` is the whole `r`-prefix of
/// `b`. That is the one set enumeration needs: the linear extensions of a
/// relation and of its closure coincide, a call is ready to place once its
/// row is a subset of the calls placed so far, and its justifying
/// subhistories are the sortings of its row followed by the call itself.
#[derive(Clone, Debug)]
pub struct CallOrder {
    n: usize,
    /// Mask words per row.
    words: usize,
    /// Row-major predecessor rows, `n × words`.
    pred: Vec<u64>,
}

impl CallOrder {
    /// An order over `n` calls with no edges yet.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(WORD);
        CallOrder {
            n,
            words,
            pred: vec![0; n * words],
        }
    }

    /// Number of calls.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the relation empty of calls?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The predecessor row of `b`.
    fn row(&self, b: usize) -> &[u64] {
        &self.pred[b * self.words..(b + 1) * self.words]
    }

    /// Add the edge `a → b`.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a < self.n, "call {a} out of range for {} calls", self.n);
        self.pred[b * self.words + a / WORD] |= 1 << (a % WORD);
    }

    /// Transitively close the relation (Warshall's algorithm, one word of
    /// the row at a time). Call once after all edges are added; required
    /// before [`CallOrder::ordered`] and [`CallOrder::predecessors_of`]
    /// are meaningful.
    pub fn close(&mut self) {
        let w = self.words;
        for k in 0..self.n {
            let bit = 1u64 << (k % WORD);
            for j in 0..self.n {
                if self.pred[j * w + k / WORD] & bit != 0 {
                    for x in 0..w {
                        self.pred[j * w + x] |= self.pred[k * w + x];
                    }
                }
            }
        }
    }

    /// Is `a` (transitively) ordered before `b`?
    pub fn ordered(&self, a: usize, b: usize) -> bool {
        self.row(b)[a / WORD] >> (a % WORD) & 1 != 0
    }

    /// Are `a` and `b` unordered (concurrent) under `r`?
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.ordered(a, b) && !self.ordered(b, a)
    }

    /// Does the (closed) relation contain a cycle?
    pub fn cyclic(&self) -> bool {
        (0..self.n).any(|i| self.ordered(i, i))
    }

    /// All calls transitively ordered before `m` (the justifying-prefix
    /// set of Definition 3, without `m` itself).
    pub fn predecessors_of(&self, m: usize) -> Vec<usize> {
        (0..self.n).filter(|&i| self.ordered(i, m)).collect()
    }

    /// The restriction of this order to `keep` (indices into the original
    /// call set; result indices are positions in `keep`).
    pub fn restrict(&self, keep: &[usize]) -> CallOrder {
        let mut sub = CallOrder::new(keep.len());
        for (i, &a) in keep.iter().enumerate() {
            for (j, &b) in keep.iter().enumerate() {
                if i != j && self.ordered(a, b) {
                    sub.add_edge(i, j);
                }
            }
        }
        sub.close();
        sub
    }
}

/// Enumeration policy for topological sorts.
#[derive(Clone, Copy, Debug)]
pub enum HistoryPolicy {
    /// Generate every topological sort, up to a hard safety cap.
    Exhaustive {
        /// Safety cap on generated histories.
        cap: usize,
    },
    /// Generate `count` uniformly random topological sorts (with a fixed
    /// seed for reproducibility).
    Sample {
        /// Number of sampled histories.
        count: usize,
        /// PRNG seed (same seed, same samples).
        seed: u64,
    },
}

impl Default for HistoryPolicy {
    fn default() -> Self {
        HistoryPolicy::Exhaustive { cap: 50_000 }
    }
}

/// Enumerate topological sorts of `order` under `policy`, invoking `f` for
/// each; `f` returning `false` stops enumeration early. Returns the number
/// of histories produced (0 for a cyclic order).
pub fn for_each_history<F: FnMut(&[usize]) -> bool>(
    order: &CallOrder,
    policy: HistoryPolicy,
    f: F,
) -> usize {
    Walker::default().histories(order, policy, f)
}

/// Enumerate the justifying subhistories of call `m` (Definition 3) under
/// `policy`: the topological sorts of `m`'s `r`-prefix, each ending in `m`
/// (`m` follows its whole prefix, so it is always placed last). Indices
/// are into the original call set. Sequence, cap and samples are those of
/// [`for_each_history`] on the [`CallOrder::restrict`]ion of `order` to
/// `predecessors_of(m)` followed by `m`, mapped back to original indices.
/// Returns the number of subhistories produced (0 for a cyclic order).
pub fn for_each_justifying_history<F: FnMut(&[usize]) -> bool>(
    order: &CallOrder,
    m: usize,
    policy: HistoryPolicy,
    f: F,
) -> usize {
    Walker::default().justifying(order, m, policy, f)
}

/// The topological-sort enumerator, with buffers that a caller
/// enumerating once per execution can keep, so that it allocates only
/// while they grow.
#[derive(Default)]
pub(crate) struct Walker {
    /// Calls placed so far, plus every call outside the scope being
    /// sorted; call `v` is ready iff `pred[v] & !placed == 0`.
    placed: Vec<u64>,
    /// `placed` before the first call of a sort (where a sample restarts).
    start: Vec<u64>,
    /// The sort built so far.
    prefix: Vec<usize>,
}

impl Walker {
    /// [`for_each_history`] on these buffers.
    pub(crate) fn histories<F: FnMut(&[usize]) -> bool>(
        &mut self,
        order: &CallOrder,
        policy: HistoryPolicy,
        f: F,
    ) -> usize {
        self.placed.clear();
        self.placed.resize(order.words, 0);
        if let (Some(last), tail @ 1..) = (self.placed.last_mut(), order.n % WORD) {
            *last = !0 << tail;
        }
        self.sortings(order, policy, f)
    }

    /// [`for_each_justifying_history`] on these buffers: the scope is
    /// `m`'s predecessor row plus `m`.
    pub(crate) fn justifying<F: FnMut(&[usize]) -> bool>(
        &mut self,
        order: &CallOrder,
        m: usize,
        policy: HistoryPolicy,
        f: F,
    ) -> usize {
        self.placed.clear();
        self.placed.extend(order.row(m).iter().map(|w| !w));
        self.placed[m / WORD] &= !(1 << (m % WORD));
        self.sortings(order, policy, f)
    }

    /// Enumerate the sorts of the calls `placed` leaves out, a set closed
    /// under predecessors.
    fn sortings<F: FnMut(&[usize]) -> bool>(
        &mut self,
        order: &CallOrder,
        policy: HistoryPolicy,
        mut f: F,
    ) -> usize {
        if order.cyclic() {
            return 0;
        }
        let len = self.placed.iter().map(|w| w.count_zeros() as usize).sum();
        self.prefix.clear();
        self.prefix.resize(len, 0);
        match policy {
            HistoryPolicy::Exhaustive { cap } => {
                let mut count = 0usize;
                self.exhaustive(order, 0, cap, &mut count, &mut f);
                count
            }
            HistoryPolicy::Sample { count, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                self.start.clone_from(&self.placed);
                let mut produced = 0usize;
                for _ in 0..count {
                    self.placed.copy_from_slice(&self.start);
                    self.random(order, &mut rng);
                    produced += 1;
                    if !f(&self.prefix) {
                        break;
                    }
                }
                produced
            }
        }
    }

    fn ready(&self, order: &CallOrder, v: usize) -> bool {
        let row = order.row(v);
        row.iter().zip(&self.placed).all(|(&p, &d)| p & !d == 0)
    }

    /// Depth-first over every sort extending `prefix[..depth]`, trying
    /// ready calls in ascending index order at every depth. `false` once
    /// `f` or the cap stopped the enumeration.
    fn exhaustive<F: FnMut(&[usize]) -> bool>(
        &mut self,
        order: &CallOrder,
        depth: usize,
        cap: usize,
        count: &mut usize,
        f: &mut F,
    ) -> bool {
        if depth == self.prefix.len() {
            *count += 1;
            return f(&self.prefix) && *count < cap;
        }
        for k in 0..self.placed.len() {
            // Placing and unplacing below restores `placed[k]` before the
            // next candidate, so this snapshot stays exact.
            let mut free = !self.placed[k];
            while free != 0 {
                let bit = free & free.wrapping_neg();
                free ^= bit;
                let v = k * WORD + bit.trailing_zeros() as usize;
                if !self.ready(order, v) {
                    continue;
                }
                self.placed[k] |= bit;
                self.prefix[depth] = v;
                let go = self.exhaustive(order, depth + 1, cap, count, f);
                self.placed[k] ^= bit;
                if !go {
                    return false;
                }
            }
        }
        true
    }

    /// Fill `prefix` with one random sort: at every step, a uniform draw
    /// picks the k-th ready call in ascending index order.
    fn random(&mut self, order: &CallOrder, rng: &mut StdRng) {
        for depth in 0..self.prefix.len() {
            let ready: Vec<usize> = (0..order.n)
                .filter(|&v| self.placed[v / WORD] >> (v % WORD) & 1 == 0 && self.ready(order, v))
                .collect();
            let v = ready[rng.gen_range(0..ready.len())];
            self.placed[v / WORD] |= 1 << (v % WORD);
            self.prefix[depth] = v;
        }
    }
}

/// Collect all histories into a vector (testing convenience).
pub fn all_histories(order: &CallOrder, policy: HistoryPolicy) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for_each_history(order, policy, |h| {
        out.push(h.to_vec());
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> CallOrder {
        let mut o = CallOrder::new(n);
        for i in 1..n {
            o.add_edge(i - 1, i);
        }
        o.close();
        o
    }

    #[test]
    fn total_order_has_one_history() {
        let o = chain(4);
        let hs = all_histories(&o, HistoryPolicy::default());
        assert_eq!(hs, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn empty_order_enumerates_permutations() {
        let mut o = CallOrder::new(3);
        o.close();
        let hs = all_histories(&o, HistoryPolicy::default());
        assert_eq!(hs.len(), 6);
    }

    #[test]
    fn diamond_order() {
        // 0 → {1,2} → 3: two sortings.
        let mut o = CallOrder::new(4);
        o.add_edge(0, 1);
        o.add_edge(0, 2);
        o.add_edge(1, 3);
        o.add_edge(2, 3);
        o.close();
        let hs = all_histories(&o, HistoryPolicy::default());
        assert_eq!(hs.len(), 2);
        for h in &hs {
            assert_eq!(h[0], 0);
            assert_eq!(h[3], 3);
        }
    }

    #[test]
    fn transitive_closure_and_concurrency() {
        let mut o = CallOrder::new(3);
        o.add_edge(0, 1);
        o.add_edge(1, 2);
        o.close();
        assert!(o.ordered(0, 2));
        assert!(!o.concurrent(0, 2));
        let mut p = CallOrder::new(2);
        p.close();
        assert!(p.concurrent(0, 1));
    }

    #[test]
    fn cycle_detection() {
        let mut o = CallOrder::new(2);
        o.add_edge(0, 1);
        o.add_edge(1, 0);
        o.close();
        assert!(o.cyclic());
        assert_eq!(all_histories(&o, HistoryPolicy::default()).len(), 0);
    }

    #[test]
    fn predecessors_and_restriction() {
        let mut o = CallOrder::new(4);
        o.add_edge(0, 2);
        o.add_edge(1, 2);
        o.close();
        assert_eq!(o.predecessors_of(2), vec![0, 1]);
        assert_eq!(o.predecessors_of(3), Vec::<usize>::new());
        let keep = vec![0, 1, 2];
        let sub = o.restrict(&keep);
        assert_eq!(sub.len(), 3);
        assert!(sub.ordered(0, 2) && sub.ordered(1, 2));
        assert!(sub.concurrent(0, 1));
    }

    #[test]
    fn cap_stops_enumeration() {
        let mut o = CallOrder::new(6); // 720 permutations
        o.close();
        let mut seen = 0;
        let n = for_each_history(&o, HistoryPolicy::Exhaustive { cap: 10 }, |_| {
            seen += 1;
            true
        });
        assert_eq!(n, 10);
        assert_eq!(seen, 10);
    }

    #[test]
    fn early_stop_via_callback() {
        let mut o = CallOrder::new(3);
        o.close();
        let n = for_each_history(&o, HistoryPolicy::default(), |_| false);
        assert_eq!(n, 1);
    }

    #[test]
    fn sampling_respects_edges() {
        let mut o = CallOrder::new(5);
        o.add_edge(0, 4);
        o.add_edge(2, 3);
        o.close();
        let hs = all_histories(&o, HistoryPolicy::Sample { count: 20, seed: 7 });
        assert_eq!(hs.len(), 20);
        for h in hs {
            let pos = |x: usize| h.iter().position(|&v| v == x).unwrap();
            assert!(pos(0) < pos(4));
            assert!(pos(2) < pos(3));
        }
    }

    #[test]
    fn zero_call_order() {
        let mut o = CallOrder::new(0);
        o.close();
        assert!(o.is_empty());
        let hs = all_histories(&o, HistoryPolicy::default());
        assert_eq!(hs, vec![Vec::<usize>::new()]);
    }
}
