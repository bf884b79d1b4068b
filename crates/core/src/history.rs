//! Sequential-history enumeration.
//!
//! The checker topologically sorts the method-call ordering relation `r` to
//! produce the *valid sequential histories* of an execution (Definition 2)
//! and the *justifying subhistories* of a method call (Definition 3). By
//! default all sortings are generated and checked; because the count can be
//! factorial, a cap plus random sampling is available — mirroring the
//! CDSSpec checker's "user-customized number of sequential histories"
//! option (paper §5.2).
//!
//! One depth-first `Walker` serves every enumeration. It keeps the ready
//! set as one bitmask, updated from the placed call's successor row, and
//! carries a `Replay` along its edges: the checker evaluates each
//! call's conditions once per edge of the walk rather than once per
//! complete history.

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
#[derive(Clone, Debug, Default)]
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
        let mut order = CallOrder::default();
        order.reset(n);
        order
    }

    /// Make this an order over `n` calls with no edges, in the same buffer.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = n.div_ceil(WORD);
        self.pred.clear();
        self.pred.resize(n * self.words, 0);
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
    Walker::default().histories(order, policy, &mut Leaves(f))
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
    Walker::default().justifying(order, m, policy, &mut Leaves(f))
}

/// What a [`Walker`] carries along its edges: for the checker, the
/// sequential replay, so the state after a prefix of calls is computed
/// once for every sort that shares the prefix.
///
/// A walk starts with the replay at the empty prefix. [`Replay::step`]
/// appends one call; before the walk moves on from a shorter prefix it
/// calls [`Replay::reset`] with that prefix.
pub(crate) trait Replay {
    /// Return to the state after `prefix`. Every call in it already
    /// passed its checks on the way down, so they need not run again.
    fn reset(&mut self, prefix: &[usize]);
    /// Append call `v`. `false` fails the node: the walk completes the
    /// sort with the lowest ready call at every depth (the first sort
    /// through the node), counts it, hands it to [`Replay::leaf`] and
    /// stops.
    fn step(&mut self, v: usize) -> bool;
    /// A complete sort; `false` stops the walk.
    fn leaf(&mut self, h: &[usize]) -> bool;
}

/// A plain enumeration: no state, every sort goes to the closure.
struct Leaves<F>(F);

impl<F: FnMut(&[usize]) -> bool> Replay for Leaves<F> {
    fn reset(&mut self, _: &[usize]) {}

    fn step(&mut self, _: usize) -> bool {
        true
    }

    fn leaf(&mut self, h: &[usize]) -> bool {
        (self.0)(h)
    }
}

/// The set bits of `words`, ascending.
fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(k, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                k * WORD + b
            })
        })
    })
}

/// The topological-sort enumerator: one depth-first walk over the sorts
/// of a predecessor-closed scope of calls, trying ready calls in
/// ascending index order at every depth. Its buffers are kept by a
/// caller that enumerates once per execution, so it allocates only while
/// they grow.
#[derive(Default)]
pub(crate) struct Walker {
    /// Mask words per row.
    words: usize,
    /// Successor rows, `n × words`: bit `u` of row `v` is set iff `u` is
    /// in scope and `v` is an immediate predecessor of `u` (`v → u` with
    /// no call ordered between them). The transpose of the predecessor
    /// rows, less the edges that closure added.
    succ: Vec<u64>,
    /// Unplaced immediate predecessors of each call in scope.
    pending: Vec<u32>,
    /// The unplaced calls in scope.
    unplaced: Vec<u64>,
    /// The unplaced calls in scope with no unplaced predecessor.
    ready: Vec<u64>,
    /// The sort built so far.
    prefix: Vec<usize>,
}

impl Walker {
    /// [`for_each_history`] on these buffers, carrying `r`.
    pub(crate) fn histories<R: Replay>(
        &mut self,
        order: &CallOrder,
        policy: HistoryPolicy,
        r: &mut R,
    ) -> usize {
        self.sortings(order, 0..order.n, policy, r)
    }

    /// [`for_each_justifying_history`] on these buffers: the scope is
    /// `m`'s predecessor row plus `m`.
    pub(crate) fn justifying<R: Replay>(
        &mut self,
        order: &CallOrder,
        m: usize,
        policy: HistoryPolicy,
        r: &mut R,
    ) -> usize {
        self.sortings(order, bits(order.row(m)).chain([m]), policy, r)
    }

    /// Set the buffers up for the sorts of `scope`.
    fn start(&mut self, order: &CallOrder, scope: impl Iterator<Item = usize>) {
        let w = order.words;
        self.words = w;
        self.succ.clear();
        self.succ.resize(order.n * w, 0);
        self.pending.clear();
        self.pending.resize(order.n, 0);
        self.ready.clear();
        self.ready.resize(w, 0);
        self.unplaced.clear();
        self.unplaced.resize(w, 0);
        let mut len = 0;
        for u in scope {
            len += 1;
            self.unplaced[u / WORD] |= 1 << (u % WORD);
            // Only the immediate predecessors count: the rest precede
            // one of them, so they are placed first anyway.
            let row = order.row(u);
            for (k, &word) in row.iter().enumerate() {
                let covered = bits(row).fold(0, |c, x| c | order.row(x)[k]);
                for b in bits(&[word & !covered]) {
                    self.succ[(k * WORD + b) * w + u / WORD] |= 1 << (u % WORD);
                    self.pending[u] += 1;
                }
            }
            if self.pending[u] == 0 {
                self.ready[u / WORD] |= 1 << (u % WORD);
            }
        }
        self.prefix.clear();
        self.prefix.resize(len, 0);
    }

    /// Walk the sorts of `scope`, a set closed under predecessors.
    fn sortings<R: Replay>(
        &mut self,
        order: &CallOrder,
        scope: impl Iterator<Item = usize>,
        policy: HistoryPolicy,
        r: &mut R,
    ) -> usize {
        if order.cyclic() {
            return 0;
        }
        self.start(order, scope);
        match policy {
            HistoryPolicy::Exhaustive { cap } => {
                let mut count = 0usize;
                self.exhaustive(0, cap, &mut count, r);
                count
            }
            HistoryPolicy::Sample { count, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                for drawn in 0..count {
                    if drawn > 0 {
                        r.reset(&[]);
                    }
                    let passed = self.random(&mut rng, r);
                    if !r.leaf(&self.prefix) || !passed {
                        return drawn + 1;
                    }
                    for d in (0..self.prefix.len()).rev() {
                        self.unplace(self.prefix[d]);
                    }
                }
                count
            }
        }
    }

    /// Place `v`: it leaves the ready set, and so may the successors it
    /// was the last unplaced predecessor of enter it.
    fn place(&mut self, v: usize) {
        let w = self.words;
        self.unplaced[v / WORD] &= !(1 << (v % WORD));
        self.ready[v / WORD] &= !(1 << (v % WORD));
        for (k, &s) in self.succ[v * w..(v + 1) * w].iter().enumerate() {
            let mut s = s;
            while s != 0 {
                let b = s.trailing_zeros() as usize;
                s &= s - 1;
                let u = k * WORD + b;
                self.pending[u] -= 1;
                if self.pending[u] == 0 {
                    self.ready[k] |= 1 << b;
                }
            }
        }
    }

    /// Undo [`Walker::place`]`(v)`, the last call placed: every successor
    /// of `v` is unplaced and waits for `v` again.
    fn unplace(&mut self, v: usize) {
        let w = self.words;
        for (k, &s) in self.succ[v * w..(v + 1) * w].iter().enumerate() {
            self.ready[k] &= !s;
            let mut s = s;
            while s != 0 {
                self.pending[k * WORD + s.trailing_zeros() as usize] += 1;
                s &= s - 1;
            }
        }
        self.unplaced[v / WORD] |= 1 << (v % WORD);
        self.ready[v / WORD] |= 1 << (v % WORD);
    }

    /// Depth-first over every sort extending `prefix[..depth]`, trying
    /// ready calls in ascending index order and stepping `r` once per
    /// edge. `false` once `r` or the cap stopped the walk.
    fn exhaustive<R: Replay>(
        &mut self,
        depth: usize,
        cap: usize,
        count: &mut usize,
        r: &mut R,
    ) -> bool {
        let len = self.prefix.len();
        if depth == len {
            *count += 1;
            return r.leaf(&self.prefix) && *count < cap;
        }
        let mut fresh = true;
        for k in 0..self.words {
            // Placing and unplacing below restores `ready[k]` before the
            // next candidate, so this snapshot stays exact.
            let mut free = self.ready[k];
            while free != 0 {
                let v = k * WORD + free.trailing_zeros() as usize;
                free &= free - 1;
                if !fresh {
                    r.reset(&self.prefix[..depth]);
                }
                fresh = false;
                self.prefix[depth] = v;
                if !r.step(v) {
                    self.fail(depth, count, r);
                    return false;
                }
                if depth + 2 == len {
                    // One call left, ready once `v` is placed: a leaf,
                    // and no need to place `v`.
                    let u = bits(&self.unplaced)
                        .find(|&u| u != v)
                        .expect("two calls are left");
                    self.prefix[depth + 1] = u;
                    if !r.step(u) {
                        self.fail(depth + 1, count, r);
                        return false;
                    }
                    *count += 1;
                    if !(r.leaf(&self.prefix) && *count < cap) {
                        return false;
                    }
                } else {
                    self.place(v);
                    let go = self.exhaustive(depth + 1, cap, count, r);
                    self.unplace(v);
                    if !go {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// `prefix[depth]` failed its step: complete the sort with the lowest
    /// ready call at every depth, count it, and hand it to `r`.
    fn fail<R: Replay>(&mut self, depth: usize, count: &mut usize, r: &mut R) {
        self.place(self.prefix[depth]);
        for d in depth + 1..self.prefix.len() {
            let v = bits(&self.ready)
                .next()
                .expect("an acyclic scope always has a ready call");
            self.prefix[d] = v;
            self.place(v);
        }
        *count += 1;
        r.leaf(&self.prefix);
    }

    /// Fill `prefix` with one random sort: at every depth, a uniform draw
    /// picks the k-th ready call in ascending index order. Steps `r` along
    /// it until a step fails; `false` if one did.
    fn random<R: Replay>(&mut self, rng: &mut StdRng, r: &mut R) -> bool {
        let mut passed = true;
        for depth in 0..self.prefix.len() {
            let ready = self.ready.iter().map(|x| x.count_ones() as usize).sum();
            let v = bits(&self.ready)
                .nth(rng.gen_range(0..ready))
                .expect("the draw is below the ready count");
            self.prefix[depth] = v;
            passed = passed && r.step(v);
            self.place(v);
        }
        passed
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
