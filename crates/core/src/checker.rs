//! The CDSSpec checker: a model-checker plugin implementing the paper's
//! correctness model (non-deterministic linearizability, §3 + §5.2).
//!
//! Per feasible execution:
//!
//! 1. extract the method calls and their ordering points from the
//!    annotation stream;
//! 2. build the ordering relation `r` over method calls from the `hb`/SC
//!    ordering of their ordering points, and transitively close it;
//! 3. **admissibility**: every pair required ordered by an `@Admit` guard
//!    must be ordered by `r`, else the execution is inadmissible;
//! 4. **sequential histories**: every topological sort of `r` must satisfy
//!    all pre/postconditions when replayed against the equivalent
//!    sequential data structure (Definitions 2, 5, 6);
//! 5. **justification**: every call with justifying conditions must have
//!    at least one justifying subhistory (topological sort of its
//!    `r`-prefix) whose sequential execution satisfies them, with the
//!    `CONCURRENT` set available (Definitions 3, 4).

use std::sync::Arc;

use cdsspec_c11::Trace;
use cdsspec_mc::{Bug, Plugin};

use crate::call::{CallPool, Extractor, MethodCall};
use crate::history::{CallOrder, HistoryPolicy, Replay, Walker};
use crate::spec::{CallEval, Spec};

#[cfg(test)]
mod differential;

/// The plugin. Cheap to construct per exploration; the spec itself is
/// shared via `Arc`. Every buffer below is reused across executions, so a
/// warm checker allocates nothing on an execution whose calls fit them.
pub struct SpecChecker<S> {
    spec: Arc<Spec<S>>,
    /// Enumeration buffers.
    walker: Walker,
    /// Call extraction.
    extractor: Extractor,
    /// The ordering relation `r` of the object being checked.
    order: CallOrder,
    /// Per call of that object: its method's index in the spec, and its
    /// evaluation context (only the first `calls.len()` are live).
    meths: Vec<usize>,
    evals: Vec<CallEval>,
    /// The execution's object ids, and one object's calls when there are
    /// several.
    objs: Vec<u64>,
    projection: Vec<MethodCall>,
    /// Retired calls, whose buffers the copies above are built in.
    pool: CallPool,
}

impl<S> SpecChecker<S> {
    /// Check executions against `spec`.
    pub fn new(spec: Arc<Spec<S>>) -> Self {
        SpecChecker {
            spec,
            walker: Walker::default(),
            extractor: Extractor::default(),
            order: CallOrder::default(),
            meths: Vec::new(),
            evals: Vec::new(),
            objs: Vec::new(),
            projection: Vec::new(),
            pool: CallPool::default(),
        }
    }

    /// Convenience: the boxed plugin list one explorer worker checks
    /// with — what [`SpecChecker::factory`] mints per worker.
    pub fn plugins(spec: Arc<Spec<S>>) -> Vec<Box<dyn Plugin>>
    where
        S: Send + 'static,
    {
        vec![Box::new(SpecChecker::new(spec))]
    }

    /// A [`cdsspec_mc::PluginFactory`] minting one independent checker per
    /// explorer worker. The spec itself is immutable and shared via `Arc`
    /// (its closures are `Send + Sync` by construction), so per-shard
    /// CDSSpec checking in the parallel engine is race-free without any
    /// cross-worker locking.
    pub fn factory(spec: Arc<Spec<S>>) -> cdsspec_mc::PluginFactory
    where
        S: Send + 'static,
    {
        Arc::new(move || SpecChecker::plugins(Arc::clone(&spec)))
    }
}

/// A bug this plugin reports.
fn plugin_bug(message: String) -> Bug {
    Bug::Plugin {
        plugin: "cdsspec",
        message,
    }
}

/// Render a history as `name(args)=ret -> …` for diagnostics.
fn render_history(calls: &[MethodCall], h: &[usize]) -> String {
    h.iter()
        .map(|&i| {
            let c = &calls[i];
            let args = c
                .args
                .iter()
                .map(|a| format!("{a:?}"))
                .collect::<Vec<_>>()
                .join(",");
            format!("{}#{}({args})={:?}", c.name, c.id.0, c.ret)
        })
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Build `r` from ordering points: `m1 → m2` iff some ordering point of
/// `m1` is `hb`- or SC-ordered before one of `m2` (paper §5.2).
pub fn build_call_order(trace: &Trace, calls: &[MethodCall]) -> CallOrder {
    let mut order = CallOrder::default();
    build_call_order_into(trace, calls, &mut order);
    order
}

/// [`build_call_order`] into a reused buffer.
fn build_call_order_into(trace: &Trace, calls: &[MethodCall], order: &mut CallOrder) {
    order.reset(calls.len());
    for (i, a) in calls.iter().enumerate() {
        for (j, b) in calls.iter().enumerate() {
            if i == j {
                continue;
            }
            let ordered = a.ordering_points.iter().any(|&x| {
                b.ordering_points
                    .iter()
                    .any(|&y| x != y && trace.ordered_before(x, y))
            });
            if ordered {
                order.add_edge(i, j);
            }
        }
    }
    order.close();
}

impl<S: Send + 'static> SpecChecker<S> {
    /// Check the projection of the execution onto one object.
    fn check_object(&mut self, trace: &Trace, calls: &[MethodCall]) -> Vec<Bug> {
        for c in calls {
            if self.spec.lookup(c.name).is_none() {
                return vec![plugin_bug(format!(
                    "no specification for method `{}`",
                    c.name
                ))];
            }
        }
        let mut order = std::mem::take(&mut self.order);
        build_call_order_into(trace, calls, &mut order);
        let bugs = self.check_order(calls, &order).0;
        self.order = order;
        bugs
    }

    /// Steps 3–5 over `calls` (each with a method spec) ordered by
    /// `order`: the bugs, and how many full histories were replayed.
    fn check_order(&mut self, calls: &[MethodCall], order: &CallOrder) -> (Vec<Bug>, usize) {
        let spec = &*self.spec;
        if order.cyclic() {
            let bug = "cyclic ordering relation r — check the ordering-point annotations";
            return (vec![plugin_bug(bug.into())], 0);
        }

        // 3. Admissibility (Definition 1). An inadmissible execution is
        // outside the correctness model: report it and skip the rest, as
        // the paper's checker does ("prints a warning").
        for i in 0..calls.len() {
            for j in 0..calls.len() {
                if i >= j || !order.concurrent(i, j) {
                    continue;
                }
                for rule in &spec.admissibility {
                    for (a, b) in [(i, j), (j, i)] {
                        if calls[a].name == rule.m1
                            && calls[b].name == rule.m2
                            && (rule.guard)(&calls[a], &calls[b])
                        {
                            let bug = plugin_bug(format!(
                                "admissibility: `{}#{}` and `{}#{}` must be ordered by r \
                                 but are concurrent",
                                calls[a].name, calls[a].id.0, calls[b].name, calls[b].id.0
                            ));
                            return (vec![bug], 0);
                        }
                    }
                }
            }
        }

        // 4. Sequential histories (Definitions 2/5/6). Each call's method
        // index and `CallEval` are built once and reused across every
        // replayed history — a name lookup or the deep `MethodCall`/
        // `CONCURRENT` clones per history step dominated checking time on
        // history-heavy traces. Only `s_ret` varies between replays; it
        // is re-armed before each use. The contexts are copied into the
        // previous execution's buffers.
        let n = calls.len();
        self.meths.clear();
        self.meths.extend(
            calls
                .iter()
                .map(|c| spec.method_index(c.name).expect("checked above")),
        );
        while self.evals.len() < n {
            self.evals.push(CallEval {
                call: self.pool.copy(&calls[self.evals.len()]),
                s_ret: cdsspec_c11::SpecVal::Unit,
                concurrent: Vec::new(),
            });
        }
        for (i, eval) in self.evals[..n].iter_mut().enumerate() {
            eval.call.clone_from(&calls[i]);
            eval.s_ret = cdsspec_c11::SpecVal::Unit;
            self.pool.retire(&mut eval.concurrent);
            for j in (0..n).filter(|&j| order.concurrent(i, j)) {
                eval.concurrent.push(self.pool.copy(&calls[j]));
            }
        }
        let meths = &self.meths[..];
        let evals = &mut self.evals[..n];

        let mut all = CheckAll {
            seq: Sequential::new(spec, meths, evals),
            calls,
            failure: None,
        };
        let histories = self.walker.histories(order, spec.policy, &mut all);
        if let Some(msg) = all.failure {
            // One witness per execution is enough.
            return (vec![plugin_bug(msg)], histories);
        }

        // 5. Justification (Definitions 3/4): for each call with justifying
        // conditions, some topological sort of its r-prefix must satisfy
        // them.
        let mut bugs = Vec::new();
        for (i, call) in calls.iter().enumerate() {
            if !spec.methods[meths[i]].has_justification() {
                continue;
            }
            let mut search = Justify {
                seq: Sequential::new(spec, meths, evals),
                m: i,
                justified: false,
            };
            let searched = self.walker.justifying(order, i, spec.policy, &mut search);
            if !search.justified {
                let why = match spec.policy {
                    HistoryPolicy::Exhaustive { cap } if searched >= cap => {
                        format!("the search was capped at {cap} subhistories")
                    }
                    HistoryPolicy::Exhaustive { .. } => {
                        "no justifying subhistory permits it".to_owned()
                    }
                    HistoryPolicy::Sample { .. } => {
                        format!("none of the {searched} sampled subhistories permits it")
                    }
                };
                bugs.push(plugin_bug(format!(
                    "justification failed: `{}#{}` returned {:?} but {why} \
                     (prefix of {} call(s))",
                    call.name,
                    call.id.0,
                    call.ret,
                    order.predecessors_of(i).len()
                )));
            }
        }

        (bugs, histories)
    }
}

/// The equivalent sequential data structure along a walk: the state
/// after the current prefix, and each call's method (an index into the
/// spec's methods) and context.
struct Sequential<'w, S> {
    spec: &'w Spec<S>,
    meths: &'w [usize],
    evals: &'w mut [CallEval],
    state: S,
}

impl<'w, S> Sequential<'w, S> {
    fn new(spec: &'w Spec<S>, meths: &'w [usize], evals: &'w mut [CallEval]) -> Self {
        Sequential {
            spec,
            meths,
            evals,
            state: (spec.init)(),
        }
    }

    /// Rebuild the state after `prefix`: `init` plus its side effects,
    /// unchecked. Sound because conditions and side effects are
    /// deterministic in `(state, CallEval)` (see [`crate::spec`]).
    fn reset(&mut self, prefix: &[usize]) {
        self.state = (self.spec.init)();
        for &v in prefix {
            let eval = &mut self.evals[v];
            eval.s_ret = cdsspec_c11::SpecVal::Unit;
            if let Some(se) = &self.spec.methods[self.meths[v]].side_effect {
                se(&mut self.state, eval);
            }
        }
    }
}

/// Step 4 on the walker: each call's pre/postcondition, checked once per
/// edge. Each call's context is re-armed (`s_ret` reset) before its
/// pre/effect/post run.
struct CheckAll<'w, S> {
    seq: Sequential<'w, S>,
    calls: &'w [MethodCall],
    /// The first violated condition, then its witness history.
    failure: Option<String>,
}

impl<S> Replay for CheckAll<'_, S> {
    fn reset(&mut self, prefix: &[usize]) {
        self.seq.reset(prefix);
    }

    fn step(&mut self, v: usize) -> bool {
        let meth = &self.seq.spec.methods[self.seq.meths[v]];
        let eval = &mut self.seq.evals[v];
        let state = &mut self.seq.state;
        eval.s_ret = cdsspec_c11::SpecVal::Unit;
        if let Some(pre) = &meth.pre {
            if !pre(state, eval) {
                let call = &eval.call;
                self.failure = Some(format!(
                    "precondition of `{}#{}` failed",
                    call.name, call.id.0
                ));
                return false;
            }
        }
        if let Some(se) = &meth.side_effect {
            se(state, eval);
        }
        if let Some(post) = &meth.post {
            if !post(state, eval) {
                let call = &eval.call;
                self.failure = Some(format!(
                    "postcondition of `{}#{}` failed (C_RET={:?}, S_RET={:?})",
                    call.name, call.id.0, call.ret, eval.s_ret
                ));
                return false;
            }
        }
        true
    }

    fn leaf(&mut self, h: &[usize]) -> bool {
        let Some(msg) = &mut self.failure else {
            return true;
        };
        msg.push_str("\n  history: ");
        msg.push_str(&render_history(self.calls, h));
        false
    }
}

/// Step 5 on the walker: a search for a justifying subhistory of `m`,
/// which every sort places last. Only `m`'s justifying conditions are
/// checked; the other calls apply their side effects.
struct Justify<'w, S> {
    seq: Sequential<'w, S>,
    m: usize,
    /// Did the last sort justify `m`?
    justified: bool,
}

impl<S> Replay for Justify<'_, S> {
    fn reset(&mut self, prefix: &[usize]) {
        self.seq.reset(prefix);
    }

    fn step(&mut self, v: usize) -> bool {
        let meth = &self.seq.spec.methods[self.seq.meths[v]];
        let eval = &mut self.seq.evals[v];
        let state = &mut self.seq.state;
        eval.s_ret = cdsspec_c11::SpecVal::Unit;
        if v == self.m {
            self.justified = meth.justify_pre.as_ref().is_none_or(|p| p(state, eval));
            if !self.justified {
                return true;
            }
        }
        if let Some(se) = &meth.side_effect {
            se(state, eval);
        }
        if v == self.m {
            self.justified = meth.justify_post.as_ref().is_none_or(|p| p(state, eval));
        }
        true
    }

    fn leaf(&mut self, _: &[usize]) -> bool {
        !self.justified
    }
}

impl<S: Send + 'static> Plugin for SpecChecker<S> {
    fn name(&self) -> &'static str {
        "cdsspec"
    }

    /// Check one execution: extract calls, then check each data-structure
    /// instance independently against its own sequential state
    /// (specification composition, paper §3.2 / Theorem 1).
    fn check(&mut self, trace: &Trace) -> Vec<Bug> {
        let mut extractor = std::mem::take(&mut self.extractor);
        let bugs = match extractor.extract(trace, &mut self.pool) {
            Ok(()) => self.check_calls(trace, &extractor.calls),
            Err(e) => vec![plugin_bug(format!("annotation error: {e}"))],
        };
        self.extractor = extractor;
        bugs
    }
}

impl<S: Send + 'static> SpecChecker<S> {
    /// Check an execution's extracted calls, object by object.
    fn check_calls(&mut self, trace: &Trace, all_calls: &[MethodCall]) -> Vec<Bug> {
        if all_calls.is_empty() {
            return Vec::new();
        }
        let mut objs = std::mem::take(&mut self.objs);
        objs.clear();
        objs.extend(all_calls.iter().map(|c| c.obj));
        objs.sort_unstable();
        objs.dedup();
        // Single-object executions (the overwhelmingly common case) skip
        // the per-object projection entirely.
        let bugs = if objs.len() == 1 {
            self.check_object(trace, all_calls)
        } else {
            let mut calls = std::mem::take(&mut self.projection);
            let mut bugs = Vec::new();
            for &obj in &objs {
                self.pool.retire(&mut calls);
                for c in all_calls.iter().filter(|c| c.obj == obj) {
                    calls.push(self.pool.copy(c));
                }
                bugs.extend(self.check_object(trace, &calls));
                if !bugs.is_empty() {
                    break; // one witness per execution
                }
            }
            self.projection = calls;
            bugs
        };
        self.objs = objs;
        bugs
    }
}

/// Explore `test` under `config`, checking every feasible execution
/// against `spec` — the main entry point users interact with.
///
/// Checking goes through [`SpecChecker::factory`], so with
/// `Config::workers > 1` every parallel explorer worker gets its own
/// checker instance over the shared immutable spec (race-free per-shard
/// checking; see `ARCHITECTURE.md`).
pub fn check<S, F>(config: cdsspec_mc::Config, spec: Spec<S>, test: F) -> cdsspec_mc::Stats
where
    S: Send + 'static,
    F: Fn() + Send + Sync + 'static,
{
    let spec = Arc::new(spec);
    cdsspec_mc::explore_factory(config, SpecChecker::factory(spec), test)
}

/// One part of a multi-test benchmark suite: a specification plus the
/// unit test to explore under it.
pub type SuitePart<S> = (Spec<S>, Box<dyn Fn() + Send + Sync + 'static>);

/// Explore a *suite* of unit tests in order — the paper's §6.4
/// corner-case suites — stopping at the first buggy part, with exact
/// checkpoint/resume across parts.
///
/// A plain sequence of [`check`] calls merged together cannot resume: a
/// [`cdsspec_mc::Stats::frontier`] replay script does not say which
/// part's choice tree it belongs to. `check_suite` therefore prefixes
/// every frontier it reports with the part index and peels that prefix
/// off on the way back in, so the suite as a whole keeps the partition
/// invariant
/// `executions(full) == executions(to checkpoint) + executions(resumed)`.
///
/// A prefixed shard's floor counts the prefix too. A cut suite's
/// [`cdsspec_mc::Stats::shard_frontiers`] list exactly the work left:
/// the cut part's shards (floor >= 1, so they stay in their part), then
/// a root shard `{ floor: 1, script: [q] }` for each later part `q` that
/// still had work. Resuming from [`cdsspec_mc::Config::resume_shards`]
/// explores exactly the listed shards, part by part, and nothing else,
/// so any subset of a frontier (one campaign task per shard) counts
/// every execution once. A floor-0 shard — and so a single
/// [`cdsspec_mc::Config::resume_script`] — may backtrack past its
/// part's index and continues into every later part.
///
/// A wall-clock [`cdsspec_mc::Config::time_budget`] covers the whole
/// suite, not each part: later parts run on whatever remains.
pub fn check_suite<S>(config: cdsspec_mc::Config, parts: Vec<SuitePart<S>>) -> cdsspec_mc::Stats
where
    S: Send + 'static,
{
    use cdsspec_mc::ShardSpec;
    let last = parts.len().saturating_sub(1);
    let listed = match (&config.resume_shards, &config.resume_script) {
        (Some(shards), _) if !shards.is_empty() => shards.clone(),
        (_, Some(script)) => vec![ShardSpec::from_script(script.clone())],
        _ => vec![ShardSpec::root()],
    };
    // Each part's own shards, prefix peeled: the synthetic prefix element
    // sits below every real choice point, so the floor drops by one.
    let mut work: std::collections::BTreeMap<usize, Vec<ShardSpec>> = Default::default();
    for shard in listed {
        // The suite's root shard is part 0's root with floor 0.
        let (idx, inner) = match shard.script.split_first() {
            Some((&idx, inner)) => (idx.min(last), inner.to_vec()),
            None => (0, Vec::new()),
        };
        work.entry(idx).or_default().push(ShardSpec {
            floor: shard.floor.saturating_sub(1),
            script: inner,
        });
        if shard.floor == 0 {
            for q in idx + 1..parts.len() {
                work.entry(q).or_default().push(ShardSpec::root());
            }
        }
    }
    let prefixed = |idx: usize, shard: ShardSpec| {
        let mut script = Vec::with_capacity(shard.script.len() + 1);
        script.push(idx);
        script.extend(shard.script);
        ShardSpec {
            floor: shard.floor + 1,
            script,
        }
    };
    let deadline = config.time_budget.map(|b| std::time::Instant::now() + b);
    let mut acc = cdsspec_mc::Stats::default();
    for (idx, (spec, test)) in parts.into_iter().enumerate() {
        let Some(shards) = work.remove(&idx) else {
            continue;
        };
        let mut part_config = config.clone();
        part_config.resume_script = None;
        part_config.resume_shards = Some(shards);
        part_config.time_budget =
            deadline.map(|d| d.saturating_duration_since(std::time::Instant::now()));
        let mut fresh = check(part_config, spec, test);
        let stop_here = fresh.buggy() || fresh.truncated();
        if !fresh.shard_frontiers.is_empty() {
            let mut left: Vec<ShardSpec> = std::mem::take(&mut fresh.shard_frontiers)
                .into_iter()
                .map(|s| prefixed(idx, s))
                .collect();
            for (q, shards) in std::mem::take(&mut work) {
                left.extend(shards.into_iter().map(|s| prefixed(q, s)));
            }
            fresh.shard_frontiers = left;
        }
        acc.continue_with(fresh);
        if stop_here {
            break;
        }
    }
    acc
}

/// Like [`check`] but panics with a diagnostic on the first violation —
/// the loom-style assertion form.
pub fn check_ok<S, F>(spec: Spec<S>, test: F) -> cdsspec_mc::Stats
where
    S: Send + 'static,
    F: Fn() + Send + Sync + 'static,
{
    let stats = check(cdsspec_mc::Config::default(), spec, test);
    if stats.buggy() {
        let b = &stats.bugs[0];
        panic!("specification violated: {}\ntrace:\n{}", b.bug, b.trace);
    }
    stats
}
