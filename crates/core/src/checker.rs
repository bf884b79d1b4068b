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

use crate::call::{extract_calls, MethodCall};
use crate::history::{CallOrder, HistoryPolicy, Walker};
use crate::spec::{CallEval, MethodSpec, Spec};

/// The plugin. Cheap to construct per exploration; the spec itself is
/// shared via `Arc`.
pub struct SpecChecker<S> {
    spec: Arc<Spec<S>>,
    /// Enumeration buffers, reused across executions.
    walker: Walker,
}

impl<S> SpecChecker<S> {
    /// Check executions against `spec`.
    pub fn new(spec: Arc<Spec<S>>) -> Self {
        SpecChecker {
            spec,
            walker: Walker::default(),
        }
    }

    /// Convenience: build the boxed plugin list for
    /// [`cdsspec_mc::explore_with_plugins`].
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

/// One call's method spec, resolved once per checked object, and its
/// evaluation context.
type Step<'a, S> = (&'a MethodSpec<S>, CallEval);

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
    let mut order = CallOrder::new(calls.len());
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
    order
}

impl<S: Send + 'static> SpecChecker<S> {
    /// Check the projection of the execution onto one object.
    fn check_object(&mut self, trace: &Trace, calls: &[MethodCall]) -> Vec<Bug> {
        let spec = &*self.spec;
        for c in calls {
            if spec.lookup(c.name).is_none() {
                return vec![plugin_bug(format!(
                    "no specification for method `{}`",
                    c.name
                ))];
            }
        }

        let order = build_call_order(trace, calls);
        if order.cyclic() {
            return vec![plugin_bug(
                "cyclic ordering relation r — check the ordering-point annotations".into(),
            )];
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
                            return vec![plugin_bug(format!(
                                "admissibility: `{}#{}` and `{}#{}` must be ordered by r \
                                 but are concurrent",
                                calls[a].name, calls[a].id.0, calls[b].name, calls[b].id.0
                            ))];
                        }
                    }
                }
            }
        }

        let mut bugs = Vec::new();

        // 4. Sequential histories (Definitions 2/5/6). Each call's method
        // spec and `CallEval` are built once and reused across every
        // replayed history — a name lookup or the deep `MethodCall`/
        // `CONCURRENT` clones per history step dominated checking time on
        // history-heavy traces. Only `s_ret` varies between replays; it
        // is re-armed before each use.
        let mut steps: Vec<Step<S>> = (0..calls.len())
            .map(|i| {
                let meth = spec.lookup(calls[i].name).expect("checked above");
                let eval = CallEval {
                    call: calls[i].clone(),
                    s_ret: cdsspec_c11::SpecVal::Unit,
                    concurrent: (0..calls.len())
                        .filter(|&j| order.concurrent(i, j))
                        .map(|j| calls[j].clone())
                        .collect(),
                };
                (meth, eval)
            })
            .collect();

        self.walker.histories(&order, spec.policy, |h| {
            if let Err(msg) = run_history(spec, h, &mut steps) {
                bugs.push(plugin_bug(format!(
                    "{msg}\n  history: {}",
                    render_history(calls, h)
                )));
                return false; // one witness per execution is enough
            }
            true
        });
        if !bugs.is_empty() {
            return bugs;
        }

        // 5. Justification (Definitions 3/4): for each call with justifying
        // conditions, some topological sort of its r-prefix must satisfy
        // them.
        for (i, call) in calls.iter().enumerate() {
            if !steps[i].0.has_justification() {
                continue;
            }
            let mut justified = false;
            let searched = self.walker.justifying(&order, i, spec.policy, |h| {
                justified = justifies(spec, h, &mut steps);
                !justified
            });
            if !justified {
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

        bugs
    }
}

/// Replay one full sequential history; `Err` = condition violated.
/// Each call's evaluation context is re-armed (`s_ret` reset) before
/// its pre/effect/post run.
fn run_history<S>(spec: &Spec<S>, h: &[usize], steps: &mut [Step<S>]) -> Result<(), String> {
    let mut state = (spec.init)();
    for &idx in h {
        let (meth, eval) = &mut steps[idx];
        eval.s_ret = cdsspec_c11::SpecVal::Unit;
        if let Some(pre) = &meth.pre {
            if !pre(&state, eval) {
                let call = &eval.call;
                return Err(format!(
                    "precondition of `{}#{}` failed",
                    call.name, call.id.0
                ));
            }
        }
        if let Some(se) = &meth.side_effect {
            se(&mut state, eval);
        }
        if let Some(post) = &meth.post {
            if !post(&state, eval) {
                let call = &eval.call;
                return Err(format!(
                    "postcondition of `{}#{}` failed (C_RET={:?}, S_RET={:?})",
                    call.name, call.id.0, call.ret, eval.s_ret
                ));
            }
        }
    }
    Ok(())
}

/// Replay one justifying subhistory; `true` when the justifying
/// conditions of the last call hold.
fn justifies<S>(spec: &Spec<S>, h: &[usize], steps: &mut [Step<S>]) -> bool {
    let mut state = (spec.init)();
    let last = h.len() - 1;
    for (pos, &idx) in h.iter().enumerate() {
        let (meth, eval) = &mut steps[idx];
        eval.s_ret = cdsspec_c11::SpecVal::Unit;
        if pos == last {
            if let Some(jpre) = &meth.justify_pre {
                if !jpre(&state, eval) {
                    return false;
                }
            }
        }
        if let Some(se) = &meth.side_effect {
            se(&mut state, eval);
        }
        if pos == last {
            if let Some(jpost) = &meth.justify_post {
                if !jpost(&state, eval) {
                    return false;
                }
            }
        }
    }
    true
}

impl<S: Send + 'static> Plugin for SpecChecker<S> {
    fn name(&self) -> &'static str {
        "cdsspec"
    }

    /// Check one execution: extract calls, then check each data-structure
    /// instance independently against its own sequential state
    /// (specification composition, paper §3.2 / Theorem 1).
    fn check(&mut self, trace: &Trace) -> Vec<Bug> {
        let all_calls = match extract_calls(trace) {
            Ok(c) => c,
            Err(e) => return vec![plugin_bug(format!("annotation error: {e}"))],
        };
        if all_calls.is_empty() {
            return Vec::new();
        }
        let mut objs: Vec<u64> = all_calls.iter().map(|c| c.obj).collect();
        objs.sort_unstable();
        objs.dedup();
        // Single-object executions (the overwhelmingly common case) skip
        // the per-object projection clone entirely.
        if objs.len() == 1 {
            return self.check_object(trace, &all_calls);
        }
        let mut bugs = Vec::new();
        for obj in objs {
            let calls: Vec<MethodCall> =
                all_calls.iter().filter(|c| c.obj == obj).cloned().collect();
            bugs.extend(self.check_object(trace, &calls));
            if !bugs.is_empty() {
                break; // one witness per execution
            }
        }
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
/// off [`cdsspec_mc::Config::resume_script`] on the way back in, so the
/// suite as a whole keeps the partition invariant
/// `executions(full) == executions(to checkpoint) + executions(resumed)`.
///
/// A wall-clock [`cdsspec_mc::Config::time_budget`] covers the whole
/// suite, not each part: later parts run on whatever remains.
pub fn check_suite<S>(config: cdsspec_mc::Config, parts: Vec<SuitePart<S>>) -> cdsspec_mc::Stats
where
    S: Send + 'static,
{
    let last = parts.len().saturating_sub(1);
    // Three resume channels, in precedence order: a shard set from an
    // interrupted parallel run (every shard carries the same part-index
    // prefix — shards never span parts), a single prefixed script, or
    // nothing. Peeling the part index off a shard also lowers its floor:
    // the synthetic prefix element sits below every real choice point.
    let (start, inner_script, inner_shards) = match (&config.resume_shards, &config.resume_script) {
        (Some(shards), _) if !shards.is_empty() && !shards[0].script.is_empty() => {
            let idx = shards[0].script[0].min(last);
            let inner: Vec<cdsspec_mc::ShardSpec> = shards
                .iter()
                .filter(|s| !s.script.is_empty())
                .map(|s| cdsspec_mc::ShardSpec {
                    floor: s.floor.saturating_sub(1),
                    script: s.script[1..].to_vec(),
                })
                .collect();
            (idx, None, Some(inner))
        }
        (_, Some(script)) if !script.is_empty() => {
            (script[0].min(last), Some(script[1..].to_vec()), None)
        }
        _ => (0, None, None),
    };
    let deadline = config.time_budget.map(|b| std::time::Instant::now() + b);
    let mut acc = cdsspec_mc::Stats::default();
    for (idx, (spec, test)) in parts.into_iter().enumerate().skip(start) {
        let mut part_config = config.clone();
        (part_config.resume_script, part_config.resume_shards) = if idx == start {
            (inner_script.clone(), inner_shards.clone())
        } else {
            (None, None)
        };
        part_config.time_budget =
            deadline.map(|d| d.saturating_duration_since(std::time::Instant::now()));
        let mut fresh = check(part_config, spec, test);
        if let Some(frontier) = fresh.frontier.take() {
            let mut prefixed = Vec::with_capacity(frontier.len() + 1);
            prefixed.push(idx);
            prefixed.extend(frontier);
            fresh.frontier = Some(prefixed);
        }
        if !fresh.shard_frontiers.is_empty() {
            let shards = std::mem::take(&mut fresh.shard_frontiers);
            fresh.shard_frontiers = shards
                .into_iter()
                .map(|s| {
                    let mut prefixed = Vec::with_capacity(s.script.len() + 1);
                    prefixed.push(idx);
                    prefixed.extend(s.script);
                    cdsspec_mc::ShardSpec {
                        floor: s.floor + 1,
                        script: prefixed,
                    }
                })
                .collect();
        }
        let stop_here = fresh.buggy() || fresh.truncated();
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
