//! Differential test of the edge engine: [`SpecChecker::check_order`],
//! which checks each call's conditions once per edge of the history walk
//! and rebuilds the state on backtrack, against a reference that
//! enumerates the sorts on its own and replays each one from `init`.
//!
//! The spec's state is a running hash of the calls applied so far, so
//! every prefix of a history has a state of its own, and its pre- and
//! postconditions, side effects and justifying conditions fail or panic
//! at seeded `(state, call)` pairs. The two must agree on the verdict, the
//! `history:` witness, the number of histories replayed and the cap, and
//! on every panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use cdsspec_c11::{SpecVal, Tid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;
use crate::call::CallId;
use crate::spec::MethodSpec;

/// One call's method spec and its evaluation context.
type Step<'a, S> = (&'a MethodSpec<S>, CallEval);

/// The sequential state: a hash of the calls applied, in order. Neither
/// `Clone` nor `Hash`, like a spec state the checker cannot copy.
struct Fold(u64);

fn mix(h: u64, x: u64) -> u64 {
    let mut z = (h ^ x).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where a seeded spec misbehaves: at a site (pre, side effect, post,
/// justifying pre/post), a `(state, call)` pair panics with odds
/// `1 / panic` and otherwise fails with odds `1 / fail`, or `1 / justify`
/// at a justifying site (`0` = never).
#[derive(Clone, Copy, Debug)]
struct Faults {
    seed: u64,
    panic: u64,
    fail: u64,
    justify: u64,
}

impl Faults {
    /// Does `site` hold at `(state, call)`? Panics at a seeded pair.
    fn holds(self, site: u64, state: &Fold, e: &CallEval) -> bool {
        let roll = mix(mix(state.0 ^ self.seed, site), u64::from(e.call.id.0));
        if self.panic != 0 && roll % self.panic == 1 {
            panic!("seeded panic at site {site} of call {}", e.call.id.0);
        }
        let odds = if site >= 4 { self.justify } else { self.fail };
        odds == 0 || !(roll / 7).is_multiple_of(odds)
    }
}

const METHODS: [&str; 3] = ["a", "b", "c"];

/// Method `c` carries justifying conditions; `a` and `b` do not.
fn seeded_spec(faults: Faults, policy: HistoryPolicy) -> Spec<Fold> {
    let mut spec = Spec::new("seeded", || Fold(1));
    for name in METHODS {
        spec = spec.method(name, |m| {
            let m = m
                .pre(move |s, e| faults.holds(1, s, e))
                .side_effect(move |s, e| {
                    faults.holds(2, s, e);
                    e.set_s_ret(s.0 % 5);
                    s.0 = mix(s.0, u64::from(e.call.id.0));
                })
                .post(move |s, e| faults.holds(3, s, e) && e.s_ret.as_u64() < 5);
            if name == "c" {
                m.justify_pre(move |s, e| faults.holds(4, s, e))
                    .justify_post(move |s, e| faults.holds(5, s, e))
            } else {
                m
            }
        });
    }
    spec.with_policy(policy)
}

fn calls(n: usize) -> Vec<MethodCall> {
    (0..n)
        .map(|i| MethodCall {
            id: CallId(i as u32),
            tid: Tid(0),
            obj: 1,
            name: METHODS[i % 3],
            args: vec![SpecVal::I64(i as i64)],
            ret: SpecVal::U64(i as u64 % 4),
            ordering_points: Vec::new(),
        })
        .collect()
}

/// `i → j` for `i < j` with odds `pct`%: acyclic by construction.
fn seeded_dag(rng: &mut StdRng, n: usize, pct: u32) -> CallOrder {
    let mut o = CallOrder::new(n);
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_range(0..100u32) < pct {
                o.add_edge(i, j);
            }
        }
    }
    o.close();
    o
}

/// The reference enumerator over the calls of `scope`: ready calls tried
/// in ascending order, samples drawn as the k-th ready call. `f` returning
/// `false` stops it; returns the sorts produced.
fn sorts(
    order: &CallOrder,
    scope: &[usize],
    policy: HistoryPolicy,
    f: &mut dyn FnMut(&[usize]) -> bool,
) -> usize {
    fn ready(order: &CallOrder, scope: &[usize], h: &[usize]) -> Vec<usize> {
        let placed = |a: usize| h.contains(&a);
        (scope.iter().copied())
            .filter(|&v| !placed(v) && scope.iter().all(|&a| !order.ordered(a, v) || placed(a)))
            .collect()
    }
    fn walk(
        order: &CallOrder,
        scope: &[usize],
        h: &mut Vec<usize>,
        cap: usize,
        count: &mut usize,
        f: &mut dyn FnMut(&[usize]) -> bool,
    ) -> bool {
        if h.len() == scope.len() {
            *count += 1;
            return f(h) && *count < cap;
        }
        for v in ready(order, scope, h) {
            h.push(v);
            let go = walk(order, scope, h, cap, count, f);
            h.pop();
            if !go {
                return false;
            }
        }
        true
    }
    match policy {
        HistoryPolicy::Exhaustive { cap } => {
            let mut count = 0;
            walk(order, scope, &mut Vec::new(), cap, &mut count, f);
            count
        }
        HistoryPolicy::Sample { count, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            for drawn in 0..count {
                let mut h = Vec::new();
                while h.len() < scope.len() {
                    let r = ready(order, scope, &h);
                    h.push(r[rng.gen_range(0..r.len())]);
                }
                if !f(&h) {
                    return drawn + 1;
                }
            }
            count
        }
    }
}

/// Steps 4 and 5 the per-leaf way: every history and every justifying
/// subhistory replayed from `init`. The bug messages, and the number of
/// full histories replayed.
fn reference(spec: &Spec<Fold>, calls: &[MethodCall], order: &CallOrder) -> (Vec<String>, usize) {
    let mut steps: Vec<Step<Fold>> = (0..calls.len())
        .map(|i| {
            let eval = CallEval {
                call: calls[i].clone(),
                s_ret: SpecVal::Unit,
                concurrent: (0..calls.len())
                    .filter(|&j| order.concurrent(i, j))
                    .map(|j| calls[j].clone())
                    .collect(),
            };
            (spec.lookup(calls[i].name).unwrap(), eval)
        })
        .collect();
    let all: Vec<usize> = (0..calls.len()).collect();
    let mut failure = None;
    let histories = sorts(order, &all, spec.policy, &mut |h| {
        let mut state = (spec.init)();
        for &v in h {
            let (meth, eval) = &mut steps[v];
            eval.s_ret = SpecVal::Unit;
            let call = &eval.call;
            let msg = if !meth.pre.as_ref().unwrap()(&state, eval) {
                format!("precondition of `{}#{}` failed", call.name, call.id.0)
            } else {
                meth.side_effect.as_ref().unwrap()(&mut state, eval);
                if meth.post.as_ref().unwrap()(&state, eval) {
                    continue;
                }
                let call = &eval.call;
                format!(
                    "postcondition of `{}#{}` failed (C_RET={:?}, S_RET={:?})",
                    call.name, call.id.0, call.ret, eval.s_ret
                )
            };
            failure = Some(format!("{msg}\n  history: {}", render_history(calls, h)));
            return false;
        }
        true
    });
    if let Some(msg) = failure {
        return (vec![msg], histories);
    }
    let mut bugs = Vec::new();
    for (m, call) in calls.iter().enumerate() {
        if !steps[m].0.has_justification() {
            continue;
        }
        let mut scope = order.predecessors_of(m);
        scope.push(m);
        let mut justified = false;
        let searched = sorts(order, &scope, spec.policy, &mut |h| {
            let mut state = (spec.init)();
            justified = h.iter().all(|&v| {
                let (meth, eval) = &mut steps[v];
                eval.s_ret = SpecVal::Unit;
                if v == m && !meth.justify_pre.as_ref().unwrap()(&state, eval) {
                    return false;
                }
                meth.side_effect.as_ref().unwrap()(&mut state, eval);
                v != m || meth.justify_post.as_ref().unwrap()(&state, eval)
            });
            !justified
        });
        if !justified {
            let why = match spec.policy {
                HistoryPolicy::Exhaustive { cap } if searched >= cap => {
                    format!("the search was capped at {cap} subhistories")
                }
                HistoryPolicy::Exhaustive { .. } => "no justifying subhistory permits it".into(),
                HistoryPolicy::Sample { .. } => {
                    format!("none of the {searched} sampled subhistories permits it")
                }
            };
            bugs.push(format!(
                "justification failed: `{}#{}` returned {:?} but {why} (prefix of {} call(s))",
                call.name,
                call.id.0,
                call.ret,
                scope.len() - 1
            ));
        }
    }
    (bugs, histories)
}

/// A run's outcome: the bug messages and history count, or the panic.
type Outcome = Result<(Vec<String>, usize), String>;

fn outcome(run: impl FnOnce() -> (Vec<String>, usize)) -> Outcome {
    catch_unwind(AssertUnwindSafe(run)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// Keep the seeded panics, which are expected, off the test output.
fn quiet_seeded_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let seeded = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("seeded panic"));
            if !seeded {
                previous(info);
            }
        }));
    });
}

/// Check one seeded case both ways; the engine's outcome.
fn case(seed: u64, sizes: std::ops::RangeInclusive<usize>) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(sizes);
    let pct = rng.gen_range(0..=40);
    let order = seeded_dag(&mut rng, n, pct);
    let calls = calls(n);
    let odds = [0, 2, 9, 60, 900, 20_000];
    let faults = Faults {
        seed: rng.gen(),
        panic: odds[rng.gen_range(0..odds.len())] * 3,
        fail: odds[rng.gen_range(0..odds.len())],
        justify: rng.gen_range(0..4),
    };
    let policy = match rng.gen_range(0..4u32) {
        0 => HistoryPolicy::Sample {
            count: rng.gen_range(1..40),
            seed: rng.gen(),
        },
        1 if n <= 9 => HistoryPolicy::default(),
        _ => HistoryPolicy::Exhaustive {
            cap: [1, 2, 7, 300][rng.gen_range(0..4usize)],
        },
    };
    let spec = Arc::new(seeded_spec(faults, policy));
    let engine = outcome(|| {
        let (bugs, histories) = SpecChecker::new(Arc::clone(&spec)).check_order(&calls, &order);
        let bugs = bugs.iter().map(|b| match b {
            Bug::Plugin { message, .. } => message.clone(),
            other => panic!("not a plugin bug: {other}"),
        });
        (bugs.collect(), histories)
    });
    let reference = outcome(|| reference(&spec, &calls, &order));
    assert_eq!(
        engine, reference,
        "seed {seed}: {n} calls, {faults:?}, {policy:?}"
    );
    engine
}

/// Every verdict kind must show up, or the comparison proves little.
fn assert_covers(outcomes: &[Outcome]) {
    let has = |p: &dyn Fn(&Outcome) -> bool| outcomes.iter().any(p);
    let bug = |needle: &'static str| move |o: &Outcome| matches!(o, Ok((bugs, _)) if bugs.iter().any(|b| b.contains(needle)));
    assert!(has(&|o| matches!(o, Ok((bugs, _)) if bugs.is_empty())));
    assert!(has(&bug("precondition")));
    assert!(has(&bug("postcondition")));
    assert!(has(&bug("no justifying subhistory")));
    assert!(has(&bug("the search was capped")));
    assert!(has(&bug("sampled subhistories")));
    assert!(has(&|o| o.is_err()));
}

#[test]
fn edge_engine_matches_per_leaf_replay_on_small_orders() {
    quiet_seeded_panics();
    let outcomes: Vec<Outcome> = (0..300).map(|seed| case(seed, 0..=9)).collect();
    assert_covers(&outcomes);
}

#[test]
fn edge_engine_matches_per_leaf_replay_across_the_word_boundary() {
    quiet_seeded_panics();
    let outcomes: Vec<Outcome> = (1000..1060).map(|seed| case(seed, 60..=70)).collect();
    assert_covers(&outcomes);
}
