//! The CDSSpec specification DSL.
//!
//! The paper embeds specifications in C comments compiled by a dedicated
//! specification compiler. The Rust-native port expresses the same
//! constructs as first-class values:
//!
//! | paper annotation            | here                                    |
//! |-----------------------------|-----------------------------------------|
//! | `@DeclareState`             | the `S` type parameter + `init` closure |
//! | `@Initial/@Copy/@Clear`     | `Default`/`Clone`/`Drop` of `S`         |
//! | `@SideEffect`               | [`MethodSpec::side_effect`]             |
//! | `@PreCondition`             | [`MethodSpec::pre`]                     |
//! | `@PostCondition`            | [`MethodSpec::post`]                    |
//! | `@JustifyingPrecondition`   | [`MethodSpec::justify_pre`]             |
//! | `@JustifyingPostcondition`  | [`MethodSpec::justify_post`]            |
//! | `@Admit: m1<->m2(guard)`    | [`Spec::admit`]                         |
//! | `S_RET` / `C_RET`           | [`CallEval::s_ret`] / [`CallEval::ret`] |
//! | `CONCURRENT`                | [`CallEval::concurrent`]                |
//!
//! Ordering-point annotations (`@OPDefine` etc.) are *dynamic* and live in
//! [`crate::annotations`]; data-structure methods call them at the same
//! program points the C annotations occupy.
//!
//! Conditions and side effects must be deterministic functions of the
//! state and the [`CallEval`] they are given. The checker walks the
//! histories depth first and checks each call once per edge of the walk;
//! `S` need not be `Clone`, so to try the next call after a prefix it
//! rebuilds the prefix's state from `init` by applying the prefix's side
//! effects again, without re-checking the conditions that passed on the
//! way down.

use cdsspec_c11::SpecVal;

use crate::call::MethodCall;
use crate::history::HistoryPolicy;

/// Evaluation context of one method call inside a sequential execution:
/// the concrete call record plus the sequential return value (`S_RET`) and
/// the `CONCURRENT` set.
pub struct CallEval {
    /// The concrete method call (gives `C_RET` and arguments).
    pub call: MethodCall,
    /// The sequential data structure's return value, set by the side
    /// effect (the paper's `S_RET`). Defaults to `Unit`.
    pub s_ret: SpecVal,
    /// Method calls concurrent with this one under `r` (the paper's
    /// `CONCURRENT` primitive; only populated for justifying conditions
    /// and postconditions, where the paper permits consulting it).
    pub concurrent: Vec<MethodCall>,
}

impl CallEval {
    /// `i`-th argument of the concrete call.
    #[inline]
    pub fn arg(&self, i: usize) -> SpecVal {
        self.call.arg(i)
    }

    /// The concrete return value (`C_RET`).
    #[inline]
    pub fn ret(&self) -> SpecVal {
        self.call.ret
    }

    /// Set `S_RET` (from a side effect).
    #[inline]
    pub fn set_s_ret(&mut self, v: impl Into<SpecVal>) {
        self.s_ret = v.into();
    }
}

/// Condition closure: `(sequential state, call context) → holds?`.
pub type Pred<S> = Box<dyn Fn(&S, &CallEval) -> bool + Send + Sync>;
/// Admissibility guard closure over a concrete method-call pair.
pub type AdmitGuard = Box<dyn Fn(&MethodCall, &MethodCall) -> bool + Send + Sync>;
/// Side-effect closure: mutates the sequential state and may set `S_RET`.
pub type Effect<S> = Box<dyn Fn(&mut S, &mut CallEval) + Send + Sync>;

/// Specification of one API method.
pub struct MethodSpec<S> {
    pub(crate) name: &'static str,
    pub(crate) pre: Option<Pred<S>>,
    pub(crate) side_effect: Option<Effect<S>>,
    pub(crate) post: Option<Pred<S>>,
    pub(crate) justify_pre: Option<Pred<S>>,
    pub(crate) justify_post: Option<Pred<S>>,
}

impl<S> MethodSpec<S> {
    /// A method spec with no conditions (side-effect-free, always passes).
    /// Usually constructed through [`Spec::method`], which pins the state
    /// type so closure parameters infer.
    pub fn new(name: &'static str) -> Self {
        MethodSpec {
            name,
            pre: None,
            side_effect: None,
            post: None,
            justify_pre: None,
            justify_post: None,
        }
    }

    /// `@PreCondition`: checked before the call executes in a sequential
    /// history.
    pub fn pre(mut self, f: impl Fn(&S, &CallEval) -> bool + Send + Sync + 'static) -> Self {
        self.pre = Some(Box::new(f));
        self
    }

    /// `@SideEffect`: the call's action on the equivalent sequential data
    /// structure.
    pub fn side_effect(
        mut self,
        f: impl Fn(&mut S, &mut CallEval) + Send + Sync + 'static,
    ) -> Self {
        self.side_effect = Some(Box::new(f));
        self
    }

    /// `@PostCondition`: checked after the call executes in a sequential
    /// history.
    pub fn post(mut self, f: impl Fn(&S, &CallEval) -> bool + Send + Sync + 'static) -> Self {
        self.post = Some(Box::new(f));
        self
    }

    /// `@JustifyingPrecondition`: checked before the call executes in a
    /// sequential execution over one of its justifying subhistories.
    pub fn justify_pre(
        mut self,
        f: impl Fn(&S, &CallEval) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.justify_pre = Some(Box::new(f));
        self
    }

    /// `@JustifyingPostcondition`: checked after the call executes on a
    /// justifying subhistory; at least one subhistory must satisfy it.
    pub fn justify_post(
        mut self,
        f: impl Fn(&S, &CallEval) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.justify_post = Some(Box::new(f));
        self
    }

    /// Does this method constrain non-deterministic behaviors?
    pub(crate) fn has_justification(&self) -> bool {
        self.justify_pre.is_some() || self.justify_post.is_some()
    }
}

/// An admissibility rule (`@Admit: m1<->m2(guard)`): when `guard` holds on
/// a concrete `(m1, m2)` pair, the two calls are **required to be ordered**
/// by `r`; an execution leaving them unordered is inadmissible.
pub struct AdmissibilityRule {
    pub(crate) m1: &'static str,
    pub(crate) m2: &'static str,
    pub(crate) guard: AdmitGuard,
}

/// A full data-structure specification: the equivalent sequential data
/// structure (`S` + `init`), per-method specs, and admissibility rules.
pub struct Spec<S> {
    /// Data-structure name (diagnostics and the §6.2 statistics harness).
    pub name: &'static str,
    pub(crate) init: Box<dyn Fn() -> S + Send + Sync>,
    pub(crate) methods: Vec<MethodSpec<S>>,
    pub(crate) admissibility: Vec<AdmissibilityRule>,
    /// History-enumeration policy (paper §5.2: all sortings by default,
    /// optionally a random sample).
    pub policy: HistoryPolicy,
}

impl<S> Spec<S> {
    /// A specification with sequential state built by `init`.
    pub fn new(name: &'static str, init: impl Fn() -> S + Send + Sync + 'static) -> Self {
        Spec {
            name,
            init: Box::new(init),
            methods: Vec::new(),
            admissibility: Vec::new(),
            policy: HistoryPolicy::default(),
        }
    }

    /// Register a method spec, built by `build` from an empty
    /// [`MethodSpec`] (this shape lets closure parameter types infer from
    /// `Spec<S>`):
    ///
    /// ```ignore
    /// spec.method("enq", |m| m.side_effect(|st, e| st.push_back(e.arg(0).as_i64())))
    /// ```
    pub fn method(
        mut self,
        name: &'static str,
        build: impl FnOnce(MethodSpec<S>) -> MethodSpec<S>,
    ) -> Self {
        let m = build(MethodSpec::new(name));
        assert!(
            self.methods.iter().all(|x| x.name != m.name),
            "duplicate method spec `{}`",
            m.name
        );
        self.methods.push(m);
        self
    }

    /// Add an admissibility rule.
    pub fn admit(
        mut self,
        m1: &'static str,
        m2: &'static str,
        guard: impl Fn(&MethodCall, &MethodCall) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.admissibility.push(AdmissibilityRule {
            m1,
            m2,
            guard: Box::new(guard),
        });
        self
    }

    /// Override the history-enumeration policy. Panics on a policy that
    /// checks no history (`Sample { count: 0, .. }`) or caps the search
    /// at none (`Exhaustive { cap: 0 }`).
    pub fn with_policy(mut self, policy: HistoryPolicy) -> Self {
        let empty = match policy {
            HistoryPolicy::Exhaustive { cap } => cap == 0,
            HistoryPolicy::Sample { count, .. } => count == 0,
        };
        assert!(!empty, "history policy {policy:?} checks no history");
        self.policy = policy;
        self
    }

    /// Look up a method spec by name.
    pub(crate) fn lookup(&self, name: &str) -> Option<&MethodSpec<S>> {
        self.method_index(name).map(|i| &self.methods[i])
    }

    /// The position of method `name` among the method specs.
    pub(crate) fn method_index(&self, name: &str) -> Option<usize> {
        self.methods.iter().position(|m| m.name == name)
    }

    /// Number of method specs (statistics harness).
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of admissibility rules (statistics harness).
    pub fn admissibility_rule_count(&self) -> usize {
        self.admissibility.len()
    }

    /// Names of specified methods.
    pub fn method_names(&self) -> Vec<&'static str> {
        self.methods.iter().map(|m| m.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::CallId;
    use cdsspec_c11::Tid;
    use std::collections::VecDeque;

    fn call(name: &'static str, args: Vec<SpecVal>, ret: SpecVal) -> MethodCall {
        MethodCall {
            id: CallId(0),
            tid: Tid(0),
            obj: 1,
            name,
            args,
            ret,
            ordering_points: vec![],
        }
    }

    #[test]
    fn builder_assembles_queue_spec() {
        let spec = Spec::new("queue", VecDeque::<i64>::new)
            .method("enq", |m| {
                m.side_effect(|s, e| s.push_back(e.arg(0).as_i64()))
            })
            .method("deq", |m| {
                m.side_effect(|s, e| {
                    let s_ret = s.front().copied().unwrap_or(-1);
                    e.set_s_ret(s_ret);
                    if s_ret != -1 && e.ret().as_i64() != -1 {
                        s.pop_front();
                    }
                })
                .post(|_, e| e.ret().as_i64() == -1 || e.ret() == e.s_ret)
                .justify_post(|_, e| e.ret().as_i64() != -1 || e.s_ret.as_i64() == -1)
            })
            .admit("deq", "enq", |d, _| d.ret.as_i64() == -1);
        assert_eq!(spec.method_count(), 2);
        assert_eq!(spec.admissibility_rule_count(), 1);
        assert_eq!(spec.method_names(), vec!["enq", "deq"]);
        assert!(spec.lookup("deq").unwrap().has_justification());
        assert!(!spec.lookup("enq").unwrap().has_justification());
        assert!(spec.lookup("nope").is_none());
    }

    #[test]
    fn side_effect_and_conditions_evaluate() {
        let spec = Spec::new("queue", VecDeque::<i64>::new).method("deq", |m| {
            m.side_effect(|s, e| {
                let s_ret = s.front().copied().unwrap_or(-1);
                e.set_s_ret(s_ret);
                if s_ret != -1 && e.ret().as_i64() != -1 {
                    s.pop_front();
                }
            })
            .post(|_, e| e.ret().as_i64() == -1 || e.ret() == e.s_ret)
        });
        let m = spec.lookup("deq").unwrap();
        let mut state: VecDeque<i64> = VecDeque::from([5]);
        let mut eval = CallEval {
            call: call("deq", vec![], SpecVal::I64(5)),
            s_ret: SpecVal::Unit,
            concurrent: vec![],
        };
        (m.side_effect.as_ref().unwrap())(&mut state, &mut eval);
        assert_eq!(eval.s_ret, SpecVal::I64(5));
        assert!(state.is_empty());
        assert!((m.post.as_ref().unwrap())(&state, &eval));

        // A deq returning the wrong item fails the postcondition.
        let mut state: VecDeque<i64> = VecDeque::from([5]);
        let mut eval = CallEval {
            call: call("deq", vec![], SpecVal::I64(9)),
            s_ret: SpecVal::Unit,
            concurrent: vec![],
        };
        (m.side_effect.as_ref().unwrap())(&mut state, &mut eval);
        assert!(!(m.post.as_ref().unwrap())(&state, &eval));
    }

    #[test]
    #[should_panic(expected = "duplicate method spec")]
    fn duplicate_method_panics() {
        let _: Spec<()> = Spec::new("x", || ()).method("m", |m| m).method("m", |m| m);
    }

    #[test]
    fn admissibility_guard_runs() {
        let spec: Spec<()> = Spec::new("q", || ()).admit("deq", "enq", |d, _| d.ret.as_i64() == -1);
        let rule = &spec.admissibility[0];
        let failed_deq = call("deq", vec![], SpecVal::I64(-1));
        let ok_deq = call("deq", vec![], SpecVal::I64(3));
        let enq = call("enq", vec![SpecVal::I64(3)], SpecVal::Unit);
        assert!((rule.guard)(&failed_deq, &enq));
        assert!(!(rule.guard)(&ok_deq, &enq));
    }
}
