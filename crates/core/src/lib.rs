//! # cdsspec-core
//!
//! The paper's primary contribution: **CDSSpec**, a specification checker
//! for concurrent data structures under the C/C++11 memory model
//! (Ou & Demsky, PPoPP 2017), re-implemented in Rust on top of the
//! `cdsspec-mc` stateless model checker.
//!
//! ## The correctness model in one paragraph
//!
//! C/C++11 data structures expose non-SC behaviors, so linearizability
//! cannot relate their executions to sequential ones. CDSSpec instead
//! orders *method calls* by an ordering relation `r` derived from
//! user-annotated **ordering points** (specific atomic operations inside
//! each method) via happens-before/SC edges, demands that every
//! topological sort of `r` — every *valid sequential history* — satisfies
//! the specification on an **equivalent sequential data structure**, and
//! tames non-deterministic specifications (e.g. "dequeue may spuriously
//! return empty") by requiring each non-deterministic behavior to be
//! *justified* by some sequential execution over the call's `r`-prefix or
//! by its concurrent calls. **Admissibility** rules carve out the usage
//! patterns under which the specification applies at all.
//!
//! ## Usage sketch
//!
//! ```
//! use cdsspec_core as spec;
//! use cdsspec_mc as mc;
//! use mc::MemOrd::*;
//! use std::collections::VecDeque;
//!
//! // An instrumented one-cell "queue" (a register pretending, for the
//! // sake of a short doc test, to be a queue of capacity 1).
//! #[derive(Clone, Copy)]
//! struct Cell1 {
//!     obj: u64,
//!     v: mc::Atomic<i64>,
//! }
//! impl Cell1 {
//!     fn new() -> Self {
//!         Cell1 { obj: mc::new_object_id(), v: mc::Atomic::new(-1) }
//!     }
//!     fn enq(&self, x: i64) {
//!         spec::method_begin(self.obj, "enq");
//!         spec::arg(x);
//!         self.v.store(x, Release);
//!         spec::op_define();
//!         spec::method_end(());
//!     }
//!     fn deq(&self) -> i64 {
//!         spec::method_begin(self.obj, "deq");
//!         let r = self.v.swap(-1, AcqRel);
//!         spec::op_define();
//!         spec::method_end(r);
//!         r
//!     }
//! }
//!
//! let s = spec::Spec::new("cell1", VecDeque::<i64>::new)
//!     .method("enq", |m| m.side_effect(|st, e| st.push_back(e.arg(0).as_i64())))
//!     .method("deq", |m| m
//!         .side_effect(|st, e| {
//!             let s_ret = st.pop_front().unwrap_or(-1);
//!             e.set_s_ret(s_ret);
//!         })
//!         .post(|_, e| e.ret().as_i64() == -1 || e.ret() == e.s_ret));
//!
//! let stats = spec::check(mc::Config::default(), s, || {
//!     let c = Cell1::new();
//!     let t = mc::thread::spawn(move || c.enq(7));
//!     let _ = c.deq();
//!     t.join();
//! });
//! assert!(!stats.buggy());
//! ```

#![warn(missing_docs)]

pub mod annotations;
pub mod call;
pub mod checker;
pub mod history;
pub mod spec;

pub use annotations::{
    arg, method_begin, method_end, op_check, op_check_if, op_clear, op_clear_define,
    op_clear_define_if, op_define, op_define_if, potential_op, potential_op_if,
};
pub use call::{extract_calls, CallId, ExtractError, MethodCall};
pub use checker::{build_call_order, check, check_ok, check_suite, SpecChecker, SuitePart};
pub use history::{
    all_histories, for_each_history, for_each_justifying_history, CallOrder, HistoryPolicy,
};
pub use spec::{AdmissibilityRule, CallEval, MethodSpec, Spec};

pub use cdsspec_c11::SpecVal;
