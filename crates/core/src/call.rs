//! Method-call records and their extraction from annotated traces.
//!
//! Instrumented data-structure code records [`SpecNote`]s (method
//! boundaries, arguments, return values, ordering-point markers). This
//! module reassembles them into [`MethodCall`]s — the unit the paper's
//! correctness model quantifies over — resolving the ordering-point state
//! machine (`OPDefine` / `OPClear` / `PotentialOP(label)` / `OPCheck`).
//!
//! Nested API calls follow the paper's rule: only the outermost call is an
//! API method call; ordering points recorded inside nested calls attach to
//! the outermost one, and inner boundaries/conditions are ignored.

use cdsspec_c11::{EventId, SpecNote, SpecVal, Tid, Trace};

/// Index of a method call within one execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallId(pub u32);

impl CallId {
    /// Index form.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One completed API method call.
#[derive(Debug, PartialEq, Eq)]
pub struct MethodCall {
    /// Position in extraction order (per-thread program order preserved).
    pub id: CallId,
    /// Executing thread.
    pub tid: Tid,
    /// Data-structure instance the call was made on (composition, §3.2).
    pub obj: u64,
    /// Method name (as given to `begin`).
    pub name: &'static str,
    /// Argument values in recording order.
    pub args: Vec<SpecVal>,
    /// Concrete return value (the paper's `C_RET`).
    pub ret: SpecVal,
    /// Confirmed ordering points (event ids of atomic operations).
    pub ordering_points: Vec<EventId>,
}

impl MethodCall {
    /// `i`-th argument (panics on out-of-range: a spec-writer error).
    #[inline]
    pub fn arg(&self, i: usize) -> SpecVal {
        self.args[i]
    }
}

impl Clone for MethodCall {
    fn clone(&self) -> Self {
        MethodCall {
            id: self.id,
            tid: self.tid,
            obj: self.obj,
            name: self.name,
            args: self.args.clone(),
            ret: self.ret,
            ordering_points: self.ordering_points.clone(),
        }
    }

    /// Copies into `self`'s own buffers, which the checker's
    /// [`CallPool`] relies on to copy calls without allocating.
    fn clone_from(&mut self, src: &Self) {
        self.id = src.id;
        self.tid = src.tid;
        self.obj = src.obj;
        self.name = src.name;
        self.args.clone_from(&src.args);
        self.ret = src.ret;
        self.ordering_points.clone_from(&src.ordering_points);
    }
}

/// Retired [`MethodCall`]s whose buffers the checker reuses, so that
/// copying calls from one execution to the next stops allocating once
/// the pool and the buffers reach their high-water marks.
#[derive(Default)]
pub(crate) struct CallPool(Vec<MethodCall>);

impl CallPool {
    /// A copy of `src`, built in a retired call's buffers when one is left.
    pub(crate) fn copy(&mut self, src: &MethodCall) -> MethodCall {
        match self.0.pop() {
            Some(mut c) => {
                c.clone_from(src);
                c
            }
            None => src.clone(),
        }
    }

    /// Retire every call in `calls`, leaving it empty.
    pub(crate) fn retire(&mut self, calls: &mut Vec<MethodCall>) {
        self.0.append(calls);
    }
}

/// A malformed annotation stream (spec-writer error, reported as a bug so
/// it cannot be silently ignored).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtractError {
    /// `OpDefine`/`PotentialOp` with no preceding atomic operation.
    OpWithoutOperation {
        /// Offending thread.
        tid: Tid,
        /// Method whose annotation misfired.
        method: &'static str,
    },
    /// `MethodEnd` without a matching `MethodBegin`.
    EndWithoutBegin {
        /// Offending thread.
        tid: Tid,
    },
    /// An annotation that only makes sense inside a method call appeared
    /// outside one.
    NoteOutsideMethod {
        /// Offending thread.
        tid: Tid,
    },
    /// Thread finished with an open method call.
    UnclosedMethod {
        /// Offending thread.
        tid: Tid,
        /// The method left open.
        method: &'static str,
    },
    /// A method call ended with no ordering points at all — the `r`
    /// relation cannot order it, which almost always means a missing
    /// `OPDefine` (flagged to help spec debugging; see paper §6.2).
    NoOrderingPoints {
        /// Offending thread.
        tid: Tid,
        /// The unordered method.
        method: &'static str,
    },
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::OpWithoutOperation { tid, method } => {
                write!(
                    f,
                    "{tid}: ordering-point annotation in `{method}` precedes any atomic op"
                )
            }
            ExtractError::EndWithoutBegin { tid } => {
                write!(f, "{tid}: method end without begin")
            }
            ExtractError::NoteOutsideMethod { tid } => {
                write!(f, "{tid}: spec annotation outside any method call")
            }
            ExtractError::UnclosedMethod { tid, method } => {
                write!(f, "{tid}: thread finished inside method `{method}`")
            }
            ExtractError::NoOrderingPoints { tid, method } => {
                write!(
                    f,
                    "{tid}: method `{method}` completed without any ordering point"
                )
            }
        }
    }
}

/// Per-thread in-progress call state; the buffers outlive the call.
#[derive(Default)]
struct OpenCall {
    /// A call is open (the other fields describe it).
    active: bool,
    obj: u64,
    name: &'static str,
    args: Vec<SpecVal>,
    confirmed: Vec<EventId>,
    potential: Vec<(&'static str, EventId)>,
    depth: u32,
}

/// Extract the method calls of an execution from its annotation stream.
pub fn extract_calls(trace: &Trace) -> Result<Vec<MethodCall>, ExtractError> {
    let mut extractor = Extractor::default();
    extractor.extract(trace, &mut CallPool::default())?;
    Ok(std::mem::take(&mut extractor.calls))
}

/// [`extract_calls`] with buffers kept across executions: the per-thread
/// open-call state, and the call list, whose retired calls go back to a
/// [`CallPool`] at the next extraction.
#[derive(Default)]
pub(crate) struct Extractor {
    open: Vec<OpenCall>,
    /// The calls of the last successful extraction.
    pub(crate) calls: Vec<MethodCall>,
}

impl Extractor {
    /// Extract `trace`'s calls into `self.calls`, retiring the previous
    /// ones to `pool` and building the new ones in its buffers.
    pub(crate) fn extract(
        &mut self,
        trace: &Trace,
        pool: &mut CallPool,
    ) -> Result<(), ExtractError> {
        pool.retire(&mut self.calls);
        let threads = trace.num_threads as usize;
        if self.open.len() < threads {
            self.open.resize_with(threads, OpenCall::default);
        }
        for oc in &mut self.open[..threads] {
            oc.active = false;
        }

        for ann in &trace.annotations {
            let tid = ann.tid;
            let oc = &mut self.open[..threads][tid.idx()];
            let outside = ExtractError::NoteOutsideMethod { tid };
            match &ann.note {
                SpecNote::MethodBegin { obj, name } => {
                    if oc.active {
                        oc.depth += 1; // nested: ignored
                    } else {
                        oc.active = true;
                        oc.obj = *obj;
                        oc.name = name;
                        oc.args.clear();
                        oc.confirmed.clear();
                        oc.potential.clear();
                        oc.depth = 0;
                    }
                }
                SpecNote::MethodArg { val } => {
                    if !oc.active {
                        return Err(outside);
                    }
                    if oc.depth == 0 {
                        oc.args.push(*val);
                    }
                }
                SpecNote::MethodEnd { ret } => {
                    if !oc.active {
                        return Err(ExtractError::EndWithoutBegin { tid });
                    }
                    if oc.depth > 0 {
                        oc.depth -= 1;
                        continue;
                    }
                    oc.active = false;
                    if oc.confirmed.is_empty() {
                        return Err(ExtractError::NoOrderingPoints {
                            tid,
                            method: oc.name,
                        });
                    }
                    let mut call = pool.0.pop().unwrap_or_else(|| MethodCall {
                        id: CallId(0),
                        tid,
                        obj: 0,
                        name: "",
                        args: Vec::new(),
                        ret: SpecVal::Unit,
                        ordering_points: Vec::new(),
                    });
                    call.id = CallId(self.calls.len() as u32);
                    call.tid = tid;
                    call.obj = oc.obj;
                    call.name = oc.name;
                    call.args.clone_from(&oc.args);
                    call.ret = *ret;
                    call.ordering_points.clone_from(&oc.confirmed);
                    self.calls.push(call);
                }
                SpecNote::OpDefine => {
                    if !oc.active {
                        return Err(outside);
                    }
                    let ev = ann.after.ok_or(ExtractError::OpWithoutOperation {
                        tid,
                        method: oc.name,
                    })?;
                    oc.confirmed.push(ev);
                }
                SpecNote::OpClear => {
                    if !oc.active {
                        return Err(outside);
                    }
                    oc.confirmed.clear();
                    oc.potential.clear();
                }
                SpecNote::PotentialOp { label } => {
                    if !oc.active {
                        return Err(outside);
                    }
                    let ev = ann.after.ok_or(ExtractError::OpWithoutOperation {
                        tid,
                        method: oc.name,
                    })?;
                    oc.potential.push((label, ev));
                }
                SpecNote::OpCheck { label } => {
                    if !oc.active {
                        return Err(outside);
                    }
                    let confirmed = &mut oc.confirmed;
                    oc.potential.retain(|&(l, ev)| {
                        if l == *label {
                            confirmed.push(ev);
                        }
                        l != *label
                    });
                }
            }
        }

        match self.open[..threads].iter().position(|oc| oc.active) {
            Some(i) => Err(ExtractError::UnclosedMethod {
                tid: Tid(i as u32),
                method: self.open[i].name,
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsspec_c11::{Annotation, SpecVal};

    fn ann(tid: u32, after: Option<u32>, note: SpecNote) -> Annotation {
        Annotation {
            tid: Tid(tid),
            after: after.map(EventId),
            note,
        }
    }

    fn trace_with(annotations: Vec<Annotation>, threads: u32) -> Trace {
        let mut t = Trace::default();
        t.annotations = annotations;
        t.num_threads = threads;
        t
    }

    #[test]
    fn simple_call_extraction() {
        let t = trace_with(
            vec![
                ann(
                    0,
                    None,
                    SpecNote::MethodBegin {
                        obj: 1,
                        name: "enq",
                    },
                ),
                ann(
                    0,
                    None,
                    SpecNote::MethodArg {
                        val: SpecVal::I64(7),
                    },
                ),
                ann(0, Some(3), SpecNote::OpDefine),
                ann(0, Some(4), SpecNote::MethodEnd { ret: SpecVal::Unit }),
            ],
            1,
        );
        let calls = extract_calls(&t).unwrap();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "enq");
        assert_eq!(calls[0].arg(0), SpecVal::I64(7));
        assert_eq!(calls[0].ordering_points, vec![EventId(3)]);
    }

    #[test]
    fn op_clear_discards_previous_points() {
        let t = trace_with(
            vec![
                ann(
                    0,
                    None,
                    SpecNote::MethodBegin {
                        obj: 1,
                        name: "deq",
                    },
                ),
                ann(0, Some(1), SpecNote::OpDefine),
                ann(0, Some(2), SpecNote::OpClear),
                ann(0, Some(2), SpecNote::OpDefine), // OPClearDefine expansion
                ann(
                    0,
                    Some(3),
                    SpecNote::MethodEnd {
                        ret: SpecVal::I64(-1),
                    },
                ),
            ],
            1,
        );
        let calls = extract_calls(&t).unwrap();
        assert_eq!(calls[0].ordering_points, vec![EventId(2)]);
        assert_eq!(calls[0].ret, SpecVal::I64(-1));
    }

    #[test]
    fn potential_op_confirmed_by_check() {
        let t = trace_with(
            vec![
                ann(
                    0,
                    None,
                    SpecNote::MethodBegin {
                        obj: 1,
                        name: "get",
                    },
                ),
                ann(0, Some(1), SpecNote::PotentialOp { label: "A" }),
                ann(0, Some(2), SpecNote::PotentialOp { label: "B" }),
                ann(0, Some(3), SpecNote::OpCheck { label: "B" }),
                ann(0, Some(4), SpecNote::MethodEnd { ret: SpecVal::Unit }),
            ],
            1,
        );
        let calls = extract_calls(&t).unwrap();
        assert_eq!(
            calls[0].ordering_points,
            vec![EventId(2)],
            "only the checked label"
        );
    }

    #[test]
    fn unchecked_potential_op_is_dropped() {
        let t = trace_with(
            vec![
                ann(
                    0,
                    None,
                    SpecNote::MethodBegin {
                        obj: 1,
                        name: "get",
                    },
                ),
                ann(0, Some(1), SpecNote::OpDefine),
                ann(0, Some(2), SpecNote::PotentialOp { label: "A" }),
                ann(0, Some(3), SpecNote::MethodEnd { ret: SpecVal::Unit }),
            ],
            1,
        );
        let calls = extract_calls(&t).unwrap();
        assert_eq!(calls[0].ordering_points, vec![EventId(1)]);
    }

    #[test]
    fn nested_calls_fold_into_outermost() {
        let t = trace_with(
            vec![
                ann(
                    0,
                    None,
                    SpecNote::MethodBegin {
                        obj: 1,
                        name: "put_all",
                    },
                ),
                ann(
                    0,
                    None,
                    SpecNote::MethodBegin {
                        obj: 1,
                        name: "put",
                    },
                ),
                ann(0, Some(1), SpecNote::OpDefine),
                ann(0, Some(1), SpecNote::MethodEnd { ret: SpecVal::Unit }),
                ann(0, Some(2), SpecNote::MethodEnd { ret: SpecVal::Unit }),
            ],
            1,
        );
        let calls = extract_calls(&t).unwrap();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "put_all");
        assert_eq!(calls[0].ordering_points, vec![EventId(1)]);
    }

    #[test]
    fn interleaved_threads_extract_independently() {
        let t = trace_with(
            vec![
                ann(
                    0,
                    None,
                    SpecNote::MethodBegin {
                        obj: 1,
                        name: "enq",
                    },
                ),
                ann(
                    1,
                    None,
                    SpecNote::MethodBegin {
                        obj: 1,
                        name: "deq",
                    },
                ),
                ann(0, Some(1), SpecNote::OpDefine),
                ann(1, Some(2), SpecNote::OpDefine),
                ann(
                    1,
                    Some(2),
                    SpecNote::MethodEnd {
                        ret: SpecVal::I64(5),
                    },
                ),
                ann(0, Some(1), SpecNote::MethodEnd { ret: SpecVal::Unit }),
            ],
            2,
        );
        let calls = extract_calls(&t).unwrap();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].name, "deq"); // ended first
        assert_eq!(calls[1].name, "enq");
        assert_eq!(calls[0].tid, Tid(1));
    }

    #[test]
    fn errors_are_reported() {
        let t = trace_with(
            vec![ann(0, None, SpecNote::MethodEnd { ret: SpecVal::Unit })],
            1,
        );
        assert_eq!(
            extract_calls(&t),
            Err(ExtractError::EndWithoutBegin { tid: Tid(0) })
        );

        let t = trace_with(vec![ann(0, None, SpecNote::OpDefine)], 1);
        assert_eq!(
            extract_calls(&t),
            Err(ExtractError::NoteOutsideMethod { tid: Tid(0) })
        );

        let t = trace_with(
            vec![
                ann(0, None, SpecNote::MethodBegin { obj: 1, name: "m" }),
                ann(0, None, SpecNote::OpDefine),
            ],
            1,
        );
        assert_eq!(
            extract_calls(&t),
            Err(ExtractError::OpWithoutOperation {
                tid: Tid(0),
                method: "m"
            })
        );

        let t = trace_with(
            vec![ann(0, None, SpecNote::MethodBegin { obj: 1, name: "m" })],
            1,
        );
        assert_eq!(
            extract_calls(&t),
            Err(ExtractError::UnclosedMethod {
                tid: Tid(0),
                method: "m"
            })
        );

        let t = trace_with(
            vec![
                ann(0, None, SpecNote::MethodBegin { obj: 1, name: "m" }),
                ann(0, Some(1), SpecNote::MethodEnd { ret: SpecVal::Unit }),
            ],
            1,
        );
        assert_eq!(
            extract_calls(&t),
            Err(ExtractError::NoOrderingPoints {
                tid: Tid(0),
                method: "m"
            })
        );
    }
}
