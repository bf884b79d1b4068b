//! The traced run: in-memory spans around every call the benchmark makes
//! into a layer, and the timing plugin that measures the CDSSpec checker
//! and its sub-phases from outside through their public functions.
//!
//! Span tree: `workload` → item (one verdict request) → `mc.explore` →
//! `core.check` (one feasible execution) → `core.spec_check` (the real
//! `SpecChecker`) followed by the probe calls `core.extract`,
//! `core.order` and `core.enumerate` on the same trace.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdsspec_c11::Trace;
use cdsspec_core::{build_call_order, extract_calls, for_each_history, HistoryPolicy, MethodCall};
use cdsspec_mc::{Bug, Plugin, PluginFactory};

/// One closed span. Spans of one item share `item`; `parent` is 0 for
/// the root.
struct Span {
    id: u64,
    parent: u64,
    item: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// A span that has been opened but not yet recorded.
pub struct Open {
    pub id: u64,
    start_ns: u64,
}

/// Span recorder. All spans stay in memory until [`Tracer::write`].
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// Item id stamped on spans opened by the plugin.
    pub item: AtomicU64,
    /// Span id of the `mc.explore` call in flight (the plugin's parent).
    pub explore: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            item: AtomicU64::new(0),
            explore: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&self) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open, name: &'static str, parent: u64, item: u64) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id: open.id,
            parent,
            item,
            name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Record a span whose boundaries were measured by the caller.
    fn record(&self, name: &'static str, parent: u64, item: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            item,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Write every span with its self time (duration minus the time its
    /// children cover) to `path`, and return `(name, count, total_s,
    /// self_s)` per span name.
    pub fn write(&self, path: &Path) -> std::io::Result<Vec<(&'static str, u64, f64, f64)>> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter() {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\titem\tname\tstart_ns\tend_ns\tself_ns")?;
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{own}",
                s.id, s.parent, s.item, s.name, s.start_ns, s.end_ns
            )?;
            let row = match by_name.iter().position(|r| r.0 == s.name) {
                Some(i) => &mut by_name[i],
                None => {
                    by_name.push((s.name, 0, 0.0, 0.0));
                    by_name.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += dur as f64 * 1e-9;
            row.3 += own as f64 * 1e-9;
        }
        out.flush()?;
        Ok(by_name)
    }
}

/// Run `f` inside a span when tracing; `f` receives the span id to use
/// as its children's parent (0 when not tracing).
pub fn span<R>(
    tr: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    item: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    match tr {
        None => f(0),
        Some(tr) => {
            let open = tr.open();
            let r = f(open.id);
            tr.close(open, name, parent, item);
            r
        }
    }
}

/// What the timing plugin measured on the `core` layer.
#[derive(Default)]
pub struct CoreLayer {
    /// Duration of every real `SpecChecker::check` call, in ns.
    pub check_ns: Vec<u64>,
    /// Total time inside the timing plugin (real check plus probes).
    pub plugin_ns: u64,
    pub extract_ns: u64,
    pub order_ns: u64,
    pub enumerate_ns: u64,
    /// `Trace::len` summed over checked executions.
    pub events: u64,
    /// Method calls summed over checked executions.
    pub calls: u64,
    /// Full histories per checked execution.
    pub histories: Vec<u64>,
    /// Histories in the justification search spaces.
    pub justify_histories: u64,
    /// Executions whose history enumeration reached its cap (or was
    /// sampled rather than exhaustive).
    pub capped: u64,
}

/// How the probes enumerate one spec's histories.
#[derive(Clone, Copy)]
pub struct Probe {
    pub policy: HistoryPolicy,
    /// Methods that carry justifying conditions.
    pub justified: &'static [&'static str],
}

/// Wraps a `SpecChecker`: times the real check, then calls the public
/// `core` sub-phase functions on the same trace to time them apart.
struct TimedChecker {
    inner: Box<dyn Plugin>,
    probe: Probe,
    sink: Arc<Mutex<CoreLayer>>,
    tracer: Arc<Tracer>,
}

/// A plugin factory minting timing wrappers around `inner()`.
pub fn timed_factory(
    inner: Arc<dyn Fn() -> Box<dyn Plugin> + Send + Sync>,
    probe: Probe,
    sink: Arc<Mutex<CoreLayer>>,
    tracer: Arc<Tracer>,
) -> PluginFactory {
    Arc::new(move || {
        vec![Box::new(TimedChecker {
            inner: inner(),
            probe,
            sink: Arc::clone(&sink),
            tracer: Arc::clone(&tracer),
        }) as Box<dyn Plugin>]
    })
}

impl Plugin for TimedChecker {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn check(&mut self, trace: &Trace) -> Vec<Bug> {
        let tr = &*self.tracer;
        let item = tr.item.load(Ordering::Relaxed);
        let root = tr.open();
        let t0 = Instant::now();
        let bugs = self.inner.check(trace);
        let t1 = Instant::now();
        tr.record("core.spec_check", root.id, item, t0, t1);

        let calls = extract_calls(trace);
        let t2 = Instant::now();
        tr.record("core.extract", root.id, item, t1, t2);
        let (mut order_ns, mut enumerate_ns) = (0u64, 0u64);
        let (mut n_calls, mut histories, mut justify, mut capped) = (0u64, 0u64, 0u64, false);
        if let Ok(calls) = &calls {
            n_calls = calls.len() as u64;
            let mut objs: Vec<u64> = calls.iter().map(|c| c.obj).collect();
            objs.sort_unstable();
            objs.dedup();
            for obj in objs {
                let own: Vec<MethodCall> = calls.iter().filter(|c| c.obj == obj).cloned().collect();
                let ta = Instant::now();
                let order = build_call_order(trace, &own);
                let tb = Instant::now();
                tr.record("core.order", root.id, item, ta, tb);
                order_ns += (tb - ta).as_nanos() as u64;
                // A buggy execution stops the real checker at its first
                // witness; enumerating it fully would time work the
                // checker never does.
                if !bugs.is_empty() {
                    continue;
                }
                let reached = |n: usize| match self.probe.policy {
                    HistoryPolicy::Exhaustive { cap } => n >= cap,
                    HistoryPolicy::Sample { .. } => true,
                };
                let n = for_each_history(&order, self.probe.policy, |_| true);
                histories += n as u64;
                capped |= reached(n);
                for (i, call) in own.iter().enumerate() {
                    if !self.probe.justified.contains(&call.name) {
                        continue;
                    }
                    let mut scope = order.predecessors_of(i);
                    scope.push(i);
                    let last = scope.len() - 1;
                    let sub = order.restrict(&scope);
                    let mut ending = 0u64;
                    let n = for_each_history(&sub, self.probe.policy, |h| {
                        ending += u64::from(h[last] == last);
                        true
                    });
                    justify += ending;
                    capped |= reached(n);
                }
                let tc = Instant::now();
                tr.record("core.enumerate", root.id, item, tb, tc);
                enumerate_ns += (tc - tb).as_nanos() as u64;
            }
        }
        let end = Instant::now();
        tr.close(root, "core.check", tr.explore.load(Ordering::Relaxed), item);

        let mut s = self.sink.lock().expect("core layer poisoned");
        s.check_ns.push((t1 - t0).as_nanos() as u64);
        s.plugin_ns += (end - t0).as_nanos() as u64;
        s.extract_ns += (t2 - t1).as_nanos() as u64;
        s.order_ns += order_ns;
        s.enumerate_ns += enumerate_ns;
        s.events += trace.len() as u64;
        s.calls += n_calls;
        if bugs.is_empty() {
            s.histories.push(histories);
        }
        s.justify_histories += justify;
        s.capped += u64::from(capped);
        bugs
    }
}
