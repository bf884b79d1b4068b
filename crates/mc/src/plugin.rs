//! Plugin interface: per-execution trace checkers.
//!
//! The CDSSpec checker (`cdsspec-core`) attaches to exploration through
//! this trait, exactly as the paper's tool plugs into CDSChecker. Plugins
//! see only *feasible, built-in-bug-free* executions: races, uninitialized
//! loads, panics and deadlocks abort an execution before its trace is
//! complete, and checking a specification against a partial trace would
//! produce noise.
//!
//! A panic inside [`Plugin::check`] is contained: the explorer records it
//! as a [`Bug::Plugin`] and stops with `StopReason::Errored`. A panic
//! anywhere else in a plugin (say, in [`Plugin::name`]) kills the worker
//! that called it, which ends the whole run as `Errored` — the same at
//! every worker count.

use cdsspec_c11::Trace;

use crate::report::Bug;

/// Builds a fresh plugin list on demand — one list per explorer worker
/// (`Config::workers` of them), so every worker checks its frontier
/// shards with plugins it owns exclusively and no cross-worker locking.
/// See [`crate::explore_factory`].
pub type PluginFactory = std::sync::Arc<dyn Fn() -> Vec<Box<dyn Plugin>> + Send + Sync>;

/// A checker invoked on every feasible execution.
pub trait Plugin: Send {
    /// Display name used in bug reports.
    fn name(&self) -> &'static str;
    /// Inspect one feasible execution; return all violations found.
    fn check(&mut self, trace: &Trace) -> Vec<Bug>;
}

/// A plugin built from a closure — handy in tests.
pub struct FnPlugin<F: FnMut(&Trace) -> Vec<Bug> + Send> {
    name: &'static str,
    f: F,
}

impl<F: FnMut(&Trace) -> Vec<Bug> + Send> FnPlugin<F> {
    /// Wrap `f` as a plugin called `name`.
    pub fn new(name: &'static str, f: F) -> Self {
        FnPlugin { name, f }
    }
}

impl<F: FnMut(&Trace) -> Vec<Bug> + Send> Plugin for FnPlugin<F> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn check(&mut self, trace: &Trace) -> Vec<Bug> {
        (self.f)(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_plugin_delegates() {
        let mut calls = 0;
        {
            let mut p = FnPlugin::new("probe", |_t| {
                calls += 1;
                vec![]
            });
            assert_eq!(p.name(), "probe");
            assert!(p.check(&Trace::default()).is_empty());
        }
        assert_eq!(calls, 1);
    }
}
