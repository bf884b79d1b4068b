//! What every workload shares: the pinned exploration config, the
//! verdict tally, and the per-layer accumulators.

use std::fmt::Display;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cdsspec_mc as mc;

use crate::trace::{CoreLayer, Tracer};

/// Environment variables that `Config::default` reads. Any of them set
/// would silently change what is measured, so the benchmark refuses to
/// run under them.
pub const CONFIG_ENV: [&str; 3] = [
    "CDSSPEC_WORKERS",
    "CDSSPEC_FIBER_HOSTING",
    "CDSSPEC_FIBER_STACK",
];

/// The measured configuration: `Config::default`'s values (watchdog and
/// axiom audit on, fiber hosting, one worker), every field spelled out
/// so that neither the environment nor a changed default moves it.
#[allow(clippy::needless_update)] // keeps compiling when `Config` grows
pub fn pinned_config(max_executions: u64) -> mc::Config {
    mc::Config {
        max_steps_per_thread: 500,
        max_spins: 4,
        max_futile_reads: 3,
        max_executions,
        time_budget: None,
        hang_timeout: Some(Duration::from_secs(10)),
        deadline_samples: 0,
        sample_seed: 0xCD55_9EC5,
        resume_script: None,
        resume_shards: None,
        workers: 1,
        steal_batch: 1,
        max_threads: 32,
        sleep_sets: true,
        rf_prune: true,
        stop_on_first_bug: true,
        validate_axioms: false,
        debug_audit: true,
        fiber_hosting: true,
        fiber_stack: 1 << 20,
        verbose: false,
        // Fields added after this benchmark was written keep their
        // defaults.
        ..mc::Config::default()
    }
}

/// Counters of the `mc` layer, summed over explorations.
#[derive(Default)]
pub struct McLayer {
    pub executions: u64,
    pub feasible: u64,
    pub executions_pruned: u64,
    pub sleep_pruned: u64,
    pub diverged: u64,
    pub rf_classes: u64,
    pub peak_depth: u64,
    /// Time inside exploration calls, in ns.
    pub busy_ns: u64,
}

impl McLayer {
    pub fn add(&mut self, s: &mc::Stats, busy: Duration) {
        self.executions += s.executions;
        self.feasible += s.feasible;
        self.executions_pruned += s.executions_pruned;
        self.sleep_pruned += s.sleep_pruned;
        self.diverged += s.diverged;
        self.rf_classes += s.rf_classes.len() as u64;
        self.peak_depth = self.peak_depth.max(s.peak_depth);
        self.busy_ns += busy.as_nanos() as u64;
    }
}

/// Figures of the `inject` layer, from the returned trials.
#[derive(Default)]
pub struct InjectLayer {
    pub trials: u64,
    pub detected: u64,
    pub errored: u64,
    pub trial_s: Vec<f64>,
    pub undetected_s: f64,
    pub execs_to_bug: Vec<f64>,
}

/// Figures of the `campaign` layer.
#[derive(Default)]
pub struct CampaignLayer {
    pub cold_s: Vec<f64>,
    pub dispatches: u64,
    pub cache_hits: u64,
    pub live: u64,
    pub requeues: u64,
    pub worker_deaths: u64,
    pub cache_lookup_us: f64,
    pub cache_store_us: f64,
    pub wire_encode_us: f64,
    pub wire_decode_us: f64,
    pub frame_bytes: f64,
}

/// Everything one or more passes produced.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each alike verdict request, in ms (empty on workloads
    /// whose requests are not alike).
    pub verdict_ms: Vec<f64>,
    /// Deterministic counts per item, compared between the untraced and
    /// the traced passes.
    pub counts: Vec<String>,
    pub mc: McLayer,
    pub inject: InjectLayer,
    pub campaign: CampaignLayer,
}

impl Tally {
    /// Count one verdict; a mismatch is printed and counted as failed.
    pub fn verdict(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("mismatch: {what}");
        }
    }
}

/// Where a traced pass sends its measurements (`None` when untraced).
pub struct Traced {
    pub tracer: Arc<Tracer>,
    pub core: Arc<Mutex<CoreLayer>>,
    /// Span id of the workload root.
    pub root: u64,
}

pub trait Workload {
    /// One untimed item that pays the first-use costs (fiber-stack pool,
    /// allocator, page faults) before the first timed request.
    fn warm_up(&mut self);

    /// Run the workload's fixed work once and return the time of each of
    /// its items, in seconds, in an order that is the same for every
    /// pass. Pass `index` selects the seeded order the items run in; the
    /// traced pass with the same index does the same work.
    fn pass(&mut self, index: usize, traced: Option<&Traced>, tally: &mut Tally) -> Vec<f64>;

    /// After the traced passes: layer figures measured apart from the
    /// passes.
    fn finish(&mut self, _tally: &mut Tally) {}

    /// Effective settings, recorded in the output.
    fn describe(&self) -> String;

    /// Remove whatever the workload left on disk.
    fn cleanup(&mut self) {}
}
