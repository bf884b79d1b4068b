//! Campaign resilience: a crashing or flaky benchmark `check` must never
//! cost the campaign its other rows. These tests stub registry entries
//! with hostile closures and assert the Figure 8 row set stays complete.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use cdsspec_c11::MemOrd;
use cdsspec_inject as inject;
use cdsspec_mc as mc;
use cdsspec_structures::ords::{site, Ords, SiteKind, SiteSpec};
use cdsspec_structures::registry::{benchmarks, Benchmark, SpecMeta};

fn tiny_config() -> mc::Config {
    // Detection power is irrelevant here — these tests are about row
    // completeness, so keep each trial cheap.
    mc::Config {
        max_executions: 500,
        ..mc::Config::default()
    }
}

fn stub_meta() -> SpecMeta {
    SpecMeta {
        methods: 0,
        admissibility_rules: 0,
        ordering_point_annotations: 0,
    }
}

fn panicking_check(_config: mc::Config, _ords: Ords) -> mc::Stats {
    panic!("stub: simulated checker crash");
}

/// `run_campaign` over all registry benchmarks completes and reports
/// every row even when one benchmark's `check` closure is replaced by a
/// panicking stub.
#[test]
fn campaign_completes_every_row_with_panicking_stub() {
    let mut benches = benchmarks();
    let victim = benches
        .iter()
        .position(|b| b.name == "Ticket Lock")
        .unwrap();
    benches[victim].check = panicking_check;

    let rows = inject::run_campaign(&benches, &tiny_config());

    assert_eq!(
        rows.len(),
        benches.len(),
        "every benchmark must keep its row"
    );
    for (bench, (row, trials)) in benches.iter().zip(&rows) {
        assert_eq!(row.name, bench.name);
        assert_eq!(row.injections, trials.len());
        assert!(row.injections > 0, "{}: nothing injected", row.name);
    }

    let (row, trials) = &rows[victim];
    assert_eq!(
        row.errored, row.injections,
        "every stubbed trial errors: {trials:?}"
    );
    assert_eq!(row.detected(), 0, "errored trials are not detections");
    assert!(trials.iter().all(|t| t.errored));
    let msg = trials[0]
        .message
        .as_deref()
        .expect("errored trials carry diagnostics");
    assert!(
        msg.contains("panicked twice"),
        "message explains the double panic: {msg}"
    );
    assert!(
        msg.contains("simulated checker crash"),
        "payload text survives: {msg}"
    );
}

static FLAKY_CALLS: AtomicUsize = AtomicUsize::new(0);
static RETRY_CAP: AtomicU64 = AtomicU64::new(0);
static FLAKY_SITES: &[SiteSpec] = &[site("probe.load", MemOrd::SeqCst, SiteKind::Load)];

/// Panics on every first attempt; the retry succeeds and records the
/// budget it was given.
fn flaky_check(config: mc::Config, _ords: Ords) -> mc::Stats {
    if FLAKY_CALLS.fetch_add(1, Ordering::SeqCst).is_multiple_of(2) {
        panic!("transient failure");
    }
    RETRY_CAP.store(config.max_executions, Ordering::SeqCst);
    mc::explore(config, || {})
}

/// A single panic gets one retry at a tenth of the execution budget; a
/// successful retry yields a normal (non-errored) trial.
#[test]
fn transient_panic_is_retried_at_reduced_budget() {
    let bench = Benchmark {
        name: "Flaky",
        sites: FLAKY_SITES,
        check: flaky_check,
        meta: stub_meta(),
    };
    let config = mc::Config {
        max_executions: 1_000,
        ..mc::Config::default()
    };
    let (row, trials) = inject::inject_benchmark(&bench, &config);

    assert_eq!(row.injections, 1);
    assert_eq!(
        row.errored, 0,
        "a successful retry is a usable verdict: {trials:?}"
    );
    assert!(!trials[0].errored);
    assert_eq!(
        RETRY_CAP.load(Ordering::SeqCst),
        100,
        "retry runs at a tenth of the cap"
    );
    let msg = trials[0]
        .message
        .as_deref()
        .expect("retry leaves a diagnostic note");
    assert!(msg.contains("retry at reduced budget succeeded"), "{msg}");
}

static BOMB_SITES: &[SiteSpec] = &[site("bomb.store", MemOrd::SeqCst, SiteKind::Store)];

/// Ends with `StopReason::Errored` through the checker's own plugin
/// containment (the panic happens *inside* exploration and is caught
/// there, not by the campaign's `catch_unwind`).
fn plugin_bomb_check(config: mc::Config, _ords: Ords) -> mc::Stats {
    let bomb: mc::PluginFactory = std::sync::Arc::new(|| {
        let bomb = mc::FnPlugin::new("bomb", |_trace| -> Vec<mc::Bug> { panic!("plugin bomb") });
        vec![Box::new(bomb) as Box<dyn mc::Plugin>]
    });
    mc::explore_factory(config, bomb, || {
        let x = mc::Atomic::new(0i64);
        let _ = x.load(mc::MemOrd::Relaxed);
    })
}

/// A contained plugin panic (`StopReason::Errored`) classifies as an
/// errored trial, not as an assertion detection.
#[test]
fn contained_plugin_panic_classifies_as_errored() {
    let bench = Benchmark {
        name: "Plugin Bomb",
        sites: BOMB_SITES,
        check: plugin_bomb_check,
        meta: stub_meta(),
    };
    let (row, trials) = inject::inject_benchmark(&bench, &tiny_config());

    assert_eq!(row.injections, 1);
    assert_eq!(row.errored, 1, "{trials:?}");
    assert_eq!(
        row.assertion, 0,
        "a contained panic must not read as a spec violation"
    );
    assert!(trials[0].errored);
    assert!(trials[0].detected.is_none());
    let msg = trials[0]
        .message
        .as_deref()
        .expect("diagnostics for the contained panic");
    assert!(msg.contains("panicked"), "{msg}");
}

/// A crashed check is no evidence of an overly strong parameter: the
/// §6.4.3 search reports no survivors for an always-panicking benchmark.
#[test]
fn overly_strong_search_skips_errored_sites() {
    let mut bench = benchmarks()
        .into_iter()
        .find(|b| b.name == "Ticket Lock")
        .unwrap();
    bench.check = panicking_check;
    let survivors = inject::find_overly_strong(&bench, &tiny_config());
    assert!(
        survivors.is_empty(),
        "crashes must not look like survivors: {survivors:?}"
    );
}
