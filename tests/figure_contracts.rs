//! The Figure 7 and Figure 8 results as contracts.
//!
//! The explorer's choice tree may change (execution counts are allowed to
//! move), but what it finds may not: every Figure 7 row keeps its number
//! of rf classes, and every Figure 8 row keeps its first-detection
//! categories. The `figure7` and `figure8` binaries print the same runs.

use cdsspec::inject;
use cdsspec::mc;
use cdsspec::prelude::*;
use cdsspec::structures::registry::benchmarks;

/// Figure 7: rf classes per benchmark under the correct orderings, the
/// exploration run to exhaustion (3,841 in total).
const RF_CLASSES: [(&str, usize); 10] = [
    ("Chase-Lev Deque", 178),
    ("SPSC Queue", 20),
    ("RCU", 12),
    ("Lockfree Hashtable", 62),
    ("MCS Lock", 34),
    ("MPMC Queue", 3372),
    ("M&S Queue", 54),
    ("Linux RW Lock", 69),
    ("Seqlock", 32),
    ("Ticket Lock", 8),
];

/// Figure 8: (benchmark, injections, built-in, admissibility, assertion)
/// first detections. In total 46 injections: 27 built-in, 3
/// admissibility, 10 assertion and 6 undetected.
const DETECTIONS: [(&str, usize, usize, usize, usize); 10] = [
    ("Chase-Lev Deque", 9, 2, 0, 4),
    ("SPSC Queue", 4, 4, 0, 0),
    ("RCU", 3, 3, 0, 0),
    ("Lockfree Hashtable", 4, 0, 0, 4),
    ("MCS Lock", 4, 4, 0, 0),
    ("MPMC Queue", 6, 0, 3, 0),
    ("M&S Queue", 4, 2, 0, 2),
    ("Linux RW Lock", 6, 6, 0, 0),
    ("Seqlock", 4, 4, 0, 0),
    ("Ticket Lock", 2, 2, 0, 0),
];

#[test]
fn figure7_rf_classes_per_row() {
    let benches = benchmarks();
    let names: Vec<&str> = benches.iter().map(|b| b.name).collect();
    assert_eq!(names, RF_CLASSES.map(|r| r.0));
    for (bench, (name, want)) in benches.iter().zip(RF_CLASSES) {
        let stats = bench.check_default(Config {
            max_executions: 3_000_000,
            ..Config::default()
        });
        assert!(!stats.buggy(), "{name}: {}", stats.summary());
        assert_eq!(stats.stop, mc::StopReason::Exhausted, "{name}");
        assert_eq!(
            stats.rf_classes.len(),
            want,
            "{name} rf classes: {}",
            stats.summary()
        );
    }
}

#[test]
fn figure8_detection_categories_per_row() {
    let config = Config {
        max_executions: 300_000,
        ..Config::default()
    };
    let benches = benchmarks();
    assert_eq!(benches.len(), DETECTIONS.len());
    for (bench, want) in benches.iter().zip(DETECTIONS) {
        let (row, _) = inject::inject_benchmark(bench, &config);
        let got = (
            row.name,
            row.injections,
            row.builtin,
            row.admissibility,
            row.assertion,
        );
        assert_eq!(got, want, "Figure 8 row changed");
        assert_eq!(row.errored, 0, "{}", row.name);
    }
}
