//! Property test for the result cache's core guarantee: a report served
//! from cache is **byte-identical** to the live report it was stored
//! from. The wire encoding ([`cdsspec_campaign::wire::stats_to_json`])
//! carries every field the campaign renders, so proving the round trip
//! preserves the encoding proves the rendered rows cannot differ.

use cdsspec_campaign::cache::{CacheKey, ResultCache};
use cdsspec_campaign::wire::stats_to_json;
use cdsspec_mc::{Bug, BugCategory, FoundBug, ShardSpec, Stats, StopReason};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

/// Messages chosen to stress the JSON escaper: quotes, newlines, tabs,
/// backslashes, unicode, emptiness.
const MESSAGES: &[&str] = &[
    "data race on d0: T0 and T1 unordered (read second access)",
    "assertion \"front == expected\" failed",
    "uninitialized load\nsecond line",
    "unicode θ≤π, backslash \\, tab \t",
    "",
];

fn category(ix: usize) -> BugCategory {
    match ix {
        0 => BugCategory::BuiltIn,
        1 => BugCategory::Admissibility,
        2 => BugCategory::Assertion,
        _ => BugCategory::Internal,
    }
}

fn stop(ix: usize) -> StopReason {
    match ix {
        0 => StopReason::Exhausted,
        1 => StopReason::FirstBug,
        2 => StopReason::ExecutionCap,
        3 => StopReason::Deadline,
        _ => StopReason::Errored,
    }
}

fn bug_strategy() -> impl Strategy<Value = FoundBug> {
    (
        0usize..4,
        0usize..MESSAGES.len(),
        0u64..10_000,
        0usize..4,
        prop::collection::vec(0usize..6, 0..4),
    )
        .prop_map(|(cat, msg, execution, worker, shard)| FoundBug {
            bug: Bug::Restored {
                category: category(cat),
                message: MESSAGES[msg].to_string(),
            },
            execution,
            // Traces are diagnostics, not report content; the wire drops
            // them by design.
            trace: String::new(),
            worker,
            shard,
        })
}

fn shard_strategy() -> impl Strategy<Value = ShardSpec> {
    (0usize..5, prop::collection::vec(0usize..8, 0..5))
        .prop_map(|(floor, script)| ShardSpec { floor, script })
}

fn stats_strategy() -> impl Strategy<Value = Stats> {
    (
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 20, 0u64..1 << 20),
        (0u64..1 << 20, 0u64..200, 0u64..u64::MAX / 4),
        0usize..5,
        prop::collection::vec(bug_strategy(), 0..4),
        prop::collection::vec(shard_strategy(), 0..4),
    )
        .prop_map(
            |(
                (executions, feasible, diverged, sleep_pruned),
                (sampled, peak_depth, elapsed_ns),
                stop_ix,
                bugs,
                shards,
            )| {
                Stats {
                    executions,
                    feasible,
                    diverged,
                    sleep_pruned,
                    sampled,
                    peak_depth,
                    bugs,
                    elapsed: Duration::from_nanos(elapsed_ns),
                    stop: stop(stop_ix),
                    shard_frontiers: shards,
                    ..Stats::default()
                }
            },
        )
}

fn cache_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdsspec-cache-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #[test]
    fn cached_report_is_byte_identical_to_the_live_one(
        stats in stats_strategy(),
        key_bits in (0u64..1 << 32, 0u64..1 << 32)
    ) {
        let cache = ResultCache::open(&cache_dir()).unwrap();
        let key = CacheKey {
            structure: format!("prop-bench-{}", key_bits.0),
            spec_hash: key_bits.0,
            config_hash: key_bits.1,
        };
        cache.store(&key, &stats).unwrap();
        let cached = cache.lookup(&key).expect("fresh entry hits");
        prop_assert_eq!(
            stats_to_json(&cached).encode(),
            stats_to_json(&stats).encode(),
            "cache round trip must preserve every rendered byte"
        );
    }
}
