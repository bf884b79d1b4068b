//! JSON encodings of the model-checker vocabulary ([`Stats`],
//! [`ShardSpec`], the semantic subset of [`Config`]) plus the stable
//! content hashes the result cache keys on.
//!
//! Encoding is deterministic (see [`crate::json`]): the same `Stats`
//! always serializes to the same bytes, which is what lets the cache
//! byte-identity guarantee and the journal CRCs work.

use crate::hash::Fnv1a;
use crate::json::Json;
use cdsspec_mc::explore::TREE_VERSION;
use cdsspec_mc::{Bug, BugCategory, Config, FoundBug, ShardSpec, Stats, StopReason};
use cdsspec_structures::registry::Benchmark;
use std::time::Duration;

/// Lower-case hex digits, as `rf_classes` is spelt.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// The value of each byte as a [`HEX_DIGITS`] digit; 16 for any other.
const HEX_VALUE: [u8; 256] = {
    let mut table = [16u8; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Encode a frontier shard.
pub fn shard_to_json(shard: &ShardSpec) -> Json {
    Json::obj(vec![
        ("floor", Json::num(shard.floor as u64)),
        (
            "script",
            Json::Arr(shard.script.iter().map(|&c| Json::num(c as u64)).collect()),
        ),
    ])
}

/// Decode a frontier shard.
pub fn shard_from_json(v: &Json) -> Result<ShardSpec, String> {
    let floor = v
        .get("floor")
        .and_then(Json::as_usize)
        .ok_or("shard missing floor")?;
    let script = v
        .get("script")
        .and_then(Json::as_arr)
        .ok_or("shard missing script")?
        .iter()
        .map(|c| c.as_usize().ok_or("non-integer script entry"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ShardSpec { floor, script })
}

/// A stable one-line identity for a shard + execution cap, used as the
/// journal's task key so a resumed campaign can recognize work it has
/// already completed.
pub fn task_key(bench: &str, shard: &ShardSpec, max_executions: u64) -> String {
    let script: Vec<String> = shard.script.iter().map(|c| c.to_string()).collect();
    format!(
        "{bench}|{floor}|{script}|{max_executions}",
        floor = shard.floor,
        script = script.join(",")
    )
}

/// Encode exploration statistics. Traces are dropped (they are diagnostic
/// bulk, not results); bugs keep their category, rendered message,
/// execution index, worker, and shard, which is everything report
/// rendering and dedup use.
pub fn stats_to_json(stats: &Stats) -> Json {
    encode_stats(stats, &stats.rf_classes)
}

/// Encode a benchmark's final row: [`stats_to_json`] with an empty
/// rf-class set. A class set only deduplicates classes across the tasks
/// of one merge; a final row is never merged again, and neither the
/// report nor the summary reads its classes, so the result cache and the
/// journal's `bench` records leave them out (for MPMC that is 3,372
/// classes, nearly all of the entry). The entry decodes like any other.
pub fn row_to_json(stats: &Stats) -> Json {
    encode_stats(stats, &std::collections::BTreeSet::new())
}

fn encode_stats(stats: &Stats, rf_classes: &std::collections::BTreeSet<u64>) -> Json {
    let bugs = stats
        .bugs
        .iter()
        .map(|b| {
            Json::obj(vec![
                ("category", Json::str(b.bug.category().label())),
                ("message", Json::str(b.bug.to_string())),
                ("execution", Json::num(b.execution)),
                ("worker", Json::num(b.worker as u64)),
                (
                    "shard",
                    Json::Arr(b.shard.iter().map(|&c| Json::num(c as u64)).collect()),
                ),
            ])
        })
        .collect();
    let shards = stats.shard_frontiers.iter().map(shard_to_json).collect();
    // `rf_classes` is a BTreeSet, so the classes come out sorted — part of
    // the deterministic-encoding guarantee the cache's byte identity needs.
    // A merged campaign row carries every class of its benchmark, thousands
    // of them, so they travel as one string of 16 hex digits each, which
    // checks and parses several times faster than an array of numbers.
    let mut classes = String::with_capacity(16 * rf_classes.len());
    for &c in rf_classes {
        for shift in (0..16).rev() {
            classes.push(char::from(HEX_DIGITS[(c >> (4 * shift)) as usize & 0xF]));
        }
    }
    Json::obj(vec![
        ("executions", Json::num(stats.executions)),
        ("feasible", Json::num(stats.feasible)),
        ("diverged", Json::num(stats.diverged)),
        ("sleep_pruned", Json::num(stats.sleep_pruned)),
        ("sampled", Json::num(stats.sampled)),
        ("executions_pruned", Json::num(stats.executions_pruned)),
        ("rf_classes", Json::Str(classes)),
        ("peak_depth", Json::num(stats.peak_depth)),
        ("elapsed_ns", Json::Num(stats.elapsed.as_nanos() as i128)),
        ("stop", Json::str(stats.stop.label())),
        ("bugs", Json::Arr(bugs)),
        ("shards", Json::Arr(shards)),
    ])
}

/// Decode exploration statistics. Bugs come back as [`Bug::Restored`]
/// (category + message), which renders identically to the live bug — the
/// dedup and report-identity invariant the cache depends on.
pub fn stats_from_json(v: &Json) -> Result<Stats, String> {
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("stats missing {key}"))
    };
    let mut stats = Stats {
        executions: num("executions")?,
        feasible: num("feasible")?,
        diverged: num("diverged")?,
        sleep_pruned: num("sleep_pruned")?,
        sampled: num("sampled")?,
        peak_depth: num("peak_depth")?,
        executions_pruned: num("executions_pruned")?,
        ..Stats::default()
    };
    let classes = v
        .get("rf_classes")
        .and_then(Json::as_str)
        .ok_or("stats missing rf_classes")?;
    if classes.len() % 16 != 0 {
        return Err("rf_classes is not a run of 16-digit classes".into());
    }
    stats.rf_classes = classes
        .as_bytes()
        .chunks(16)
        .map(|digits| {
            let (class, flags) = digits.iter().fold((0u64, 0u8), |(n, flags), &d| {
                let v = HEX_VALUE[usize::from(d)];
                (n << 4 | u64::from(v & 0xF), flags | v)
            });
            // A non-digit's value of 16 leaves its mark in `flags`.
            (flags & 16 == 0)
                .then_some(class)
                .ok_or("bad rf class digit")
        })
        .collect::<Result<_, _>>()?;
    let ns = v
        .get("elapsed_ns")
        .and_then(Json::as_num)
        .ok_or("stats missing elapsed_ns")?;
    let ns = u128::try_from(ns).map_err(|_| "negative elapsed_ns")?;
    stats.elapsed = Duration::from_nanos(ns.min(u64::MAX as u128) as u64);
    stats.stop = v
        .get("stop")
        .and_then(Json::as_str)
        .and_then(StopReason::from_label)
        .ok_or("stats missing/unknown stop")?;
    for b in v
        .get("bugs")
        .and_then(Json::as_arr)
        .ok_or("stats missing bugs")?
    {
        let category = b
            .get("category")
            .and_then(Json::as_str)
            .and_then(BugCategory::from_label)
            .ok_or("bug missing/unknown category")?;
        let message = b
            .get("message")
            .and_then(Json::as_str)
            .ok_or("bug missing message")?
            .to_string();
        let shard = b
            .get("shard")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|c| c.as_usize().ok_or("non-integer bug shard entry"))
            .collect::<Result<Vec<_>, _>>()?;
        stats.bugs.push(FoundBug {
            bug: Bug::Restored { category, message },
            execution: b.get("execution").and_then(Json::as_u64).unwrap_or(0),
            trace: String::new(),
            worker: b.get("worker").and_then(Json::as_usize).unwrap_or(0),
            shard,
        });
    }
    let shards = v
        .get("shards")
        .and_then(Json::as_arr)
        .ok_or("stats missing shards")?
        .iter()
        .map(shard_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    stats.shard_frontiers = shards;
    Ok(stats)
}

/// Encode the *semantic* subset of a [`Config`]: every knob that can
/// change what an exploration computes. Deliberately excluded — and
/// therefore free to differ between cache hits — are `workers` and
/// `steal_batch` (parallelism changes wall-clock, not results: the PR 2
/// partition invariant), `fiber_hosting` and `fiber_stack` (pure hosting
/// knobs: the fiber and OS-thread hosts walk the identical DFS at any
/// non-overflowing stack size, pinned by `tests/fiber_equivalence.rs`),
/// `verbose` (output only), and the
/// `resume_*` channels (per-task inputs, carried separately by the wire
/// protocol).
pub fn config_to_json(config: &Config) -> Json {
    let opt_ns = |d: Option<Duration>| match d {
        Some(d) => Json::Num(d.as_nanos() as i128),
        None => Json::Null,
    };
    Json::obj(vec![
        (
            "max_steps_per_thread",
            Json::num(config.max_steps_per_thread),
        ),
        ("max_spins", Json::num(config.max_spins)),
        ("max_futile_reads", Json::num(config.max_futile_reads)),
        ("max_executions", Json::num(config.max_executions)),
        ("time_budget_ns", opt_ns(config.time_budget)),
        ("hang_timeout_ns", opt_ns(config.hang_timeout)),
        ("deadline_samples", Json::num(config.deadline_samples)),
        ("sample_seed", Json::num(config.sample_seed)),
        ("max_threads", Json::num(config.max_threads)),
        ("sleep_sets", Json::Bool(config.sleep_sets)),
        ("stop_on_first_bug", Json::Bool(config.stop_on_first_bug)),
        ("validate_axioms", Json::Bool(config.validate_axioms)),
        ("debug_audit", Json::Bool(config.debug_audit)),
        // Semantic: pruning preserves the bug set but changes the
        // execution counters, so cached results must not cross the knob.
        ("rf_prune", Json::Bool(config.rf_prune)),
    ])
}

/// Decode a semantic config over [`Config::default`]. The caller decides
/// `workers` and the resume channels; they are not on the wire.
pub fn config_from_json(v: &Json) -> Result<Config, String> {
    let mut config = Config::default();
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_num)
            .ok_or(format!("config missing {key}"))
    };
    let opt_ns = |key: &str| -> Result<Option<Duration>, String> {
        match v.get(key) {
            Some(Json::Null) | None => Ok(None),
            Some(n) => {
                let ns = n.as_num().ok_or(format!("bad config {key}"))?;
                let ns = u128::try_from(ns).map_err(|_| format!("negative config {key}"))?;
                Ok(Some(Duration::from_nanos(ns.min(u64::MAX as u128) as u64)))
            }
        }
    };
    config.max_steps_per_thread = num("max_steps_per_thread")? as u32;
    config.max_spins = num("max_spins")? as u32;
    config.max_futile_reads = num("max_futile_reads")? as u32;
    config.max_executions = num("max_executions")? as u64;
    config.time_budget = opt_ns("time_budget_ns")?;
    config.hang_timeout = opt_ns("hang_timeout_ns")?;
    config.deadline_samples = num("deadline_samples")? as u64;
    config.sample_seed = num("sample_seed")? as u64;
    config.max_threads = num("max_threads")? as u32;
    let flag = |key: &str| {
        v.get(key)
            .and_then(Json::as_bool)
            .ok_or(format!("config missing {key}"))
    };
    config.sleep_sets = flag("sleep_sets")?;
    config.stop_on_first_bug = flag("stop_on_first_bug")?;
    config.validate_axioms = flag("validate_axioms")?;
    config.rf_prune = flag("rf_prune")?;
    config.debug_audit = flag("debug_audit")?;
    Ok(config)
}

/// Content hash of a config's semantic subset and of the explorer's
/// [`TREE_VERSION`] — one of the three parts of a cache key. Two configs
/// with the same hash explore the same executions and report the same
/// counters (at any worker count).
pub fn config_hash(config: &Config) -> u64 {
    Fnv1a::new()
        .update(config_to_json(config).encode().as_bytes())
        .update_u64(TREE_VERSION)
        .finish()
}

/// Content hash of a benchmark's specification surface: its name, spec
/// metadata, and the full ordering-site table (names, default orderings,
/// kinds). If any of those change in the source, cached results for the
/// old spec stop matching — the cache can never serve stale science.
pub fn spec_hash(bench: &Benchmark) -> u64 {
    let mut h = Fnv1a::new();
    h.update_str(bench.name)
        .update_u64(bench.meta.methods as u64)
        .update_u64(bench.meta.admissibility_rules as u64)
        .update_u64(bench.meta.ordering_point_annotations as u64)
        .update_u64(bench.sites.len() as u64);
    for site in bench.sites {
        h.update_str(site.name)
            .update_str(&format!("{:?}", site.default))
            .update_str(&format!("{:?}", site.kind));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv1a64;

    fn sample_stats() -> Stats {
        let mut stats = Stats {
            executions: 100,
            feasible: 60,
            diverged: 30,
            sleep_pruned: 10,
            sampled: 4,
            executions_pruned: 40,
            peak_depth: 12,
            elapsed: Duration::from_nanos(1_234_567_890),
            stop: StopReason::ExecutionCap,
            bugs: vec![FoundBug {
                bug: Bug::Restored {
                    category: BugCategory::Assertion,
                    message: "post\ncondition \"failed\"".into(),
                },
                execution: 7,
                trace: String::new(),
                worker: 2,
                shard: vec![1, 0],
            }],
            ..Stats::default()
        };
        // Include a signature above i64::MAX: FNV values use the full
        // u64 range and must survive the i128 wire representation.
        stats.rf_classes.extend([3, u64::MAX - 1, 7]);
        stats.shard_frontiers = vec![
            ShardSpec {
                floor: 2,
                script: vec![0, 1, 3],
            },
            ShardSpec {
                floor: 0,
                script: vec![],
            },
        ];
        stats
    }

    #[test]
    fn stats_round_trip() {
        let stats = sample_stats();
        let back = stats_from_json(&stats_to_json(&stats)).expect("round trips");
        assert_eq!(back.executions, stats.executions);
        assert_eq!(back.feasible, stats.feasible);
        assert_eq!(back.diverged, stats.diverged);
        assert_eq!(back.sleep_pruned, stats.sleep_pruned);
        assert_eq!(back.sampled, stats.sampled);
        assert_eq!(back.executions_pruned, stats.executions_pruned);
        assert_eq!(back.rf_classes, stats.rf_classes);
        assert_eq!(back.peak_depth, stats.peak_depth);
        assert_eq!(back.elapsed, stats.elapsed);
        assert_eq!(back.stop, stats.stop);
        assert_eq!(back.shard_frontiers, stats.shard_frontiers);
        assert_eq!(back.frontier(), stats.frontier());
        assert_eq!(back.bugs.len(), 1);
        assert_eq!(back.bugs[0].bug.to_string(), stats.bugs[0].bug.to_string());
        assert_eq!(back.bugs[0].bug.category(), BugCategory::Assertion);
        assert_eq!(back.bugs[0].execution, 7);
        assert_eq!(back.bugs[0].worker, 2);
        assert_eq!(back.bugs[0].shard, vec![1, 0]);
    }

    #[test]
    fn exhausted_stats_keep_empty_frontier() {
        let stats = Stats {
            executions: 18,
            feasible: 18,
            stop: StopReason::Exhausted,
            ..Stats::default()
        };
        let back = stats_from_json(&stats_to_json(&stats)).unwrap();
        assert_eq!(back.frontier(), None);
        assert!(back.shard_frontiers.is_empty());
    }

    #[test]
    fn encoding_is_deterministic() {
        let stats = sample_stats();
        assert_eq!(
            stats_to_json(&stats).encode(),
            stats_to_json(&stats).encode()
        );
    }

    #[test]
    fn config_round_trip_and_hash() {
        let config = Config {
            max_executions: 123,
            time_budget: Some(Duration::from_millis(250)),
            sample_seed: 42,
            ..Config::default()
        };
        let back = config_from_json(&config_to_json(&config)).expect("round trips");
        assert_eq!(config_hash(&back), config_hash(&config));

        // Parallelism and transport knobs do not change the hash
        // (results are worker-count and host independent)...
        let mut parallel = config.clone();
        parallel.workers = 8;
        parallel.steal_batch = 4;
        assert_eq!(config_hash(&parallel), config_hash(&config));
        let mut pooled = config.clone();
        pooled.fiber_hosting = false;
        assert_eq!(config_hash(&pooled), config_hash(&config));

        // ...but semantic knobs do. Pruning changes the execution
        // counters, so cached results must not cross the knob.
        let mut other = config.clone();
        other.max_executions = 124;
        assert_ne!(config_hash(&other), config_hash(&config));
        let mut unpruned = config.clone();
        unpruned.rf_prune = false;
        assert_ne!(config_hash(&unpruned), config_hash(&config));
    }

    /// Keys derived before the tree version was folded in (the bare hash
    /// of the config encoding) no longer match: cache entries and journals
    /// of the older exploration tree miss or are rejected.
    #[test]
    fn config_hash_covers_the_tree_version() {
        let config = Config::default();
        let unversioned = fnv1a64(config_to_json(&config).encode().as_bytes());
        assert_ne!(config_hash(&config), unversioned);
    }

    /// Every field is required: an encoding missing one is an error, not
    /// a default.
    #[test]
    fn missing_fields_are_errors() {
        let without = |json: Json, field: &str| match json {
            Json::Obj(mut pairs) => {
                pairs.retain(|(k, _)| k != field);
                Json::Obj(pairs)
            }
            other => other,
        };
        for field in ["executions_pruned", "rf_classes"] {
            let json = without(stats_to_json(&sample_stats()), field);
            let err = stats_from_json(&json).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
        let with_classes = |classes: &str| match stats_to_json(&sample_stats()) {
            Json::Obj(mut pairs) => {
                for (k, v) in &mut pairs {
                    if k == "rf_classes" {
                        *v = Json::str(classes);
                    }
                }
                stats_from_json(&Json::Obj(pairs))
            }
            _ => unreachable!(),
        };
        assert!(with_classes("").is_ok());
        assert!(with_classes("0123456789abcdef").is_ok());
        for bad in ["0123456789abcde", "0123456789abcdeF", "0123456789abcdeg"] {
            assert!(with_classes(bad).is_err(), "{bad}");
        }
        for field in ["rf_prune", "debug_audit"] {
            let json = without(config_to_json(&Config::default()), field);
            let err = config_from_json(&json).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
    }

    #[test]
    fn stop_and_category_labels_round_trip() {
        for stop in [
            StopReason::Exhausted,
            StopReason::FirstBug,
            StopReason::ExecutionCap,
            StopReason::Deadline,
            StopReason::Errored,
        ] {
            assert_eq!(StopReason::from_label(stop.label()), Some(stop));
            assert_eq!(stop.label(), stop.to_string());
        }
        for cat in [
            BugCategory::BuiltIn,
            BugCategory::Admissibility,
            BugCategory::Assertion,
            BugCategory::Internal,
        ] {
            assert_eq!(BugCategory::from_label(cat.label()), Some(cat));
        }
    }

    #[test]
    fn spec_hashes_are_distinct_per_benchmark() {
        let benches = cdsspec_structures::registry::benchmarks();
        let mut hashes: Vec<u64> = benches.iter().map(spec_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), benches.len(), "spec hashes collide");
    }

    #[test]
    fn task_keys_are_distinct() {
        let a = task_key(
            "X",
            &ShardSpec {
                floor: 1,
                script: vec![2],
            },
            10,
        );
        let b = task_key(
            "X",
            &ShardSpec {
                floor: 1,
                script: vec![2],
            },
            11,
        );
        let c = task_key(
            "X",
            &ShardSpec {
                floor: 0,
                script: vec![1, 2],
            },
            10,
        );
        let d = task_key(
            "Y",
            &ShardSpec {
                floor: 1,
                script: vec![2],
            },
            10,
        );
        let keys = [a.clone(), b, c, d];
        let mut dedup = keys.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
        assert_eq!(a, "X|1|2|10");
    }
}
