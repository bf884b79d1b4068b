//! A cut parallel exploration survives the campaign wire codec, the
//! encoding every resume file and journal record uses, and resumes to
//! exactly the straight-through totals.

use cdsspec_campaign::json::Json;
use cdsspec_campaign::wire::{stats_from_json, stats_to_json};
use cdsspec_mc as mc;
use mc::MemOrd::*;
use mc::{Atomic, Config};

fn seq_config() -> Config {
    Config {
        workers: 1,
        ..Config::default()
    }
}

/// Three threads with mixed orderings: enough branching that a capped
/// four-worker run leaves several frontier shards.
fn three_thread_mix() {
    let x = Atomic::new(0i64);
    let y = Atomic::new(0i64);
    let t1 = mc::thread::spawn(move || {
        x.store(1, Relaxed);
        let _ = y.fetch_add(1, AcqRel);
    });
    let t2 = mc::thread::spawn(move || {
        y.store(5, Release);
        let _ = x.load(Acquire);
    });
    let _ = x.fetch_add(2, SeqCst);
    t1.join();
    t2.join();
}

#[test]
fn parallel_cut_round_trips_through_the_wire_codec() {
    let seq = mc::explore(seq_config(), three_thread_mix);
    let cut = mc::explore(
        Config {
            workers: 4,
            max_executions: 9,
            ..seq_config()
        },
        three_thread_mix,
    );
    if cut.stop == mc::StopReason::Exhausted {
        return; // finished under the cap; nothing to resume
    }
    let text = stats_to_json(&cut).encode();
    let back = stats_from_json(&Json::parse(&text).expect("parses")).expect("decodes");
    assert_eq!(
        back.shard_frontiers, cut.shard_frontiers,
        "every frontier shard survives the codec"
    );
    assert_eq!(back.executions, cut.executions);
    assert_eq!(back.rf_classes, cut.rf_classes);
    assert_eq!(back.elapsed, cut.elapsed);

    assert!(!back.shard_frontiers.is_empty(), "a cut leaves a frontier");
    let resume = Config {
        resume_shards: Some(back.shard_frontiers.clone()),
        ..seq_config()
    };
    let mut resumed = back;
    resumed.continue_with(mc::explore(resume, three_thread_mix));
    assert_eq!(resumed.stop, mc::StopReason::Exhausted);
    assert_eq!(resumed.executions, seq.executions);
    assert_eq!(resumed.feasible, seq.feasible);
    assert_eq!(resumed.rf_classes, seq.rf_classes);
}
