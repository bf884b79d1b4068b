//! Property tests for the networked wire: arbitrary supervisor/worker
//! protocol messages survive encode → frame → arbitrary re-chunking →
//! decode **identically**, and corrupted or truncated frames are always
//! rejected as a framing error (worker death at the transport layer) —
//! never silently misparsed into a different message.
//!
//! The framing under test is the one codec in
//! `crates/campaign/src/frame.rs`, shared by the worker pipe, the TCP
//! socket, the journal and the cache:
//! `[len: u32 LE][crc32(payload): u32 LE][payload]`. The CRC covers the
//! payload, so any payload flip is caught directly; header flips either
//! desynchronize the length (truncated/oversize ⇒ `Corrupt`) or corrupt
//! the stored CRC (mismatch ⇒ `Corrupt`). These tests pin that argument
//! against real random damage rather than trusting it. Streams arrive
//! through a reader that hands out arbitrary chunk sizes, the way a
//! pipe or socket does.

use cdsspec_campaign::frame::{frame_bytes, read_frame, FrameError};
use cdsspec_campaign::proto::{FromWorker, ToWorker};
use cdsspec_mc::{Bug, BugCategory, Config, FoundBug, ShardSpec, Stats, StopReason};
use proptest::prelude::*;
use std::io::Read;
use std::time::Duration;

/// Strings chosen to stress the JSON escaper inside the framed payload:
/// quotes, newlines, backslashes, unicode, emptiness.
const STRINGS: &[&str] = &[
    "SPSC Queue",
    "assertion \"front == expected\" failed",
    "two\nlines and a tab\t",
    "unicode θ≤π, backslash \\",
    "",
];

fn string_strategy() -> impl Strategy<Value = String> {
    (0usize..STRINGS.len()).prop_map(|i| STRINGS[i].to_string())
}

fn shard_strategy() -> impl Strategy<Value = ShardSpec> {
    (0usize..6, prop::collection::vec(0usize..9, 0..6))
        .prop_map(|(floor, script)| ShardSpec { floor, script })
}

/// Semantic-config strategy. Only the wire-carried subset is varied: the
/// encoder deliberately drops hosting knobs (`workers`, `fiber_stack`,
/// ...), so varying them would make "decode equals original" vacuously
/// false for reasons unrelated to framing.
fn config_strategy() -> impl Strategy<Value = Config> {
    (
        (100u32..5000, 0u32..10, 0u32..10, 1u64..1 << 40),
        prop::option::of(1u64..1 << 40),
        prop::option::of(1u64..1 << 40),
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        0u64..u64::MAX,
    )
        .prop_map(
            |(
                (max_steps_per_thread, max_spins, max_futile_reads, max_executions),
                time_budget_ns,
                hang_timeout_ns,
                (sleep_sets, rf_prune, stop_on_first_bug, debug_audit),
                sample_seed,
            )| Config {
                max_steps_per_thread,
                max_spins,
                max_futile_reads,
                max_executions,
                time_budget: time_budget_ns.map(Duration::from_nanos),
                hang_timeout: hang_timeout_ns.map(Duration::from_nanos),
                sample_seed,
                sleep_sets,
                rf_prune,
                stop_on_first_bug,
                debug_audit,
                ..Config::default()
            },
        )
}

fn bug_strategy() -> impl Strategy<Value = FoundBug> {
    (
        0usize..4,
        string_strategy(),
        0u64..10_000,
        0usize..4,
        prop::collection::vec(0usize..6, 0..4),
    )
        .prop_map(|(cat, message, execution, worker, shard)| FoundBug {
            bug: Bug::Restored {
                category: match cat {
                    0 => BugCategory::BuiltIn,
                    1 => BugCategory::Admissibility,
                    2 => BugCategory::Assertion,
                    _ => BugCategory::Internal,
                },
                message,
            },
            execution,
            trace: String::new(),
            worker,
            shard,
        })
}

fn stats_strategy() -> impl Strategy<Value = Stats> {
    (
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 20, 0u64..1 << 20),
        (0u64..1 << 20, 0u64..200, 0u64..u64::MAX / 4),
        0usize..5,
        prop::collection::vec(bug_strategy(), 0..3),
        prop::collection::vec(shard_strategy(), 0..3),
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
                    stop: match stop_ix {
                        0 => StopReason::Exhausted,
                        1 => StopReason::FirstBug,
                        2 => StopReason::ExecutionCap,
                        3 => StopReason::Deadline,
                        _ => StopReason::Errored,
                    },
                    shard_frontiers: shards,
                    ..Stats::default()
                }
            },
        )
}

fn to_worker_strategy() -> impl Strategy<Value = ToWorker> {
    prop_oneof![
        (0usize..1).prop_map(|_| ToWorker::Exit),
        (
            any::<u64>(),
            string_strategy(),
            shard_strategy(),
            config_strategy(),
            prop::collection::vec(0usize..12, 0..5),
        )
            .prop_map(|(task, bench, shard, config, weaken)| ToWorker::Run {
                task,
                bench,
                shard,
                config,
                weaken,
            }),
    ]
}

fn from_worker_strategy() -> impl Strategy<Value = FromWorker> {
    prop_oneof![
        (any::<u64>()).prop_map(|task| FromWorker::Heartbeat { task }),
        (any::<u64>(), stats_strategy())
            .prop_map(|(task, stats)| FromWorker::Result { task, stats }),
        (any::<u64>(), string_strategy())
            .prop_map(|(task, message)| FromWorker::Error { task, message }),
    ]
}

/// One encoded protocol line from either direction.
fn line_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        to_worker_strategy().prop_map(|m| m.encode()),
        from_worker_strategy().prop_map(|m| m.encode()),
    ]
}

/// A reader over `bytes` whose reads return chunks with sizes cycling
/// through `sizes` (1-byte chunks when empty), so every frame boundary
/// and header split a pipe or socket can produce gets exercised.
struct Chunked<'a> {
    bytes: &'a [u8],
    sizes: &'a [usize],
    reads: usize,
}

impl<'a> Chunked<'a> {
    fn new(bytes: &'a [u8], sizes: &'a [usize]) -> Self {
        Chunked {
            bytes,
            sizes,
            reads: 0,
        }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = match self.sizes {
            [] => 1,
            sizes => sizes[self.reads % sizes.len()].max(1),
        };
        self.reads += 1;
        let n = want.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Read frames until the stream ends; panics on anything but a clean
/// end between frames.
fn read_all(r: &mut impl Read) -> Vec<String> {
    let mut got = Vec::new();
    loop {
        match read_frame(r) {
            Ok(payload) => got.push(payload),
            Err(FrameError::Closed) => return got,
            Err(e) => panic!("clean stream rejected: {e}"),
        }
    }
}

proptest! {
    /// encode → frame → arbitrary re-chunking → decode is the identity,
    /// for any protocol message in either direction. Decoding is pinned
    /// by the encode-fixpoint: the re-decoded message re-encodes to the
    /// byte-identical line, so no field was lost or altered in transit.
    #[test]
    fn any_message_survives_framing_and_rechunking(
        line in line_strategy(),
        sizes in prop::collection::vec(1usize..64, 0..8),
    ) {
        let bytes = frame_bytes(&line);
        let got = read_all(&mut Chunked::new(&bytes, &sizes));
        prop_assert_eq!(got.len(), 1, "exactly one frame comes out");
        prop_assert_eq!(&got[0], &line, "payload survives verbatim");

        // The payload decodes back to a message that re-encodes to the
        // same line (works for both directions; try both decoders).
        let fixpoint = ToWorker::decode(&got[0]).map(|m| m.encode())
            .or_else(|_| FromWorker::decode(&got[0]).map(|m| m.encode()));
        prop_assert_eq!(fixpoint.as_deref(), Ok(line.as_str()));
    }

    /// A stream of several frames re-chunked arbitrarily comes out as
    /// exactly those payloads, in order.
    #[test]
    fn frame_streams_preserve_order(
        lines in prop::collection::vec(line_strategy(), 1..5),
        sizes in prop::collection::vec(1usize..48, 0..8),
    ) {
        let mut bytes = Vec::new();
        for line in &lines {
            bytes.extend_from_slice(&frame_bytes(line));
        }
        prop_assert_eq!(read_all(&mut Chunked::new(&bytes, &sizes)), lines);
    }

    /// Flip any single byte of a framed message: the reader must either
    /// reject the frame (worker death) or — never — hand back a payload
    /// different from the original. A flip can land in the length, the
    /// CRC, or the payload; all three must be caught.
    #[test]
    fn corrupted_frames_are_rejected_never_misparsed(
        line in line_strategy(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
        sizes in prop::collection::vec(1usize..48, 0..8),
    ) {
        let mut bytes = frame_bytes(&line);
        let at = flip_at % bytes.len();
        bytes[at] ^= 1 << flip_bit;
        match read_frame(&mut Chunked::new(&bytes, &sizes)) {
            Err(_) => {} // rejected: the supervisor treats this as death
            Ok(out) => prop_assert_eq!(
                out, line,
                "a corrupted frame decoded into a *different* payload"
            ),
        }
    }

    /// Truncate a framed message at any strictly-shorter length: the
    /// reader must reject it (clean close mid-frame is still death for
    /// the in-flight lease), never return a payload.
    #[test]
    fn truncated_frames_are_rejected(
        line in line_strategy(),
        cut_at in any::<usize>(),
        sizes in prop::collection::vec(1usize..48, 0..8),
    ) {
        let bytes = frame_bytes(&line);
        let cut = cut_at % bytes.len(); // 0..len, always a strict prefix
        let err = read_frame(&mut Chunked::new(&bytes[..cut], &sizes));
        prop_assert!(err.is_err(), "truncated frame must not parse: {err:?}");
    }
}
