//! Property tests for the campaign journal's crash recovery: append a
//! random record list, then damage the file the way a crash or bit rot
//! would — cut it at any offset, or flip any byte after the magic — and
//! reopen. `Journal::open` must hand back exactly the records before the
//! first damaged one, cut the file back to the end of that prefix
//! (`valid length + dropped_bytes == damaged length`), and keep working:
//! one more append lands right after the prefix.
//!
//! A hand-built file in the on-disk layout (magic line, then
//! `[len: u32 LE][crc32: u32 LE][payload]` per record) pins format
//! compatibility: journals and `figure7`/`figure8` resume files already
//! on disk must keep opening byte for byte.

use cdsspec_campaign::hash::crc32;
use cdsspec_campaign::journal::MAGIC;
use cdsspec_campaign::json::Json;
use cdsspec_campaign::Journal;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Strings that stress the JSON escaper inside a record.
const STRINGS: &[&str] = &["task", "two\nlines\tand a tab", "θ≤π \\ \"quoted\"", ""];

fn record_strategy() -> impl Strategy<Value = Json> {
    (0usize..STRINGS.len(), any::<u64>(), 0usize..300).prop_map(|(s, n, pad)| {
        Json::obj(vec![
            ("rec", Json::str(STRINGS[s])),
            ("n", Json::num(n)),
            ("pad", Json::str("x".repeat(pad))),
        ])
    })
}

/// A fresh path per case: proptest runs cases back to back.
fn temp_path(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cdsspec-proptest-journal-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("journal.bin")
}

/// Append `records` to a fresh journal; returns its path and the file
/// offset where each record's frame ends.
fn write_journal(tag: &str, records: &[Json]) -> (PathBuf, Vec<usize>) {
    let path = temp_path(tag);
    let (mut journal, recovery) = Journal::open(&path).unwrap();
    assert!(recovery.records.is_empty());
    let mut ends = Vec::new();
    for record in records {
        journal.append(record).unwrap();
        ends.push(std::fs::metadata(&path).unwrap().len() as usize);
    }
    (path, ends)
}

/// Reopen a damaged journal of `damaged_len` bytes whose first `kept`
/// records are intact, and check recovery, truncation and a further
/// append.
fn check_recovery(path: &Path, records: &[Json], ends: &[usize], kept: usize, damaged_len: usize) {
    let (mut journal, recovery) = Journal::open(path).unwrap();
    assert_eq!(&recovery.records[..], &records[..kept]);
    let valid_len = std::fs::metadata(path).unwrap().len();
    let prefix_end = if kept == 0 {
        MAGIC.len()
    } else {
        ends[kept - 1]
    };
    assert_eq!(valid_len as usize, prefix_end, "cut back to the prefix");
    assert_eq!(valid_len + recovery.dropped_bytes, damaged_len as u64);

    let extra = Json::obj(vec![("rec", Json::str("after-recovery"))]);
    journal.append(&extra).unwrap();
    drop(journal);
    let (_, recovery) = Journal::open(path).unwrap();
    let mut want = records[..kept].to_vec();
    want.push(extra);
    assert_eq!(recovery.records, want);
    assert_eq!(recovery.dropped_bytes, 0);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A cut anywhere after the magic keeps exactly the records whose
    /// frames end at or before the cut.
    #[test]
    fn truncation_keeps_the_whole_records_before_the_cut(
        records in prop::collection::vec(record_strategy(), 1..8),
        cut_at in any::<usize>(),
    ) {
        let (path, ends) = write_journal("cut", &records);
        let full = std::fs::read(&path).unwrap();
        let cut = MAGIC.len() + cut_at % (full.len() - MAGIC.len() + 1);
        std::fs::write(&path, &full[..cut]).unwrap();
        let kept = ends.iter().take_while(|&&end| end <= cut).count();
        check_recovery(&path, &records, &ends, kept, cut);
    }

    /// A flipped byte anywhere after the magic — in a length word, a
    /// CRC word or a payload — ends the replay at the record it hit.
    #[test]
    fn a_flipped_byte_ends_the_replay_at_its_record(
        records in prop::collection::vec(record_strategy(), 1..8),
        flip_at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let (path, ends) = write_journal("flip", &records);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = MAGIC.len() + flip_at % (bytes.len() - MAGIC.len());
        bytes[at] ^= flip;
        std::fs::write(&path, &bytes).unwrap();
        let kept = ends.iter().take_while(|&&end| end <= at).count();
        check_recovery(&path, &records, &ends, kept, bytes.len());
    }
}

/// A journal built by hand in the on-disk layout opens to its records,
/// and appending the same records to a fresh journal writes the same
/// bytes.
#[test]
fn hand_built_journal_opens_byte_for_byte() {
    let payloads = [r#"{"rec":"campaign","split":0}"#, r#"{"rec":"task","n":7}"#];
    let mut bytes = MAGIC.as_bytes().to_vec();
    for payload in payloads {
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
        bytes.extend_from_slice(payload.as_bytes());
    }
    let path = temp_path("hand-built");
    std::fs::write(&path, &bytes).unwrap();
    let (_, recovery) = Journal::open(&path).unwrap();
    let want: Vec<Json> = payloads.iter().map(|p| Json::parse(p).unwrap()).collect();
    assert_eq!(recovery.records, want);
    assert_eq!(recovery.dropped_bytes, 0);

    let (fresh, _) = write_journal("rewritten", &want);
    assert_eq!(std::fs::read(&fresh).unwrap(), bytes);
}
