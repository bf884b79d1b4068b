//! The append-only campaign journal.
//!
//! Every durable campaign event is one framed record appended to a single
//! file and fsync'd before the campaign acts on it:
//!
//! ```text
//! cdsspec-journal v1\n                      (magic header, once)
//! [len: u32 LE][crc32: u32 LE][payload: len bytes]   (per record)
//! ```
//!
//! Records are [`crate::frame`] frames whose payload is a JSON object
//! (see [`crate::json`]). On open, the journal replays every record; the
//! first frame that is truncated or fails its checks — the fingerprint
//! of a crash mid-append — ends the replay, and the file is **truncated
//! back to the last valid record** so subsequent appends continue from
//! a clean state. A record over the frame cap is refused at append time,
//! so it can never be written and then dropped as corruption. A bad
//! *header* is not recoverable (the file is not ours) and is reported as
//! a typed error instead.
//!
//! Compaction ([`Journal::compact`]) rewrites a record set atomically via
//! a temp file + rename, for retiring a finished campaign's history.

use crate::error::ParseError;
use crate::frame::{read_frame, write_frame};
use crate::fsio::write_atomic;
use crate::json::Json;
use std::fs::{File, OpenOptions};
use std::io::{Cursor, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic first line of every journal file.
pub const MAGIC: &str = "cdsspec-journal v1\n";

/// What [`Journal::open`] recovered from an existing file.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every valid record, in append order.
    pub records: Vec<Json>,
    /// Bytes of truncated/corrupted tail that were discarded (0 for a
    /// clean file).
    pub dropped_bytes: u64,
}

/// An open journal, positioned for appending.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Open (or create) the journal at `path`, replaying and validating
    /// its contents. A corrupted or truncated tail is cut back to the
    /// last valid record; a foreign or unversioned header is a
    /// [`ParseError::BadMagic`].
    pub fn open(path: &Path) -> Result<(Journal, Recovery), ParseError> {
        let io_err = |error: std::io::Error| ParseError::Io {
            path: path.to_path_buf(),
            error,
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;

        if bytes.is_empty() {
            file.write_all(MAGIC.as_bytes()).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
            return Ok((
                Journal {
                    file,
                    path: path.to_path_buf(),
                },
                Recovery::default(),
            ));
        }
        if !bytes.starts_with(MAGIC.as_bytes()) {
            let found: String = String::from_utf8_lossy(&bytes[..bytes.len().min(24)]).into_owned();
            return Err(ParseError::BadMagic {
                path: path.to_path_buf(),
                found,
                expected: "cdsspec-journal v1",
            });
        }

        let mut recovery = Recovery::default();
        let mut frames = Cursor::new(&bytes[MAGIC.len()..]);
        let mut valid_end = MAGIC.len();
        // A clean end or the first bad frame ends the replay; a frame
        // whose payload is not our JSON counts as bad too.
        while let Ok(payload) = read_frame(&mut frames) {
            let Ok(record) = Json::parse(&payload) else {
                break;
            };
            recovery.records.push(record);
            valid_end = MAGIC.len() + frames.position() as usize;
        }
        if valid_end < bytes.len() {
            recovery.dropped_bytes = (bytes.len() - valid_end) as u64;
            file.set_len(valid_end as u64).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            recovery,
        ))
    }

    /// Append one record and fsync it. When this returns, the record
    /// survives a crash of this process and of the machine.
    pub fn append(&mut self, record: &Json) -> Result<(), ParseError> {
        let io_err = |error: std::io::Error| ParseError::Io {
            path: self.path.clone(),
            error,
        };
        write_frame(&mut self.file, &record.encode()).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically rewrite `path` to contain exactly `records` (temp file
    /// in the same directory, fsync, rename). Used to retire history the
    /// campaign no longer needs.
    pub fn compact(path: &Path, records: &[Json]) -> Result<(), ParseError> {
        let io_err = |error: std::io::Error| ParseError::Io {
            path: path.to_path_buf(),
            error,
        };
        let mut bytes = Vec::from(MAGIC.as_bytes());
        for record in records {
            write_frame(&mut bytes, &record.encode()).map_err(io_err)?;
        }
        write_atomic(path, &bytes).map_err(io_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cdsspec-journal-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.bin")
    }

    fn rec(n: u64) -> Json {
        Json::obj(vec![("rec", Json::str("test")), ("n", Json::num(n))])
    }

    #[test]
    fn append_and_reopen() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, recovery) = Journal::open(&path).unwrap();
            assert!(recovery.records.is_empty());
            j.append(&rec(1)).unwrap();
            j.append(&rec(2)).unwrap();
        }
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(1), rec(2)]);
        assert_eq!(recovery.dropped_bytes, 0);
    }

    #[test]
    fn truncated_tail_recovers_to_last_valid_record() {
        let path = temp_path("truncated");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&rec(1)).unwrap();
            j.append(&rec(2)).unwrap();
        }
        // Chop bytes off the last frame, simulating a crash mid-append.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        let (mut j, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(1)], "partial record dropped");
        assert!(recovery.dropped_bytes > 0);
        // The file was physically truncated; appending continues cleanly.
        j.append(&rec(3)).unwrap();
        drop(j);
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(1), rec(3)]);
        assert_eq!(recovery.dropped_bytes, 0);
    }

    #[test]
    fn corrupted_payload_byte_is_caught_by_crc() {
        let path = temp_path("bitrot");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&rec(1)).unwrap();
            j.append(&rec(2)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit in the *second* record's payload (last byte of file).
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(1)]);
        assert!(recovery.dropped_bytes > 0);
    }

    #[test]
    fn garbage_length_prefix_is_tail_corruption_not_allocation() {
        let path = temp_path("hugelen");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&rec(1)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xff; 4]); // absurd length
        bytes.extend_from_slice(&[0u8; 12]);
        std::fs::write(&path, &bytes).unwrap();
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(1)]);
    }

    #[test]
    fn oversized_record_is_refused_and_earlier_records_survive() {
        let path = temp_path("oversized");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&rec(1)).unwrap();
        // `{"pad":"x…x"}` encodes to exactly one byte over the cap.
        let pad = "x".repeat(crate::frame::MAX_FRAME + 1 - r#"{"pad":""}"#.len());
        let big = Json::obj(vec![("pad", Json::str(pad))]);
        assert_eq!(big.encode().len(), crate::frame::MAX_FRAME + 1);
        match j.append(&big) {
            Err(ParseError::Io { error, .. }) => {
                assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput)
            }
            other => panic!("expected an Io error, got {other:?}"),
        }
        j.append(&rec(2)).unwrap();
        drop(j);
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(1), rec(2)]);
        assert_eq!(recovery.dropped_bytes, 0);
    }

    #[test]
    fn foreign_file_is_a_typed_error() {
        let path = temp_path("foreign");
        std::fs::write(&path, "not a journal at all\n").unwrap();
        match Journal::open(&path) {
            Err(ParseError::BadMagic { found, .. }) => {
                assert!(found.starts_with("not a journal"));
            }
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let rendered = Journal::open(&path).unwrap_err().to_string();
        assert!(rendered.contains("delete the file"), "{rendered}");
    }

    #[test]
    fn compact_rewrites_atomically() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            for n in 0..10 {
                j.append(&rec(n)).unwrap();
            }
        }
        Journal::compact(&path, &[rec(42)]).unwrap();
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(42)]);
    }
}
