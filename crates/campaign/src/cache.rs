//! The content-addressed result cache.
//!
//! A campaign's answer for one benchmark is fully determined by three
//! things: which structure was checked, what its specification looked
//! like, and the semantic exploration config. The cache keys on exactly
//! that triple — `(structure name, spec hash, config hash)` — so a cached
//! entry can *never* answer for a different spec or config, and editing a
//! benchmark's spec or site table invalidates its entries automatically
//! (the hash moves, the old file is simply never looked up again).
//!
//! Entries are single files written atomically (temp + fsync + rename)
//! holding one [`crate::frame`] frame of the merged [`Stats`] as JSON,
//! without the rf-class hashes ([`crate::wire::row_to_json`]): nothing
//! reads a final row's classes, and they were nearly all of an entry.
//! The entry stays a text file: the magic line, then the frame's
//! 8-byte header as 16 hex digits, then the payload on a line of its
//! own (the JSON encoder never emits a newline):
//!
//! ```text
//! cdsspec-result v2
//! <len: u32 LE><crc32: u32 LE>   (hex)
//! <payload>
//! ```
//!
//! A corrupt entry — not UTF-8, bad magic, bad header, a length or CRC
//! that does not match the payload line, undecodable stats — is treated
//! as a miss and deleted, never an error: the cache is an accelerator,
//! not a source of truth. Entries of the older `v1` layout are misses
//! too. Entries written with their classes (by older builds) still
//! decode, and a class-less entry decodes on those builds: the layout
//! and the magic are unchanged.

use crate::error::ParseError;
use crate::frame::{frame_header, verify_frame, HEADER_LEN};
use crate::fsio::write_atomic;
use crate::hash::fnv1a64;
use crate::json::Json;
use crate::wire::{row_to_json, stats_from_json};
use cdsspec_mc::Stats;
use std::path::{Path, PathBuf};

/// First line of every cache entry file.
const ENTRY_MAGIC: &str = "cdsspec-result v2";

/// Identity of one cached result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Benchmark display name (registry spelling).
    pub structure: String,
    /// [`crate::wire::spec_hash`] of the benchmark.
    pub spec_hash: u64,
    /// [`crate::wire::config_hash`] of the campaign config.
    pub config_hash: u64,
}

impl CacheKey {
    /// The entry's file name: three 16-hex-digit hashes. The structure
    /// name is folded through FNV so arbitrary display names (spaces,
    /// unicode) never meet the filesystem.
    pub fn file_name(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}.result",
            fnv1a64(self.structure.as_bytes()),
            self.spec_hash,
            self.config_hash
        )
    }
}

/// An on-disk result cache rooted at one directory.
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) a cache directory.
    pub fn open(dir: &Path) -> Result<ResultCache, ParseError> {
        std::fs::create_dir_all(dir).map_err(|error| ParseError::Io {
            path: dir.to_path_buf(),
            error,
        })?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
        })
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Look up a cached result. Any defect in the entry (missing, not
    /// UTF-8, foreign header, CRC mismatch, undecodable stats) is a miss;
    /// defective entries are deleted so they cannot shadow a future store.
    pub fn lookup(&self, key: &CacheKey) -> Option<Stats> {
        let path = self.entry_path(key);
        let bytes = std::fs::read(&path).ok()?;
        match std::str::from_utf8(&bytes).ok().and_then(parse_entry) {
            Some(stats) => Some(stats),
            None => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Store a result atomically. The entry lands fully formed or not at
    /// all — a crash mid-store leaves the previous entry (or no entry),
    /// never a torn file. The entry holds the row without its rf-class
    /// hashes ([`row_to_json`]): a hit comes back with an empty class set.
    pub fn store(&self, key: &CacheKey, stats: &Stats) -> Result<(), ParseError> {
        let payload = row_to_json(stats).encode();
        let header: String = frame_header(payload.as_bytes())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let text = format!("{ENTRY_MAGIC}\n{header}\n{payload}\n");
        let path = self.entry_path(key);
        write_atomic(&path, text.as_bytes()).map_err(|error| ParseError::Io { path, error })
    }
}

fn parse_entry(text: &str) -> Option<Stats> {
    let rest = text.strip_prefix(ENTRY_MAGIC)?.strip_prefix('\n')?;
    let (hex, payload) = rest.split_once('\n')?;
    let payload = payload.strip_suffix('\n')?;
    if hex.len() != 2 * HEADER_LEN {
        return None;
    }
    let mut header = [0u8; HEADER_LEN];
    for (i, byte) in header.iter_mut().enumerate() {
        *byte = u8::from_str_radix(hex.get(2 * i..2 * i + 2)?, 16).ok()?;
    }
    verify_frame(&header, payload.as_bytes()).ok()?;
    stats_from_json(&Json::parse(payload).ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsspec_mc::StopReason;

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("cdsspec-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(&dir).unwrap()
    }

    fn key() -> CacheKey {
        CacheKey {
            structure: "SPSC Queue".into(),
            spec_hash: 0xabcd,
            config_hash: 0x1234,
        }
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = temp_cache("roundtrip");
        let stats = Stats {
            executions: 18,
            feasible: 18,
            peak_depth: 7,
            stop: StopReason::Exhausted,
            elapsed: std::time::Duration::from_millis(5),
            ..Stats::default()
        };
        assert!(cache.lookup(&key()).is_none(), "cold cache misses");
        cache.store(&key(), &stats).unwrap();
        let hit = cache.lookup(&key()).expect("hit after store");
        assert_eq!(hit.executions, 18);
        assert_eq!(hit.stop, StopReason::Exhausted);
        assert_eq!(hit.elapsed, stats.elapsed);
    }

    #[test]
    fn different_key_components_miss() {
        let cache = temp_cache("keys");
        cache.store(&key(), &Stats::default()).unwrap();
        for other in [
            CacheKey {
                structure: "MPMC Queue".into(),
                ..key()
            },
            CacheKey {
                spec_hash: key().spec_hash + 1,
                ..key()
            },
            CacheKey {
                config_hash: key().config_hash + 1,
                ..key()
            },
        ] {
            assert!(cache.lookup(&other).is_none(), "{other:?} must miss");
        }
    }

    #[test]
    fn corrupt_entry_is_a_miss_and_removed() {
        let cache = temp_cache("corrupt");
        cache.store(&key(), &Stats::default()).unwrap();
        let path = cache.entry_path(&key());
        // Flip a payload byte without fixing the CRC.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 5;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.lookup(&key()).is_none(), "corrupt entry must miss");
        assert!(!path.exists(), "corrupt entry must be removed");
        // And a fresh store works again.
        cache.store(&key(), &Stats::default()).unwrap();
        assert!(cache.lookup(&key()).is_some());
    }

    #[test]
    fn older_layout_is_a_miss_and_removed() {
        let cache = temp_cache("v1");
        let payload = row_to_json(&Stats::default()).encode();
        let crc = crate::hash::crc32(payload.as_bytes());
        let path = cache.entry_path(&key());
        std::fs::write(&path, format!("cdsspec-result v1\n{crc:08x}\n{payload}\n")).unwrap();
        assert!(cache.lookup(&key()).is_none());
        assert!(!path.exists());
    }

    #[test]
    fn non_utf8_entry_is_a_miss_and_removed() {
        let cache = temp_cache("utf8");
        let path = cache.entry_path(&key());
        std::fs::write(&path, [0xff, 0xfe, 0x00]).unwrap();
        assert!(cache.lookup(&key()).is_none());
        assert!(!path.exists(), "a non-UTF-8 entry is a defect and removed");
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let cache = temp_cache("truncated");
        cache.store(&key(), &Stats::default()).unwrap();
        let path = cache.entry_path(&key());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(cache.lookup(&key()).is_none());
    }
}
