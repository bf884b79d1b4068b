//! Typed errors for loading campaign state from disk.
//!
//! Every variant renders an *actionable* message: what file is bad, what
//! exactly is wrong with it, and what the operator can do about it.

use std::path::PathBuf;

/// Failure to load a journal or cache entry.
#[derive(Debug)]
pub enum ParseError {
    /// The file could not be read or written at the OS level.
    Io {
        /// File involved.
        path: PathBuf,
        /// Underlying OS error.
        error: std::io::Error,
    },
    /// The file exists but does not start with the expected magic header —
    /// it is not (a current version of) the format we expect.
    BadMagic {
        /// File involved.
        path: PathBuf,
        /// What was found at the start of the file, for the error message.
        found: String,
        /// The header that was expected.
        expected: &'static str,
    },
    /// The file has a valid header but a payload that cannot be decoded.
    Malformed {
        /// File involved.
        path: PathBuf,
        /// What could not be decoded.
        detail: String,
    },
    /// A journal belongs to a different campaign configuration than the
    /// one being resumed (e.g. the benchmark filter or split cap changed,
    /// or a `figure7` resume file was cut from another exploration tree).
    WrongCampaign {
        /// File involved.
        path: PathBuf,
        /// Which parameter differs, and how.
        detail: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io { path, error } => {
                write!(f, "cannot access {}: {error}", path.display())
            }
            ParseError::BadMagic {
                path,
                found,
                expected,
            } => write!(
                f,
                "{} is not a {expected} file (starts with {found:?}) — \
                 point the tool at a path it owns, or delete the file if \
                 it is stale",
                path.display()
            ),
            ParseError::Malformed { path, detail } => write!(
                f,
                "{} is not usable: {detail} — it may be a truncated or \
                 corrupted write from an interrupted run; delete it to \
                 start the campaign from scratch",
                path.display()
            ),
            ParseError::WrongCampaign { path, detail } => write!(
                f,
                "{} was written by a different campaign configuration \
                 ({detail}) — resume with the original flags, or delete \
                 the journal to start over",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}
