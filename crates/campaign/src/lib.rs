//! Fault-tolerant campaign supervision for the cdsspec model checker.
//!
//! A *campaign* checks every benchmark in the registry (or a filtered
//! subset) and renders one report. This crate makes campaigns survive the
//! real world:
//!
//! - **Process isolation** ([`supervisor`], [`worker`]): shards run in
//!   worker *subprocesses*, so a crash — a wedged allocator, a `kill -9`,
//!   an OOM kill — costs one shard's CPU time, never the campaign.
//! - **Shard leases** ([`lease`]): every dispatched shard has an owner
//!   and a heartbeat-extended deadline; expired or orphaned shards are
//!   re-dispatched with exponential backoff, and shards that repeatedly
//!   crash their worker are quarantined and reported as *suspect*.
//! - **Journaled checkpoints** ([`journal`]): campaign progress is an
//!   append-only, CRC-framed, fsync'd record log; a campaign killed at
//!   any instant resumes from the last durable record, and a torn tail
//!   is truncated away on open.
//! - **One wire** ([`frame`]): the worker pipe, the daemon socket, the
//!   journal and cache entries all carry CRC-guarded frames of one
//!   codec, so corruption anywhere is detected the same way and never
//!   misparses into a different message.
//! - **Result cache** ([`cache`]): completed per-benchmark results are
//!   content-addressed by `(structure, spec hash, config hash)`, so
//!   re-running an unchanged campaign is nearly free — and a cached row
//!   renders byte-identically to a live one.
//!
//! The determinism argument underpinning all of the above (retries and
//! cache hits can never change reported numbers) is spelled out in
//! [`campaign`] and in `ARCHITECTURE.md`.
//!
//! The CLI binary is `cdsspec-campaign`; see the README quickstart.
//!
//! # Exit codes
//!
//! The single source of truth for the `cdsspec-campaign` process exit
//! codes (asserted by the integration tests, used by CI):
//!
//! | code | constant | meaning |
//! |------|----------|---------|
//! | 0 | [`EXIT_CLEAN`] | campaign completed, no bugs found |
//! | 1 | [`EXIT_ERROR`] | usage or internal error (bad flags, unusable journal) |
//! | 2 | [`EXIT_BUG`] | campaign completed and found at least one bug |
//! | 3 | [`EXIT_RESUMABLE`] | incomplete but resumable: halted, suspect or abandoned shards |

#![warn(missing_docs)]

/// Campaign completed; no bugs.
pub const EXIT_CLEAN: i32 = 0;
/// Usage or internal error.
pub const EXIT_ERROR: i32 = 1;
/// Campaign completed; at least one bug was found.
pub const EXIT_BUG: i32 = 2;
/// Campaign incomplete but resumable (halted mid-run, or some shards are
/// suspect/abandoned); re-run with the same `--journal` to continue.
pub const EXIT_RESUMABLE: i32 = 3;

pub mod cache;
pub mod campaign;
pub mod daemon;
pub mod error;
pub mod frame;
pub mod fsio;
pub mod hash;
pub mod journal;
pub mod json;
pub mod lease;
pub mod net;
pub mod proto;
pub mod supervisor;
pub mod wire;
pub mod worker;

pub use cache::{CacheKey, ResultCache};
pub use campaign::{run_campaign, run_campaign_with, CampaignOpts, CampaignOutcome};
pub use daemon::{run_daemon, run_daemon_on, DaemonOpts};
pub use error::ParseError;
pub use journal::{Journal, Recovery};
pub use lease::{Outcome, TaskSpec, TaskTable};
pub use net::{AttachOpts, CampaignRequest, StatusReport};
pub use supervisor::{Supervisor, SupervisorOpts, SupervisorStats, Transport, WorkerLink};
pub use worker::{worker_main, WorkerOpts};
