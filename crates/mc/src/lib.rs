//! # cdsspec-mc
//!
//! A stateless model checker for code written against modeled C/C++11
//! atomics — the reproduction of **CDSChecker** (Norris & Demsky,
//! OOPSLA'13), the substrate the CDSSpec paper builds on.
//!
//! ## What it explores
//!
//! The checker re-executes a deterministic test closure, enumerating:
//!
//! 1. **Thread interleavings** of visible operations (atomic accesses,
//!    fences, joins), reduced with sleep sets;
//! 2. **Reads-from choices**: each load may observe any store permitted by
//!    the C/C++11 coherence and SC axioms — including *stale* stores, which
//!    is where relaxed-memory behaviors come from.
//!
//! Modification order is derived from per-location commit order, which
//! covers all RC11-consistent behaviors except load buffering /
//! out-of-thin-air — the same class CDSChecker declines to generate
//! (paper §5.2).
//!
//! ## Built-in checks
//!
//! Data races on [`Data`] cells, uninitialized atomic loads, deadlocks, and
//! modeled-thread panics (`mc_assert!`). Specification checking attaches
//! through the [`Plugin`] trait (see `cdsspec-core`).
//!
//! ## Example
//!
//! ```
//! use cdsspec_mc as mc;
//! use mc::mc_assert;
//! use mc::MemOrd::*;
//!
//! // Release/acquire message passing never reads stale data.
//! mc::model(|| {
//!     let data = mc::Atomic::new(0i32);
//!     let flag = mc::Atomic::new(0i32);
//!     let t = mc::thread::spawn(move || {
//!         data.store(42, Relaxed);
//!         flag.store(1, Release);
//!     });
//!     if flag.load(Acquire) == 1 {
//!         mc_assert!(data.load(Relaxed) == 42);
//!     }
//!     t.join();
//! });
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod atomic;
pub mod config;
pub mod data;
pub mod explore;
pub(crate) mod fiber;
pub mod memstate;
pub mod msg;
pub(crate) mod parallel;
pub mod plugin;
pub mod report;
pub(crate) mod runtime;
pub(crate) mod worker;

pub use api::{alloc, annotate, fence, new_object_id, progress_hint, spin_loop, thread, yield_now};
pub use atomic::{Atomic, AtomicPtr};
pub use config::Config;
pub use data::Data;
pub use explore::{explore, explore_factory, model};
pub use plugin::{FnPlugin, Plugin, PluginFactory};
pub use report::{Bug, BugCategory, FoundBug, ShardSpec, Stats, StopReason};
pub use worker::{in_model, run_shard_threads};

// Re-export the vocabulary crate so downstream users need one import.
pub use cdsspec_c11 as c11;
pub use cdsspec_c11::MemOrd;
