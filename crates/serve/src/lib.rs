//! # mujs-serve
//!
//! `detserved`: a persistent analysis service with content-addressed
//! pipeline caching.
//!
//! The batch layer (`mujs-jobs`) treats every analysis as a cold start:
//! parse, lower, fan out over seeds, optionally solve pointer analysis —
//! all from scratch, every time. That is the right shape for one-shot
//! campaigns, but an interactive workload (an editor probing the same
//! page after each keystroke, a CI bot re-checking a mostly-unchanged
//! bundle) re-submits near-identical work constantly. This crate is the
//! warm path: a long-running daemon that keys every pipeline stage by a
//! content hash of that stage's *exact inputs* and serves repeats from
//! cache.
//!
//! The pipeline, its stages and their keys live in
//! [`mujs_jobs::pipeline`], which `detjobs` runs too; this crate only
//! adds the stage cache around them ([`stage`]). Every key folds one
//! scheme version, the stage name, the upstream key and the stage's full
//! canonical config:
//!
//! ```text
//! parse   = H(KEY_SCHEME ∥ "parse" ∥ src)
//! facts   = H(KEY_SCHEME ∥ "facts" ∥ parse ∥ config-json ∥ #seeds ∥ seeds…)
//! summary = H(KEY_SCHEME ∥ "summary" ∥ facts)                (inject+shortcuts)
//! pta     = H(KEY_SCHEME ∥ "pta" ∥ upstream ∥ budget ∥ mode ∥ depth)
//!           upstream = parse (baseline) | facts (inject, spec) | summary
//! ```
//!
//! Each key chains its upstream stage's key, so invalidation is
//! automatic: change the source and every key moves; change only the
//! analysis config and the parse artifact (and a baseline solve) still
//! hits. The `detjobs` checkpoint key is these keys plus the batch memory
//! budget, so the two caches can never drift apart on what "same inputs"
//! means.
//!
//! The wire protocol ([`proto`]) is line-delimited JSON over TCP or a
//! stdin/stdout pipe, streaming the jobs layer's `JobEvent`s as progress
//! frames and finishing each request with a report row **byte-identical**
//! to what a cold run produces (both paths render the row from the cached
//! artifacts, never from live analysis state). Admission control reuses
//! the `mujs-jobs` machinery unchanged.
//!
//! Two binaries ship with the crate: `detserved` (the daemon) and
//! `detload` (a load generator that measures cold-vs-warm throughput and
//! writes `BENCH_serve.json`).

#![forbid(unsafe_code)]

pub mod cache;
pub mod proto;
pub mod server;
pub mod stage;

pub use cache::{CacheConfig, Stage, StageCache};
pub use mujs_jobs::pipeline::{PipelineCounters, StageKeys, StageRequest, KEY_SCHEME};
pub use server::{ServeOptions, Server};
