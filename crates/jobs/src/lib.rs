//! # mujs-jobs
//!
//! Parallel batch-analysis job scheduling for the determinacy analysis.
//! The paper's evaluation (§5) is embarrassingly parallel across
//! benchmark versions and seeds; this crate supplies the subsystem that
//! actually schedules those runs concurrently, on top of the core run
//! supervisor (panic isolation, cooperative deadlines/cancellation,
//! memory budgets):
//!
//! * [`JobSpec`] / [`Manifest`] — the JSON batch description: source +
//!   [`AnalysisConfig`][determinacy::AnalysisConfig] + seeds + per-job
//!   budgets;
//! * [`JobPool`] — a `std::thread` worker pool with a shared injector
//!   queue, one attempt per job under `catch_unwind`, a batch-wide
//!   [`CancelToken`][determinacy::CancelToken], and a streaming
//!   [`JobEvent`] channel;
//! * [`run_manifest`] / [`BatchOutcome`] — one report row per job
//!   (statuses, failures, fact counts and the sorted fact export), in
//!   manifest order, so the JSON report is **byte-identical regardless
//!   of worker count**;
//! * [`pipeline`] — the one analysis pipeline (canonical request, stage
//!   keys, facts row, PTA stage) every front end runs: `detjobs`,
//!   `detserved` and the `mujs-bench` binaries. Its seeds run through
//!   the core fan-out, `determinacy::multirun::analyze_many_hooked`;
//! * the `detjobs` binary — manifest/directory/suite in, streamed
//!   progress lines out, deterministic JSON report written at the end.
//!
//! ## Determinism guarantee
//!
//! Three mechanisms compose to make batch output scheduling-independent:
//! results land in slots indexed by submission order (never by completion
//! order); per-job seed combination happens in seed order on the worker;
//! and the fact export is totally ordered. Worker count changes
//! wall-clock time and nothing else.
//!
//! ## One attempt per job
//!
//! A job is a pure function of its source, config and seeds, so a failed
//! job is never retried: a rerun would reproduce the failure. Each job
//! runs once under `catch_unwind`; a panic becomes a `panicked` row and
//! the pool keeps draining. Per-run deadlines and memory budgets are
//! enforced cooperatively inside each seed run, so no watchdog sits
//! above them.
//!
//! ## Threading model
//!
//! Analysis graphs intern strings with `Rc<str>`, so a job builds its
//! whole graph (parse → lower → run → combine) inside one worker thread
//! and renders its report row there. The row, an owned JSON value, is all
//! that crosses back through the pool's result slots: no graph crosses
//! threads, so no `Send` wrapper is needed.

#![forbid(unsafe_code)]

pub mod admission;
pub mod batch;
#[cfg(feature = "fault-inject")]
pub mod chaos;
pub mod checkpoint;
pub mod pipeline;
pub mod pool;
pub mod spec;

pub use admission::AdmissionController;
pub use batch::{
    run_manifest, run_manifest_with, BatchOptions, BatchOutcome, JobRecord, JobStatus,
};
pub use checkpoint::{job_key, Checkpoint};
pub use pipeline::{Page, PtaMode, PtaStage, StageKeys, StageRequest};
pub use pool::{JobCtx, JobEvent, JobPool, JobVerdict};
pub use spec::{JobSpec, Manifest};
