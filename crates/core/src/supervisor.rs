//! Run supervision: panic isolation, cooperative cancellation, and fault
//! injection for the instrumented machine.
//!
//! The analysis is a research artifact wrapped around untrusted inputs —
//! generated programs, scraped pages, native models — so the driver layer
//! must assume any single run can fail and keep the rest of the batch
//! alive. This module provides:
//!
//! * [`CancelToken`] — a shared flag the step loop polls every
//!   [`crate::AnalysisConfig::poll_interval`] statements; cancelled runs
//!   stop with [`AnalysisStatus::Cancelled`][crate::AnalysisStatus],
//!   keeping the sound fact prefix exactly like the flush cap does.
//! * [`RunHooks`] — the supervision context handed to a run: cancellation,
//!   a live progress counter, the heap-trace switch, and (behind the
//!   `fault-inject` feature) a `FaultPlan`.
//! * [`supervised_analyze`] / [`supervised_analyze_dom`] — wrappers that
//!   catch engine panics and convert them into structured [`RunFailure`]
//!   values instead of unwinding into the caller.
//!
//! Wall-clock deadlines and heap-cell budgets are configured on
//! [`crate::AnalysisConfig`] (`deadline_ms`, `mem_cell_budget`) and are
//! enforced by the machine itself at the same polling points, so they work
//! with or without a supervisor.

use crate::config::AnalysisConfig;
use crate::driver::{AnalysisOutcome, DetHarness};
use mujs_dom::document::Document;
use mujs_dom::events::EventPlan;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A shared cancellation flag.
///
/// Clones observe the same flag; any clone may cancel. The machine polls
/// it cooperatively at statement boundaries, so cancellation stops the run
/// at a clean point with every sound fact collected so far intact.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; all clones observe it at their next poll.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Supervision context for one analysis run.
#[derive(Debug, Clone, Default)]
pub struct RunHooks {
    /// Cooperative cancellation; `None` means the run is uncancellable.
    pub cancel: Option<CancelToken>,
    /// Live statement counter, updated at every poll. Survives a panic of
    /// the machine, so the supervisor can report how far a failed run got.
    pub progress: Option<Arc<AtomicU64>>,
    /// Record the run's heap trace ([`crate::trace`]), the data source of
    /// shortcut summaries. Off by default: an untraced run records
    /// nothing and pays one branch per traced hook.
    pub trace: bool,
    /// Deterministic fault injection (testing only).
    #[cfg(feature = "fault-inject")]
    pub faults: Option<FaultPlan>,
}

impl RunHooks {
    /// Hooks with a cancel token and a progress counter installed.
    pub fn supervised() -> Self {
        RunHooks {
            cancel: Some(CancelToken::new()),
            progress: Some(Arc::new(AtomicU64::new(0))),
            trace: false,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }

    /// Hooks sharing an existing cancel token (e.g. a batch-wide token
    /// held by a job pool), with a fresh progress counter.
    pub fn with_cancel(token: CancelToken) -> Self {
        RunHooks {
            cancel: Some(token),
            progress: Some(Arc::new(AtomicU64::new(0))),
            trace: false,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }

    /// The last progress-counter reading (0 when no counter is installed).
    pub fn steps(&self) -> u64 {
        self.progress
            .as_ref()
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Replaces the fault plan (testing only).
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// A deterministic fault schedule, for crash-safety tests.
///
/// Counters are indexed from 1: `native_panic_at: Some(3)` fires on the
/// third native call of the run. Faults are injected at well-defined
/// machine points, so a given (program, seed, plan) triple always fails
/// the same way.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Make the nth native call return a thrown `Error` instead of
    /// running the native model.
    pub native_error_at: Option<u64>,
    /// Make the nth native call panic (simulates a native-model bug).
    pub native_panic_at: Option<u64>,
    /// Force every counterfactual execution to abort (ĈNTRABORT storm):
    /// the undo log must restore machine state each time.
    pub cf_abort_storm: bool,
    /// Make the nth object allocation report heap exhaustion, stopping
    /// the run with [`crate::AnalysisStatus::MemLimit`].
    pub alloc_fail_at: Option<u64>,
}

/// Mutable injection state carried by a machine under test.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    /// The schedule.
    pub plan: FaultPlan,
    /// Native calls observed so far.
    pub native_calls: u64,
    /// Allocations observed so far.
    pub allocs: u64,
}

#[cfg(feature = "fault-inject")]
impl FaultState {
    /// Wraps a plan with zeroed counters.
    pub fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            ..Default::default()
        }
    }
}

/// Why a supervised run produced no outcome.
#[derive(Debug, Clone)]
pub enum RunFailure {
    /// The engine panicked; the supervisor caught it at the run boundary.
    EnginePanic {
        /// The panic payload, when it was a string (the common case).
        payload: String,
        /// Statements executed before the panic, as last reported by the
        /// progress counter (0 when no progress hook was installed).
        steps: u64,
        /// The seed of the failed run, for reproduction.
        seed: u64,
    },
    /// The run was cancelled *before it started* (batch shutdown): it
    /// contributes no facts at all. Runs cancelled mid-flight are not
    /// failures — they end normally with
    /// [`AnalysisStatus::Cancelled`][crate::AnalysisStatus] and keep their
    /// sound fact prefix.
    Cancelled {
        /// The seed the skipped run would have used.
        seed: u64,
    },
}

impl RunFailure {
    /// The variant name, for structured failure reports.
    pub fn kind(&self) -> &'static str {
        match self {
            RunFailure::EnginePanic { .. } => "EnginePanic",
            RunFailure::Cancelled { .. } => "Cancelled",
        }
    }

    /// The seed of the affected run.
    pub fn seed(&self) -> u64 {
        match self {
            RunFailure::EnginePanic { seed, .. } | RunFailure::Cancelled { seed } => *seed,
        }
    }
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunFailure::EnginePanic {
                payload,
                steps,
                seed,
            } => write!(
                f,
                "engine panic after {steps} steps (seed {seed}): {payload}"
            ),
            RunFailure::Cancelled { seed } => {
                write!(f, "cancelled before start (seed {seed})")
            }
        }
    }
}

impl std::error::Error for RunFailure {}

fn panic_payload(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn supervise<F>(
    cfg: &AnalysisConfig,
    hooks: &RunHooks,
    run: F,
) -> Result<AnalysisOutcome, RunFailure>
where
    F: FnOnce() -> AnalysisOutcome,
{
    if let Some(p) = &hooks.progress {
        p.store(0, Ordering::Relaxed);
    }
    catch_unwind(AssertUnwindSafe(run)).map_err(|p| RunFailure::EnginePanic {
        payload: panic_payload(p),
        steps: hooks
            .progress
            .as_ref()
            .map_or(0, |c| c.load(Ordering::Relaxed)),
        seed: cfg.seed,
    })
}

/// Runs [`DetHarness::analyze_with`] under panic isolation.
///
/// # Errors
///
/// [`RunFailure::EnginePanic`] when the engine panics; the panic does not
/// propagate to the caller.
pub fn supervised_analyze(
    h: &mut DetHarness,
    cfg: AnalysisConfig,
    hooks: &RunHooks,
) -> Result<AnalysisOutcome, RunFailure> {
    let c = cfg.clone();
    supervise(&cfg, hooks, move || h.analyze_with(c, hooks))
}

/// Runs [`DetHarness::analyze_dom_with`] under panic isolation.
///
/// # Errors
///
/// [`RunFailure::EnginePanic`] when the engine panics; the panic does not
/// propagate to the caller.
pub fn supervised_analyze_dom(
    h: &mut DetHarness,
    cfg: AnalysisConfig,
    doc: Document,
    plan: &EventPlan,
    hooks: &RunHooks,
) -> Result<AnalysisOutcome, RunFailure> {
    let c = cfg.clone();
    supervise(&cfg, hooks, move || h.analyze_dom_with(c, doc, plan, hooks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t2.is_cancelled());
        t.cancel();
        assert!(t2.is_cancelled());
    }

    #[test]
    fn supervisor_passes_healthy_runs_through() {
        let mut h = DetHarness::from_src("var x = 1 + 2;").unwrap();
        let out =
            supervised_analyze(&mut h, AnalysisConfig::default(), &RunHooks::supervised()).unwrap();
        assert_eq!(out.status, crate::AnalysisStatus::Completed);
        assert!(out.facts.det_count() > 0);
    }

    #[test]
    fn supervisor_reports_failure_display() {
        let f = RunFailure::EnginePanic {
            payload: "boom".into(),
            steps: 7,
            seed: 3,
        };
        let s = f.to_string();
        assert!(
            s.contains("boom") && s.contains("7") && s.contains("3"),
            "{s}"
        );
    }
}
