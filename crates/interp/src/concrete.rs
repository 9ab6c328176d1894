//! The concrete domain: `()` annotations and no-op hooks, so the machine
//! monomorphized over it is the plain concrete interpreter ([`Interp`]).
//!
//! Its only state is cooperative cancellation. (The heap trace behind
//! dynamic shortcuts is recorded by the instrumented domain, during the
//! analysis runs themselves.)

use crate::domain::{Domain, Limits, Stop};
use crate::machine::Machine;
use crate::values::{ScopeId, Slot, Value};
use mujs_ir::Sym;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The concrete interpreter: the machine over the [`Concrete`] domain.
pub type Interp<'p> = Machine<'p, Concrete>;

// The zero-cost claim, checked at build time: concrete annotations carry
// nothing, so a concrete slot is exactly a value.
const _: () = assert!(std::mem::size_of::<<Concrete as Domain>::Flag>() == 0);
const _: () = assert!(std::mem::size_of::<<Concrete as Domain>::Ann>() == 0);
const _: () =
    assert!(std::mem::size_of::<Slot<<Concrete as Domain>::Ann>>() == std::mem::size_of::<Value>());

/// Fatal outcomes of a concrete run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// An uncaught JavaScript exception.
    Thrown(Value),
    /// The configured step budget was exhausted.
    StepLimit,
    /// `return`/`break`/`continue` escaped its legal context (e.g. a
    /// `return` inside eval code).
    IllegalCompletion,
    /// The run was cancelled through [`InterpOptions::cancel`].
    Cancelled,
    /// The wall-clock deadline ([`InterpOptions::deadline_ms`]) elapsed.
    Deadline,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Thrown(v) => write!(f, "uncaught exception: {}", v.kind_str()),
            RunError::StepLimit => write!(f, "step limit exceeded"),
            RunError::IllegalCompletion => write!(f, "illegal abrupt completion"),
            RunError::Cancelled => write!(f, "run cancelled"),
            RunError::Deadline => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

impl std::error::Error for RunError {}

/// Configuration of a concrete run.
#[derive(Debug, Clone)]
pub struct InterpOptions {
    /// Seed for `Math.random` (the analysis' canonical indeterminate
    /// input); re-randomize across runs to explore executions.
    pub seed: u64,
    /// Statement budget; exceeded ⇒ [`RunError::StepLimit`].
    pub max_steps: u64,
    /// Record per-statement `(point, context, value)` observations for the
    /// soundness harness.
    pub record_observations: bool,
    /// Cap on recorded observations.
    pub max_observations: usize,
    /// Cooperative cancellation flag, polled every
    /// [`InterpOptions::poll_interval`] statements; setting it makes the
    /// run stop with [`RunError::Cancelled`] at a statement boundary.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Wall-clock budget in milliseconds, measured from machine
    /// construction; elapsing ⇒ [`RunError::Deadline`].
    pub deadline_ms: Option<u64>,
    /// Statements between cancellation/deadline polls (clamped to ≥ 1).
    pub poll_interval: u64,
}

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            seed: 0xD5EA51DE,
            max_steps: 20_000_000,
            record_observations: false,
            max_observations: 2_000_000,
            cancel: None,
            deadline_ms: None,
            poll_interval: 1024,
        }
    }
}

/// The concrete domain's state.
#[derive(Debug)]
pub struct Concrete {
    cancel: Option<Arc<AtomicBool>>,
}

impl Domain for Concrete {
    type Flag = ();
    type V = Value;
    type Ann = ();
    type Err = RunError;
    type Config = InterpOptions;
    type Outcome = Result<(), RunError>;

    fn init(opts: InterpOptions) -> (Self, Limits) {
        let limits = Limits {
            seed: opts.seed,
            max_steps: opts.max_steps,
            poll_interval: opts.poll_interval,
            deadline_ms: opts.deadline_ms,
            record_observations: opts.record_observations,
            max_observations: opts.max_observations,
        };
        let domain = Concrete {
            cancel: opts.cancel,
        };
        (domain, limits)
    }

    fn outcome(r: Result<(), RunError>) -> Result<(), RunError> {
        r
    }

    fn thrown(v: Value, _indet_ctl: bool) -> RunError {
        RunError::Thrown(v)
    }

    fn as_thrown(e: &RunError) -> Option<(&Value, bool)> {
        match e {
            RunError::Thrown(v) => Some((v, false)),
            _ => None,
        }
    }

    fn stop(s: Stop) -> RunError {
        match s {
            Stop::StepLimit => RunError::StepLimit,
            Stop::Cancelled => RunError::Cancelled,
            Stop::Deadline => RunError::Deadline,
            Stop::IllegalCompletion => RunError::IllegalCompletion,
        }
    }

    fn poll(m: &mut Interp<'_>) -> Result<(), RunError> {
        if m.domain
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
        {
            return Err(RunError::Cancelled);
        }
        if m.deadline_passed() {
            return Err(RunError::Deadline);
        }
        Ok(())
    }

    #[inline(always)]
    fn ann(_: &Interp<'_>, _: ()) {}
    #[inline(always)]
    fn prop_flag(_: &Interp<'_>, _: &()) {}
    #[inline(always)]
    fn var_flag(_: &Interp<'_>, _: ScopeId, _: Sym, _: &()) {}
}
