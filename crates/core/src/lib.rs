//! # determinacy
//!
//! Dynamic determinacy analysis — a from-scratch Rust reproduction of
//! *"Dynamic Determinacy Analysis"* (Schäfer, Sridharan, Dolby, Tip,
//! PLDI 2013).
//!
//! The analysis observes a *single* execution of a JavaScript program under
//! an instrumented semantics and infers **determinacy facts** — statements
//! `J e K ctx = v` asserting that an expression has the same value at a
//! program point (qualified by a full calling context) in *every*
//! execution. Key ingredients, all implemented here:
//!
//! * instrumented values `v!` / `v?` and the rules of Figure 9: the
//!   instrumented domain ([`machine`]) of the one µJS machine in
//!   `mujs-interp`, which writes every statement rule once for both the
//!   concrete and the instrumented semantics;
//! * O(1) heap flushes via an epoch counter (§4), with open/closed
//!   records;
//! * **counterfactual execution** of branches guarded by
//!   indeterminate-false conditions, with undo logs and the nesting
//!   cut-off `k` (rules ĈNTR / ĈNTRABORT);
//! * hand-written native models and a DOM model with the optional
//!   (unsound) `DetDOM` assumption of §5.1 — one table shared with the
//!   concrete interpreter (`mujs_interp::natives`,
//!   `mujs_interp::dom_binding`), whose instrumented effects (indeterminate
//!   sources, flushes, counterfactual aborts) are this domain's hooks;
//! * a fact database with full-call-stack contexts and per-activation
//!   occurrence indices — the paper's `24₀→15` notation ([`facts`]);
//! * an executable soundness harness for Theorem 1 ([`modeling`]);
//! * a fault-tolerant run supervisor — panic isolation, cooperative
//!   deadlines/cancellation, heap-cell budgets, and (behind the
//!   `fault-inject` feature) deterministic fault injection
//!   ([`supervisor`]).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), mujs_syntax::SyntaxError> {
//! use determinacy::driver::analyze_src;
//! let out = analyze_src(
//!     "var x = { f: 23 }, y = { f: Math.random() * 100 };",
//! )?;
//! // x.f is determinate, y.f is not; the database reflects both.
//! assert!(out.facts.det_count() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cachekey;
pub mod config;
pub mod det;
pub mod driver;
pub mod facts;
pub mod inject;
pub mod machine;
pub mod modeling;
pub mod multirun;
pub mod shortcut;
pub mod supervisor;

pub use config::{AnalysisConfig, AnalysisStats, AnalysisStatus};
pub use det::{DValue, Det, FactValue, SlotAnn};
pub use driver::{analyze_src, AnalysisOutcome, DetHarness};
pub use facts::{Fact, FactDb, FactKind, TripFact};
pub use inject::{injectable_facts, InjectablePairs};
pub use machine::{DErr, DFlow, DMachine, DObservation, Instrumented};
pub use shortcut::{determinate_regions, shortcut_summaries, PortableSummaries, ShortcutOutcome};
#[cfg(feature = "fault-inject")]
pub use supervisor::FaultPlan;
pub use supervisor::{
    supervised_analyze, supervised_analyze_dom, CancelToken, RunFailure, RunHooks,
};
