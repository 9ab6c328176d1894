//! # mujs-pta
//!
//! A flow-insensitive, field-sensitive, Andersen-style points-to analysis
//! with on-the-fly call-graph construction for the muJS IR — the
//! reproduction's stand-in for the WALA JavaScript analysis the paper
//! builds on \[30\].
//!
//! Dynamic property accesses with statically unknown names smear values
//! through per-object ⋆-nodes, which is the scalability cliff Table 1
//! demonstrates; running the same solver over a determinacy-specialized
//! program (see `mujs-specialize`) removes the smearing. "Timeouts" are a
//! deterministic propagation-work budget, making the ✓/✗ shape of Table 1
//! reproducible on any machine.
//!
//! One sequential difference-propagating driver ([`solve`]) runs every
//! configuration — plain, fact-injected, provenance-tracking
//! ([`blame`]) and shortcut-summarized ([`shortcut`]) — so a
//! budget-truncated result is the same partial solution whichever side
//! channels are on. [`solve_reference`] is the naive oracle the
//! equivalence tests compare it against.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), mujs_syntax::SyntaxError> {
//! use mujs_pta::{solve, PtaConfig, PtaStatus};
//! let ast = mujs_syntax::parse("function f() { return {}; } var o = f();")?;
//! let prog = mujs_ir::lower_program(&ast);
//! let result = solve(&prog, &PtaConfig::default());
//! assert_eq!(result.status, PtaStatus::Completed);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod blame;
pub mod nodes;
pub mod pts;
pub mod reference;
pub mod shortcut;
pub mod solver;

pub use blame::{BlameCause, BlameData};
pub use mujs_ir::hash;
pub use nodes::{AbsObj, Node};
pub use reference::solve_reference;
pub use shortcut::{RegionSummary, ShortcutSummaries};
pub use solver::{solve, InjectedFacts, PtaConfig, PtaPrecision, PtaResult, PtaStats, PtaStatus};
