//! # mujs-analysis
//!
//! The *static* analysis layer of the determinacy reproduction: three
//! cooperating passes over the interned three-address IR that complement
//! the paper's dynamic analysis.
//!
//! * [`validate`] — a structural linter ("detlint") checking the
//!   cross-cutting invariants the lowering pipeline, the runtime `eval`
//!   path, and the specializer are supposed to maintain: interned
//!   symbols, resolvable function/statement ids, and slot coordinates
//!   that agree byte-for-byte with the conservatism of
//!   `mujs_ir::slots::resolve_slots`. Debug builds run it automatically
//!   after every lowering.
//! * [`cfg`] — basic-block control-flow graphs over the structured IR,
//!   with exceptional and finally-bypass edges modelled as write-domain
//!   havoc (the same `vd` the instrumented semantics uses).
//! * [`blame`] — root-cause triage over the pointer analysis'
//!   imprecision provenance: ranks blame causes by tuple count, maps
//!   them back to program sites, and suggests the fact injections
//!   (property keys, callees) that would remove them. Drives the
//!   `detblame` CLI.
//! * [`dataflow`] / [`reaching`] — intraprocedural constant propagation
//!   and reaching definitions. Constant propagation derives
//!   *statically* determinate property-key, callee, and condition facts
//!   at the same program points the dynamic analysis attaches facts to.
//!   Their one use is a soundness cross-check in
//!   `tests/static_analysis.rs`: a point the static analysis proves
//!   determinate must never carry a contradicting dynamic fact. (`detlint
//!   --dataflow` only counts them.) Fact injection into the pointer
//!   analysis reads the dynamic facts instead
//!   (`determinacy::injectable_facts`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blame;
pub mod cfg;
pub mod dataflow;
pub mod reaching;
pub mod validate;

pub use blame::{blame_report, BlameReport, FixKind, RootCause, Suggestion};
pub use cfg::{build_cfg, BasicBlock, BranchInfo, Cfg, Havoc};
pub use dataflow::{analyze_function, analyze_program, AbsVal, StaticFacts};
pub use reaching::{reaching_definitions, Def, ReachingDefs, Var};
pub use validate::{assert_valid, validate_program, Violation};
