//! # mujs-analysis
//!
//! The *static* analysis layer of the determinacy reproduction: two
//! passes over the interned three-address IR that complement the
//! paper's dynamic analysis.
//!
//! * [`validate`] — a structural linter ("detlint") checking the
//!   cross-cutting invariants the lowering pipeline, the runtime `eval`
//!   path, and the specializer are supposed to maintain: interned
//!   symbols, resolvable function/statement ids, and slot coordinates
//!   that agree byte-for-byte with the conservatism of
//!   `mujs_ir::slots::resolve_slots`. Debug builds run it automatically
//!   after every lowering.
//! * [`blame`] — root-cause triage over the pointer analysis'
//!   imprecision provenance: ranks blame causes by tuple count, maps
//!   them back to program sites, and suggests the fact injections
//!   (property keys, callees) that would remove them. Drives the
//!   `detblame` CLI.
//!
//! Every determinacy fact the pipeline consumes — in the specializer
//! and in points-to fact injection (`determinacy::injectable_facts`) —
//! comes from the dynamic `FactDb`; this crate derives none statically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blame;
pub mod validate;

pub use blame::{blame_report, BlameReport, FixKind, RootCause, Suggestion};
pub use validate::{assert_valid, validate_program, Violation};
