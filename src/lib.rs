//! Umbrella crate for the Dynamic Determinacy Analysis reproduction.
//!
//! This crate hosts the cross-crate integration tests (`tests/`) and the
//! runnable examples (`examples/`). The actual functionality lives in the
//! workspace crates; see `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]

pub use determinacy;
pub use mujs_corpus;
pub use mujs_dom;
pub use mujs_gen;
pub use mujs_interp;
pub use mujs_ir;
pub use mujs_pta;
pub use mujs_specialize;
pub use mujs_syntax;
