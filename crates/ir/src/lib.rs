//! # mujs-ir
//!
//! The structured three-address IR at the heart of the reproduction — the
//! paper's µJS (Figure 5) extended with "a small number of additional
//! statement forms" (§4) — together with:
//!
//! * [`lower`]: translation from the [`mujs_syntax`] AST (hoisting,
//!   expression flattening, `for`/`for-in`/`switch`/`&&`/`?:` desugaring,
//!   direct-`eval` detection);
//! * [`vd`]: the static write-domain function `vd(s)` used by the
//!   instrumented semantics' (ĈNTRABORT) rule;
//! * [`resolve`]: static lexical name resolution for the pointer analysis
//!   and the specializer;
//! * [`pretty`]: a textual dump;
//! * [`hash`]: the Fx hasher for hot maps keyed by internal ids.
//!
//! Control flow stays structured because the dynamic determinacy analysis
//! needs the lexical extent of branches to compute write domains and to
//! roll back counterfactual execution.

#![forbid(unsafe_code)]

pub mod closure_writes;
pub mod hash;
pub mod intern;
pub mod ir;
pub mod lower;
pub mod pretty;
pub mod resolve;
pub mod slots;
pub mod vd;

pub use intern::{Interner, Sym};
pub use ir::{
    BinOp, Block, Decls, FuncId, FuncKind, Function, Place, Program, PropKey, Stmt, StmtId,
    StmtInfo, StmtKind, TempId, UnOp,
};
pub use lower::{lower_chunk, lower_program};
