//! # mujs-interp
//!
//! The µJS interpreter core: one big-step [`Machine`] over the muJS subset
//! (closures with scope chains, prototype chains, `this`/`new`,
//! exceptions, `for-in`, direct and indirect `eval`, and DOM bindings over
//! the [`mujs_dom`] substrate), generic over an annotation [`Domain`].
//!
//! * [`Interp`] is the machine over the [`concrete::Concrete`] domain —
//!   the trace semantics of the paper's Figure 8, with optional heap
//!   tracing for dynamic shortcuts.
//! * The `determinacy` crate's `DMachine` is the same machine over its
//!   instrumented domain — the rules of Figure 9.
//!
//! Every statement rule, the heap, scopes, property operations, calls,
//! polling and the native table ([`natives`], [`dom_binding`]) exist
//! once, so both machines agree on concrete behavior by construction —
//! the property the soundness theorem is stated over.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), mujs_interp::driver::DriveError> {
//! let output = mujs_interp::driver::run_src(
//!     "var x = { f: 23 }; x.g = x.f + 19; console.log(x.g);",
//! )?;
//! assert_eq!(output, vec!["42"]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod coerce;
pub mod concrete;
pub mod context;
pub mod dom_binding;
pub mod domain;
pub mod driver;
pub mod machine;
pub mod natives;
pub mod stdlib;
pub mod values;

pub use concrete::{HeapTrace, Interp, InterpOptions, RunError, TraceAbs, TraceCall, TraceConfig};
pub use context::{ContextTable, CtxId};
pub use domain::{AnnValue, Domain, Flag, Flow, Observation};
pub use driver::{run_src, DriveError, Harness, Outcome};
pub use machine::{Frame, Machine, MAX_CALL_DEPTH};
pub use values::{NativeId, ObjClass, ObjId, Object, PropMap, ScopeId, Slot, Value};
