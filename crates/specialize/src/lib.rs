//! # mujs-specialize
//!
//! The determinacy-fact-driven program specializer of §2.2/§5.1 and the
//! eval eliminator of §2.3/§5.2: branch pruning under determinately-false
//! conditions, dynamic→static property accesses, loop unrolling under
//! determinate iteration bounds, per-context function cloning (≤ 4
//! levels), and replacement of `eval` calls whose argument string is
//! determinate with statically parsed, inlined code.
//!
//! Feed the output program to `mujs-pta` to reproduce the paper's *Spec*
//! configurations.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), mujs_syntax::SyntaxError> {
//! use determinacy::driver::DetHarness;
//! use mujs_specialize::{specialize, SpecConfig};
//! let mut h = DetHarness::from_src("var k = \"a\" + \"b\"; var o = {}; o[k] = 1;")?;
//! let mut out = h.analyze(Default::default());
//! let spec = specialize(&h.program, &out.facts, &mut out.ctxs, &SpecConfig::default());
//! assert_eq!(spec.report.keys_staticized, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod spec;

pub use spec::{specialize, EvalStatus, SpecConfig, SpecReport, Specialized};
