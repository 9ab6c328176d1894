//! # mujs-syntax
//!
//! Frontend for the muJS JavaScript subset used throughout the Dynamic
//! Determinacy Analysis reproduction: a lexer, a recursive-descent parser,
//! the AST, and a pretty-printer.
//!
//! The subset covers the features the paper's analysis targets —
//! first-class functions and closures, object/array literals, prototype
//! chains via `new`/`this`, dynamic property accesses, `typeof`, `for-in`,
//! `try`/`catch`/`throw`, and `eval` — while omitting features the paper's
//! own prototype also excluded (implicit `toString`/`valueOf` conversions,
//! getters/setters, labels, regular-expression literals).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), mujs_syntax::SyntaxError> {
//! let program = mujs_syntax::parse("var x = { f: 23 }; x.g = x.f + 19;")?;
//! let printed = mujs_syntax::pretty::print_program(&program);
//! assert!(printed.contains("x.g = x.f + 19;"));
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;

pub use error::{SyntaxError, SyntaxErrorKind};
pub use parser::{
    parse, parse_expr, parse_inline, parse_with, with_parser_stack, INLINE_NESTING, MAX_NESTING,
    PARSER_STACK_BYTES,
};
pub use span::{SourceFile, Span};
