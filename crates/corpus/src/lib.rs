//! # mujs-corpus
//!
//! The benchmark corpus for the Table 1 and §5.2 reproductions:
//!
//! * [`jquery_like`] — four generated library versions standing in for
//!   jQuery 1.0–1.3, each engineered to exhibit the trait the paper
//!   attributes that version's result to (accessor-definition loops, DOM
//!   feature detection, lazy initialization, handler storms);
//! * [`evalbench`] — 28 programs (24 runnable) standing in for the Jensen
//!   et al. eval suite, one per reported outcome category.
//!
//! See `DESIGN.md` §2 for why these substitutions preserve the relevant
//! behavior.

#![forbid(unsafe_code)]

pub mod evalbench;
pub mod jquery_like;
