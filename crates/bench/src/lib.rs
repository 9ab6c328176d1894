//! # mujs-bench
//!
//! Experiment harnesses regenerating the paper's evaluation artifacts:
//!
//! * `table1` (binary) — pointer-analysis scalability on the jQuery-like
//!   corpus: Baseline vs Spec vs Spec+DetDOM with heap-flush counts;
//! * `eval_elim` (binary) — the §5.2 eval-elimination study;
//! * `detbench` (binary) — writes `BENCH_pta.json`, the deterministic
//!   work and precision counts of the PTA mode comparison;
//! * `detblame` (binary) — ranked imprecision root causes of the
//!   budget-starved baseline solves.
//!
//! Every one of them runs the shared [`mujs_jobs::pipeline::Pipeline`]
//! (the stage code `detjobs` and `detserved` run) over a corpus page. The
//! [`pipeline`] module holds only the experiments' row types, how each
//! row reads the pipeline's artifacts, and the provenance-enabled solve
//! the root-cause reports need. Timing lives in the standalone `detperf`
//! benchmark, not here.

#![forbid(unsafe_code)]

pub mod pipeline;
