//! # mujs-bench
//!
//! Experiment harnesses regenerating the paper's evaluation artifacts:
//!
//! * `table1` (binary) — pointer-analysis scalability on the jQuery-like
//!   corpus: Baseline vs Spec vs Spec+DetDOM with heap-flush counts;
//! * `eval_elim` (binary) — the §5.2 eval-elimination study;
//! * `detbench` (binary) — writes `BENCH_pta.json`, the deterministic
//!   work and precision counts of the PTA mode comparison.
//!
//! Timing lives in the standalone `detperf` benchmark, not here.
//!
//! The [`pipeline`] module is the shared dynamic-analysis → specialize →
//! PTA plumbing.

#![forbid(unsafe_code)]

pub mod pipeline;

pub use pipeline::{
    analyze_page, eliminate, root_cause_cols, run_eval_elim, run_eval_elim_pooled, run_pta_compare,
    run_table1, run_table1_pooled, spec_pipeline, EvalElimRow, PipelineError, PipelineResult,
    PtaCompareRow, PtaModeRow, RootCauseCol, Table1Row, TABLE1_PTA_BUDGET,
};
