//! Configuration and outcome types for the determinacy analysis.

use serde::{Deserialize, Serialize};

/// Tunables of the instrumented machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Seed for `Math.random` (the indeterminate input source).
    pub seed: u64,
    /// Statement budget for the whole run.
    pub max_steps: u64,
    /// The paper's counterfactual nesting cut-off `k` (rule ĈNTRABORT
    /// fires beyond it).
    pub cf_depth_k: u32,
    /// Per-counterfactual statement budget; exceeding it aborts that
    /// counterfactual (undo + flush + mark `vd`), guaranteeing the
    /// analysis terminates whenever the concrete program does.
    pub cf_step_budget: u64,
    /// Stop analysing after this many heap flushes ("we stop the dynamic
    /// analysis after 1000 heap flushes", §5.1). `None` disables the cap.
    pub flush_cap: Option<u32>,
    /// The unsound determinate-DOM assumption of §5.1: DOM reads and DOM
    /// function results become determinate.
    pub det_dom: bool,
    /// Ablation switch: disable counterfactual execution entirely —
    /// indeterminate-false branches then always take the conservative
    /// ĈNTRABORT path.
    pub counterfactual: bool,
    /// Whether to populate the fact database.
    pub collect_facts: bool,
    /// Fact-database size cap, applied to point facts and to loop trip
    /// facts alike (0 = unlimited).
    pub max_facts: usize,
    /// Record `(point, ctx, value, det)` observations for the soundness
    /// harness.
    pub record_observations: bool,
    /// Cap on recorded observations.
    pub max_observations: usize,
    /// Wall-clock budget for the run in milliseconds. When it elapses the
    /// machine stops cooperatively with [`AnalysisStatus::Deadline`],
    /// keeping the sound fact prefix. `None` disables the deadline.
    pub deadline_ms: Option<u64>,
    /// Budget on live heap cells (objects plus property slots). Exceeding
    /// it stops the run with [`AnalysisStatus::MemLimit`], keeping the
    /// sound fact prefix. `None` disables the budget.
    pub mem_cell_budget: Option<u64>,
    /// How many statements execute between deadline/cancellation polls.
    /// Values are clamped to at least 1. Small values tighten deadline
    /// precision at a small per-statement cost.
    pub poll_interval: u64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            seed: 0xD5EA51DE,
            max_steps: 20_000_000,
            cf_depth_k: 8,
            cf_step_budget: 200_000,
            flush_cap: Some(1000),
            det_dom: false,
            counterfactual: true,
            collect_facts: true,
            max_facts: 0,
            record_observations: false,
            max_observations: 2_000_000,
            deadline_ms: None,
            mem_cell_budget: None,
            poll_interval: 1024,
        }
    }
}

/// Why an analysis run ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnalysisStatus {
    /// The program ran to completion.
    Completed,
    /// An uncaught exception ended the run (facts so far remain sound).
    UncaughtException,
    /// The step budget ran out.
    StepLimit,
    /// The flush cap fired and the analysis stopped early (facts so far
    /// remain sound).
    FlushCapReached,
    /// The wall-clock deadline elapsed; the run stopped cooperatively at a
    /// statement boundary (facts so far remain sound).
    Deadline,
    /// The run was cancelled from outside through a
    /// [`crate::supervisor::CancelToken`] (facts so far remain sound).
    Cancelled,
    /// The live heap-cell budget was exhausted (facts so far remain
    /// sound).
    MemLimit,
}

/// Aggregate statistics of one analysis run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AnalysisStats {
    /// Heap flushes performed (the number reported in Table 1).
    pub heap_flushes: u32,
    /// Statements executed (including counterfactual ones).
    pub steps: u64,
    /// Counterfactual executions entered.
    pub counterfactuals: u64,
    /// Counterfactual executions aborted (ĈNTRABORT).
    pub cf_aborts: u64,
    /// Event handlers dispatched.
    pub handlers_fired: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AnalysisConfig::default();
        assert_eq!(c.flush_cap, Some(1000));
        assert!(c.counterfactual);
        assert!(!c.det_dom);
    }

    #[test]
    fn config_round_trips_through_json() {
        let c = AnalysisConfig {
            det_dom: true,
            ..Default::default()
        };
        let s = serde_json::to_string(&c).unwrap();
        let c2: AnalysisConfig = serde_json::from_str(&s).unwrap();
        assert!(c2.det_dom);
        assert_eq!(c2.cf_depth_k, c.cf_depth_k);
    }
}
