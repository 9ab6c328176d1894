//! The four workloads and the per-call counters they share.

pub mod gen_fleet;
pub mod pta_modes;
pub mod serve_edit;
pub mod table1;

use crate::runner::{run, RunOpts, RunOutcome};
use crate::trace::Tracer;
use determinacy::AnalysisOutcome;
use mujs_pta::PtaResult;
use mujs_specialize::SpecReport;

/// Workload names, in report order.
pub const NAMES: [&str; 4] = ["table1", "pta-modes", "gen-fleet", "serve-edit"];

/// Runs the workload called `name`.
///
/// # Errors
///
/// An unknown name or a failed set-up.
pub fn run_named(name: &str, opts: &RunOpts) -> Result<RunOutcome, String> {
    match name {
        "table1" => run(opts, table1::Table1::setup),
        "pta-modes" => run(opts, pta_modes::PtaModes::setup),
        "gen-fleet" => run(opts, gen_fleet::GenFleet::setup),
        "serve-edit" => run(opts, serve_edit::ServeEdit::setup),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// Counts one instrumented run (or the runs of one multi-run call).
fn count_analysis(tr: &mut Tracer, runs: &[AnalysisOutcome], facts: usize, det_facts: usize) {
    let sum = |f: fn(&AnalysisOutcome) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    tr.count("determinacy.steps", sum(|r| r.stats.steps));
    tr.count(
        "determinacy.counterfactuals",
        sum(|r| r.stats.counterfactuals),
    );
    tr.count("determinacy.cf_aborts", sum(|r| r.stats.cf_aborts));
    tr.count(
        "determinacy.heap_flushes",
        sum(|r| u64::from(r.stats.heap_flushes)),
    );
    tr.count(
        "determinacy.handlers_fired",
        sum(|r| r.stats.handlers_fired),
    );
    tr.count("determinacy.facts", facts as f64);
    tr.count("determinacy.det_facts", det_facts as f64);
}

/// Counts one specializer call.
fn count_spec(tr: &mut Tracer, r: &SpecReport) {
    tr.count("specialize.clones", r.clones as f64);
    tr.count("specialize.keys_staticized", r.keys_staticized as f64);
    tr.count("specialize.branches_pruned", r.branches_pruned as f64);
    tr.count("specialize.calls_redirected", r.calls_redirected as f64);
}

/// Counts one solve.
fn count_pta(tr: &mut Tracer, r: &PtaResult) {
    let s = &r.stats;
    tr.count("pta.propagations", s.propagations as f64);
    tr.count("pta.nodes", s.nodes as f64);
    tr.count("pta.edges", s.edges as f64);
    tr.count("pta.call_edges", s.call_edges as f64);
    tr.count("pta.scc_passes", s.scc_passes as f64);
    tr.count("pta.nodes_merged", s.nodes_merged as f64);
    tr.count("pta.injected_keys", s.injected_keys as f64);
    tr.count("pta.injected_calls", s.injected_calls as f64);
    tr.count("pta.shortcut_tuples", s.shortcut_tuples as f64);
}
