//! Shared experiment plumbing: dynamic analysis over a page (script +
//! document + event plan), specialization, and budgeted pointer analysis.

use determinacy::{
    supervised_analyze_dom, AnalysisConfig, AnalysisOutcome, AnalysisStatus, RunFailure, RunHooks,
};
use mujs_corpus::jquery_like::JQueryLike;
use mujs_dom::document::Document;
use mujs_dom::events::EventPlan;
use mujs_ir::Program;
use mujs_pta::{PtaConfig, PtaStatus};
use mujs_specialize::{SpecConfig, SpecReport};
use mujs_syntax::SyntaxError;

/// Why a pipeline run failed: the page's script did not parse, or the
/// analysis engine failed (panics are isolated by the run supervisor and
/// surface as [`RunFailure`] instead of aborting the experiment binary).
#[derive(Debug)]
pub enum PipelineError {
    /// The corpus program did not parse.
    Syntax(SyntaxError),
    /// The supervised analysis run failed.
    Analysis(RunFailure),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Syntax(e) => write!(f, "parse failed: {e}"),
            PipelineError::Analysis(e) => write!(f, "analysis failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SyntaxError> for PipelineError {
    fn from(e: SyntaxError) -> Self {
        PipelineError::Syntax(e)
    }
}

impl From<RunFailure> for PipelineError {
    fn from(e: RunFailure) -> Self {
        PipelineError::Analysis(e)
    }
}

/// The deterministic stand-in for the paper's 10-minute timeout: a
/// propagation-work budget that separates the corpus's tractable and
/// intractable configurations by a wide margin.
pub const TABLE1_PTA_BUDGET: u64 = 150_000;

/// The `detbench` comparison budget. Raised from
/// [`TABLE1_PTA_BUDGET`] when the delta-propagating solver landed: the
/// uninjected baseline reaches its true fixpoint (~930k propagations on
/// jQuery 1.0–1.3) well inside this budget, so the comparison measures
/// real fixpoints instead of budget-cap noise. Table 1 keeps the tight
/// budget — its ✓/✗ shape *is* the starvation the paper reports.
pub const PTA_COMPARE_BUDGET: u64 = 2_000_000;

/// Outcome of one full pipeline run.
#[derive(Debug)]
pub struct PipelineResult {
    /// The dynamic analysis outcome.
    pub analysis: AnalysisOutcome,
    /// The specializer report (`None` for baseline runs).
    pub spec_report: Option<SpecReport>,
    /// The program handed to the pointer analysis.
    pub pta_program: Program,
    /// PTA completion status.
    pub pta_status: PtaStatus,
    /// PTA propagation work.
    pub pta_work: u64,
}

/// Runs the instrumented analysis over a page under the run supervisor:
/// parse errors and engine panics come back as [`PipelineError`] values.
///
/// # Errors
///
/// [`PipelineError::Syntax`] for malformed input,
/// [`PipelineError::Analysis`] when the supervised run fails.
pub fn analyze_page(
    src: &str,
    doc: &Document,
    plan: &EventPlan,
    cfg: AnalysisConfig,
) -> Result<(determinacy::driver::DetHarness, AnalysisOutcome), PipelineError> {
    let mut h = determinacy::driver::DetHarness::from_src(src)?;
    let out = supervised_analyze_dom(&mut h, cfg, doc.clone(), plan, &RunHooks::supervised())?;
    Ok((h, out))
}

/// Full Spec pipeline: instrumented run → specializer → budgeted PTA.
/// With `spec: false` the specializer is skipped (Baseline).
///
/// # Errors
///
/// Propagates [`PipelineError`] from [`analyze_page`].
pub fn spec_pipeline(
    src: &str,
    doc: &Document,
    plan: &EventPlan,
    det_dom: bool,
    spec: bool,
    pta_budget: u64,
) -> Result<PipelineResult, PipelineError> {
    let cfg = AnalysisConfig {
        det_dom,
        ..Default::default()
    };
    let (h, mut analysis) = analyze_page(src, doc, plan, cfg)?;
    let (pta_program, spec_report) = if spec {
        let s = mujs_specialize::specialize(
            &h.program,
            &analysis.facts,
            &mut analysis.ctxs,
            &SpecConfig::default(),
        );
        (s.program, Some(s.report))
    } else {
        (h.program.clone(), None)
    };
    let pta = mujs_pta::solve(
        &pta_program,
        &PtaConfig {
            budget: pta_budget,
            ..Default::default()
        },
    );
    Ok(PipelineResult {
        analysis,
        spec_report,
        pta_program,
        pta_status: pta.status,
        pta_work: pta.stats.propagations,
    })
}

/// One Table 1 row.
#[derive(Debug)]
pub struct Table1Row {
    /// Version label.
    pub version: &'static str,
    /// Baseline PTA completed within budget.
    pub baseline_ok: bool,
    /// Baseline PTA work.
    pub baseline_work: u64,
    /// Spec PTA completed.
    pub spec_ok: bool,
    /// Spec PTA work.
    pub spec_work: u64,
    /// Heap flushes of the plain dynamic analysis.
    pub spec_flushes: u32,
    /// Whether the plain dynamic analysis hit the flush cap.
    pub spec_capped: bool,
    /// Spec+DetDOM PTA completed.
    pub detdom_ok: bool,
    /// Spec+DetDOM PTA work.
    pub detdom_work: u64,
    /// Heap flushes of the DetDOM dynamic analysis.
    pub detdom_flushes: u32,
    /// Whether the DetDOM analysis hit the flush cap.
    pub detdom_capped: bool,
}

impl Table1Row {
    /// Renders the paper's `3 (82)` / `7 (>1000)` cell format.
    pub fn cell(ok: bool, flushes: Option<(u32, bool)>) -> String {
        let mark = if ok { "✓" } else { "✗" };
        match flushes {
            Some((n, capped)) => {
                if capped {
                    format!("{mark} (>1000)")
                } else {
                    format!("{mark} ({n})")
                }
            }
            None => mark.to_owned(),
        }
    }
}

/// Runs the full Table 1 experiment for one corpus version.
///
/// # Errors
///
/// Propagates the first [`PipelineError`] from the three configurations.
pub fn run_table1(v: &JQueryLike, pta_budget: u64) -> Result<Table1Row, PipelineError> {
    let baseline = spec_pipeline(&v.src, &v.doc, &v.plan, false, false, pta_budget)?;
    let spec = spec_pipeline(&v.src, &v.doc, &v.plan, false, true, pta_budget)?;
    let detdom = spec_pipeline(&v.src, &v.doc, &v.plan, true, true, pta_budget)?;
    Ok(Table1Row {
        version: v.version,
        baseline_ok: baseline.pta_status == PtaStatus::Completed,
        baseline_work: baseline.pta_work,
        spec_ok: spec.pta_status == PtaStatus::Completed,
        spec_work: spec.pta_work,
        spec_flushes: spec.analysis.stats.heap_flushes,
        spec_capped: spec.analysis.status == AnalysisStatus::FlushCapReached,
        detdom_ok: detdom.pta_status == PtaStatus::Completed,
        detdom_work: detdom.pta_work,
        detdom_flushes: detdom.analysis.stats.heap_flushes,
        detdom_capped: detdom.analysis.status == AnalysisStatus::FlushCapReached,
    })
}

/// One PTA run of the three-way precision comparison.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PtaModeRow {
    /// Completed within budget.
    pub ok: bool,
    /// Propagation work (deterministic).
    pub work: u64,
    /// Call sites with at least one resolved target.
    pub call_sites: usize,
    /// Call sites with more than one canonical target.
    pub poly_sites: usize,
    /// Mean points-to set size over non-empty variable nodes.
    pub avg_points_to: f64,
    /// Distinct canonical functions reached through calls.
    pub reachable_funcs: usize,
}

/// Runs one solve and produces its comparison row.
fn mode_row(prog: &Program, cfg: &PtaConfig) -> PtaModeRow {
    let r = mujs_pta::solve(prog, cfg);
    let p = r.precision(prog);
    PtaModeRow {
        ok: r.status == PtaStatus::Completed,
        work: r.stats.propagations,
        call_sites: p.call_sites,
        poly_sites: p.poly_sites,
        avg_points_to: p.avg_points_to,
        reachable_funcs: p.reachable_funcs,
    }
}

/// One ranked root-cause column of a comparison row: a blame cause of
/// the uninjected baseline solve, as distilled by
/// [`mujs_analysis::blame_report`] from a provenance-enabled solve.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RootCauseCol {
    /// Human-readable cause label (e.g. `star-smear(Alloc(StmtId(12)))`).
    pub label: String,
    /// Cause kind slug (`star-smear`, `eval`, `native`, …).
    pub kind: String,
    /// Points-to tuples this cause is blamed for.
    pub tuples: u64,
    /// Fact-injection sites suggested to remove the cause.
    pub suggestions: usize,
}

/// Baseline vs fact-injected vs specialized PTA over one corpus version:
/// the evidence that injecting determinacy facts into the solver recovers
/// the precision of the paper's source-rewriting pipeline.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PtaCompareRow {
    /// Corpus version label.
    pub version: String,
    /// Facts available for injection (agreeing-across-contexts sites).
    pub injected_sites: usize,
    /// Plain solver, original program.
    pub baseline: PtaModeRow,
    /// Plain program, facts injected into the solver.
    pub injected: PtaModeRow,
    /// Specialized (source-rewritten) program, plain solver.
    pub specialized: PtaModeRow,
    /// Top baseline imprecision root causes (provenance-enabled delta
    /// solve; ranked by blamed tuple count).
    pub root_causes: Vec<RootCauseCol>,
}

/// Runs the three-way PTA comparison for one corpus version. Uses the
/// DetDOM configuration (the paper's most deterministic setting) so the
/// dynamic run yields the richest fact set for both consumers.
///
/// # Errors
///
/// Propagates [`PipelineError`] from [`analyze_page`].
pub fn run_pta_compare(v: &JQueryLike, pta_budget: u64) -> Result<PtaCompareRow, PipelineError> {
    let cfg = AnalysisConfig {
        det_dom: true,
        ..Default::default()
    };
    let (h, mut analysis) = analyze_page(&v.src, &v.doc, &v.plan, cfg)?;
    let mut prog = h.program;
    let facts = determinacy::injectable_facts(&analysis.facts, &mut prog);
    let injected_sites = facts.len();

    let base_cfg = PtaConfig {
        budget: pta_budget,
        ..Default::default()
    };
    let baseline = mode_row(&prog, &base_cfg);
    let inj_cfg = PtaConfig {
        budget: pta_budget,
        facts: Some(facts),
        ..Default::default()
    };
    let injected = mode_row(&prog, &inj_cfg);
    let spec = mujs_specialize::specialize(
        &prog,
        &analysis.facts,
        &mut analysis.ctxs,
        &SpecConfig::default(),
    );
    let specialized = mode_row(&spec.program, &base_cfg);
    // Root causes describe the *baseline program's* imprecision.
    let root_causes = root_cause_cols(&prog, pta_budget, 3);

    Ok(PtaCompareRow {
        version: v.version.to_owned(),
        injected_sites,
        baseline,
        injected,
        specialized,
        root_causes,
    })
}

/// Ranks the baseline imprecision root causes of `prog` via one
/// provenance-enabled delta solve at `budget`, keeping the top `top_k`.
pub fn root_cause_cols(prog: &Program, budget: u64, top_k: usize) -> Vec<RootCauseCol> {
    let cfg = PtaConfig {
        budget,
        provenance: true,
        ..Default::default()
    };
    let r = mujs_pta::solve(prog, &cfg);
    mujs_analysis::blame_report(prog, &r, top_k)
        .map(|report| {
            report
                .causes
                .iter()
                .map(|c| RootCauseCol {
                    label: c.cause.label(),
                    kind: c.cause.kind().to_owned(),
                    tuples: c.tuples,
                    suggestions: c.suggestions.len(),
                })
                .collect()
        })
        .unwrap_or_default()
}

/// One row of the shortcut comparison: injection-only vs
/// injection+shortcuts at the tight Table 1 budget, the evidence that
/// fast-forwarding determinate regions past constraint generation
/// completes where flat fact injection starves.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ShortcutCompareRow {
    /// Corpus version label.
    pub version: String,
    /// Determinate regions the extractor selected.
    pub candidates: usize,
    /// Regions that survived replay and carry a summary.
    pub regions: usize,
    /// Total points-to tuples across all summaries.
    pub tuples: usize,
    /// The replay degraded (summaries dropped, ordinary analysis).
    pub degraded: bool,
    /// Fact injection only (the PR 4 mode) at the same budget.
    pub injected: PtaModeRow,
    /// Fact injection plus region summaries.
    pub shortcut: PtaModeRow,
}

/// Runs the shortcut comparison for one corpus version at `pta_budget`
/// (the Table 1 budget, where injection-only starves on the heavy
/// versions). Both solves share one dynamic-analysis run and one
/// injectable-fact set; the shortcut solve additionally carries the
/// replayed region summaries.
///
/// # Errors
///
/// Propagates [`PipelineError`] from [`analyze_page`].
pub fn run_shortcut_compare(
    v: &JQueryLike,
    pta_budget: u64,
) -> Result<ShortcutCompareRow, PipelineError> {
    let cfg = AnalysisConfig {
        det_dom: true,
        ..Default::default()
    };
    let (h, analysis) = analyze_page(&v.src, &v.doc, &v.plan, cfg.clone())?;
    let mut prog = h.program;
    let facts = determinacy::injectable_facts(&analysis.facts, &mut prog);
    let sums =
        determinacy::shortcut_summaries(&v.src, &v.doc, &v.plan, &cfg, &analysis.facts, &mut prog);

    let inj_cfg = PtaConfig {
        budget: pta_budget,
        facts: Some(facts.clone()),
        ..Default::default()
    };
    let injected = mode_row(&prog, &inj_cfg);
    let sc_cfg = PtaConfig {
        budget: pta_budget,
        facts: Some(facts),
        shortcuts: Some(std::sync::Arc::new(sums.summaries.clone())),
        ..Default::default()
    };
    let shortcut = mode_row(&prog, &sc_cfg);

    Ok(ShortcutCompareRow {
        version: v.version.to_owned(),
        candidates: sums.candidates,
        regions: sums.summaries.len(),
        tuples: sums.summaries.tuple_count(),
        degraded: sums.degraded,
        injected,
        shortcut,
    })
}

/// One row of the §5.2 eval study.
#[derive(Debug)]
pub struct EvalElimRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Whether all evals were eliminated (plain).
    pub plain_ok: bool,
    /// Whether all evals were eliminated (DetDOM).
    pub detdom_ok: bool,
    /// Evals surviving in the plain configuration.
    pub plain_remaining: usize,
}

/// Runs one eval benchmark through analyze → specialize and reports
/// whether every `eval` site was specialized away, plus the count of
/// surviving sites. A benchmark whose analysis fails (parse error, engine
/// panic) counts as "not handled" rather than killing the study.
pub fn eliminate(b: &mujs_corpus::evalbench::EvalBenchmark, det_dom: bool) -> (bool, usize) {
    let cfg = AnalysisConfig {
        det_dom,
        ..Default::default()
    };
    let doc = b.doc();
    let plan = b.plan();
    let (h, mut out) = match analyze_page(&b.src, &doc, &plan, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", b.name);
            return (false, 0);
        }
    };
    let spec = mujs_specialize::specialize(
        &h.program,
        &out.facts,
        &mut out.ctxs,
        &SpecConfig::default(),
    );
    // Per-site aggregation over all rewrite visits: a site counts as
    // specialized when every visit eliminated it or erased it with dead
    // code; a site with no events was never reached by the dynamic run
    // (the paper's "not covered" category) and counts as a failure.
    use mujs_specialize::EvalStatus;
    use std::collections::HashMap;
    let mut per_site: HashMap<mujs_ir::StmtId, bool> = HashMap::new();
    for (site, st) in &spec.report.eval_events {
        let ok = matches!(st, EvalStatus::Eliminated | EvalStatus::DeadCode);
        per_site
            .entry(*site)
            .and_modify(|v| *v = *v && ok)
            .or_insert(ok);
    }
    let mut failures = 0usize;
    for f in &h.program.funcs {
        mujs_ir::Program::walk_block(&f.body, &mut |s| {
            if matches!(s.kind, mujs_ir::StmtKind::Eval { .. })
                && !matches!(per_site.get(&s.id), Some(true))
            {
                failures += 1;
            }
        });
    }
    (failures == 0, failures)
}

/// Runs the §5.2 study for one benchmark under both configurations.
pub fn run_eval_elim(b: &mujs_corpus::evalbench::EvalBenchmark) -> EvalElimRow {
    let (plain_ok, plain_remaining) = eliminate(b, false);
    let (detdom_ok, _) = eliminate(b, true);
    EvalElimRow {
        name: b.name,
        plain_ok,
        detdom_ok,
        plain_remaining,
    }
}

/// Pool-backed Table 1: one job per corpus version, results in version
/// order regardless of worker count (the rows carry no timing data, so
/// the table itself is scheduling-independent; only the bracketed PTA
/// work figures could vary with machine load, and those are
/// deterministic too since the PTA is budget- not time-bounded).
pub fn run_table1_pooled(
    versions: Vec<JQueryLike>,
    pta_budget: u64,
    pool: &mujs_jobs::JobPool,
) -> Vec<Result<Table1Row, PipelineError>> {
    let jobs: Vec<(String, _)> = versions
        .into_iter()
        .map(|v| {
            let label = format!("table1-{}", v.version);
            (label, move |ctx: &mujs_jobs::JobCtx| {
                let row = run_table1(&v, pta_budget);
                ctx.progress(format!("version {} done", v.version));
                row
            })
        })
        .collect();
    pool.run(jobs)
        .into_iter()
        .map(|verdict| match verdict {
            mujs_jobs::JobVerdict::Done(r) => r,
            mujs_jobs::JobVerdict::Panicked(p) => {
                Err(PipelineError::Analysis(RunFailure::EnginePanic {
                    payload: p,
                    steps: 0,
                    seed: 0,
                }))
            }
            mujs_jobs::JobVerdict::Cancelled => {
                Err(PipelineError::Analysis(RunFailure::Cancelled { seed: 0 }))
            }
        })
        .collect()
}

/// Pool-backed §5.2 study: one job per runnable benchmark, rows in
/// benchmark order regardless of worker count.
pub fn run_eval_elim_pooled(
    benchmarks: Vec<mujs_corpus::evalbench::EvalBenchmark>,
    pool: &mujs_jobs::JobPool,
) -> Vec<Option<EvalElimRow>> {
    let jobs: Vec<(String, _)> = benchmarks
        .into_iter()
        .map(|b| {
            let label = format!("eval-elim-{}", b.name);
            (label, move |_ctx: &mujs_jobs::JobCtx| run_eval_elim(&b))
        })
        .collect();
    pool.run(jobs)
        .into_iter()
        .map(mujs_jobs::JobVerdict::into_done)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_smoke_on_lazy_version() {
        // jQuery-like 1.2 is the cheap one; exercise all three configs.
        let v = mujs_corpus::jquery_like::v1_2();
        let row = run_table1(&v, TABLE1_PTA_BUDGET).expect("pipeline runs");
        assert!(row.baseline_ok && row.spec_ok && row.detdom_ok);
        assert!(row.spec_capped, "1.2 plain hits the flush cap");
        assert_eq!(row.detdom_flushes, 0);
    }

    #[test]
    fn cell_rendering_matches_paper_format() {
        assert_eq!(Table1Row::cell(true, Some((82, false))), "✓ (82)");
        assert_eq!(Table1Row::cell(false, Some((1001, true))), "✗ (>1000)");
        assert_eq!(Table1Row::cell(true, None), "✓");
    }
}
