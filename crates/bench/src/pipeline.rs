//! The paper's experiments as rows over the shared pipeline
//! ([`mujs_jobs::pipeline::Pipeline`]). Each experiment hands the pipeline
//! a corpus page instead of the service page and renders its row from the
//! stage artifacts `detjobs` and `detserved` produce: the analysis,
//! specialization, injection, summary and solve code is theirs. The one
//! stage of its own here is [`blame`], the provenance-enabled solve the
//! root-cause reports read.

use determinacy::{AnalysisConfig, AnalysisStatus, CancelToken, RunFailure};
use mujs_analysis::BlameReport;
use mujs_corpus::evalbench::EvalBenchmark;
use mujs_corpus::jquery_like::JQueryLike;
use mujs_dom::document::Document;
use mujs_dom::events::EventPlan;
use mujs_ir::Program;
use mujs_jobs::pipeline::{
    specialize, Page, Pipeline, PipelineCounters, PtaMode, PtaStage, StageRequest,
};
use mujs_jobs::{JobCtx, JobPool, JobVerdict};
use mujs_pta::{PtaConfig, PtaResult};
use mujs_specialize::SpecConfig;
use mujs_syntax::SyntaxError;
use serde_json::Value;

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

/// The specializer's context depth in every experiment (§5.1: "up to four
/// levels").
fn spec_depth() -> usize {
    SpecConfig::default().max_context_depth
}

/// A one-seed request for `src` on the page of `doc` and `plan`, plain or
/// DetDOM.
pub fn page_request(src: &str, doc: &Document, plan: &EventPlan, det_dom: bool) -> StageRequest {
    let cfg = AnalysisConfig {
        det_dom,
        ..Default::default()
    };
    StageRequest {
        src: src.to_owned(),
        seeds: vec![cfg.seed],
        cfg,
        page: Some(Page {
            doc: doc.clone(),
            plan: plan.clone(),
        }),
        pta: None,
    }
}

/// Runs `f` over a pipeline for `req` that counts into `counters`.
pub fn with_pipeline<R>(
    req: &StageRequest,
    counters: &PipelineCounters,
    f: impl FnOnce(&mut Pipeline<'_>) -> R,
) -> R {
    let cancel = CancelToken::new();
    f(&mut Pipeline::new(req, &cancel, counters, &|_| {}))
}

/// Runs the pipeline's one-seed fan-out: the run's heap flushes and
/// whether it hit the flush cap.
///
/// # Errors
///
/// The source's syntax error, or the failed seed run.
pub fn fan_out(p: &mut Pipeline<'_>) -> Result<(u32, bool), PipelineError> {
    let (_, multi) = p.live()?;
    if let Some(failure) = multi.failures.first() {
        return Err(PipelineError::Analysis(failure.clone()));
    }
    let run = multi
        .runs
        .first()
        .expect("a fan-out without failures has a run");
    Ok((
        run.stats.heap_flushes,
        run.status == AnalysisStatus::FlushCapReached,
    ))
}

/// The one provenance-enabled solve: solves a pipeline's `program` at
/// `budget` with provenance on and ranks its `top` imprecision root
/// causes.
pub fn blame(program: &Program, budget: u64, top: usize) -> (PtaResult, BlameReport) {
    let cfg = PtaConfig {
        budget,
        provenance: true,
        ..Default::default()
    };
    let result = mujs_pta::solve(program, &cfg);
    let report =
        mujs_analysis::blame_report(program, &result, top).expect("provenance solve carries blame");
    (result, report)
}

/// Runs `row` over `items` as one pool job each on `workers` threads. The
/// verdicts come back in item order for any worker count, so a table
/// printed from them has the same bytes for any `--workers`.
pub fn run_pooled<I: Send, R: Send>(
    items: Vec<I>,
    workers: usize,
    row: impl Fn(&I) -> R + Sync,
) -> Vec<JobVerdict<R>> {
    let row = &row;
    let jobs: Vec<(String, _)> = items
        .into_iter()
        .enumerate()
        .map(|(i, item)| (format!("row-{i}"), move |_: &JobCtx| row(&item)))
        .collect();
    JobPool::new(workers).run(jobs)
}

/// One Table 1 row.
#[derive(Debug)]
pub struct Table1Row {
    /// Version label.
    pub version: &'static str,
    /// The Baseline solve.
    pub baseline: PtaModeRow,
    /// The Spec solve.
    pub spec: PtaModeRow,
    /// Heap flushes of the plain dynamic analysis, and whether it hit the
    /// flush cap.
    pub spec_flushes: (u32, bool),
    /// The Spec+DetDOM solve.
    pub detdom: PtaModeRow,
    /// Heap flushes of the DetDOM dynamic analysis, and whether it hit the
    /// flush cap.
    pub detdom_flushes: (u32, bool),
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

/// Runs the full Table 1 experiment for one corpus version: the Baseline
/// solve needs only the parsed program, and Spec and Spec+DetDOM each
/// specialize one fan-out, so a version costs two instrumented analyses.
///
/// # Errors
///
/// The first [`PipelineError`] of the two configurations.
pub fn run_table1(
    v: &JQueryLike,
    pta_budget: u64,
    counters: &PipelineCounters,
) -> Result<Table1Row, PipelineError> {
    let at = |mode| PtaStage {
        budget: pta_budget,
        mode,
    };
    // One configuration: its fan-out's flushes, then its specialized solve.
    let configuration = |p: &mut Pipeline<'_>| -> Result<_, PipelineError> {
        let flushes = fan_out(p)?;
        let specialized = at(PtaMode::Spec(spec_depth()));
        Ok((flushes, PtaModeRow::solve(p, specialized, None, None)?))
    };
    let plain = page_request(&v.src, &v.doc, &v.plan, false);
    let (baseline, (spec_flushes, spec)) = with_pipeline(&plain, counters, |p| {
        let baseline = PtaModeRow::solve(p, at(PtaMode::Baseline), None, None)?;
        Ok::<_, PipelineError>((baseline, configuration(p)?))
    })?;
    let detdom = page_request(&v.src, &v.doc, &v.plan, true);
    let (detdom_flushes, detdom) = with_pipeline(&detdom, counters, configuration)?;
    Ok(Table1Row {
        version: v.version,
        baseline,
        spec,
        spec_flushes,
        detdom,
        detdom_flushes,
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

impl PtaModeRow {
    /// Reads the pipeline's PTA row.
    fn from_row(row: &Value) -> PtaModeRow {
        let num = |field: &str| {
            row.get(field)
                .and_then(Value::as_f64)
                .expect("the PTA row has every field")
        };
        PtaModeRow {
            ok: row.get("status").and_then(Value::as_str) == Some("completed"),
            work: num("propagations") as u64,
            call_sites: num("call_sites") as usize,
            poly_sites: num("poly_sites") as usize,
            avg_points_to: num("avg_points_to"),
            reachable_funcs: num("reachable_funcs") as usize,
        }
    }

    /// Runs one PTA stage of `p` and reads its row.
    fn solve(
        p: &mut Pipeline<'_>,
        stage: PtaStage,
        facts: Option<&Value>,
        summary: Option<&Value>,
    ) -> Result<PtaModeRow, SyntaxError> {
        Ok(PtaModeRow::from_row(&p.pta(stage, facts, summary)?.0))
    }
}

/// One ranked root-cause column of a comparison row: a blame cause of
/// the uninjected baseline solve, as distilled by [`blame`].
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
    /// Regions that carry a summary.
    pub regions: usize,
    /// Total points-to tuples across all summaries.
    pub tuples: usize,
    /// The summaries degraded (dropped, ordinary analysis).
    pub degraded: bool,
    /// Fact injection only (the PR 4 mode) at the same budget.
    pub injected: PtaModeRow,
    /// Fact injection plus region summaries.
    pub shortcut: PtaModeRow,
}

/// Both `detbench` rows of one corpus version from one DetDOM fan-out (the
/// paper's most deterministic setting, so the richest fact set): the
/// three-way comparison at [`PTA_COMPARE_BUDGET`], and the shortcut
/// comparison at [`TABLE1_PTA_BUDGET`], where injection-only starves on
/// the heavy versions.
///
/// # Errors
///
/// The source's syntax error, or the failed seed run.
pub fn run_pta_rows(
    v: &JQueryLike,
    counters: &PipelineCounters,
) -> Result<(PtaCompareRow, ShortcutCompareRow), PipelineError> {
    let at = |budget, mode| PtaStage { budget, mode };
    // The shortcut stage declares the summary, so the fan-out is traced.
    let req = StageRequest {
        pta: Some(at(TABLE1_PTA_BUDGET, PtaMode::InjectShortcuts)),
        ..page_request(&v.src, &v.doc, &v.plan, true)
    };
    with_pipeline(&req, counters, |p| {
        fan_out(p)?;
        let facts = p.facts()?;
        let baseline = PtaModeRow::solve(p, at(PTA_COMPARE_BUDGET, PtaMode::Baseline), None, None)?;
        let (inject_row, _) = p.pta(at(PTA_COMPARE_BUDGET, PtaMode::Inject), Some(&facts), None)?;
        let specialized = PtaModeRow::solve(
            p,
            at(PTA_COMPARE_BUDGET, PtaMode::Spec(spec_depth())),
            None,
            None,
        )?;
        // Root causes describe the *baseline program's* imprecision.
        let (_, report) = blame(&p.live()?.0.program, PTA_COMPARE_BUDGET, 3);
        let compare = PtaCompareRow {
            version: v.version.to_owned(),
            injected_sites: inject_row
                .get("injected")
                .and_then(Value::as_f64)
                .expect("the PTA row counts injected facts") as usize,
            baseline,
            injected: PtaModeRow::from_row(&inject_row),
            specialized,
            root_causes: report
                .causes
                .iter()
                .map(|c| RootCauseCol {
                    label: c.cause.label(),
                    kind: c.cause.kind().to_owned(),
                    tuples: c.tuples,
                    suggestions: c.suggestions.len(),
                })
                .collect(),
        };

        let summary = p.summary()?;
        let count =
            |field: &str| summary.get(field).and_then(Value::as_f64).unwrap_or(0.0) as usize;
        let shortcut = ShortcutCompareRow {
            version: v.version.to_owned(),
            candidates: count("candidates"),
            regions: count("regions"),
            tuples: count("tuples"),
            degraded: summary.get("degraded") == Some(&Value::Bool(true)),
            injected: PtaModeRow::solve(
                p,
                at(TABLE1_PTA_BUDGET, PtaMode::Inject),
                Some(&facts),
                None,
            )?,
            shortcut: PtaModeRow::solve(
                p,
                at(TABLE1_PTA_BUDGET, PtaMode::InjectShortcuts),
                Some(&facts),
                Some(&summary),
            )?,
        };
        Ok((compare, shortcut))
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

/// Runs one eval benchmark on its own page through analyze → specialize
/// and reports whether every `eval` site was specialized away, plus the
/// count of surviving sites. A benchmark whose analysis fails (parse
/// error, engine panic) counts as "not handled" rather than killing the
/// study.
pub fn eliminate(b: &EvalBenchmark, det_dom: bool, counters: &PipelineCounters) -> (bool, usize) {
    let req = page_request(&b.src, &b.doc(), &b.plan(), det_dom);
    with_pipeline(&req, counters, |p| {
        if let Err(e) = fan_out(p) {
            eprintln!("{}: {e}", b.name);
            return (false, 0);
        }
        let (h, multi) = p.live().expect("the fan-out ran");
        let spec = specialize(&h.program, multi, spec_depth());
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
            Program::walk_block(&f.body, &mut |s| {
                if matches!(s.kind, mujs_ir::StmtKind::Eval { .. })
                    && !matches!(per_site.get(&s.id), Some(true))
                {
                    failures += 1;
                }
            });
        }
        (failures == 0, failures)
    })
}

/// Runs the §5.2 study for one benchmark under both configurations.
pub fn run_eval_elim(b: &EvalBenchmark, counters: &PipelineCounters) -> EvalElimRow {
    let (plain_ok, plain_remaining) = eliminate(b, false, counters);
    let (detdom_ok, _) = eliminate(b, true, counters);
    EvalElimRow {
        name: b.name,
        plain_ok,
        detdom_ok,
        plain_remaining,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn table1_runs_two_analyses_per_version() {
        let counters = PipelineCounters::default();
        for v in mujs_corpus::jquery_like::all_versions() {
            let row = run_table1(&v, TABLE1_PTA_BUDGET, &counters).expect("pipeline runs");
            if v.version == "1.2" {
                assert!(row.baseline.ok && row.spec.ok && row.detdom.ok);
                assert!(row.spec_flushes.1, "1.2 plain hits the flush cap");
                assert_eq!(row.detdom_flushes, (0, false));
            }
        }
        // Baseline needs no fan-out; Spec and Spec+DetDOM one each.
        assert_eq!(counters.analyses.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn cell_rendering_matches_paper_format() {
        assert_eq!(Table1Row::cell(true, Some((82, false))), "✓ (82)");
        assert_eq!(Table1Row::cell(false, Some((1001, true))), "✗ (>1000)");
        assert_eq!(Table1Row::cell(true, None), "✓");
    }
}
