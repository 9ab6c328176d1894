//! Multi-execution fact combination — the paper's §7: "Running the
//! determinacy analysis on different inputs yields more facts, which are
//! all sound and hence can be used together."
//!
//! Each run's facts are individually sound; combining them point-wise via
//! [`FactDb::absorb`] keeps determinate entries only where every run that
//! recorded the entry agrees — so a combined database both *extends*
//! coverage (contexts only some runs reached) and *sharpens* honesty
//! (values that vary across inputs degrade to `?`, catching facts that
//! looked determinate merely because a single run cannot witness the
//! variation it is already flagging).
//!
//! Also here: the §7 "shallower calling contexts" exploration —
//! projecting fully-qualified facts onto bounded context suffixes. The
//! projection is a *heuristic*: a fact observed under every full context
//! sharing a suffix is not thereby proven for unobserved contexts with
//! the same suffix, so projected facts trade the soundness guarantee for
//! reusability and must be consumed as hints (e.g. by optimizers that
//! guard specialized code with runtime checks).

use crate::config::AnalysisConfig;
use crate::driver::{AnalysisOutcome, DetHarness};
use crate::facts::FactDb;
use crate::supervisor::{
    supervised_analyze, supervised_analyze_dom, CancelToken, RunFailure, RunHooks,
};
use mujs_dom::document::Document;
use mujs_dom::events::EventPlan;
use mujs_interp::context::{ContextTable, CtxId};
use mujs_ir::hash::FastMap;
use serde_json::Value;

/// Result of combining several runs.
#[derive(Debug)]
pub struct MultiRunOutcome {
    /// The combined (still sound) fact database, interned against
    /// [`MultiRunOutcome::ctxs`].
    pub facts: FactDb,
    /// The master context table the combined facts are keyed by. Each
    /// run's interned ids are translated through their frame chains
    /// (context ids are per-run interning artifacts).
    pub ctxs: ContextTable,
    /// Per-run outcomes, for inspection. Only successful runs appear
    /// here; failed seeds are in [`MultiRunOutcome::failures`].
    pub runs: Vec<AnalysisOutcome>,
    /// Runs that died (engine panic) or were cancelled before they
    /// started: each carries its seed. A failed seed contributes no
    /// facts, but the surviving seeds still combine — per-seed isolation
    /// is what makes large multi-run batches practical on untrusted
    /// inputs.
    pub failures: Vec<RunFailure>,
    /// Determinate-vs-determinate conflicts seen while combining; nonzero
    /// indicates an analysis bug (sound facts cannot disagree).
    pub conflicts: u64,
}

/// Runs the analysis once per seed and combines the fact databases.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mujs_syntax::SyntaxError> {
/// use determinacy::driver::DetHarness;
/// use determinacy::multirun::analyze_many;
/// let mut h = DetHarness::from_src("var x = Math.random() < 0.5 ? 1 : 2;")?;
/// let combined = analyze_many(&mut h, &[1, 2, 3, 4], Default::default());
/// assert_eq!(combined.runs.len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn analyze_many(
    h: &mut DetHarness,
    seeds: &[u64],
    base_cfg: AnalysisConfig,
) -> MultiRunOutcome {
    analyze_many_hooked(
        h,
        seeds,
        base_cfg,
        None,
        &EventPlan::new(),
        &RunHooks::supervised(),
        &|_, _| {},
    )
}

/// The seed fan-out every front end runs: one supervised run per seed,
/// sequentially on the current thread, combined **in seed order**.
///
/// With a document, each run executes on a fresh copy of it and then
/// dispatches `plan`; without one, the program runs with no DOM at all.
/// A run that panics is recorded as a [`RunFailure`] in
/// [`MultiRunOutcome::failures`] and the remaining seeds still run and
/// combine. Deadline/memory/step stops are not failures: those runs end
/// with their partial (still sound) facts, which combine normally. Once
/// the hooks' cancel token has fired, every remaining seed becomes
/// [`RunFailure::Cancelled`] without starting. `on_seed(i, n)` follows
/// the `i`-th executed run of `n`.
pub fn analyze_many_hooked(
    h: &mut DetHarness,
    seeds: &[u64],
    base_cfg: AnalysisConfig,
    doc: Option<&Document>,
    plan: &EventPlan,
    hooks: &RunHooks,
    on_seed: &dyn Fn(usize, usize),
) -> MultiRunOutcome {
    let n = seeds.len();
    let results: Vec<Result<AnalysisOutcome, RunFailure>> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            if hooks.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return Err(RunFailure::Cancelled { seed });
            }
            let cfg = AnalysisConfig {
                seed,
                ..base_cfg.clone()
            };
            let r = match doc {
                Some(d) => supervised_analyze_dom(h, cfg, d.clone(), plan, hooks),
                None => supervised_analyze(h, cfg, hooks),
            };
            on_seed(i + 1, n);
            r
        })
        .collect();
    let mut combined = FactDb::new(base_cfg.max_facts);
    let mut ctxs = ContextTable::new();
    let mut runs = Vec::new();
    let mut failures = Vec::new();
    let mut conflicts = 0;
    for r in results {
        match r {
            Ok(out) => {
                conflicts += combined.absorb_reinterned(&out.facts, &out.ctxs, &mut ctxs);
                runs.push(out);
            }
            Err(failure) => failures.push(failure),
        }
    }
    MultiRunOutcome {
        facts: combined,
        ctxs,
        runs,
        failures,
        conflicts,
    }
}

/// Projects fully-qualified facts onto context suffixes of depth `k` —
/// the §7 "shallower calling contexts" experiment. **Heuristic**: entries
/// whose full contexts share a suffix merge (agreeing determinate values
/// survive, disagreements degrade to `?`); the result over-claims for
/// contexts the dynamic runs never observed and must not be used where
/// the paper's soundness guarantee is required.
pub fn project_to_depth(facts: &FactDb, ctxs: &mut ContextTable, k: usize) -> FactDb {
    let mut out = FactDb::new(0);
    for (kind, point, ctx, fact) in facts.iter() {
        let suffix = ctxs.suffix(ctx, k);
        out.record_merged(kind, point, suffix, fact.clone());
    }
    for (point, ctx, trip) in facts.iter_trips() {
        let suffix = ctxs.suffix(ctx, k);
        out.record_trip(point, suffix, trip);
    }
    out
}

/// One exported fact row, rendered as a JSON object with its fields in
/// declaration order.
#[derive(Debug)]
pub struct FactRow {
    /// Fact kind (`Define`, `Cond`, `EvalArg`, `Callee`, `PropKey`).
    pub kind: &'static str,
    /// Source line of the program point.
    pub line: u32,
    /// The calling context as `line` or `line_occ` steps.
    pub context: Vec<String>,
    /// Rendered value, or `"?"`.
    pub value: String,
    /// Whether the fact is determinate.
    pub determinate: bool,
}

impl From<FactRow> for Value {
    /// Moves the row's strings into the value.
    fn from(row: FactRow) -> Value {
        Value::Object(vec![
            ("kind".to_owned(), Value::Str(row.kind.to_owned())),
            ("line".to_owned(), Value::Num(f64::from(row.line))),
            (
                "context".to_owned(),
                Value::Array(row.context.into_iter().map(Value::Str).collect()),
            ),
            ("value".to_owned(), Value::Str(row.value)),
            ("determinate".to_owned(), Value::Bool(row.determinate)),
        ])
    }
}

/// The fact database's rows in their one total order.
fn sorted_rows(
    facts: &FactDb,
    prog: &mujs_ir::Program,
    sf: &mujs_syntax::SourceFile,
    ctxs: &ContextTable,
) -> Vec<FactRow> {
    // Each distinct context renders once; rows then sort on its rank
    // among the rendered contexts (equal renderings share a rank), which
    // orders them exactly as comparing the rendered strings does.
    let mut ctx_slot: FastMap<CtxId, usize> = FastMap::default();
    let mut contexts: Vec<Vec<String>> = Vec::new();
    let mut rows: Vec<(u32, &'static str, usize, String, bool)> = facts
        .iter()
        .map(|(kind, point, ctx, fact)| {
            let slot = *ctx_slot.entry(ctx).or_insert_with(|| {
                contexts.push(render_ctx(ctx, prog, sf, ctxs));
                contexts.len() - 1
            });
            let value = match fact.value() {
                Some(v) => v.to_string(),
                None => "?".to_owned(),
            };
            let line = sf.line_col(prog.span_of(point)).line;
            (line, kind.name(), slot, value, fact.is_det())
        })
        .collect();
    let mut by_text: Vec<usize> = (0..contexts.len()).collect();
    by_text.sort_unstable_by(|&a, &b| contexts[a].cmp(&contexts[b]));
    let mut rank = vec![0; contexts.len()];
    for (i, pair) in by_text.windows(2).enumerate() {
        let tie = contexts[pair[0]] == contexts[pair[1]];
        rank[pair[1]] = if tie { rank[pair[0]] } else { i + 1 };
    }
    // Total order including value/determinacy tiebreakers: two points on
    // the same line with the same kind and context must still serialize in
    // a fixed order, so the exported bytes are independent of the fact
    // database's internal (hash) iteration order. The `mujs-jobs` batch
    // determinism guarantee relies on this. Rows equal on every key
    // render identically, so an unstable sort is enough.
    rows.sort_unstable_by(|a, b| {
        (a.0, a.1, rank[a.2], &a.3, a.4).cmp(&(b.0, b.1, rank[b.2], &b.3, b.4))
    });
    rows.into_iter()
        .map(|(line, kind, slot, value, determinate)| FactRow {
            kind,
            line,
            context: contexts[slot].clone(),
            value,
            determinate,
        })
        .collect()
}

/// Exports a fact database as a JSON array of sorted [`FactRow`]s, built
/// directly as a value (what report rows embed as `fact_rows`).
pub fn export_value(
    facts: &FactDb,
    prog: &mujs_ir::Program,
    sf: &mujs_syntax::SourceFile,
    ctxs: &ContextTable,
) -> Value {
    Value::Array(
        sorted_rows(facts, prog, sf, ctxs)
            .into_iter()
            .map(Value::from)
            .collect(),
    )
}

/// Exports a fact database as pretty JSON for external clients (the
/// paper's WALA integration consumed facts in a similar exchange form):
/// [`export_value`], rendered.
///
/// # Panics
///
/// Panics if JSON serialization fails (it cannot for these types).
pub fn export_json(
    facts: &FactDb,
    prog: &mujs_ir::Program,
    sf: &mujs_syntax::SourceFile,
    ctxs: &ContextTable,
) -> String {
    serde_json::to_string_pretty(&export_value(facts, prog, sf, ctxs)).expect("fact rows serialize")
}

fn render_ctx(
    ctx: CtxId,
    prog: &mujs_ir::Program,
    sf: &mujs_syntax::SourceFile,
    ctxs: &ContextTable,
) -> Vec<String> {
    ctxs.frames(ctx)
        .into_iter()
        .map(|(site, occ)| {
            let line = sf.line_col(prog.span_of(site)).line;
            if occ == 0 {
                format!("{line}")
            } else {
                format!("{line}_{occ}")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::FactKind;
    use crate::Fact;

    #[test]
    fn multi_run_extends_branch_coverage() {
        // A coin flip guards two different constants; a single run covers
        // one arm, several seeds cover both, and the combined database has
        // determinate facts from each arm's interior.
        let src = r#"
var coin = Math.random() < 0.5;
var picked = 0;
if (coin) { var a_inner = 11; picked = 1; } else { var b_inner = 22; picked = 2; }
"#;
        let mut h = DetHarness::from_src(src).unwrap();
        let combined = analyze_many(&mut h, &[0, 1, 2, 3, 4, 5, 6, 7], Default::default());
        let values: Vec<String> = combined
            .facts
            .iter()
            .filter(|(k, _, _, _)| *k == FactKind::Define)
            .filter_map(|(_, _, _, f)| f.value().map(|v| v.to_string()))
            .collect();
        assert!(values.contains(&"11".to_owned()), "{values:?}");
        assert!(values.contains(&"22".to_owned()), "{values:?}");
    }

    #[test]
    fn multi_run_degrades_disagreeing_facts() {
        // `picked` is written differently per arm: whichever run observes
        // it, the values disagree across runs at the same point, so the
        // combination must not keep both as determinate.
        let src = r#"
if (Math.random() < 0.5) { var w = 1; } else { var w = 2; }
var observed = w;
"#;
        let mut h = DetHarness::from_src(src).unwrap();
        let combined = analyze_many(&mut h, &[0, 1, 2, 3, 4, 5], Default::default());
        // Single-run facts already mark `observed` indeterminate (the
        // branch writes are marked after the merge); combining runs must
        // not resurrect determinacy anywhere.
        let indet_preserved = combined
            .facts
            .iter()
            .filter(|(k, _, _, _)| *k == FactKind::Define)
            .all(|(_, p, c, f)| {
                let single = combined.runs[0].facts.get(FactKind::Define, p, c);
                !(matches!(single, Some(Fact::Indet)) && f.is_det())
            });
        assert!(indet_preserved);
    }

    #[test]
    fn a_cancelled_token_starts_no_seed() {
        let mut h = DetHarness::from_src("var x = Math.random();").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let hooks = RunHooks::with_cancel(token);
        let calls = std::cell::Cell::new(0);
        let out = analyze_many_hooked(
            &mut h,
            &[4, 5, 6],
            Default::default(),
            None,
            &EventPlan::new(),
            &hooks,
            &|_, _| calls.set(calls.get() + 1),
        );
        let cancelled: Vec<u64> = out
            .failures
            .iter()
            .map(|f| match f {
                RunFailure::Cancelled { seed } => *seed,
                other => panic!("expected a cancelled seed, got {other}"),
            })
            .collect();
        assert_eq!(cancelled, [4, 5, 6]);
        assert!(out.runs.is_empty() && out.facts.is_empty());
        assert_eq!(calls.get(), 0);
    }

    #[test]
    fn projection_merges_contexts() {
        let src = r#"
function id(v) { var echo = v; return echo; }
id(1);
id(1);
id(2);
"#;
        let mut h = DetHarness::from_src(src).unwrap();
        let mut out = h.analyze(Default::default());
        // Fully qualified: three determinate facts for `echo` (one per
        // call site). Projected to depth 0 (context-free), they collide:
        // 1, 1, 2 → indeterminate.
        let projected = project_to_depth(&out.facts, &mut out.ctxs, 0);
        let echo_facts: Vec<&Fact> = projected
            .iter()
            .filter(|(k, _, _, _)| *k == FactKind::Define)
            .map(|(_, _, _, f)| f)
            .collect();
        assert!(echo_facts.iter().any(|f| !f.is_det()));
        // Depth 1 keeps the per-call-site facts distinct.
        let projected1 = project_to_depth(&out.facts, &mut out.ctxs, 1);
        assert!(projected1.det_count() >= out.facts.det_count() / 2);
    }

    #[test]
    fn json_export_is_parseable_and_complete() {
        let src = "var x = 1 + 2; var y = Math.random();";
        let mut h = DetHarness::from_src(src).unwrap();
        let out = h.analyze(Default::default());
        let json = export_json(&out.facts, &h.program, &h.source, &out.ctxs);
        let rows: Vec<serde_json::Value> = serde_json::from_str(&json).unwrap();
        assert_eq!(rows.len(), out.facts.len());
        assert!(rows
            .iter()
            .any(|r| r["value"] == "3" && r["determinate"] == true));
        assert!(rows
            .iter()
            .any(|r| r["value"] == "?" && r["determinate"] == false));
    }
}
