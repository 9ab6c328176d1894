//! Shortcut summaries come from the traced seed fan-out itself: every
//! seed and every counterfactual execution that the region facts rest on
//! also contributes its heap events. So summaries do not depend on seed
//! order, and they cover what any single seed records. A fan-out whose
//! runs cannot witness their regions degrades to no summaries.

use determinacy::multirun::analyze_many_hooked;
use determinacy::shortcut::summarize;
use determinacy::{AnalysisConfig, CancelToken, DetHarness, PortableSummaries, RunHooks};
use mujs_corpus::jquery_like::{v1_0, v1_3, JQueryLike};
use mujs_dom::events::EventPlan;
use mujs_gen::{generate, GenConfig};
use mujs_jobs::pipeline::{Page, Pipeline, PipelineCounters, StageRequest};
use mujs_jobs::{PtaMode, PtaStage};
use serde_json::Value;
use std::collections::BTreeSet;

/// The portable summaries of a traced fan-out of `src` over `seeds`, on
/// the service page, with their degraded flag.
fn traced(src: &str, det_dom: bool, seeds: &[u64]) -> (PortableSummaries, bool) {
    let mut h = DetHarness::from_src(src).expect("generated programs parse");
    let cfg = AnalysisConfig {
        det_dom,
        ..Default::default()
    };
    let page = Page::service();
    let hooks = RunHooks {
        trace: true,
        ..RunHooks::supervised()
    };
    let multi = analyze_many_hooked(
        &mut h,
        seeds,
        cfg,
        Some(&page.doc),
        &page.plan,
        &hooks,
        &|_, _| {},
    );
    let out = summarize(&h.program, &multi);
    (
        PortableSummaries::from_summaries(&out.summaries, &h.program),
        out.degraded,
    )
}

#[test]
fn summaries_do_not_depend_on_seed_order_and_cover_each_seed() {
    let gen = GenConfig::default();
    let mut summarized = 0;
    for i in 0..300 {
        let src = generate(i, &gen);
        for det_dom in [false, true] {
            let (fwd, fwd_degraded) = traced(&src, det_dom, &[1, 2, 3]);
            let (rev, rev_degraded) = traced(&src, det_dom, &[3, 2, 1]);
            assert_eq!(fwd, rev, "program {i} (DetDOM {det_dom}): seed order moved");
            assert_eq!(fwd_degraded, rev_degraded, "program {i}");
            let (single, _) = traced(&src, det_dom, &[1]);
            for r in &single.regions {
                // Seed 1's region may be indeterminate under the other
                // seeds, and so not a region of the fan-out.
                let Some(all) = fwd.regions.iter().find(|a| a.func == r.func) else {
                    continue;
                };
                let tuples: BTreeSet<_> = all.tuples.iter().collect();
                let calls: BTreeSet<_> = all.calls.iter().collect();
                assert!(
                    r.tuples.iter().all(|t| tuples.contains(t)),
                    "program {i} (DetDOM {det_dom}): region {} lost seed 1's tuples",
                    r.func
                );
                assert!(r.calls.iter().all(|c| calls.contains(c)), "program {i}");
            }
            summarized += usize::from(!fwd.is_empty());
        }
    }
    assert!(summarized > 100, "only {summarized} fan-outs had regions");
}

/// The facts and summary artifacts and the shortcut-mode PTA row of one
/// default-config request: on the page's own document (`own`) or on the
/// service page.
fn shortcut_request(v: &JQueryLike, own: bool) -> [Value; 3] {
    let stage = PtaStage {
        budget: 150_000,
        mode: PtaMode::InjectShortcuts,
    };
    let cfg = AnalysisConfig::default();
    let req = StageRequest {
        src: v.src.clone(),
        seeds: vec![cfg.seed],
        cfg,
        page: own.then(|| Page {
            doc: v.doc.clone(),
            plan: v.plan.clone(),
        }),
        pta: Some(stage),
    };
    let cancel = CancelToken::new();
    let counters = PipelineCounters::default();
    let mut p = Pipeline::new(&req, &cancel, &counters, &|_| {});
    let facts = p.facts().expect("parses");
    let summary = p.summary().expect("parses");
    let (row, _) = p.pta(stage, Some(&facts), Some(&summary)).unwrap();
    [facts, summary, row]
}

fn field(v: &Value, name: &str) -> String {
    let f = v.get(name).unwrap_or_else(|| panic!("no `{name}`"));
    serde_json::to_string(f).unwrap()
}

#[test]
fn runs_cut_short_by_an_exception_degrade_and_flush_capped_runs_do_not() {
    // On the service page the pages' scripts throw (no page elements):
    // a trace of a run cut short cannot witness its regions.
    let [facts, summary, _] = shortcut_request(&v1_0(), false);
    assert_eq!(field(&facts, "run_statuses"), r#"["UncaughtException"]"#);
    assert_eq!(field(&summary, "degraded"), "true");
    assert_eq!(field(&summary, "regions"), "0");

    // Without the rule, 1.3 on the service page would trade its
    // budget-exhausted solve for a completed one over the summaries of
    // the run's prefix.
    let [facts, summary, row] = shortcut_request(&v1_3(), false);
    assert_eq!(field(&facts, "run_statuses"), r#"["UncaughtException"]"#);
    assert_eq!(field(&summary, "degraded"), "true");
    assert_eq!(field(&row, "status"), r#""budget exceeded""#);
    assert_eq!(field(&row, "shortcut_regions"), "0");

    // On its own page 1.3 stops at the flush cap: the facts and the
    // trace are the same sound prefix, so the summaries stand.
    let [facts, summary, _] = shortcut_request(&v1_3(), true);
    assert_eq!(field(&facts, "run_statuses"), r#"["FlushCapReached"]"#);
    assert_eq!(field(&summary, "degraded"), "false");
    assert_eq!(field(&summary, "regions"), "9");
    assert_eq!(field(&summary, "tuples"), "1718");
}

#[test]
fn an_untraced_fan_out_degrades() {
    let src = "function mk(v) { var o = {}; o.x = v; return o; }\n\
               var a = mk({}); var b = mk({});";
    let mut h = DetHarness::from_src(src).unwrap();
    let multi = analyze_many_hooked(
        &mut h,
        &[1],
        AnalysisConfig::default(),
        None,
        &EventPlan::new(),
        &RunHooks::supervised(),
        &|_, _| {},
    );
    let out = summarize(&h.program, &multi);
    assert_eq!((out.candidates, out.degraded), (1, true));
    assert!(out.summaries.is_empty());
    let (traced, degraded) = traced(src, false, &[1]);
    assert!(!degraded && traced.tuple_count() > 0);
}
