//! Integration of the static analysis layer with the dynamic pipeline:
//!
//! * **Validator acceptance** — every program shape the real pipeline
//!   produces (freshly lowered, post-run with eval chunks, specialized)
//!   passes the structural validator.
//! * **Injection parity** — fact injection into the PTA recovers the
//!   precision of the specializing (source-rewriting) pipeline.
//! * **Provenance transparency** — blame tracking is an observer:
//!   turning it on changes no points-to result (export bytes are
//!   identical), and injected tuples are attributed to the `injected`
//!   blame kind so root-cause reports separate paper-mechanism precision
//!   from residual imprecision.
//!
//! Every determinacy fact used here comes from the dynamic analysis;
//! Theorem 1 soundness of those facts is checked against concrete runs
//! in `tests/soundness_prop.rs`.

use determinacy::AnalysisConfig;
use mujs_analysis::validate_program;
use mujs_corpus::{evalbench, jquery_like};
use mujs_ir::Program;
use mujs_pta::{PtaConfig, PtaStatus};
use mujs_specialize::SpecConfig;

fn assert_valid_clean(label: &str, prog: &Program) {
    let violations = validate_program(prog);
    assert!(
        violations.is_empty(),
        "{label}: {} violations, first: {}",
        violations.len(),
        violations[0].describe(prog)
    );
}

#[test]
fn validator_accepts_all_pipeline_stages_across_corpus() {
    for v in jquery_like::all_versions() {
        let label = format!("table1/{}", v.version);
        let mut h = determinacy::DetHarness::from_src(&v.src).expect("corpus parses");
        assert_valid_clean(&format!("{label} (lowered)"), &h.program);
        let mut out = h.analyze_dom(AnalysisConfig::default(), v.doc.clone(), &v.plan);
        assert_valid_clean(&format!("{label} (post-run)"), &h.program);
        let spec = mujs_specialize::specialize(
            &h.program,
            &out.facts,
            &mut out.ctxs,
            &SpecConfig::default(),
        );
        assert_valid_clean(&format!("{label} (specialized)"), &spec.program);
    }
    for b in evalbench::all().iter().filter(|b| b.runnable) {
        let Ok(mut h) = determinacy::DetHarness::from_src(&b.src) else {
            continue;
        };
        let label = format!("evalbench/{}", b.name);
        assert_valid_clean(&format!("{label} (lowered)"), &h.program);
        let mut out = h.analyze_dom(AnalysisConfig::default(), b.doc(), &b.plan());
        assert_valid_clean(&format!("{label} (post-run)"), &h.program);
        let spec = mujs_specialize::specialize(
            &h.program,
            &out.facts,
            &mut out.ctxs,
            &SpecConfig::default(),
        );
        assert_valid_clean(&format!("{label} (specialized)"), &spec.program);
    }
}

#[test]
fn injected_pta_matches_specialized_precision() {
    // The Figure 3 accessor pattern: dynamic keys defeat the baseline;
    // both consumers of determinacy facts (source rewriting and solver
    // injection) must recover the monomorphic call graph.
    let src = r#"
function Rectangle(w, h) { this.width = w; this.height = h; }
function defAccessors(prop) {
  Rectangle.prototype["get" + prop] = function getter() { return this[prop]; };
  Rectangle.prototype["set" + prop] = function setter(v) { this[prop] = v; };
}
defAccessors("Width");
defAccessors("Height");
var r = new Rectangle(20, 30);
r.getWidth();
"#;
    let mut h = determinacy::DetHarness::from_src(src).unwrap();
    let mut out = h.analyze(AnalysisConfig::default());
    let mut prog = h.program;
    let facts = determinacy::injectable_facts(&out.facts, &mut prog);
    assert!(
        !facts.is_empty(),
        "the accessor writes yield injectable keys"
    );

    let baseline = mujs_pta::solve(&prog, &PtaConfig::default());
    let injected = mujs_pta::solve(
        &prog,
        &PtaConfig {
            facts: Some(facts),
            ..Default::default()
        },
    );
    let spec =
        mujs_specialize::specialize(&prog, &out.facts, &mut out.ctxs, &SpecConfig::default());
    let specialized = mujs_pta::solve(&spec.program, &PtaConfig::default());

    assert_eq!(injected.status, PtaStatus::Completed);
    if specialized.status == PtaStatus::Completed {
        assert_eq!(injected.status, PtaStatus::Completed);
    }
    let pb = baseline.precision(&prog);
    let pi = injected.precision(&prog);
    let ps = specialized.precision(&spec.program);
    assert!(
        pi.poly_sites < pb.poly_sites,
        "injection removes polymorphism: {pi:?} vs baseline {pb:?}"
    );
    assert!(
        pi.poly_sites <= ps.poly_sites,
        "injection at least matches specialization: {pi:?} vs {ps:?}"
    );
    assert_eq!(
        pi.reachable_funcs, ps.reachable_funcs,
        "both fact consumers reach the same canonical functions"
    );
}

/// The Figure 3 accessor source shared by the provenance tests below.
const ACCESSOR_SRC: &str = r#"
function Rectangle(w, h) { this.width = w; this.height = h; }
function defAccessors(prop) {
  Rectangle.prototype["get" + prop] = function getter() { return this[prop]; };
  Rectangle.prototype["set" + prop] = function setter(v) { this[prop] = v; };
}
defAccessors("Width");
defAccessors("Height");
var r = new Rectangle(20, 30);
r.getWidth();
"#;

/// Runs the dynamic analysis and returns the lowered program with its
/// injectable facts (computed once, cloned per solve).
fn accessor_program() -> (Program, mujs_pta::InjectedFacts) {
    let mut h = determinacy::DetHarness::from_src(ACCESSOR_SRC).unwrap();
    let out = h.analyze(AnalysisConfig::default());
    let mut prog = h.program;
    let facts = determinacy::injectable_facts(&out.facts, &mut prog);
    assert!(!facts.is_empty(), "accessor writes yield injectable facts");
    (prog, facts)
}

#[test]
fn provenance_is_invisible_in_injecting_exports() {
    // Blame tracking must be a pure observer of the injecting solve: the
    // points-to relation — and therefore the canonical export bytes —
    // must not move when it is switched on, whatever thread count the
    // provenance path forces internally.
    let (prog, facts) = accessor_program();
    let solve = |provenance: bool| {
        mujs_pta::solve(
            &prog,
            &PtaConfig {
                facts: Some(facts.clone()),
                provenance,
                ..Default::default()
            },
        )
    };
    let off = solve(false);
    let on = solve(true);
    assert_eq!(off.status, on.status);
    assert!(!off.has_blame(), "provenance off records no blame");
    assert!(on.has_blame(), "provenance on records blame");
    assert_eq!(
        off.export_json(),
        on.export_json(),
        "provenance changed the injecting solve's points-to export"
    );
    assert_eq!(off.export_blame_json(), None);
}

#[test]
fn injected_tuples_carry_the_injected_blame_kind() {
    let (prog, facts) = accessor_program();
    let r = mujs_pta::solve(
        &prog,
        &PtaConfig {
            facts: Some(facts),
            provenance: true,
            ..Default::default()
        },
    );
    let hist = r.blame_histogram();
    assert!(
        hist.iter().any(|(c, n)| c.kind() == "injected" && *n > 0),
        "no tuple was blamed on an injected fact: {hist:?}"
    );
    // The blame report surfaces the same split: injected tuples are
    // counted apart from both precise and imprecise ones.
    let report = mujs_analysis::blame_report(&prog, &r, 5).expect("provenance solve has blame");
    assert!(
        report.injected_tuples > 0,
        "report must count injected tuples: {report:?}"
    );
    assert!(report.total_tuples >= report.precise_tuples + report.injected_tuples);
}
