//! Solver-equivalence suite: the delta-propagating bitset solver must be
//! observationally identical to the naive reference solver
//! (`mujs_pta::solve_reference`, the pre-optimization algorithm kept
//! verbatim as an executable spec).
//!
//! "Identical" is byte-identical `export_json()` — call graph and full
//! points-to relation — at an unlimited budget, where both solvers reach
//! the same least fixpoint regardless of propagation order or cycle
//! collapsing.

mod common;

use mujs_pta::{solve, solve_reference, PtaConfig, PtaStatus};

fn assert_equivalent(name: &str, prog: &mujs_ir::Program, cfg: &PtaConfig) {
    let slow = solve_reference(prog, cfg);
    assert_eq!(
        slow.status,
        PtaStatus::Completed,
        "{name}: reference solver starved at unlimited budget"
    );
    let fast = solve(prog, cfg);
    assert_eq!(
        fast.status,
        PtaStatus::Completed,
        "{name}: delta solver starved at unlimited budget"
    );
    assert_eq!(
        fast.export_json(),
        slow.export_json(),
        "{name}: solver disagrees with the reference on call graph or points-to sets"
    );
}

fn unlimited() -> PtaConfig {
    PtaConfig {
        budget: u64::MAX,
        ..Default::default()
    }
}

/// Both solvers on every Table 1 corpus version, baseline and
/// determinacy-specialized programs.
#[test]
fn jquery_corpus_baseline_and_specialized_agree() {
    for v in mujs_corpus::jquery_like::all_versions() {
        let mut h = determinacy::DetHarness::from_src(&v.src).expect("corpus parses");
        let out = h.analyze_dom(
            determinacy::AnalysisConfig::default(),
            v.doc.clone(),
            &v.plan,
        );
        let mut ctxs = out.ctxs;
        let spec = mujs_specialize::specialize(
            &h.program,
            &out.facts,
            &mut ctxs,
            &mujs_specialize::SpecConfig::default(),
        );
        assert_equivalent(
            &format!("jquery-{} baseline", v.version),
            &h.program,
            &unlimited(),
        );
        assert_equivalent(
            &format!("jquery-{} specialized", v.version),
            &spec.program,
            &unlimited(),
        );
    }
}

/// Both solvers across the §5.2 eval-elimination suite (every runnable
/// benchmark), covering call-heavy and eval-bearing program shapes.
#[test]
fn evalbench_suite_agrees() {
    for b in mujs_corpus::evalbench::all()
        .into_iter()
        .filter(|b| b.runnable)
    {
        let ast = mujs_syntax::parse(&b.src).expect("evalbench parses");
        let prog = mujs_ir::lower_program(&ast);
        assert_equivalent(b.name, &prog, &unlimited());
    }
}

/// Aggressive cycle collapsing (collapse scan after every — or every
/// couple of — new copy edges) must not change observable results,
/// including on programs with real copy cycles.
#[test]
fn aggressive_collapsing_agrees() {
    let cyclic = r#"
        function mk() { return { tag: mk }; }
        var a = mk(); var b = mk(); var c = mk();
        for (var i = 0; i < 3; i = i + 1) {
            b = a; c = b; a = c;
        }
        var sink = a.tag;
    "#;
    // Wide and deep: hundreds of simultaneously dirty nodes, higher-order
    // calls through copy chains, and a ⋆-smearing dynamic access.
    let mut wide = String::from("function id(x) { return x; }\n");
    for i in 0..120 {
        wide.push_str(&format!(
            "function mk{i}() {{ return {{ tag: mk{i}, lift: id }}; }} var v{i} = mk{i}();\n"
        ));
    }
    for i in 0..120 {
        let j = (i + 41) % 120;
        wide.push_str(&format!(
            "v{i} = id(v{j}); var f{i} = v{i}.tag; var w{i} = f{i}();\n"
        ));
    }
    wide.push_str("var key = somethingUnknown; var smeared = v0[key];\n");
    let mut sources: Vec<(String, String)> = vec![
        ("copy-cycle".to_owned(), cyclic.to_owned()),
        ("wide".to_owned(), wide),
        ("copy-ring hubs".to_owned(), common::hub_src(40, 48, 6)),
    ];
    sources.extend(mujs_corpus::evalbench::named_sources());
    for scc_interval in [1, 2] {
        let cfg = PtaConfig {
            budget: u64::MAX,
            scc_interval,
            ..Default::default()
        };
        for (name, src) in &sources {
            let ast = mujs_syntax::parse(src).expect("source parses");
            let prog = mujs_ir::lower_program(&ast);
            assert_equivalent(&format!("{name} scc={scc_interval}"), &prog, &cfg);
        }
    }
}

/// The crafted copy cycle really does exercise the merge path: with
/// frequent collapse scans, nodes get merged, and the result still
/// matches the reference solver.
#[test]
fn collapsing_merges_nodes_on_copy_cycles() {
    let src = "var a = {}; var b = a; var c = b; a = c; var d = a;";
    let ast = mujs_syntax::parse(src).expect("parses");
    let prog = mujs_ir::lower_program(&ast);
    let cfg = PtaConfig {
        budget: u64::MAX,
        scc_interval: 1,
        ..Default::default()
    };
    let r = solve(&prog, &cfg);
    assert_eq!(r.status, PtaStatus::Completed);
    assert!(
        r.stats.nodes_merged > 0,
        "expected the a/b/c copy cycle to be collapsed, stats: {:?}",
        r.stats
    );
    assert_equivalent("merge-pin", &prog, &cfg);
}
