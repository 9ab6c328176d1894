//! Solver-equivalence suite: the delta-propagating bitset solver must be
//! observationally identical to the naive reference solver
//! (`mujs_pta::solve_reference`, the pre-optimization algorithm kept
//! verbatim as an executable spec).
//!
//! "Identical" is byte-identical `export_json()` — call graph and full
//! points-to relation — at an unlimited budget, where both solvers reach
//! the same least fixpoint regardless of propagation order.

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

/// Both solvers on the first 300 programs of the generator's default
/// configuration (the one detperf's `gen-fleet` draws from): heap reads
/// and writes with static and computed keys, helper calls and try/catch.
#[test]
fn generated_programs_agree() {
    let cfg = mujs_gen::GenConfig::default();
    for seed in 0..300 {
        let src = mujs_gen::generate(seed, &cfg);
        let ast = mujs_syntax::parse(&src).expect("generated source parses");
        let prog = mujs_ir::lower_program(&ast);
        assert_equivalent(&format!("generated seed {seed}"), &prog, &unlimited());
    }
}

/// Programs with real copy cycles, which propagation must go around until
/// every member of the cycle holds the same set.
#[test]
fn copy_cycles_agree() {
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
        ("small copy rings".to_owned(), common::hub_src(8, 8, 3)),
        ("long copy rings".to_owned(), common::hub_src(3, 200, 12)),
    ];
    sources.extend(mujs_corpus::evalbench::named_sources());
    for (name, src) in &sources {
        let ast = mujs_syntax::parse(src).expect("source parses");
        let prog = mujs_ir::lower_program(&ast);
        assert_equivalent(name, &prog, &unlimited());
    }
}

/// A solve around the a/b/c copy cycle matches the reference, completes
/// at exactly the budget it needs and stops one propagation short of it.
#[test]
fn copy_cycle_solve_is_budget_exact() {
    let src = "var a = {}; var b = a; var c = b; a = c; var d = a;";
    let ast = mujs_syntax::parse(src).expect("parses");
    let prog = mujs_ir::lower_program(&ast);
    assert_equivalent("a/b/c cycle", &prog, &unlimited());
    let needed = solve(&prog, &unlimited()).stats.propagations;
    assert!(needed > 0);
    let budget = |budget| PtaConfig {
        budget,
        ..Default::default()
    };
    let exact = solve(&prog, &budget(needed));
    assert_eq!(exact.status, PtaStatus::Completed);
    assert_eq!(exact.stats.propagations, needed);
    let short = solve(&prog, &budget(needed - 1));
    assert_eq!(short.status, PtaStatus::BudgetExceeded);
    assert_eq!(short.stats.propagations, needed - 1);
}
