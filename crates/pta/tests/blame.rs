//! Determinism and semantics tests for the imprecision-provenance layer
//! (`PtaConfig::provenance`).
//!
//! The provenance contract: (1) blame is invisible unless asked for —
//! with provenance off nothing about a solve changes, and with it on the
//! *sets*, propagation counts and truncation point still match the
//! provenance-free solve, at fixpoint and at every budget; (2) blame
//! exports are deterministic; (3) every surviving points-to tuple carries
//! a cause, and the causes name the right imprecision sources (⋆ smears,
//! eval chunks, opaque natives, havoc).

use mujs_pta::{solve, PtaConfig, PtaResult, PtaStatus};

/// Wide + deep program (many closures, higher-order calls, cross-wired
/// copy chains) with a ⋆-smearing dynamic access.
fn big_src() -> String {
    let mut s = String::new();
    s.push_str("function id(x) { return x; }\n");
    for i in 0..60 {
        s.push_str(&format!(
            "function mk{i}() {{ return {{ tag: mk{i}, lift: id }}; }}\n"
        ));
        s.push_str(&format!("var v{i} = mk{i}();\n"));
    }
    for i in 0..60 {
        let j = (i + 23) % 60;
        s.push_str(&format!("v{i} = id(v{j});\n"));
        s.push_str(&format!("var f{i} = v{i}.tag;\n"));
        s.push_str(&format!("var w{i} = f{i}();\n"));
    }
    s.push_str("var key = somethingUnknown;\n");
    s.push_str("var smeared = v0[key];\n");
    s
}

fn lower(src: &str) -> mujs_ir::Program {
    let ast = mujs_syntax::parse(src).expect("source parses");
    mujs_ir::lower_program(&ast)
}

fn prov(cfg: PtaConfig) -> PtaConfig {
    PtaConfig {
        provenance: true,
        ..cfg
    }
}

fn unlimited() -> PtaConfig {
    PtaConfig {
        budget: u64::MAX,
        ..Default::default()
    }
}

/// Every tuple of every node's points-to set must carry a
/// blame cause — provenance never loses a tuple.
fn assert_blame_covers_sets(r: &PtaResult, ctx: &str) {
    for (node, objs) in r.all_points_to() {
        let blamed: Vec<mujs_pta::AbsObj> = r.blame_of(&node).into_iter().map(|(o, _)| o).collect();
        assert_eq!(
            blamed, objs,
            "{ctx}: node {node:?} has tuples without blame (or vice versa)"
        );
    }
}

/// Provenance is a pure side channel: with it on, status, exports, and
/// call graph are identical to the provenance-free solve; with it off, no
/// blame surface exists.
#[test]
fn provenance_does_not_change_results() {
    let prog = lower(&big_src());
    let plain = solve(&prog, &unlimited());
    assert_eq!(plain.status, PtaStatus::Completed);
    assert!(!plain.has_blame());
    assert!(plain.export_blame_json().is_none());
    assert!(plain.blame_histogram().is_empty());
    let r = solve(&prog, &prov(unlimited()));
    assert_eq!(r.status, PtaStatus::Completed);
    assert!(r.has_blame());
    assert_eq!(
        r.export_json(),
        plain.export_json(),
        "provenance changed the points-to sets"
    );
}

/// Blame exports are complete and deterministic, on the wide program and
/// on a copy cycle feeding a ⋆-smearing dynamic read.
#[test]
fn blame_exports_are_complete_and_deterministic() {
    let cyclic = r#"
        function mk() { return { tag: {} }; }
        var a = mk(); var b = mk(); var c = mk();
        for (var i = 0; i < 3; i = i + 1) { b = a; c = b; a = c; }
        var key = somethingUnknown;
        var sink = a[key];
    "#;
    for (name, src) in [("wide", big_src()), ("copy-cycle", cyclic.to_owned())] {
        let prog = lower(&src);
        let cfg = prov(unlimited());
        let r = solve(&prog, &cfg);
        assert_eq!(r.status, PtaStatus::Completed, "{name}");
        assert_blame_covers_sets(&r, name);
        let got = r.export_blame_json().expect("provenance was on");
        assert!(
            got.contains("star-smear"),
            "{name}: the dynamic access never surfaced a ⋆ smear"
        );
        let again = solve(&prog, &cfg).export_blame_json();
        assert_eq!(
            again.as_ref(),
            Some(&got),
            "{name}: blame export is not deterministic"
        );
    }
}

/// Budget-truncated provenance runs stay budget-exact, blame every kept
/// tuple, and are deterministic.
#[test]
fn truncated_blame_is_budget_exact_and_deterministic() {
    let prog = lower(&big_src());
    let full = solve(&prog, &prov(unlimited()));
    assert_eq!(full.status, PtaStatus::Completed);
    let needed = full.stats.propagations;
    assert!(needed > 1_000, "program too small: {needed}");
    for budget in [needed / 7, needed / 3, needed / 2 + 1, needed - 1] {
        let cfg = prov(PtaConfig {
            budget,
            ..Default::default()
        });
        let r = solve(&prog, &cfg);
        assert_eq!(r.status, PtaStatus::BudgetExceeded, "budget={budget}");
        assert_eq!(
            r.stats.propagations, budget,
            "budget={budget}: truncation must be budget-exact"
        );
        assert_blame_covers_sets(&r, &format!("budget={budget}"));
        let again = solve(&prog, &cfg);
        assert_eq!(
            (again.export_json(), again.export_blame_json()),
            (r.export_json(), r.export_blame_json()),
            "budget={budget}: truncated blame is not deterministic"
        );
    }
}

/// Blame explains the partial result the user actually got: at every
/// truncating budget, the provenance solve keeps exactly the tuples (and
/// does exactly the work) of the provenance-free solve.
#[test]
fn truncated_provenance_solve_matches_plain_solve() {
    let prog = lower(&big_src());
    let needed = solve(&prog, &unlimited()).stats.propagations;
    for budget in [needed / 7, needed / 3, needed / 2 + 1, needed - 1] {
        let cfg = PtaConfig {
            budget,
            ..Default::default()
        };
        let plain = solve(&prog, &cfg);
        let r = solve(&prog, &prov(cfg));
        assert_eq!(plain.status, PtaStatus::BudgetExceeded, "budget={budget}");
        assert_eq!(r.status, plain.status, "budget={budget}");
        assert_eq!(
            r.stats.propagations, plain.stats.propagations,
            "budget={budget}: provenance changed the work done"
        );
        assert_eq!(
            r.export_json(),
            plain.export_json(),
            "budget={budget}: provenance changed the partial result"
        );
    }
}

/// The cause taxonomy surfaces the right kinds on a program exercising
/// each imprecision source: precise seeds are `base`, the ⋆ join smears
/// a dynamic read, eval results blame the eval site, calling an opaque
/// value blames the native call site, and thrown values flowing into a
/// catch variable blame exception havoc.
#[test]
fn cause_kinds_name_the_imprecision_sources() {
    let src = r#"
        function f() { return 1; }
        var o = {};
        o.p = f;
        var key = somethingUnknown;
        var got = o[key];
        var e = eval("f");
        var r = e();
        try { throw f; } catch (caught) { var c = caught; }
    "#;
    let prog = lower(src);
    let r = solve(&prog, &prov(unlimited()));
    assert_eq!(r.status, PtaStatus::Completed);
    assert_blame_covers_sets(&r, "cause-kinds");
    let kinds: std::collections::BTreeSet<&'static str> =
        r.blame_histogram().iter().map(|(c, _)| c.kind()).collect();
    for want in ["base", "star-smear", "eval", "native", "exc-flow"] {
        assert!(kinds.contains(want), "missing cause kind {want}: {kinds:?}");
    }
    // The histogram is deterministic.
    let again = solve(&prog, &prov(unlimited()));
    assert_eq!(r.blame_histogram(), again.blame_histogram());
    assert_eq!(r.export_blame_json(), again.export_blame_json());
}
