//! Shortcut region selection (`determinacy::determinate_regions`): an
//! executed function holding exceptional or eval control flow — a `try`
//! of any shape at any depth, a `throw`, a direct `eval` — is never a
//! region, while a plain executed function with determinate facts is.
//!
//! The body scan is the only guard: a function it admits has no
//! exceptional edges, so no summary ever covers code whose writes a
//! `catch` or `finally` could observe half done.

use determinacy::{determinate_regions, AnalysisConfig, DetHarness, FactDb};
use mujs_ir::{FuncId, Program};

fn analyze(src: &str) -> (Program, FactDb) {
    let mut h = DetHarness::from_src(src).expect("parses");
    let out = h.analyze(AnalysisConfig::default());
    (h.program, out.facts)
}

fn func(prog: &Program, name: &str) -> FuncId {
    let sym = prog.interner.get(name).expect("name interned");
    prog.funcs
        .iter()
        .find(|f| f.name == Some(sym))
        .unwrap_or_else(|| panic!("no function `{name}`"))
        .id
}

/// A function counts as executed when the run recorded a fact inside it.
fn executed(prog: &Program, db: &FactDb, f: FuncId) -> bool {
    db.iter().any(|(_, point, _, _)| prog.func_of(point) == f)
}

/// Each source defines and calls `plain` (a region) and `f` (not one).
fn assert_only_plain(label: &str, src: &str) {
    let src = format!(
        "function plain(v) {{ var o = {{}}; o.x = v; return o; }}\n\
         var p = plain(1);\n{src}"
    );
    let (prog, db) = analyze(&src);
    let (plain, f) = (func(&prog, "plain"), func(&prog, "f"));
    assert!(executed(&prog, &db, f), "{label}: `f` never ran");
    let regions = determinate_regions(&prog, &db);
    assert!(regions.contains(&plain), "{label}: `plain` not selected");
    assert!(!regions.contains(&f), "{label}: `f` selected: {regions:?}");
}

#[test]
fn a_plain_executed_function_is_a_region() {
    let (prog, db) =
        analyze("function plain(v) { var o = {}; o.x = v; return o; } var p = plain(1);");
    assert_eq!(determinate_regions(&prog, &db), vec![func(&prog, "plain")]);
}

#[test]
fn catch_only_try_is_never_a_region() {
    assert_only_plain(
        "catch-only",
        "function f() { var r = 1; try { r = 2; } catch (e) { r = 3; } return r; } var a = f();",
    );
}

#[test]
fn finally_only_try_is_never_a_region() {
    assert_only_plain(
        "finally-only",
        "function f() { var r = 1; try { r = 2; } finally { r = 3; } return r; } var a = f();",
    );
}

#[test]
fn try_nested_in_an_if_is_never_a_region() {
    assert_only_plain(
        "try-in-if",
        "function f(c) { var r = 1; if (c) { try { r = 2; } catch (e) { r = 3; } } return r; }\n\
         var a = f(true);",
    );
}

#[test]
fn try_nested_in_a_loop_is_never_a_region() {
    assert_only_plain(
        "try-in-loop",
        "function f() { var r = 0; for (var i = 0; i < 2; i++) { try { r = r + i; } finally { r = r + 1; } } return r; }\n\
         var a = f();",
    );
}

#[test]
fn a_throw_is_never_a_region() {
    assert_only_plain(
        "throw",
        "function f(c) { if (c) { throw 1; } return 2; } var a = f(false);",
    );
}

#[test]
fn a_direct_eval_is_never_a_region() {
    assert_only_plain(
        "eval",
        "function f() { var r = eval('1 + 1'); return r; } var a = f();",
    );
}
