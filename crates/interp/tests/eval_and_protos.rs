//! Deeper semantics: eval-chunk scoping, prototype mutation visibility,
//! and constructor edge cases.

use mujs_interp::driver::run_src;

fn out(src: &str) -> Vec<String> {
    run_src(src).expect("parses and runs")
}

#[test]
fn eval_defined_functions_are_callable_later() {
    assert_eq!(
        out("eval(\"function g(x) { return x * 2; }\"); console.log(g(21));"),
        vec!["42"]
    );
}

#[test]
fn eval_sees_and_mutates_enclosing_locals() {
    let src = r#"
function f() {
  var a = 1;
  eval("a = a + 10;");
  return a;
}
console.log(f());
"#;
    assert_eq!(out(src), vec!["11"]);
}

#[test]
fn nested_eval() {
    assert_eq!(out("console.log(eval(\"eval('2 + 3') * 2\"));"), vec!["10"]);
}

#[test]
fn eval_of_non_string_returns_value() {
    assert_eq!(out("console.log(eval(42));"), vec!["42"]);
}

#[test]
fn eval_syntax_error_throws_catchable() {
    let src = r#"
try { eval("var ="); console.log("no"); }
catch (e) { console.log("caught", e.name); }
"#;
    assert_eq!(out(src), vec!["caught SyntaxError"]);
}

#[test]
fn prototype_mutation_visible_to_existing_instances() {
    let src = r#"
function F() {}
var a = new F();
F.prototype.m = function() { return "late"; };
console.log(a.m());
"#;
    assert_eq!(out(src), vec!["late"]);
}

#[test]
fn own_property_shadows_prototype() {
    let src = r#"
function F() {}
F.prototype.v = 1;
var a = new F();
a.v = 2;
var b = new F();
console.log(a.v, b.v);
delete a.v;
console.log(a.v);
"#;
    assert_eq!(out(src), vec!["2 1", "1"]);
}

#[test]
fn two_level_prototype_chain() {
    let src = r#"
function A() {}
A.prototype.who = function() { return "A"; };
function B() {}
B.prototype = new A();
var b = new B();
console.log(b.who(), b instanceof B, b instanceof A);
"#;
    assert_eq!(out(src), vec!["A true true"]);
}

#[test]
fn constructor_without_args_parses_and_runs() {
    assert_eq!(
        out("function F() { this.x = 9; } var o = new F; console.log(o.x);"),
        vec!["9"]
    );
}

#[test]
fn builtin_constructors() {
    assert_eq!(
        out("var a = new Array(3); console.log(a.length);"),
        vec!["3"]
    );
    assert_eq!(
        out("var e = new Error(\"boom\"); console.log(e.message, e.name);"),
        vec!["boom Error"]
    );
    assert_eq!(
        out("var o = new Object(); o.k = 1; console.log(o.k);"),
        vec!["1"]
    );
}

#[test]
fn error_objects_catchable_with_instanceof() {
    let src = r#"
try { throw new Error("x"); }
catch (e) { console.log(e instanceof Error); }
"#;
    assert_eq!(out(src), vec!["true"]);
}

#[test]
fn this_in_eval_matches_caller() {
    let src = r#"
var o = { v: 5, m: function() { return eval("this.v"); } };
console.log(o.m());
"#;
    assert_eq!(out(src), vec!["5"]);
}

#[test]
fn global_functions_visible_across_eval_boundary() {
    assert_eq!(
        out("function h() { return 7; } console.log(eval(\"h()\"));"),
        vec!["7"]
    );
}

#[test]
fn string_number_boolean_wrappers_as_calls() {
    assert_eq!(
        out("console.log(String(12), Number(\"3\"), Boolean(\"\"), Boolean(\"x\"));"),
        vec!["12 3 false true"]
    );
}

#[test]
fn window_props_and_typeof_interaction() {
    assert_eq!(
        out("console.log(typeof window.missing, typeof window.Math);"),
        vec!["undefined object"]
    );
}

/// Runs `f` on a thread with the 2 MiB default stack, whatever
/// `RUST_MIN_STACK` says.
fn on_default_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, f)
            .expect("spawn")
            .join()
            .expect("no panic")
    })
}

fn nested_parens(depth: usize) -> String {
    format!("{}1{}", "(".repeat(depth), ")".repeat(depth))
}

/// `eval` of `code` whose SyntaxError, if any, is caught and printed.
fn eval_program(code: &str) -> String {
    format!(
        "var s = \"{code}\"; var r; try {{ r = eval(s); }} catch (e) {{ r = e.name; }} console.log(r);"
    )
}

#[test]
fn deep_eval_code_is_a_catchable_syntax_error() {
    // Eval code is parsed and lowered on the machine's own stack, under
    // the inline nesting guard: deeper code throws instead of overflowing.
    let src = eval_program(&nested_parens(600));
    assert_eq!(on_default_stack(|| out(&src)), vec!["SyntaxError"]);
}

#[test]
fn eval_code_at_the_inline_guard_runs() {
    // The statement, the expression and each paren level take one, one
    // and two guard entries: 30 levels is the deepest the guard admits.
    let depth = ((mujs_syntax::INLINE_NESTING - 3) / 2) as usize;
    assert_eq!(depth, 30);
    let src = eval_program(&nested_parens(depth));
    assert_eq!(on_default_stack(|| out(&src)), vec!["1"]);
    let src = eval_program(&nested_parens(depth + 1));
    assert_eq!(on_default_stack(|| out(&src)), vec!["SyntaxError"]);
}

#[test]
fn harness_parses_deep_input_from_a_default_stack() {
    // `Harness::from_src` goes through the frontend entry point, which
    // moves input nested past the inline guard to a big-stack thread.
    let depth = (mujs_syntax::MAX_NESTING / 2 - 4) as usize;
    let src = format!("console.log({});", nested_parens(depth));
    assert_eq!(on_default_stack(|| out(&src)), vec!["1"]);
    let src = format!(
        "console.log({});",
        nested_parens(mujs_syntax::MAX_NESTING as usize)
    );
    let err = on_default_stack(|| mujs_interp::driver::Harness::from_src(&src).map(|_| ()));
    assert_eq!(
        err.unwrap_err().kind,
        mujs_syntax::SyntaxErrorKind::NestingTooDeep
    );
}
