//! Specializer edge cases: caps, nested unrolling with occurrence
//! contexts, and interactions between transformations.

use determinacy::driver::DetHarness;
use determinacy::AnalysisConfig;
use mujs_interp::{Interp, InterpOptions};
use mujs_specialize::{specialize, SpecConfig, Specialized};

fn run_spec_cfg(src: &str, cfg: SpecConfig) -> (DetHarness, Specialized) {
    let mut h = DetHarness::from_src(src).expect("parses");
    let mut out = h.analyze(AnalysisConfig::default());
    let spec = specialize(&h.program, &out.facts, &mut out.ctxs, &cfg);
    (h, spec)
}

fn run_spec(src: &str) -> (DetHarness, Specialized) {
    run_spec_cfg(src, SpecConfig::default())
}

fn run_output(prog: &mujs_ir::Program) -> Vec<String> {
    let mut p = prog.clone();
    let mut i = Interp::new(&mut p, InterpOptions::default());
    i.run().expect("runs");
    i.output.clone()
}

#[test]
fn nested_unrolled_loops_get_per_iteration_facts() {
    // Four distinct eval strings across a 2×2 nest: the occurrence
    // contexts must line up between the dynamic run and the unroller.
    let src = r#"
var log = "";
for (var i = 0; i < 2; i++) {
  for (var j = 0; j < 2; j++) {
    log += eval("'" + i + "-" + j + ";'");
  }
}
console.log(log);
"#;
    let (_, spec) = run_spec(src);
    // outer once + inner twice (once per unrolled outer iteration)
    assert_eq!(spec.report.loops_unrolled, 3, "{:?}", spec.report);
    assert_eq!(spec.report.evals_eliminated, 4, "{:?}", spec.report);
    assert_eq!(run_output(&spec.program), vec!["0-0;0-1;1-0;1-1;"]);
}

#[test]
fn max_unroll_cap_respected() {
    let src = r#"
var n = 0;
for (var i = 0; i < 40; i++) { n += eval("1"); }
console.log(n);
"#;
    let cfg = SpecConfig {
        max_unroll: 8,
        ..Default::default()
    };
    let (_, spec) = run_spec_cfg(src, cfg);
    assert_eq!(spec.report.loops_unrolled, 0, "40 > cap of 8");
    // Eval stays (inside a kept loop).
    assert_eq!(spec.report.evals_eliminated, 0);
    assert_eq!(run_output(&spec.program), vec!["40"]);
}

#[test]
fn max_clones_cap_respected() {
    let mut src = String::new();
    src.push_str("function probe(k) { if (k === 0) { return 1; } return 2; }\n");
    for i in 0..40 {
        src.push_str(&format!("probe({});\n", i % 2));
    }
    let cfg = SpecConfig {
        max_clones: 5,
        ..Default::default()
    };
    let (_, spec) = run_spec_cfg(&src, cfg);
    assert!(spec.report.clones <= 5, "{:?}", spec.report);
    assert!(run_output(&spec.program).is_empty());
}

#[test]
fn pruning_inside_unrolled_loop() {
    // Per-iteration conditions become determinate through the Cond facts
    // at ROOT context once the loop is unrolled... conditions here depend
    // on the loop variable, so the *merged* per-(point,ctx) fact is
    // indeterminate and must NOT be pruned — correctness over aggression.
    let src = r#"
var s = "";
for (var i = 0; i < 3; i++) {
  if (i === 1) { s += "mid;"; } else { s += eval("'edge;'"); }
}
console.log(s);
"#;
    let (_, spec) = run_spec(src);
    assert_eq!(run_output(&spec.program), vec!["edge;mid;edge;"]);
}

#[test]
fn eval_declaring_function_used_after_inline() {
    let src = r#"
eval("function mk(n) { return n + 1; }");
console.log(mk(41));
"#;
    let (_, spec) = run_spec(src);
    assert_eq!(spec.report.evals_eliminated, 1);
    assert_eq!(run_output(&spec.program), vec!["42"]);
}

#[test]
fn chained_clone_depth_is_bounded() {
    let src = r#"
function l1(x) { return l2(x); }
function l2(x) { return l3(x); }
function l3(x) { return l4(x); }
function l4(x) { return l5(x); }
function l5(x) { if (x === 1) { return "one"; } return "other"; }
console.log(l1(1));
"#;
    let cfg = SpecConfig {
        max_context_depth: 4,
        ..Default::default()
    };
    let (_, spec) = run_spec_cfg(src, cfg);
    // The chain is 5 deep; cloning stops at depth 4, so l5's branch is
    // not pruned, but behavior is preserved.
    assert!(spec.report.clones <= 4, "{:?}", spec.report);
    assert_eq!(run_output(&spec.program), vec!["one"]);
}

#[test]
fn redirect_skipped_for_closure_valued_callees_with_foreign_env() {
    // A closure factory: the inner function's captured environment varies
    // per factory call, so the specializer must not redirect calls to it
    // (its parent is neither the entry nor on the specialization chain).
    let src = r#"
function make(tag) {
  return function inner(x) {
    if (tag === "a") { return "A" + x; }
    return "B" + x;
  };
}
var fa = make("a");
var fb = make("b");
console.log(fa(1), fb(2));
"#;
    let (_, spec) = run_spec(src);
    assert_eq!(run_output(&spec.program), vec!["A1 B2"]);
}

#[test]
fn idempotent_on_already_specialized_output() {
    let src = r#"
var k = "wi" + "dth";
var o = {};
o[k] = 20;
console.log(o.width);
"#;
    let (h, spec1) = run_spec(src);
    // Re-analyze the specialized program and specialize again: nothing new.
    let mut prog = spec1.program.clone();
    let mut m = determinacy::DMachine::new(&mut prog, AnalysisConfig::default());
    let status = m.run();
    assert_eq!(status, determinacy::AnalysisStatus::Completed);
    let facts = std::mem::replace(&mut m.facts, determinacy::FactDb::new(0));
    let mut ctxs = std::mem::take(&mut m.ctxs);
    drop(m);
    let spec2 = specialize(&prog, &facts, &mut ctxs, &SpecConfig::default());
    assert_eq!(spec2.report.keys_staticized, 0, "{:?}", spec2.report);
    assert_eq!(run_output(&spec2.program), vec!["20"]);
    let _ = h;
}

#[test]
fn break_exited_loops_are_not_unrolled() {
    // `trips` counts completed iterations; the break iteration's prefix
    // effects must survive, so the loop must not be unrolled.
    let src = r#"
var log = "";
for (var i = 0; i < 10; i++) {
  log += "pre" + i + ";";
  if (i === 2) { break; }
  log += eval("'post" + i + ";'");
}
console.log(log);
"#;
    let (_, spec) = run_spec(src);
    assert_eq!(spec.report.loops_unrolled, 0, "{:?}", spec.report);
    assert_eq!(
        run_output(&spec.program),
        vec!["pre0;post0;pre1;post1;pre2;"]
    );
}

/// Specializes `eval(code)` (a determinate string) on a 2 MiB thread and
/// returns the eliminated-eval count and the specialized program's output.
fn specialize_eval_on_default_stack(code: &str) -> (usize, Vec<String>) {
    let src = format!(
        "var s = \"{code}\"; var r; try {{ r = eval(s); }} catch (e) {{ r = e.name; }} console.log(r);"
    );
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, || {
                let (_, spec) = run_spec(&src);
                (spec.report.evals_eliminated, run_output(&spec.program))
            })
            .expect("spawn")
            .join()
            .expect("no panic")
    })
}

#[test]
fn eval_inlining_parses_under_the_inline_guard() {
    // The specializer parses and lowers eval code on its caller's stack,
    // so it uses the inline nesting guard: code at the guard is inlined,
    // deeper code stays a dynamic eval (which throws a SyntaxError).
    let nested = |depth: usize| format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
    let at_guard = ((mujs_syntax::INLINE_NESTING - 3) / 2) as usize;
    assert_eq!(
        specialize_eval_on_default_stack(&nested(at_guard)),
        (1, vec!["1".to_owned()])
    );
    assert_eq!(
        specialize_eval_on_default_stack(&nested(600)),
        (0, vec!["SyntaxError".to_owned()])
    );
}
