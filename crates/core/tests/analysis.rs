//! Behavioral tests of the instrumented semantics: determinacy
//! propagation, conditionals, counterfactual execution, heap flushes,
//! eval, and the paper's Figure 2 worked example.

use determinacy::driver::{AnalysisOutcome, DetHarness};
use determinacy::{AnalysisConfig, AnalysisStatus, Fact, FactDb, FactKind, FactValue, TripFact};
use mujs_interp::context::CtxId;
use mujs_ir::ir::StmtKind;
use mujs_ir::{Program, StmtId};

fn analyze(src: &str) -> (DetHarness, AnalysisOutcome) {
    analyze_cfg(src, AnalysisConfig::default())
}

fn analyze_cfg(src: &str, cfg: AnalysisConfig) -> (DetHarness, AnalysisOutcome) {
    let mut h = DetHarness::from_src(src).expect("parses");
    let out = h.analyze(cfg);
    (h, out)
}

/// Statement ids of `Copy` statements assigning the named variable.
fn assignments_of(prog: &Program, name: &str) -> Vec<StmtId> {
    let Some(sym) = prog.interner.get(name) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for f in &prog.funcs {
        Program::walk_block(&f.body, &mut |s| {
            if let StmtKind::Copy { dst, .. } = &s.kind {
                if dst.as_var_sym() == Some(sym) {
                    out.push(s.id);
                }
            }
        });
    }
    out
}

/// The merged define-facts (across all contexts) for assignments to `name`.
fn facts_for_var(h: &DetHarness, db: &FactDb, name: &str) -> Vec<Fact> {
    let mut out = Vec::new();
    for point in assignments_of(&h.program, name) {
        for (_, f) in db.at_point(FactKind::Define, point) {
            out.push(f.clone());
        }
    }
    out
}

fn assert_var_det(h: &DetHarness, out: &AnalysisOutcome, name: &str, expect: FactValue) {
    let fs = facts_for_var(h, &out.facts, name);
    assert!(!fs.is_empty(), "no facts for {name}");
    for f in fs {
        match f {
            Fact::Det(v) => assert!(v.same(&expect), "{name}: expected {expect}, got {v}"),
            Fact::Indet => panic!("{name}: expected determinate {expect}, got ?"),
        }
    }
}

fn assert_var_indet(h: &DetHarness, out: &AnalysisOutcome, name: &str) {
    let fs = facts_for_var(h, &out.facts, name);
    assert!(!fs.is_empty(), "no facts for {name}");
    assert!(
        fs.iter().all(|f| matches!(f, Fact::Indet)),
        "{name}: expected ?, got {fs:?}"
    );
}

#[test]
fn constants_are_determinate() {
    let (h, out) = analyze("var a = 1 + 2; var b = \"x\" + \"y\";");
    assert_eq!(out.status, AnalysisStatus::Completed);
    assert_var_det(&h, &out, "a", FactValue::Num(3.0));
    assert_var_det(&h, &out, "b", FactValue::Str("xy".into()));
}

#[test]
fn math_random_is_indeterminate_and_propagates() {
    let (h, out) = analyze("var r = Math.random(); var s = r * 100; var t = 5;");
    assert_var_indet(&h, &out, "r");
    assert_var_indet(&h, &out, "s");
    assert_var_det(&h, &out, "t", FactValue::Num(5.0));
}

#[test]
fn indet_hook_is_indeterminate() {
    let (h, out) = analyze("var x = __indet(42); var y = x + 1;");
    assert_var_indet(&h, &out, "x");
    assert_var_indet(&h, &out, "y");
}

#[test]
fn determinate_property_reads() {
    let (h, out) = analyze("var o = { f: 23 }; var v = o.f; var w = o.missing;");
    assert_var_det(&h, &out, "v", FactValue::Num(23.0));
    // Closed record: a missing property is determinately undefined.
    assert_var_det(&h, &out, "w", FactValue::Undefined);
}

#[test]
fn indeterminate_property_value() {
    let (h, out) = analyze("var o = { f: Math.random() }; var v = o.f;");
    assert_var_indet(&h, &out, "v");
}

#[test]
fn dynamic_key_write_opens_record() {
    let src = r#"
var o = { a: 1 };
var k = __indet("a");
o[k] = 2;
var v = o.a;       // property written under an indeterminate name
var w = o.other;   // record is now open: absence is unknowable
"#;
    let (h, out) = analyze(src);
    assert_var_indet(&h, &out, "v");
    assert_var_indet(&h, &out, "w");
}

#[test]
fn determinate_condition_executes_normally() {
    let src = r#"
var c = true;
var x = 0;
if (c) { x = 1; } else { x = 2; }
var y = x;
"#;
    let (h, out) = analyze(src);
    assert_var_det(&h, &out, "y", FactValue::Num(1.0));
}

#[test]
fn indeterminate_true_branch_marks_writes_after() {
    // The paper's second checkf call: the branch runs, facts *inside* are
    // determinate, but writes are indeterminate after the merge.
    let src = r#"
var c = __indet(true);
var inside = 0;
var x = 0;
if (c) { inside = 42; x = 1; }
var after = x;
"#;
    let (h, out) = analyze(src);
    // Fact recorded inside the branch (at its write) is determinate.
    let fs = facts_for_var(&h, &out.facts, "inside");
    assert!(
        fs.iter()
            .any(|f| matches!(f, Fact::Det(v) if v.same(&FactValue::Num(42.0)))),
        "inside-branch fact should be determinate: {fs:?}"
    );
    // But the value read after the merge is indeterminate.
    assert_var_indet(&h, &out, "after");
}

#[test]
fn counterfactual_execution_undoes_and_marks() {
    // Condition is indeterminate false: the branch must be explored
    // counterfactually, its writes undone, and the written locations
    // marked indeterminate.
    let src = r#"
var c = __indet(false);
var x = 5;
var witness = 0;
if (c) { x = 99; witness = 1; }
var after_x = x;
console.log(x);
"#;
    let (h, out) = analyze(src);
    // Undo happened: the concrete value is still 5 (visible in output).
    assert_eq!(out.output, vec!["5"]);
    // Marking happened: x is indeterminate after the conditional.
    assert_var_indet(&h, &out, "after_x");
    assert!(out.stats.counterfactuals >= 1);
}

#[test]
fn counterfactual_keeps_unwritten_locations_determinate() {
    let src = r#"
var c = __indet(false);
var x = 5;
var untouched = 7;
if (c) { x = 99; }
var a = x;
var b = untouched;
"#;
    let (h, out) = analyze(src);
    assert_var_indet(&h, &out, "a");
    assert_var_det(&h, &out, "b", FactValue::Num(7.0));
}

#[test]
fn counterfactual_heap_writes_are_undone() {
    let src = r#"
var c = __indet(false);
var o = { g: 1, h: true };
if (c) { o.g = 99; }
var g = o.g;
var hh = o.h;
console.log(o.g);
"#;
    let (h, out) = analyze(src);
    assert_eq!(out.output, vec!["1"]);
    assert_var_indet(&h, &out, "g");
    // z.h stays determinate (§2.1's z.h example).
    assert_var_det(&h, &out, "hh", FactValue::Bool(true));
}

#[test]
fn counterfactual_disabled_falls_back_to_abort() {
    let src = r#"
var c = __indet(false);
var o = { g: 1 };
if (c) { o.g = 99; }
var g = o.g;
"#;
    let cfg = AnalysisConfig {
        counterfactual: false,
        ..Default::default()
    };
    let (h, out) = analyze_cfg(src, cfg);
    assert_var_indet(&h, &out, "g");
    assert!(out.stats.heap_flushes >= 1, "CNTRABORT must flush");
    assert_eq!(out.stats.counterfactuals, 0);
}

#[test]
fn nested_counterfactual_depth_cutoff() {
    let src = r#"
var a = __indet(false);
var b = __indet(false);
var x = 0;
if (a) { if (b) { x = 1; } }
"#;
    let cfg = AnalysisConfig {
        cf_depth_k: 1,
        ..Default::default()
    };
    let (_, out) = analyze_cfg(src, cfg);
    // The inner counterfactual exceeds k=1 and aborts with a flush.
    assert!(out.stats.cf_aborts >= 1);
    assert!(out.stats.heap_flushes >= 1);

    // Ablation over the cut-off `k` on a 10-deep nest of untaken
    // indeterminate ifs: each level up to `k` runs counterfactually, the
    // level past it aborts once with one flush, and every extra level
    // explored yields more determinate facts.
    let depth = 10;
    let mut nested = String::from("var o = { v: 0 };\n");
    for _ in 0..depth {
        nested.push_str("if (__indet(false)) {\n");
    }
    nested.push_str("o.v = 1;\n");
    nested.push_str(&"}\n".repeat(depth));
    nested.push_str("console.log(o.v);\n");
    // (k, steps, determinate facts)
    for (k, steps, det) in [
        (0u32, 13, 10),
        (2, 21, 16),
        (4, 29, 22),
        (8, 45, 34),
        (16, 52, 40),
    ] {
        let cfg = AnalysisConfig {
            cf_depth_k: k,
            flush_cap: None,
            ..Default::default()
        };
        let (_, out) = analyze_cfg(&nested, cfg);
        let cut = u64::from(k < 10);
        assert_eq!(out.stats.counterfactuals, u64::from(k.min(10)), "k={k}");
        assert_eq!(out.stats.cf_aborts, cut, "k={k}");
        assert_eq!(u64::from(out.stats.heap_flushes), cut, "k={k}");
        assert_eq!(out.stats.steps, steps, "k={k}");
        assert_eq!(out.facts.det_count(), det, "k={k}");
    }

    // Counterfactual execution on vs off over a chain of 40 untaken
    // 8-statement branches: on, every branch is explored and undone with
    // no flush; off, every branch aborts and flushes the heap (ĈNTRABORT),
    // losing most determinate facts.
    let mut chain = String::from("var state = { x: 0 };\n");
    for i in 0..40 {
        chain.push_str(&format!("var c{i} = __indet(false);\nif (c{i}) {{\n"));
        for j in 0..8 {
            chain.push_str(&format!("  state.x = state.x + {j};\n"));
        }
        chain.push_str("}\n");
    }
    chain.push_str("console.log(state.x);\n");
    // (enabled, counterfactuals, aborts, flushes, determinate facts)
    for (enabled, cfs, aborts, flushes, det) in [(true, 40, 0, 0, 1104), (false, 0, 40, 40, 127)] {
        let cfg = AnalysisConfig {
            cf_depth_k: 8,
            counterfactual: enabled,
            flush_cap: None,
            ..Default::default()
        };
        let (_, out) = analyze_cfg(&chain, cfg);
        assert_eq!(out.stats.counterfactuals, cfs, "counterfactual={enabled}");
        assert_eq!(out.stats.cf_aborts, aborts, "counterfactual={enabled}");
        assert_eq!(out.stats.heap_flushes, flushes, "counterfactual={enabled}");
        assert_eq!(out.facts.det_count(), det, "counterfactual={enabled}");
    }
}

#[test]
fn indeterminate_callee_flushes_heap() {
    // Figure 2 line 21: `(y.f > 50 ? checkf : setg)(x, 72)`.
    let src = r#"
function f(p, v) { p.g = v; }
function g(p, v) { p.g = v + 1; }
var o = { f: 23 };
var which = __indet(true) ? f : g;
which(o, 72);
var after = o.f;
"#;
    let (h, out) = analyze(src);
    assert!(out.stats.heap_flushes >= 1);
    // Even o.f (untouched by the call) is conservatively indeterminate.
    assert_var_indet(&h, &out, "after");
}

#[test]
fn locals_survive_heap_flush() {
    // "x and y need not be made indeterminate, since they are local
    // variables and cannot possibly be written by any called function."
    let src = r#"
function run() {
  var local = 7;
  __opaque();
  var after = local;
  return after;
}
run();
"#;
    let (h, out) = analyze(src);
    assert!(out.stats.heap_flushes >= 1);
    assert_var_det(&h, &out, "after", FactValue::Num(7.0));
}

#[test]
fn captured_locals_do_not_survive_flush() {
    let src = r#"
function run() {
  var shared = 7;
  var touch = function() { shared = 8; };
  __opaque();
  var after = shared;
  return touch;
}
run();
"#;
    let (h, out) = analyze(src);
    assert_var_indet(&h, &out, "after");
}

#[test]
fn globals_do_not_survive_flush() {
    let src = r#"
var g = 7;
__opaque();
var after = g;
"#;
    let (h, out) = analyze(src);
    assert_var_indet(&h, &out, "after");
}

#[test]
fn figure2_worked_example() {
    // The full Figure 2 program; line numbers in this literal match the
    // comments.
    let src = r#"(function() {
  function checkf(p) {
    if (p.f < 32)
      setg(p, 42);
  }
  function setg(r, v) {
    r.g = v;
  }
  var x = { f: 23 },
      y = { f: Math.random() * 100 },
      xf1 = x.f,
      yf1 = y.f;
  checkf(x);
  var xf2 = x.f, xg2 = x.g;
  checkf(y);
  var yg = y.g;
  (y.f > 50 ? checkf : setg)(x, 72);
  var xg3 = x.g;
  var z = { f: x.g - 16, h: true };
  checkf(z);
  var zh = z.h;
})();
"#;
    let (h, out) = analyze(src);
    assert_eq!(out.status, AnalysisStatus::Completed);
    // J x.f K = 23, J y.f K = ?
    assert_var_det(&h, &out, "xf1", FactValue::Num(23.0));
    assert_var_indet(&h, &out, "yf1");
    // After the determinate-condition call: J x.f K = 23, J x.g K = 42.
    assert_var_det(&h, &out, "xf2", FactValue::Num(23.0));
    assert_var_det(&h, &out, "xg2", FactValue::Num(42.0));
    // After the indeterminate-condition call: J y.g K = ?.
    assert_var_indet(&h, &out, "yg");
    // After the indeterminate call: J x.g K = ? and a flush happened.
    assert_var_indet(&h, &out, "xg3");
    assert!(out.stats.heap_flushes >= 1);
    // z.h: f is indeterminate (from flushed x.g) but h stays determinate
    // inside this run... z is created after the flush, so its record is
    // closed and h was written determinately.
    assert_var_det(&h, &out, "zh", FactValue::Bool(true));
}

#[test]
fn qualified_facts_distinguish_call_sites() {
    // J p.f < 32 K 16→4 = true but the merged fact across call sites is ?.
    let src = r#"
function checkf(p) {
  var cond = p.f < 32;
  if (cond) { p.g = 42; }
}
var x = { f: 23 };
var y = { f: 40 };
checkf(x);
checkf(y);
"#;
    let (h, out) = analyze(src);
    let points = assignments_of(&h.program, "cond");
    assert_eq!(points.len(), 1);
    let per_ctx: Vec<(CtxId, Fact)> = out
        .facts
        .at_point(FactKind::Define, points[0])
        .map(|(c, f)| (c, f.clone()))
        .collect();
    // Two distinct contexts with different determinate values.
    assert_eq!(per_ctx.len(), 2);
    let mut vals: Vec<Option<bool>> = per_ctx
        .iter()
        .map(|(_, f)| f.value().and_then(|v| v.as_bool()))
        .collect();
    vals.sort();
    assert_eq!(vals, vec![Some(false), Some(true)]);
}

#[test]
fn facts_survive_after_flush_degrades_future_reads() {
    let src = r#"
var early = 1 + 1;   // recorded before any flush
__opaque();
var late = 1 + 1;    // constant: still determinate
var reread = early;  // reading the flushed global: indeterminate
"#;
    let (h, out) = analyze(src);
    assert_var_det(&h, &out, "early", FactValue::Num(2.0));
    assert_var_det(&h, &out, "late", FactValue::Num(2.0));
    assert_var_indet(&h, &out, "reread");
}

#[test]
fn loop_trip_counts_recorded() {
    let src = r#"
var props = ["width", "height"];
for (var i = 0; i < props.length; i++) { var p = props[i]; }
"#;
    let (h, out) = analyze(src);
    let trips: Vec<TripFact> = out.facts.iter_trips().map(|(_, _, t)| t).collect();
    assert!(
        trips.contains(&TripFact::Exact(2)),
        "expected a 2-trip loop fact, got {trips:?}"
    );
    let _ = h;
}

#[test]
fn max_facts_caps_trip_facts() {
    // The inner loop exits once per call, and every call runs under its
    // own occurrence-qualified context: 40 trip facts uncapped.
    let src = r#"
function f(n) { var s = 0; for (var i = 0; i < n; i++) { s = s + i; } return s; }
for (var j = 0; j < 40; j++) { f(j % 5); }
"#;
    let (_, full) = analyze(src);
    let all_trips = full.facts.iter_trips().count();
    assert_eq!(all_trips, 41, "40 calls plus the outer loop");
    assert_eq!(full.facts.dropped(), 0);
    for cap in [1usize, 7, 40] {
        let cfg = AnalysisConfig {
            max_facts: cap,
            ..Default::default()
        };
        let (_, out) = analyze_cfg(src, cfg);
        let trips = out.facts.iter_trips().count();
        assert_eq!(trips, cap, "max_facts={cap}");
        assert!(out.facts.len() <= cap, "max_facts={cap}");
        // Each trip fact past the cap is a dropped observation, on top of
        // the dropped point facts.
        assert!(
            out.facts.dropped() >= (all_trips - cap) as u64,
            "max_facts={cap}: dropped {}",
            out.facts.dropped()
        );
    }
}

#[test]
fn indeterminate_loop_bound_is_unknown() {
    let src = r#"
var n = __indet(3);
for (var i = 0; i < n; i++) { }
"#;
    let (_, out) = analyze(src);
    let trips: Vec<TripFact> = out.facts.iter_trips().map(|(_, _, t)| t).collect();
    assert!(trips.contains(&TripFact::Unknown));
}

#[test]
fn loop_writes_marked_after_indeterminate_guard() {
    let src = r#"
var n = __indet(2);
var acc = 0;
for (var i = 0; i < n; i++) { acc = acc + 1; }
var after = acc;
"#;
    let (h, out) = analyze(src);
    assert_var_indet(&h, &out, "after");
}

#[test]
fn determinate_loop_keeps_writes_determinate() {
    let src = r#"
var acc = 0;
for (var i = 0; i < 3; i++) { acc = acc + 1; }
var after = acc;
"#;
    let (h, out) = analyze(src);
    assert_var_det(&h, &out, "after", FactValue::Num(3.0));
}

/// Writes of a determinate loop's unmarked iterations still belong to an
/// enclosing ÎF1 region, which must mark them when it closes.
#[test]
fn loop_writes_reach_the_enclosing_branch_region() {
    let src = r#"
var c = __indet(true);
var acc = 0;
if (c) { for (var i = 0; i < 3; i++) { acc = acc + 1; } }
var after = acc;
"#;
    let (h, out) = analyze(src);
    assert_var_indet(&h, &out, "after");
}

/// Writes of a determinate loop's unmarked iterations inside a
/// counterfactual (ĈNTR) must be undone and marked with it.
#[test]
fn loop_writes_reach_the_enclosing_counterfactual() {
    let src = r#"
var c = __indet(false);
var acc = 0;
if (c) { for (var i = 0; i < 3; i++) { acc = acc + 1; } }
var after = acc;
console.log(acc);
"#;
    let (h, out) = analyze(src);
    assert_eq!(out.output, vec!["0"]);
    assert_var_indet(&h, &out, "after");
}

/// Analyzes `src` and checks that its output, after every rollback, is
/// the concrete interpreter's output and equals `expect`.
fn analyze_matching_concrete(src: &str, expect: &[&str]) -> (DetHarness, AnalysisOutcome) {
    let (h, out) = analyze(src);
    let concrete = mujs_interp::driver::run_src(src).expect("concrete run");
    assert_eq!(out.output, concrete, "instrumented output diverges");
    assert_eq!(out.output, expect);
    (h, out)
}

#[test]
fn nested_counterfactual_undoes_inner_heap_and_captured_writes() {
    // The inner ĈNTR writes a heap property, creates another and writes a
    // captured variable; the outer ĈNTR writes the same property before
    // and after it. Both rollbacks must restore the real values, and both
    // regions' writes must be marked.
    let src = r#"
var a = __indet(false);
var b = __indet(false);
var o = { p: 1, keep: 4 };
function make() {
  var n = 10;
  var get = function () { return n; };
  if (a) { o.p = 5; if (b) { o.p = 2; o.q = 3; n = 20; } o.p = o.p + n; }
  var rn = n;
  return get;
}
var g = make();
var rp = o.p;
var rq = o.q;
var rkeep = o.keep;
console.log(o.p);
console.log(o.q);
console.log(g());
"#;
    let (h, out) = analyze_matching_concrete(src, &["1", "undefined", "10"]);
    assert_eq!(out.stats.counterfactuals, 2);
    assert_eq!(out.stats.cf_aborts, 0);
    assert_var_indet(&h, &out, "rn");
    assert_var_indet(&h, &out, "rp");
    assert_var_indet(&h, &out, "rq");
    assert_var_det(&h, &out, "rkeep", FactValue::Num(4.0));
}

#[test]
fn branch_region_inside_counterfactual_is_undone() {
    // The taken branch of an indeterminate guard (rule ÎF1) runs inside a
    // ĈNTR: its writes are marked when the branch closes, and still
    // undone when the counterfactual rolls back.
    let src = r#"
var a = __indet(false);
var c = __indet(true);
var o = { p: 1, s: 0, keep: true };
var x = 1;
if (a) { if (c) { o.p = 7; x = 8; } o.s = o.p + x; }
var rp = o.p;
var rx = x;
var rs = o.s;
var rkeep = o.keep;
console.log(o.p);
console.log(x);
console.log(o.s);
"#;
    let (h, out) = analyze_matching_concrete(src, &["1", "1", "0"]);
    assert_eq!(out.stats.counterfactuals, 1);
    assert_var_indet(&h, &out, "rp");
    assert_var_indet(&h, &out, "rx");
    assert_var_indet(&h, &out, "rs");
    assert_var_det(&h, &out, "rkeep", FactValue::Bool(true));
}

#[test]
fn indeterminate_key_store_inside_counterfactual_is_undone() {
    // An indeterminate-key store (rule ŜTO) inside a ĈNTR forces the
    // record open and marks its properties; rollback restores the values
    // and the written property stays marked.
    let src = r#"
var a = __indet(false);
var k = __indet("p");
var o = { p: 1, r: 2 };
var u = { p: 3 };
if (a) { o[k] = 9; o.t = 1; }
var rp = o.p;
var rr = o.r;
var rup = u.p;
console.log(o.p);
console.log(o.r);
console.log(o.t);
"#;
    let (h, out) = analyze_matching_concrete(src, &["1", "2", "undefined"]);
    assert_eq!(out.stats.counterfactuals, 1);
    assert_var_indet(&h, &out, "rp");
    assert_var_indet(&h, &out, "rr");
    assert_var_det(&h, &out, "rup", FactValue::Num(3.0));
}

#[test]
fn eval_arg_facts_recorded() {
    // Figure 4's pattern: the eval argument is a determinate concatenation.
    let src = r#"
var id = "pc.sy.banner.tcck.";
var code = "ivymap['" + id + "']";
var ivymap = {};
var r = eval(code);
"#;
    let (h, out) = analyze(src);
    let mut eval_facts: Vec<Fact> = out
        .facts
        .iter()
        .filter(|(k, _, _, _)| *k == FactKind::EvalArg)
        .map(|(_, _, _, f)| f.clone())
        .collect();
    assert_eq!(eval_facts.len(), 1);
    match eval_facts.pop().unwrap() {
        Fact::Det(FactValue::Str(s)) => {
            assert_eq!(&*s, "ivymap['pc.sy.banner.tcck.']");
        }
        other => panic!("expected determinate string, got {other:?}"),
    }
    let _ = h;
}

#[test]
fn indeterminate_eval_flushes() {
    let src = r#"
var code = __indet("1 + 1");
var r = eval(code);
var x = 5;
"#;
    let (h, out) = analyze(src);
    assert!(out.stats.heap_flushes >= 1);
    assert_var_indet(&h, &out, "r");
    assert_var_det(&h, &out, "x", FactValue::Num(5.0));
}

#[test]
fn eval_code_is_recursively_analyzed() {
    let src = r#"
var r = eval("var inner = 2 + 3; inner");
var s = r + 1;
"#;
    let (h, out) = analyze(src);
    assert_var_det(&h, &out, "s", FactValue::Num(6.0));
    // Facts were recorded inside the eval chunk too.
    assert_var_det(&h, &out, "inner", FactValue::Num(5.0));
}

#[test]
fn callee_facts_identify_closures() {
    let src = r#"
function f() { return 1; }
var r = f();
"#;
    let (_, out) = analyze(src);
    let callees: Vec<&Fact> = out
        .facts
        .iter()
        .filter(|(k, _, _, _)| *k == FactKind::Callee)
        .map(|(_, _, _, f)| f)
        .collect();
    assert!(callees
        .iter()
        .any(|f| matches!(f, Fact::Det(FactValue::Closure(_)))));
}

#[test]
fn cond_facts_recorded_per_context() {
    // Figure 1's monomorphic-call-site insight: under each call site the
    // typeof test is determinate (with different values).
    let src = r#"
function $(selector) {
  if (typeof selector === "string") { return 1; }
  else { if (typeof selector === "function") { return 2; } else { return 3; } }
}
$("css");
$(function() {});
"#;
    let (_, out) = analyze(src);
    let cond_facts: Vec<(CtxId, Fact)> = out
        .facts
        .iter()
        .filter(|(k, _, _, _)| *k == FactKind::Cond)
        .map(|(_, _, c, f)| (c, f.clone()))
        .collect();
    // Every conditional fact is determinate under its full context.
    assert!(!cond_facts.is_empty());
    assert!(cond_facts.iter().all(|(_, f)| f.is_det()));
}

#[test]
fn flush_cap_stops_analysis() {
    let src = r#"
for (var i = 0; i < 100; i++) { __opaque(); }
"#;
    let cfg = AnalysisConfig {
        flush_cap: Some(10),
        ..Default::default()
    };
    let (_, out) = analyze_cfg(src, cfg);
    assert_eq!(out.status, AnalysisStatus::FlushCapReached);
    assert!(out.stats.heap_flushes >= 10);
}

#[test]
fn epoch_flush_cost_is_independent_of_heap_size() {
    // §4's epoch-counter flush is O(1) in heap size: 200 `__opaque()`
    // calls flush the same number of times, and cost the same number of
    // extra steps over the flush-free run, whether the live heap holds
    // 100 or 1600 objects.
    let src = |objects: usize, flushes: usize| {
        format!(
            "var store = [];\n\
             for (var i = 0; i < {objects}; i++) {{ store.push({{ idx: i, even: i % 2 }}); }}\n\
             for (var f = 0; f < {flushes}; f++) {{ __opaque(); }}\n\
             console.log(store.length);"
        )
    };
    let cfg = AnalysisConfig {
        flush_cap: None,
        ..Default::default()
    };
    for objects in [100, 400, 1600] {
        let (_, with) = analyze_cfg(&src(objects, 200), cfg.clone());
        let (_, without) = analyze_cfg(&src(objects, 0), cfg.clone());
        assert_eq!(with.stats.heap_flushes, 201, "{objects} objects");
        assert_eq!(
            with.stats.steps - without.stats.steps,
            1802,
            "{objects} objects"
        );
    }
}

#[test]
fn early_return_under_indeterminate_control() {
    // Other executions may not return: the function's suffix must be
    // accounted for (counterfactually), and the return value marked.
    let src = r#"
function f() {
  var local = 1;
  if (__indet(true)) { return 10; }
  local = 2;
  return 20;
}
var r = f();
"#;
    let (h, out) = analyze(src);
    assert_var_indet(&h, &out, "r");
    assert!(out.stats.counterfactuals >= 1);
}

#[test]
fn early_return_with_determinate_control_stays_precise() {
    let src = r#"
function f() {
  if (true) { return 10; }
  return 20;
}
var r = f();
"#;
    let (h, out) = analyze(src);
    assert_var_det(&h, &out, "r", FactValue::Num(10.0));
}

#[test]
fn indeterminate_break_aborts_loop_precision() {
    let src = r#"
var acc = 0;
for (var i = 0; i < 10; i++) {
  if (__indet(false)) { break; }
  acc = acc + 1;
}
var after = acc;
"#;
    let (h, out) = analyze(src);
    // The break did not fire concretely, but the counterfactual explores
    // it; acc is written inside a tainted region.
    assert_var_indet(&h, &out, "after");
}

#[test]
fn throw_under_indeterminate_control_taints_handler() {
    let src = r#"
var caught = 0;
try {
  if (__indet(true)) { throw "boom"; }
  caught = 1;
} catch (e) {
  caught = 2;
}
var after = caught;
"#;
    let (h, out) = analyze(src);
    assert_var_indet(&h, &out, "after");
}

#[test]
fn determinate_throw_keeps_handler_precise() {
    let src = r#"
var caught = 0;
try {
  throw 42;
} catch (e) {
  caught = e;
}
var after = caught;
"#;
    let (h, out) = analyze(src);
    assert_var_det(&h, &out, "after", FactValue::Num(42.0));
}

#[test]
fn output_matches_concrete_interpreter() {
    // Counterfactual execution must not leak output.
    let src = r#"
var c = __indet(false);
if (c) { console.log("ghost"); }
console.log("real");
"#;
    let (_, out) = analyze(src);
    assert_eq!(out.output, vec!["real"]);
}

#[test]
fn for_in_over_determinate_object() {
    let src = r#"
var o = { a: 1, b: 2 };
var ks = "";
for (var k in o) { ks = ks + k; }
var after = ks;
"#;
    let (h, out) = analyze(src);
    assert_var_det(&h, &out, "after", FactValue::Str("ab".into()));
}

#[test]
fn for_in_over_open_record_is_indeterminate() {
    let src = r#"
var o = { a: 1 };
o[__indet("a")] = 2;
var ks = "";
for (var k in o) { ks = ks + k; }
var after = ks;
"#;
    let (h, out) = analyze(src);
    assert_var_indet(&h, &out, "after");
}

#[test]
fn figure3_string_computation_facts() {
    let src = r#"
function Rectangle(w, h) { this.width = w; this.height = h; }
String.prototype.cap = function() { return this[0].toUpperCase() + this.substr(1); };
function defAccessors(prop) {
  var name = "get" + prop.cap();
  Rectangle.prototype[name] = function() { return this[prop]; };
}
var props = ["width", "height"];
for (var i = 0; i < props.length; i++) defAccessors(props[i]);
"#;
    let (h, out) = analyze(src);
    assert_eq!(out.status, AnalysisStatus::Completed);
    // Under each loop-iteration context, `name` is determinate with the
    // expected string — the key fact enabling §2.2's specialization.
    let points = assignments_of(&h.program, "name");
    assert_eq!(points.len(), 1);
    let vals: Vec<Option<String>> = out
        .facts
        .at_point(FactKind::Define, points[0])
        .map(|(_, f)| f.value().and_then(|v| v.as_str()).map(str::to_owned))
        .collect();
    assert_eq!(vals.len(), 2, "one fact per occurrence-qualified context");
    assert!(vals.contains(&Some("getWidth".to_owned())));
    assert!(vals.contains(&Some("getHeight".to_owned())));
}

#[test]
fn observations_skip_counterfactual_hits() {
    let src = r#"
var c = __indet(false);
var x = 1;
if (c) { x = 2; }
var y = x;
"#;
    let cfg = AnalysisConfig {
        record_observations: true,
        ..Default::default()
    };
    let (_, out) = analyze_cfg(src, cfg);
    // No observation carries the counterfactual value 2 into y.
    assert!(!out.observations.is_empty());
}
