//! The eval-elimination benchmark suite — a synthetic stand-in for the
//! Jensen et al. \[17\] programs used in §5.2.
//!
//! The paper reports category-level outcomes over 28 programs (4 not
//! runnable, 24 analyzed): 14 fully specialized by the plain analysis,
//! 20 under the DetDOM assumption, with the remaining failures broken
//! down as 1 genuinely indeterminate string, 4 uses not covered by the
//! dynamic run (2 of which DetDOM proves unreachable), 1 DOM-caused
//! indeterminacy at the eval itself, and 4 indeterminate loop bounds
//! (3 DOM-caused). Each benchmark below encodes one instance of its
//! category.

use mujs_dom::document::{Document, DocumentBuilder};
use mujs_dom::events::EventPlan;

/// Expected §5.2 outcome for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// Every eval use specialized away.
    Eliminated,
    /// At least one eval survives because its string is indeterminate.
    IndeterminateString,
    /// At least one eval survives because the dynamic run never reached
    /// it (while the static analysis considers it reachable).
    NotCovered,
    /// At least one eval survives inside a loop without a determinate
    /// bound.
    LoopBound,
}

/// One benchmark program.
#[derive(Debug, Clone)]
pub struct EvalBenchmark {
    /// Name (used in the harness output).
    pub name: &'static str,
    /// The source.
    pub src: String,
    /// Whether the program can run in the harness (the paper excluded 4:
    /// 3 with missing code, 1 ZombieJS-incompatible).
    pub runnable: bool,
    /// Whether the program needs the DOM installed.
    pub needs_dom: bool,
    /// Expected outcome with the plain analysis.
    pub expected: Expected,
    /// Expected outcome under DetDOM.
    pub expected_detdom: Expected,
}

impl EvalBenchmark {
    fn new(
        name: &'static str,
        src: &str,
        needs_dom: bool,
        expected: Expected,
        expected_detdom: Expected,
    ) -> Self {
        EvalBenchmark {
            name,
            src: src.to_owned(),
            runnable: true,
            needs_dom,
            expected,
            expected_detdom,
        }
    }

    fn non_runnable(name: &'static str, src: &str) -> Self {
        EvalBenchmark {
            name,
            src: src.to_owned(),
            runnable: false,
            needs_dom: false,
            expected: Expected::NotCovered,
            expected_detdom: Expected::NotCovered,
        }
    }

    /// A default document for the DOM-dependent benchmarks.
    pub fn doc(&self) -> Document {
        DocumentBuilder::new()
            .title("evalbench")
            .element(
                "div",
                Some("cfg"),
                &[("data-mode", "fast"), ("data-n", "3")],
            )
            .element("button", Some("go"), &[])
            .build()
    }

    /// The (empty) event plan; handler-coverage benchmarks rely on the
    /// plan *not* clicking.
    pub fn plan(&self) -> EventPlan {
        EventPlan::new()
    }
}

/// `(name, source)` pairs for the 24 *runnable* benchmarks, in suite
/// order — batch-manifest generation for `mujs-jobs`. Sources only: batch
/// jobs run against the pipeline's default (service) page, not
/// [`EvalBenchmark::doc`], so DOM-dependent benchmarks exercise
/// scheduling and determinism rather than the §5.2 elimination results
/// (`eval_elim` hands each benchmark its own page).
pub fn named_sources() -> Vec<(String, String)> {
    all()
        .into_iter()
        .filter(|b| b.runnable)
        .map(|b| (format!("evalbench-{}", b.name), b.src))
        .collect()
}

/// All 28 benchmarks.
pub fn all() -> Vec<EvalBenchmark> {
    use Expected::*;
    // ---- 14 programs fully handled by the plain analysis ----------------
    let mut v = vec![EvalBenchmark::new(
        "const-string",
        r#"var r = eval("6 * 7"); console.log(r);"#,
        false,
        Eliminated,
        Eliminated,
    )];
    v.push(EvalBenchmark::new(
        "const-statement",
        r#"eval("var shared = 10;"); console.log(shared + 1);"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "const-function-def",
        r#"eval("function mkAdder(n) { return function(x) { return x + n; }; }");
var add2 = mkAdder(2);
console.log(add2(40));"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "concat-ivymap",
        // Figure 4, nearly verbatim — the case unevalizer cannot handle.
        r#"ivymap = window.ivymap || {};
ivymap["pc.sy.banner.tcck."] = function() { console.log("shown"); };
function showIvyViaJs(locationId) {
  var _f = undefined;
  var _fconv = "ivymap['" + locationId + "']";
  try {
    _f = eval(_fconv);
    if (_f != undefined) { _f(); }
  } catch (e) {}
}
showIvyViaJs('pc.sy.banner.tcck.');
showIvyViaJs('pc.sy.banner.duilian.');"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "concat-accessor",
        r#"var config = { widgetName: "chart" };
function load(kind) {
  return eval("config." + kind + "Name");
}
console.log(load("widget"));"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "forin-dispatch",
        // "Other cases involve for-in loops: if the set of properties to
        // iterate over is determinate, our analysis assumes the iteration
        // order is also determinate."
        r#"var handlers = { alpha: 1, beta: 2 };
var out = 0;
for (var k in handlers) {
  out += eval("handlers." + k);
}
console.log(out);"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "forin-setter",
        r#"var defaults = { speed: 5, color: "red" };
var target = {};
for (var key in defaults) {
  eval("target." + key + " = defaults." + key + ";");
}
console.log(target.speed, target.color);"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "config-builder",
        r#"var mode = "debug";
var code = "var level = '" + mode + "';";
eval(code);
console.log(level);"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "getter-factory",
        r#"function makeGetter(field) {
  return eval("(function(o) { return o." + field + "; })");
}
var getX = makeGetter("x");
console.log(getX({ x: 7 }));"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "bounded-loop",
        r#"var parts = ["a", "b"];
for (var i = 0; i < parts.length; i++) {
  eval("var v_" + parts[i] + " = " + i + ";");
}
console.log(v_a + v_b);"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "bounded-loop-accessors",
        r#"var fields = ["w", "h"];
var obj = { w: 2, h: 3 };
var area = 1;
for (var i = 0; i < fields.length; i++) {
  area = area * eval("obj." + fields[i]);
}
console.log(area);"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "helper-context",
        r#"function run(expr) { return eval(expr); }
console.log(run("1 + 2"));
console.log(run("3 + 4"));"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "json-literal",
        r#"var data = eval("({ a: 1, b: [2, 3] })");
console.log(data.a + data.b[1]);"#,
        false,
        Eliminated,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "guarded-eval",
        r#"var enabled = true;
if (enabled) {
  eval("var flag = 'on';");
} else {
  eval("var flag = 'off';");
}
console.log(flag);"#,
        false,
        Eliminated,
        Eliminated,
    ));

    // ---- 1 genuinely indeterminate string --------------------------------
    v.push(EvalBenchmark::new(
        "random-expression",
        r#"var n = Math.floor(Math.random() * 10);
var r = eval("1 + " + n);
console.log(r >= 1);"#,
        false,
        IndeterminateString,
        IndeterminateString,
    ));

    // ---- 4 coverage gaps (2 fixed by DetDOM's dead-code detection) -------
    v.push(EvalBenchmark::new(
        "uncovered-handler",
        // The handler never fires in the observed run, but the static
        // analysis reaches it through the user-level dispatch table.
        r#"var table = [];
function register(fn) { table.push(fn); }
function runAll() { for (var i = 0; i < table.length; i++) table[i](); }
register(function() { console.log("safe"); });
runAll();
register(function() { eval("sneaky()"); });"#,
        false,
        NotCovered,
        NotCovered,
    ));
    v.push(EvalBenchmark::new(
        "uncovered-error-path",
        r#"function recover(state) {
  eval("state.reset()");
}
function main() {
  var ok = true;
  if (!ok) { recover({}); }
  console.log("done");
}
main();
var keepReachable = recover;"#,
        false,
        NotCovered,
        NotCovered,
    ));
    v.push(EvalBenchmark::new(
        "dom-guarded-legacy",
        // The shim handler is only registered under a DOM condition.
        // Without DetDOM the guard is indeterminate and the handler (never
        // invoked, so never covered) keeps its eval while the static
        // analysis reaches it through the dispatch table; with DetDOM the
        // guard is determinately false and the dead registration — handler
        // included — is pruned.
        r#"var table = [];
function register(fn) { table.push(fn); }
function runAll() { for (var i = 0; i < table.length; i++) table[i](); }
var legacy = document.getElementById("cfg") === null;
if (legacy) {
  register(function() { eval("installShim()"); });
}
runAll();
console.log(legacy);"#,
        true,
        NotCovered,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "dom-guarded-quirks",
        r#"var handlers = [];
function on(fn) { handlers.push(fn); }
function fire() { for (var i = 0; i < handlers.length; i++) handlers[i](); }
var mode = document.getElementById("cfg").getAttribute("data-mode");
if (mode === "legacy") {
  on(function() { eval("window.quirks = true;"); });
}
on(function() { console.log("standard"); });
fire();"#,
        true,
        NotCovered,
        Eliminated,
    ));

    // ---- 1 DOM-caused indeterminacy at the eval itself ---------------------
    v.push(EvalBenchmark::new(
        "dom-arg",
        r#"var el = document.getElementById("cfg");
var expr = "'" + el.getAttribute("data-mode") + "'";
var mode = eval(expr);
console.log(mode);"#,
        true,
        IndeterminateString,
        Eliminated,
    ));

    // ---- 4 loop-bound failures (3 DOM-caused) ------------------------------
    v.push(EvalBenchmark::new(
        "dom-loop-children",
        r#"var n = Number(document.getElementById("cfg").getAttribute("data-n"));
for (var i = 0; i < n; i++) {
  eval("var step" + i + " = " + i + ";");
}
console.log(n);"#,
        true,
        LoopBound,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "dom-loop-tags",
        r#"var count = document.getElementsByTagName("button").length;
for (var i = 0; i < count; i++) {
  eval("var seen = " + i + ";");
}
console.log(count >= 0);"#,
        true,
        LoopBound,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "dom-loop-attr",
        r#"var cfg = document.getElementById("cfg");
var rounds = Number(cfg.getAttribute("data-n")) - 1;
var acc = "";
for (var i = 0; i < rounds; i++) {
  acc += eval("'x'");
}
console.log(acc.length >= 0);"#,
        true,
        LoopBound,
        Eliminated,
    ));
    v.push(EvalBenchmark::new(
        "random-loop",
        r#"var reps = 1 + Math.floor(Math.random() * 3);
for (var i = 0; i < reps; i++) {
  eval("var tick = " + i + ";");
}
console.log(reps >= 1);"#,
        false,
        LoopBound,
        LoopBound,
    ));

    // ---- 4 non-runnable programs (excluded, as in the paper) ---------------
    v.push(EvalBenchmark::non_runnable(
        "missing-library-a",
        r#"externalLib.setup(); eval("externalLib.go()");"#,
    ));
    v.push(EvalBenchmark::non_runnable(
        "missing-library-b",
        r#"var cfg = loadRemoteConfig(); eval(cfg.bootstrap);"#,
    ));
    v.push(EvalBenchmark::non_runnable(
        "missing-markup",
        r#"var el = document.getElementById("not-in-fixture").firstChild; eval(el.text);"#,
    ));
    v.push(EvalBenchmark::non_runnable(
        "emulator-incompatible",
        r#"window.XMLHttpRequest.open(); eval(responseText);"#,
    ));

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_28_programs_24_runnable() {
        let suite = all();
        assert_eq!(suite.len(), 28);
        assert_eq!(suite.iter().filter(|b| b.runnable).count(), 24);
    }

    #[test]
    fn expected_counts_match_the_paper() {
        let suite = all();
        let run: Vec<_> = suite.iter().filter(|b| b.runnable).collect();
        let plain_ok = run
            .iter()
            .filter(|b| b.expected == Expected::Eliminated)
            .count();
        let detdom_ok = run
            .iter()
            .filter(|b| b.expected_detdom == Expected::Eliminated)
            .count();
        assert_eq!(plain_ok, 14, "plain analysis handles 14");
        assert_eq!(detdom_ok, 20, "DetDOM handles 20");
        let indet = run
            .iter()
            .filter(|b| b.expected == Expected::IndeterminateString)
            .count();
        let cover = run
            .iter()
            .filter(|b| b.expected == Expected::NotCovered)
            .count();
        let loops = run
            .iter()
            .filter(|b| b.expected == Expected::LoopBound)
            .count();
        assert_eq!((indet, cover, loops), (2, 4, 4));
    }

    #[test]
    fn names_are_unique() {
        let suite = all();
        let mut names: Vec<_> = suite.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }
}
