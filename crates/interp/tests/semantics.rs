//! End-to-end semantics tests for the concrete interpreter: each test runs
//! a small program and checks its observable output.

use mujs_dom::document::DocumentBuilder;
use mujs_dom::events::EventPlan;
use mujs_interp::driver::{run_src, Harness};
use mujs_interp::{InterpOptions, RunError};

fn out(src: &str) -> Vec<String> {
    run_src(src).expect("parses")
}

fn log1(src: &str) -> String {
    let o = out(src);
    assert_eq!(o.len(), 1, "expected one line, got {o:?}");
    o.into_iter().next().unwrap()
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(log1("console.log(2 + 3 * 4);"), "14");
    assert_eq!(log1("console.log((2 + 3) * 4);"), "20");
    assert_eq!(log1("console.log(7 % 3);"), "1");
    assert_eq!(log1("console.log(1 / 0);"), "Infinity");
}

#[test]
fn string_concatenation() {
    assert_eq!(log1(r#"console.log("get" + "Width");"#), "getWidth");
    assert_eq!(log1(r#"console.log("x" + 1 + 2);"#), "x12");
    assert_eq!(log1(r#"console.log(1 + 2 + "x");"#), "3x");
}

#[test]
fn variables_and_scoping() {
    assert_eq!(
        log1("var x = 1; function f() { x = 2; } f(); console.log(x);"),
        "2"
    );
    assert_eq!(
        log1("var x = 1; function f() { var x = 2; } f(); console.log(x);"),
        "1"
    );
}

#[test]
fn closures_capture_environment() {
    assert_eq!(
        log1(
            "function mk(n) { return function() { return n; }; }\n\
             var f = mk(7); console.log(f());"
        ),
        "7"
    );
    assert_eq!(
        log1(
            "function counter() { var c = 0; return function() { c = c + 1; return c; }; }\n\
             var next = counter(); next(); next(); console.log(next());"
        ),
        "3"
    );
}

#[test]
fn objects_and_property_access() {
    assert_eq!(log1("var o = { f: 23 }; console.log(o.f);"), "23");
    assert_eq!(log1("var o = { f: 23 }; console.log(o[\"f\"]);"), "23");
    assert_eq!(log1("var o = {}; console.log(o.missing);"), "undefined");
    assert_eq!(
        log1("var o = {}; var k = \"a\" + \"b\"; o[k] = 5; console.log(o.ab);"),
        "5"
    );
}

#[test]
fn delete_removes_properties() {
    assert_eq!(
        log1("var o = { a: 1 }; delete o.a; console.log(o.a);"),
        "undefined"
    );
}

#[test]
fn prototype_chain_via_new() {
    let src = r#"
function Rectangle(w, h) { this.width = w; this.height = h; }
Rectangle.prototype.area = function() { return this.width * this.height; };
var r = new Rectangle(4, 5);
console.log(r.area());
console.log(r instanceof Rectangle);
"#;
    assert_eq!(out(src), vec!["20", "true"]);
}

#[test]
fn constructor_returning_object_overrides_this() {
    let src = r#"
function F() { this.a = 1; return { b: 2 }; }
var o = new F();
console.log(o.b, o.a);
"#;
    assert_eq!(out(src), vec!["2 undefined"]);
}

#[test]
fn figure2_program_concrete_run() {
    // The paper's Figure 2, with a deterministic stand-in check: whichever
    // branch Math.random takes, x.g is written on line 16's call (p.f=23<32).
    let src = r#"
(function() {
  function checkf(p) { if (p.f < 32) setg(p, 42); }
  function setg(r, v) { r.g = v; }
  var x = { f: 23 }, y = { f: Math.random() * 100 };
  checkf(x);
  console.log(x.f, x.g);
  checkf(y);
  (y.f > 50 ? checkf : setg)(x, 72);
  var z = { f: x.g - 16, h: true };
  checkf(z);
  console.log(typeof z.h);
})();
"#;
    let o = out(src);
    assert_eq!(o[0], "23 42");
    assert_eq!(o[1], "boolean");
}

#[test]
fn figure3_accessors_program() {
    let src = r#"
function Rectangle(w, h) { this.width = w; this.height = h; }
Rectangle.prototype.toString = function() {
  return "[" + this.width + "x" + this.height + "]";
};
String.prototype.cap = function() {
  return this[0].toUpperCase() + this.substr(1);
};
function defAccessors(prop) {
  Rectangle.prototype["get" + prop.cap()] = function() { return this[prop]; };
  Rectangle.prototype["set" + prop.cap()] = function(v) { this[prop] = v; };
}
var props = ["width", "height"];
for (var i = 0; i < props.length; i++) defAccessors(props[i]);
var r = new Rectangle(20, 30);
r.setWidth(r.getWidth() + 20);
alert(r.toString());
"#;
    let mut h = Harness::from_src(src).unwrap();
    let o = h.run(InterpOptions::default());
    o.expect_ok();
    assert_eq!(o.output, vec!["alert: [40x30]"]);
}

#[test]
fn loops_break_continue() {
    assert_eq!(
        log1("var s = 0; for (var i = 0; i < 10; i++) { if (i % 2) continue; if (i > 6) break; s += i; } console.log(s);"),
        "12" // 0+2+4+6
    );
    assert_eq!(
        log1("var i = 0; do { i++; } while (i < 5); console.log(i);"),
        "5"
    );
    assert_eq!(
        log1("var i = 10; while (i < 5) { i++; } console.log(i);"),
        "10"
    );
}

#[test]
fn for_in_enumerates_insertion_order() {
    assert_eq!(
        log1("var o = { b: 1, a: 2, c: 3 }; var ks = \"\"; for (var k in o) ks += k; console.log(ks);"),
        "bac"
    );
}

#[test]
fn for_in_sees_inherited_user_props_once() {
    let src = r#"
function F() { this.own = 1; }
F.prototype.inh = 2;
var o = new F();
var ks = [];
for (var k in o) ks.push(k);
console.log(ks.join(","));
"#;
    // "constructor" is an inherited user-written prototype property too.
    assert_eq!(log1(src), "own,constructor,inh");
}

#[test]
fn switch_fallthrough_and_default() {
    let src = r#"
function f(x) {
  var r = "";
  switch (x) {
    case 1: r += "one ";
    case 2: r += "two "; break;
    default: r += "other";
  }
  return r;
}
console.log(f(1)); console.log(f(2)); console.log(f(9));
"#;
    assert_eq!(out(src), vec!["one two ", "two ", "other"]);
}

#[test]
fn try_catch_finally_semantics() {
    assert_eq!(
        log1("try { throw 42; } catch (e) { console.log(e); }"),
        "42"
    );
    assert_eq!(
        out("function f() { try { return 1; } finally { console.log(\"fin\"); } }\nconsole.log(f());"),
        vec!["fin", "1"]
    );
    // catch variable is scoped to the handler.
    assert_eq!(
        log1("var e = \"outer\"; try { throw \"inner\"; } catch (e) {} console.log(e);"),
        "outer"
    );
}

#[test]
fn exceptions_cross_call_boundaries() {
    let src = r#"
function boom() { throw new Error("x"); }
function mid() { boom(); }
try { mid(); } catch (e) { console.log(e.message); }
"#;
    assert_eq!(log1(src), "x");
}

#[test]
fn uncaught_exception_reported() {
    let mut h = Harness::from_src("null.f;").unwrap();
    let o = h.run(InterpOptions::default());
    assert!(matches!(o.result, Err(RunError::Thrown(_))));
}

#[test]
fn typeof_variants() {
    assert_eq!(
        out("console.log(typeof 1, typeof \"s\", typeof true, typeof undefined, typeof null, typeof {}, typeof function(){});"),
        vec!["number string boolean undefined object object function"]
    );
    assert_eq!(log1("console.log(typeof neverDeclared);"), "undefined");
}

#[test]
fn logical_operators_short_circuit() {
    assert_eq!(
        log1("function boom() { throw 1; } console.log(false && boom());"),
        "false"
    );
    assert_eq!(log1("console.log(null || \"fallback\");"), "fallback");
    assert_eq!(log1("console.log(1 && 2);"), "2");
}

#[test]
fn equality_table() {
    assert_eq!(
        out("console.log(1 == \"1\", 1 === \"1\", null == undefined, null === undefined, NaN == NaN);"),
        vec!["true false true false false"]
    );
}

#[test]
fn arrays_push_length_index() {
    let src = r#"
var a = [];
a.push(10); a.push(20, 30);
console.log(a.length, a[1]);
a[5] = 99;
console.log(a.length);
a.length = 2;
console.log(a[5], a.join("-"));
"#;
    assert_eq!(out(src), vec!["3 20", "6", "undefined 10-20"]);
}

#[test]
fn array_methods() {
    assert_eq!(log1("console.log([1,2,3].indexOf(2));"), "1");
    assert_eq!(
        log1("console.log([1,2,3,4].slice(1, 3).join(\",\"));"),
        "2,3"
    );
    assert_eq!(
        log1("console.log([1].concat([2,3], 4).join(\"\"));"),
        "1234"
    );
    assert_eq!(log1("var a=[1,2]; console.log(a.pop(), a.length);"), "2 1");
    assert_eq!(log1("var a=[1,2]; console.log(a.shift(), a[0]);"), "1 2");
    // A non-canonical index key is an ordinary property.
    assert_eq!(log1(r#"var a=[]; a["+1"]=5; console.log(a.length);"#), "0");
    // `slice` keeps holes as holes.
    assert_eq!(
        log1("var a=[]; a[2]=1; var b=a.slice(0); console.log(b.hasOwnProperty('0'), b.length);"),
        "false 3"
    );
}

#[test]
fn string_methods() {
    assert_eq!(log1(r#"console.log("width".toUpperCase());"#), "WIDTH");
    assert_eq!(log1(r#"console.log("Width".substr(1));"#), "idth");
    assert_eq!(log1(r#"console.log("a,b,c".split(",").length);"#), "3");
    assert_eq!(log1(r#"console.log("hello".indexOf("ll"));"#), "2");
    assert_eq!(log1(r#"console.log("hello"[1]);"#), "e");
    // Only canonical index keys index a string.
    assert_eq!(log1(r#"console.log("hello"["+1"]);"#), "undefined");
    assert_eq!(log1(r#"console.log("hello"["01"]);"#), "undefined");
    assert_eq!(log1(r#"console.log("hello".length);"#), "5");
    assert_eq!(log1(r#"console.log("a-b-c".replace("-", "+"));"#), "a+b-c");
    // `String()` is the empty string; `parseInt`/`parseFloat` take
    // `ToString` of objects.
    assert_eq!(log1(r#"console.log("[" + String() + "]");"#), "[]");
    assert_eq!(
        log1("console.log(parseInt([5]), parseFloat([2.5]));"),
        "5 2.5"
    );
}

#[test]
fn string_prototype_extension() {
    assert_eq!(
        log1(
            r#"String.prototype.cap = function() { return this[0].toUpperCase() + this.substr(1); };
               console.log("width".cap());"#
        ),
        "Width"
    );
}

#[test]
fn this_binding_rules() {
    let src = r#"
var o = { x: 1, get: function() { return this.x; } };
console.log(o.get());
var f = o.get;
var x = 99; // global fallback: this === window, window.x === 99
console.log(f());
"#;
    assert_eq!(out(src), vec!["1", "99"]);
}

#[test]
fn call_and_apply() {
    let src = r#"
function add(a, b) { return this.base + a + b; }
console.log(add.call({ base: 10 }, 1, 2));
console.log(add.apply({ base: 20 }, [3, 4]));
"#;
    assert_eq!(out(src), vec!["13", "27"]);
}

#[test]
fn arguments_object() {
    assert_eq!(
        log1("function f() { return arguments.length; } console.log(f(1, 2, 3));"),
        "3"
    );
}

#[test]
fn direct_eval_in_local_scope() {
    let src = r#"
function f() {
  var local = 5;
  return eval("local + 1");
}
console.log(f());
"#;
    assert_eq!(log1(src), "6");
}

#[test]
fn direct_eval_declares_vars_in_caller() {
    let src = r#"
function f() {
  eval("var injected = 7;");
  return injected;
}
console.log(f());
"#;
    assert_eq!(log1(src), "7");
}

#[test]
fn eval_returns_last_expression_value() {
    assert_eq!(log1("console.log(eval(\"1; 2; 3\"));"), "3");
    assert_eq!(log1("console.log(eval(\"var q = 1;\"));"), "undefined");
}

#[test]
fn figure4_ivymap_eval() {
    let src = r#"
ivymap = window.ivymap || {};
ivymap["pc.sy.banner.tcck."] = function() { console.log("tcck handler"); };
function showIvyViaJs(locationId) {
  var _f = undefined;
  var _fconv = "ivymap['" + locationId + "']";
  try {
    _f = eval(_fconv);
    if (_f != undefined) { _f(); }
  } catch (e) {}
}
showIvyViaJs('pc.sy.banner.tcck.');
showIvyViaJs('pc.sy.banner.duilian.');
"#;
    assert_eq!(out(src), vec!["tcck handler"]);
}

#[test]
fn indirect_eval_runs_globally() {
    let src = r#"
var g = 1;
function f() {
  var g = 2;
  var e = eval;
  return e("g"); // indirect: global g
}
console.log(f());
"#;
    assert_eq!(log1(src), "1");
}

#[test]
fn math_functions() {
    assert_eq!(
        log1("console.log(Math.floor(3.7), Math.max(1, 5, 3));"),
        "3 5"
    );
    let r = log1("console.log(Math.random());");
    let v: f64 = r.parse().unwrap();
    assert!((0.0..1.0).contains(&v));
}

#[test]
fn math_random_is_seeded() {
    let mut h1 = Harness::from_src("console.log(Math.random());").unwrap();
    let mut h2 = Harness::from_src("console.log(Math.random());").unwrap();
    let a = h1.run(InterpOptions {
        seed: 7,
        ..Default::default()
    });
    let b = h2.run(InterpOptions {
        seed: 7,
        ..Default::default()
    });
    let c = h1.run(InterpOptions {
        seed: 8,
        ..Default::default()
    });
    assert_eq!(a.output, b.output);
    assert_ne!(a.output, c.output);
}

#[test]
fn named_function_expression_recursion() {
    assert_eq!(
        log1(
            "var f = function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); }; console.log(f(5));"
        ),
        "120"
    );
}

#[test]
fn hoisted_functions_callable_before_declaration() {
    assert_eq!(log1("console.log(f()); function f() { return 1; }"), "1");
}

#[test]
fn in_operator_and_hasownproperty() {
    let src = r#"
function F() { this.own = 1; }
F.prototype.inh = 2;
var o = new F();
console.log("own" in o, "inh" in o, "nope" in o);
console.log(o.hasOwnProperty("own"), o.hasOwnProperty("inh"));
"#;
    assert_eq!(out(src), vec!["true true false", "true false"]);
}

#[test]
fn step_limit_stops_infinite_loops() {
    let mut h = Harness::from_src("while (true) {}").unwrap();
    let o = h.run(InterpOptions {
        max_steps: 10_000,
        ..Default::default()
    });
    assert_eq!(o.result, Err(RunError::StepLimit));
}

#[test]
fn dom_get_element_and_attributes() {
    let doc = DocumentBuilder::new()
        .element("div", Some("banner"), &[("class", "top")])
        .title("Hello")
        .build();
    let src = r#"
var el = document.getElementById("banner");
console.log(el.tagName, el.className);
console.log(document.title);
el.setAttribute("data-x", "1");
console.log(el.getAttribute("data-x"));
console.log(document.getElementById("missing"));
"#;
    let mut h = Harness::from_src(src).unwrap();
    let o = h.run_dom(InterpOptions::default(), doc, &EventPlan::new());
    o.expect_ok();
    assert_eq!(o.output, vec!["DIV top", "Hello", "1", "null"]);
}

#[test]
fn dom_create_append_and_query() {
    let src = r#"
var d = document.createElement("p");
document.body.appendChild(d);
console.log(document.getElementsByTagName("p").length);
console.log(d.parentNode.tagName);
"#;
    let mut h = Harness::from_src(src).unwrap();
    let o = h.run_dom(
        InterpOptions::default(),
        DocumentBuilder::new().build(),
        &EventPlan::new(),
    );
    o.expect_ok();
    assert_eq!(o.output, vec!["1", "BODY"]);
}

#[test]
fn dom_events_fire_after_script() {
    let doc = DocumentBuilder::new()
        .element("button", Some("b1"), &[])
        .build();
    let src = r#"
window.addEventListener("load", function() { console.log("loaded"); });
document.getElementById("b1").addEventListener("click", function(ev) {
  console.log("clicked " + ev.type);
});
console.log("script done");
"#;
    let mut h = Harness::from_src(src).unwrap();
    let o = h.run_dom(InterpOptions::default(), doc, &EventPlan::new().click("b1"));
    o.expect_ok();
    assert_eq!(o.output, vec!["script done", "loaded", "clicked click"]);
}

#[test]
fn global_vars_alias_window_properties() {
    assert_eq!(log1("xyz = 5; console.log(window.xyz);"), "5");
    assert_eq!(log1("window.abc = 6; console.log(abc);"), "6");
}

#[test]
fn observations_are_recorded() {
    let mut h = Harness::from_src("var x = 1; var y = x + 2;").unwrap();
    let o = h.run(InterpOptions {
        record_observations: true,
        ..Default::default()
    });
    o.expect_ok();
    assert!(!o.observations.is_empty());
    // Some observation holds the value 3 (y's definition).
    assert!(o
        .observations
        .iter()
        .any(|obs| obs.value == mujs_interp::Value::Num(3.0)));
}

#[test]
fn parse_int_and_friends() {
    assert_eq!(
        out("console.log(parseInt(\"42px\"), parseFloat(\"2.5x\"), isNaN(\"q\"), isFinite(1));"),
        vec!["42 2.5 true true"]
    );
}

#[test]
fn comparison_operators_on_mixed_types() {
    assert_eq!(
        out("console.log(\"10\" < \"9\", 10 < 9, \"10\" < 9, true + true);"),
        vec!["true false false 2"]
    );
}

#[test]
fn update_expressions() {
    assert_eq!(
        out("var i = 5; console.log(i++, i, ++i, i--, --i);"),
        vec!["5 6 7 7 5"]
    );
    assert_eq!(log1("var o = { n: 1 }; o.n++; console.log(o.n);"), "2");
}

#[test]
fn compound_assignment() {
    assert_eq!(
        log1("var s = \"a\"; s += \"b\"; var n = 10; n -= 4; n *= 2; console.log(s, n);"),
        "ab 12"
    );
}

/// Runs `f` on a thread with a parser thread's stack, the stack a machine
/// needs to reach `MAX_CALL_DEPTH` in a debug build.
fn on_parser_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(mujs_syntax::PARSER_STACK_BYTES)
            .spawn_scoped(s, f)
            .expect("spawn")
            .join()
            .expect("no panic")
    })
}

#[test]
fn unbounded_recursion_throws_a_range_error() {
    let depth = mujs_interp::MAX_CALL_DEPTH.to_string();
    on_parser_stack(|| {
        // A call past the bound throws where it is made; the program
        // catches it and sees every level run.
        let src = r#"
var d = 0;
function f(n) { d = n; return f(n + 1); }
try { f(1); } catch (e) { console.log(e.name, e.message, d); }
function g(n) { try { return g(n + 1); } catch (e) { return n; } }
console.log(g(1));
var s = "eval(s)";
try { eval(s); } catch (e) { console.log(e.name); }
"#;
        assert_eq!(
            out(src),
            [
                format!("RangeError Maximum call stack size exceeded {depth}"),
                depth.clone(),
                "RangeError".to_owned(),
            ]
        );
        // Uncaught, it ends the run like any other exception.
        let mut h = Harness::from_src("function f(n) { return f(n + 1); } f(0);").unwrap();
        let o = h.run(InterpOptions::default());
        assert!(
            matches!(o.result, Err(RunError::Thrown(_))),
            "{:?}",
            o.result
        );
    });
}
