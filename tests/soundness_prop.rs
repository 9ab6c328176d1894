//! The executable Theorem 1 (§3.3): determinate observations of one
//! instrumented run predict the corresponding values of *every* concrete
//! execution, across re-randomized indeterminate inputs.
//!
//! Two properties are checked over randomly generated programs:
//!
//! 1. **Machine agreement** — with the same seed, the instrumented
//!    machine's observable behavior (output) equals the concrete
//!    interpreter's: instrumentation, write-logging and counterfactual
//!    rollback must be transparent.
//! 2. **Soundness** — the instrumented run's determinate observations,
//!    aligned by `(point, context, hit index)`, match the values computed
//!    by concrete runs under *different* seeds, building the paper's
//!    address bijection µ incrementally for object values.

use determinacy::modeling::check_soundness;
use determinacy::{AnalysisConfig, DetHarness};
use mujs_gen::{generate, GenConfig};
use mujs_interp::{Harness, InterpOptions};
use proptest::prelude::*;

struct IRun {
    obs: Vec<determinacy::DObservation>,
    ctxs: mujs_interp::ContextTable,
    output: Vec<String>,
    status: determinacy::AnalysisStatus,
}

fn instrumented_run(src: &str, seed: u64) -> IRun {
    let mut h = DetHarness::from_src(src).expect("generated programs parse");
    let out = h.analyze(AnalysisConfig {
        seed,
        record_observations: true,
        flush_cap: None,
        ..Default::default()
    });
    IRun {
        obs: out.observations,
        ctxs: out.ctxs,
        output: out.output,
        status: out.status,
    }
}

struct CRun {
    obs: Vec<mujs_interp::Observation>,
    ctxs: mujs_interp::ContextTable,
    output: Vec<String>,
    ok: bool,
}

fn concrete_run(src: &str, seed: u64) -> CRun {
    let mut h = Harness::from_src(src).expect("generated programs parse");
    let mut interp = mujs_interp::Interp::new(
        &mut h.program,
        InterpOptions {
            seed,
            record_observations: true,
            ..Default::default()
        },
    );
    let ok = interp.run().is_ok();
    CRun {
        obs: std::mem::take(&mut interp.observations),
        ctxs: std::mem::take(&mut interp.ctxs),
        output: std::mem::take(&mut interp.output),
        ok,
    }
}

fn check_program(src: &str, base_seed: u64) {
    let irun = instrumented_run(src, base_seed);
    // Property 1: machine agreement on the same seed (only meaningful when
    // both complete; generated programs can legitimately throw).
    let same = concrete_run(src, base_seed);
    if same.ok && irun.status == determinacy::AnalysisStatus::Completed {
        assert_eq!(
            irun.output, same.output,
            "machines diverged on seed {base_seed}:\n{src}"
        );
    }
    let report_same = check_soundness(&irun.obs, &irun.ctxs, &same.obs, &same.ctxs);
    assert!(
        report_same.is_sound(),
        "soundness violated on same seed {base_seed}: {:?}\n{src}",
        &report_same.violations[..report_same.violations.len().min(3)]
    );
    // Property 2: soundness across different seeds (different
    // Math.random streams = the paper's "any execution").
    for delta in 1..4u64 {
        let other = base_seed.wrapping_add(delta.wrapping_mul(0x9E37_79B9));
        let crun = concrete_run(src, other);
        let report = check_soundness(&irun.obs, &irun.ctxs, &crun.obs, &crun.ctxs);
        assert!(
            report.is_sound(),
            "soundness violated: instrumented seed {base_seed} vs concrete seed {other}: {:?}\n{src}",
            &report.violations[..report.violations.len().min(3)]
        );
    }
}

#[test]
fn soundness_over_fixed_seed_sweep() {
    let cfg = GenConfig::default();
    for seed in 0..60u64 {
        let src = generate(seed, &cfg);
        check_program(&src, seed.wrapping_mul(811) ^ 0xABCD);
    }
}

#[test]
fn soundness_with_heavy_indeterminacy() {
    let cfg = GenConfig {
        top_stmts: 16,
        indet_pct: 55,
        ..Default::default()
    };
    for seed in 0..40u64 {
        let src = generate(seed ^ 0xF00D, &cfg);
        check_program(&src, seed.wrapping_mul(127) ^ 0x1234);
    }
}

#[test]
fn soundness_with_deep_nesting() {
    let cfg = GenConfig {
        top_stmts: 10,
        max_depth: 5,
        n_funcs: 4,
        indet_pct: 35,
    };
    for seed in 0..30u64 {
        let src = generate(seed ^ 0xBEEF, &cfg);
        check_program(&src, seed.wrapping_mul(31) ^ 0x77);
    }
}

/// Argument expressions the native agreement programs pass: an
/// `undefined`, a number, a string, an array, a sparse array and an
/// object (the absent argument is the empty list).
const NATIVE_ARGS: [&str; 6] = ["undefined", "7", "\"5px\"", "[5]", "sparse()", "{ a: 1 }"];

/// Receivers for the prototype natives: the argument kinds plus a
/// function (for `call`/`apply`).
const NATIVE_RECEIVERS: [&str; 7] = [
    "undefined",
    "7",
    "\"a-b\"",
    "[1, 2, 3]",
    "sparse()",
    "{ a: 1 }",
    "probe",
];

/// Every installed native outside the DOM, with the receivers it is
/// called on; the constructors are also called with `new`.
fn native_cases() -> Vec<(String, Vec<&'static str>, bool)> {
    let mut cases = Vec::new();
    for g in [
        "parseInt",
        "parseFloat",
        "isNaN",
        "isFinite",
        "eval",
        "alert",
        "__indet",
        "__opaque",
    ] {
        cases.push((g.to_owned(), vec!["undefined"], false));
    }
    for c in [
        "Object", "Array", "String", "Number", "Boolean", "Error", "Date",
    ] {
        cases.push((c.to_owned(), vec!["undefined"], true));
    }
    for f in [
        "random", "floor", "ceil", "round", "abs", "sqrt", "pow", "max", "min",
    ] {
        cases.push((format!("Math.{f}"), vec!["Math"], false));
    }
    cases.push(("Date.now".to_owned(), vec!["Date"], false));
    for f in ["log", "error", "warn"] {
        cases.push((format!("console.{f}"), vec!["console"], false));
    }
    let protos: [(&str, &[&str]); 5] = [
        ("Object", &["hasOwnProperty", "toString"]),
        ("Function", &["call", "apply"]),
        (
            "Array",
            &[
                "push", "pop", "join", "indexOf", "slice", "concat", "shift", "toString",
            ],
        ),
        (
            "String",
            &[
                "charAt",
                "charCodeAt",
                "indexOf",
                "lastIndexOf",
                "substr",
                "substring",
                "slice",
                "toUpperCase",
                "toLowerCase",
                "trim",
                "concat",
                "split",
                "replace",
                "toString",
            ],
        ),
        ("Number", &["toString"]),
    ];
    for (ctor, methods) in protos {
        for m in methods {
            cases.push((
                format!("{ctor}.prototype.{m}"),
                NATIVE_RECEIVERS.to_vec(),
                false,
            ));
        }
    }
    cases.push((
        "Boolean.prototype.toString".to_owned(),
        vec!["true", "undefined"],
        false,
    ));
    cases
}

/// A program calling `native` on each receiver with no argument, one
/// argument and two arguments of every kind, printing each result with
/// its own enumerable properties (so holes and extra slots show).
fn native_program(native: &str, receivers: &[&str], construct: bool) -> String {
    let mut src = String::from(
        r#"function sparse() { var s = []; s[2] = 1; return s; }
function probe(x, y) { return [typeof this, arguments.length, typeof x, typeof y].join(" "); }
function describe(v) {
  if (v === null || typeof v !== "object") return typeof v + " " + String(v);
  var keys = [];
  for (var k in v) keys.push(k + "=" + String(v[k]));
  return "object " + String(v) + " {" + keys.join(",") + "}";
}
"#,
    );
    let mut arg_lists = vec![String::new()];
    arg_lists.extend(NATIVE_ARGS.iter().map(|a| (*a).to_owned()));
    arg_lists.extend(NATIVE_ARGS.iter().map(|a| format!("{a}, {a}")));
    let mut calls = Vec::new();
    for recv in receivers {
        for args in &arg_lists {
            let sep = if args.is_empty() { "" } else { ", " };
            calls.push(format!("{native}.call({recv}{sep}{args})"));
        }
    }
    if construct {
        calls.extend(arg_lists.iter().map(|args| format!("new {native}({args})")));
    }
    for (i, call) in calls.iter().enumerate() {
        src.push_str(&format!(
            "try {{ console.log(\"#{i}\", describe({call})); }} \
             catch (e) {{ console.log(\"#{i} throws\", String(e.name)); }}\n"
        ));
    }
    src
}

/// Machine agreement on the one native table: every native, called with
/// absent, `undefined`, number, string, array, sparse-array and object
/// arguments, prints the same in the concrete and instrumented machines,
/// and the instrumented run's determinate observations hold concretely.
#[test]
fn natives_agree_across_machines() {
    for (native, receivers, construct) in native_cases() {
        let src = native_program(&native, &receivers, construct);
        let out = instrumented_run(&src, 1);
        assert_eq!(
            out.status,
            determinacy::AnalysisStatus::Completed,
            "{native}: the agreement program must complete"
        );
        check_program(&src, 1);
    }
}

/// With a DOM installed, both machines have built the same host heap, so
/// the first object the program allocates gets the same id in both.
#[test]
fn dom_install_allocates_alike() {
    use mujs_dom::document::Document;
    use mujs_dom::events::EventPlan;
    let src = "var o = {};";
    let first_obj = |obs: Vec<mujs_interp::Value>| {
        obs.into_iter().find_map(|v| match v {
            mujs_interp::Value::Object(id) => Some(id),
            _ => None,
        })
    };
    let mut h = Harness::from_src(src).expect("parses");
    let concrete = h.run_dom(
        InterpOptions {
            record_observations: true,
            ..Default::default()
        },
        Document::new(),
        &EventPlan::new(),
    );
    let mut dh = DetHarness::from_src(src).expect("parses");
    let instrumented = dh.analyze_dom(
        AnalysisConfig {
            record_observations: true,
            ..Default::default()
        },
        Document::new(),
        &EventPlan::new(),
    );
    let c = first_obj(concrete.observations.into_iter().map(|o| o.value).collect());
    let i = first_obj(
        instrumented
            .observations
            .into_iter()
            .map(|o| o.value.v)
            .collect(),
    );
    assert!(c.is_some(), "the program allocates an object");
    assert_eq!(c, i);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_soundness_random_programs(gen_seed in any::<u64>(), run_seed in any::<u64>()) {
        let cfg = GenConfig {
            top_stmts: 10,
            indet_pct: 30,
            ..Default::default()
        };
        let src = generate(gen_seed, &cfg);
        check_program(&src, run_seed);
    }

    #[test]
    fn prop_parser_roundtrip_on_generated(gen_seed in any::<u64>()) {
        let src = generate(gen_seed, &GenConfig::default());
        let ast1 = mujs_syntax::parse(&src).expect("parses");
        let printed = mujs_syntax::pretty::print_program(&ast1);
        let ast2 = mujs_syntax::parse(&printed).expect("pretty output parses");
        let reprinted = mujs_syntax::pretty::print_program(&ast2);
        prop_assert_eq!(printed, reprinted);
    }
}
