//! Behavioral tests for the points-to analysis: call-graph construction,
//! field sensitivity, the ⋆-smearing of dynamic property accesses, and
//! prototype-chain resolution.

use mujs_ir::ir::StmtKind;
use mujs_ir::{FuncId, Program, StmtId};
use mujs_pta::{solve, AbsObj, Node, PtaConfig, PtaResult, PtaStatus};

fn setup(src: &str) -> (Program, PtaResult) {
    let ast = mujs_syntax::parse(src).expect("parses");
    let prog = mujs_ir::lower_program(&ast);
    let result = solve(&prog, &PtaConfig::default());
    (prog, result)
}

fn func_named(prog: &Program, name: &str) -> FuncId {
    prog.funcs
        .iter()
        .find(|f| f.name.is_some_and(|n| prog.interner.resolve(n) == name))
        .unwrap_or_else(|| panic!("no function {name}"))
        .id
}

/// All call sites whose callee place reads the given source name — found
/// by scanning for `Copy tN <- name; Call tN(...)` pairs is brittle, so we
/// instead locate calls by the callee's *resolved* points-to: here we just
/// return every call site in the program.
fn call_sites(prog: &Program) -> Vec<StmtId> {
    let mut out = Vec::new();
    for f in &prog.funcs {
        Program::walk_block(&f.body, &mut |s| {
            if matches!(s.kind, StmtKind::Call { .. } | StmtKind::New { .. }) {
                out.push(s.id);
            }
        });
    }
    out
}

fn global_var(prog: &Program, name: &str) -> Node {
    let sym = prog.interner.get(name).expect("name interned");
    Node::Prop(AbsObj::Global, sym)
}

/// A wide, deep program: lots of closures, higher-order calls,
/// cross-wired copy chains, and a ⋆-smearing dynamic property access —
/// hundreds of simultaneously dirty nodes.
fn wide_src() -> String {
    let mut s = String::new();
    s.push_str("function id(x) { return x; }\n");
    for i in 0..120 {
        s.push_str(&format!(
            "function mk{i}() {{ return {{ tag: mk{i}, lift: id }}; }}\n"
        ));
        s.push_str(&format!("var v{i} = mk{i}();\n"));
    }
    for i in 0..120 {
        let j = (i + 41) % 120;
        s.push_str(&format!("v{i} = id(v{j});\n"));
        s.push_str(&format!("var f{i} = v{i}.tag;\n"));
        s.push_str(&format!("var w{i} = f{i}();\n"));
    }
    s.push_str("var key = somethingUnknown;\n");
    s.push_str("var smeared = v0[key];\n");
    s
}

/// One copy edge carrying 70 objects (a dense set spanning two 64-object
/// words) into a node that already holds three: the budget can run out
/// inside a word-at-a-time transfer into a sparse target.
fn dense_copy_src() -> String {
    let mut s = String::from("var pool;\nvar dst = {};\ndst = {};\ndst = {};\n");
    for _ in 0..70 {
        s.push_str("pool = {};\n");
    }
    s.push_str("dst = pool;\n");
    s
}

#[test]
fn direct_call_resolves() {
    let (prog, r) = setup("function f() {} f();");
    let f = func_named(&prog, "f");
    let sites = call_sites(&prog);
    assert_eq!(sites.len(), 1);
    assert_eq!(r.callees(sites[0]), vec![f]);
}

#[test]
fn higher_order_call_resolves() {
    let (prog, r) = setup("function apply(g) { g(); }\nfunction target() {}\napply(target);");
    let target = func_named(&prog, "target");
    let sites = call_sites(&prog);
    // One of the sites (the inner g()) must resolve to `target`.
    assert!(sites.iter().any(|s| r.callees(*s) == vec![target]));
}

#[test]
fn closures_flow_through_object_fields() {
    let (prog, r) = setup("function m() {}\nvar o = {};\no.method = m;\no.method();");
    let m = func_named(&prog, "m");
    let sites = call_sites(&prog);
    assert!(sites.iter().any(|s| r.callees(*s).contains(&m)));
}

#[test]
fn field_sensitivity_distinguishes_static_names() {
    let (prog, r) =
        setup("function a() {}\nfunction b() {}\nvar o = {};\no.x = a;\no.y = b;\no.x();");
    let a = func_named(&prog, "a");
    let b = func_named(&prog, "b");
    let sites = call_sites(&prog);
    // The o.x() site sees only `a`.
    assert!(sites.iter().any(|s| r.callees(*s) == vec![a]));
    assert!(!sites
        .iter()
        .any(|s| r.callees(*s).contains(&b) && r.callees(*s).contains(&a)));
}

#[test]
fn dynamic_store_smears_to_static_reads() {
    // The Table 1 imprecision mechanism: the analysis does not track
    // string values, so o[k] = f reaches *every* read of o.
    let (prog, r) = setup(
        "function a() {}\nfunction b() {}\nvar o = {};\nvar k = \"x\" + \"\";\no[k] = a;\no.unrelated = b;\no.x();",
    );
    let a = func_named(&prog, "a");
    let sites = call_sites(&prog);
    let callee_sets: Vec<Vec<FuncId>> = sites.iter().map(|s| r.callees(*s)).collect();
    // The o.x() call must (imprecisely) include `a` via the smeared store.
    assert!(callee_sets.iter().any(|s| s.contains(&a)));
}

#[test]
fn dynamic_read_sees_all_static_stores() {
    let (prog, r) = setup(
        "function a() {}\nfunction b() {}\nvar o = { x: a, y: b };\nvar k = \"x\" + \"\";\no[k]();",
    );
    let a = func_named(&prog, "a");
    let b = func_named(&prog, "b");
    let sites = call_sites(&prog);
    // The dynamic call sees both a and b.
    assert!(sites
        .iter()
        .any(|s| r.callees(*s).contains(&a) && r.callees(*s).contains(&b)));
}

#[test]
fn static_accesses_do_not_smear() {
    let (prog, r) =
        setup("function a() {}\nfunction b() {}\nvar o = {};\no.x = a;\no.y = b;\no.y();");
    let a = func_named(&prog, "a");
    let sites = call_sites(&prog);
    // No site should see `a` together with... the o.y() site must be
    // monomorphic.
    let b = func_named(&prog, "b");
    assert!(sites.iter().any(|s| r.callees(*s) == vec![b]));
    assert!(!sites.iter().any(|s| r.callees(*s).contains(&a)));
}

#[test]
fn methods_via_prototype_chain() {
    let (prog, r) = setup(
        "function Rect() {}\nRect.prototype.area = function area() { return 1; };\nvar r0 = new Rect();\nr0.area();",
    );
    let area = func_named(&prog, "area");
    let sites = call_sites(&prog);
    assert!(sites.iter().any(|s| r.callees(*s).contains(&area)));
}

#[test]
fn constructor_this_receives_alloc() {
    let (prog, r) =
        setup("function Rect(w) { this.w = w; }\nvar obj = {};\nvar r0 = new Rect(obj);");
    let rect = func_named(&prog, "Rect");
    // `this` of Rect points to the allocation at the `new` site.
    let this_pts = r.points_to(&Node::This(rect));
    assert!(this_pts.iter().any(|o| matches!(o, AbsObj::Alloc(_))));
    // And the global r0 receives the same allocation.
    let r0 = r.points_to(&global_var(&prog, "r0"));
    assert!(r0.iter().any(|o| matches!(o, AbsObj::Alloc(_))));
}

#[test]
fn return_values_flow_to_callers() {
    let (prog, r) = setup("function mk() { return {}; } var o = mk();");
    let o = r.points_to(&global_var(&prog, "o"));
    assert!(o.iter().any(|x| matches!(x, AbsObj::Alloc(_))));
}

#[test]
fn throw_reaches_catch() {
    let (prog, r) = setup("var payload = {};\ntry { throw payload; } catch (e) { var got = e; }");
    let got = r.points_to(&global_var(&prog, "got"));
    assert!(got.iter().any(|x| matches!(x, AbsObj::Alloc(_))));
}

#[test]
fn eval_result_is_opaque() {
    let (prog, r) = setup("var x = eval(\"({})\");");
    let x = r.points_to(&global_var(&prog, "x"));
    assert_eq!(x, vec![AbsObj::Opaque]);
}

#[test]
fn budget_exhaustion_reports_timeout() {
    // A pathological program: N functions smeared into one object through
    // a dynamic store, then repeatedly dynamically read and re-stored into
    // more objects — with a tiny budget this must time out.
    let mut src = String::new();
    for i in 0..30 {
        src.push_str(&format!(
            "function f{i}() {{ return f{}; }}\n",
            (i + 1) % 30
        ));
    }
    src.push_str("var o = {};\nvar k = \"\" + \"x\";\n");
    for i in 0..30 {
        src.push_str(&format!("o[k + {i}] = f{i};\n"));
    }
    src.push_str("var h = o[k]; h()();\n");
    let ast = mujs_syntax::parse(&src).unwrap();
    let prog = mujs_ir::lower_program(&ast);
    let tiny = solve(
        &prog,
        &PtaConfig {
            budget: 50,
            ..Default::default()
        },
    );
    assert_eq!(tiny.status, PtaStatus::BudgetExceeded);
    let full = solve(&prog, &PtaConfig::default());
    assert_eq!(full.status, PtaStatus::Completed);
    assert!(full.stats.propagations > 50);
}

#[test]
fn solver_is_deterministic() {
    let small = "function a(){} function b(){} var o = {x:a, y:b}; o.x()(); o.y();";
    for src in [small.to_owned(), wide_src()] {
        let ast = mujs_syntax::parse(&src).unwrap();
        let prog = mujs_ir::lower_program(&ast);
        let cfg = PtaConfig::default();
        let r1 = solve(&prog, &cfg);
        let r2 = solve(&prog, &cfg);
        // Full stats.
        assert_eq!(format!("{:?}", r1.stats), format!("{:?}", r2.stats));
        for site in call_sites(&prog) {
            assert_eq!(r1.callees(site), r2.callees(site));
        }
    }
}

#[test]
fn unreachable_functions_not_analyzed() {
    let (prog, r) = setup("function used() {}\nvar f = function unused() { deep(); };\nused();");
    let used = func_named(&prog, "used");
    let sites = call_sites(&prog);
    // The call inside `unused` resolves nothing because `deep` has no
    // binding; the important part: used() resolves and nothing panics.
    assert!(sites.iter().any(|s| r.callees(*s) == vec![used]));
}

#[test]
fn polymorphic_site_metric() {
    let (_, r) =
        setup("function a(){}\nfunction b(){}\nvar c = Math.random() < 0.5 ? a : b;\nc();");
    assert_eq!(r.polymorphic_sites(1), 1);
    assert_eq!(r.polymorphic_sites(2), 0);
}

#[test]
fn figure3_baseline_is_imprecise() {
    // The paper's §2.2 claim: 0-CFA treats the dynamic accessor writes as
    // possibly writing *any* property of Rectangle.prototype, so
    // r.getWidth() resolves to getter AND setter.
    let src = r#"
function Rectangle(w, h) { this.width = w; this.height = h; }
function defAccessors(prop) {
  Rectangle.prototype["get" + prop] = function getter() { return this[prop]; };
  Rectangle.prototype["set" + prop] = function setter(v) { this[prop] = v; };
}
defAccessors("Width");
defAccessors("Height");
var r = new Rectangle(20, 30);
r.getWidth();
"#;
    let (prog, r) = setup(src);
    let getter = func_named(&prog, "getter");
    let setter = func_named(&prog, "setter");
    let sites = call_sites(&prog);
    // Some call site (r.getWidth()) imprecisely sees both.
    assert!(sites
        .iter()
        .any(|s| r.callees(*s).contains(&getter) && r.callees(*s).contains(&setter)));
}

#[test]
fn figure3_static_rewrite_is_precise() {
    // After the specializer's rewrite (simulated by hand here), the same
    // solver is precise: only the getter is invoked.
    let src = r#"
function Rectangle(w, h) { this.width = w; this.height = h; }
Rectangle.prototype.getWidth = function getter() { return this.width; };
Rectangle.prototype.setWidth = function setter(v) { this.width = v; };
var r = new Rectangle(20, 30);
r.getWidth();
"#;
    let (prog, r) = setup(src);
    let getter = func_named(&prog, "getter");
    let setter = func_named(&prog, "setter");
    let sites = call_sites(&prog);
    assert!(sites.iter().any(|s| r.callees(*s) == vec![getter]));
    assert!(!sites
        .iter()
        .any(|s| r.callees(*s).contains(&getter) && r.callees(*s).contains(&setter)));
}

// ---------------------------------------------------------------------
// Budget boundary semantics.
// ---------------------------------------------------------------------

fn sum_points_to(r: &PtaResult) -> usize {
    r.all_points_to().iter().map(|(_, pts)| pts.len()).sum()
}

#[test]
fn exact_budget_solve_completes() {
    let small = "function mk() { return {}; } var o = mk(); var p = mk();";
    for src in [small.to_owned(), wide_src(), dense_copy_src()] {
        let ast = mujs_syntax::parse(&src).unwrap();
        let prog = mujs_ir::lower_program(&ast);
        let full = solve(&prog, &PtaConfig::default());
        assert_eq!(full.status, PtaStatus::Completed);
        let needed = full.stats.propagations;
        assert!(needed > 0);
        // A budget of exactly the required work is sufficient...
        let exact = solve(
            &prog,
            &PtaConfig {
                budget: needed,
                ..Default::default()
            },
        );
        assert_eq!(exact.status, PtaStatus::Completed);
        assert_eq!(exact.stats.propagations, needed);
        assert_eq!(exact.export_json(), full.export_json());
        // ...and one less is not.
        let short = solve(
            &prog,
            &PtaConfig {
                budget: needed - 1,
                ..Default::default()
            },
        );
        assert_eq!(short.status, PtaStatus::BudgetExceeded);
        assert_eq!(short.stats.propagations, needed - 1);
    }
}

#[test]
fn partial_result_is_queryable_and_consistent() {
    let small = "function a(){} function b(){} var o = {x:a, y:b}; o.x(); o.y();";
    // Every node keeps its own set, so Σ|pts| counts every inserted fact
    // exactly once.
    let cfg = |budget| PtaConfig {
        budget,
        ..Default::default()
    };
    for src in [small.to_owned(), wide_src(), dense_copy_src()] {
        let ast = mujs_syntax::parse(&src).unwrap();
        let prog = mujs_ir::lower_program(&ast);
        let full = solve(&prog, &cfg(u64::MAX));
        let needed = full.stats.propagations;
        // Every truncation point of a small solve; 16 evenly spaced ones
        // plus the edges of a large one.
        let budgets: Vec<u64> = if needed <= 100 {
            (0..needed).collect()
        } else {
            let mut b: Vec<u64> = (0..16).map(|k| k * needed / 16).collect();
            b.extend([1, needed / 2 + 1, needed - 1]);
            b
        };
        // Each yields a queryable result whose recorded propagation count
        // equals the number of facts actually present.
        for budget in budgets {
            let partial = solve(&prog, &cfg(budget));
            assert_eq!(partial.status, PtaStatus::BudgetExceeded);
            assert_eq!(partial.stats.propagations, budget);
            assert_eq!(sum_points_to(&partial) as u64, budget);
            // Queries on the partial result never panic and only under-report.
            for site in call_sites(&prog) {
                let p = partial.callees(site);
                let f = full.callees(site);
                assert!(p.iter().all(|c| f.contains(c)));
            }
        }
        assert_eq!(sum_points_to(&full) as u64, needed);
    }
}

// ---------------------------------------------------------------------
// Determinacy-fact injection.
// ---------------------------------------------------------------------

use mujs_pta::InjectedFacts;

fn dynamic_prop_sites(prog: &Program) -> Vec<StmtId> {
    use mujs_ir::ir::PropKey;
    let mut out = Vec::new();
    for f in &prog.funcs {
        Program::walk_block(&f.body, &mut |s| match &s.kind {
            StmtKind::GetProp {
                key: PropKey::Dynamic(_),
                ..
            }
            | StmtKind::SetProp {
                key: PropKey::Dynamic(_),
                ..
            } => out.push(s.id),
            _ => {}
        });
    }
    out
}

#[test]
fn injected_prop_key_removes_smearing() {
    let src = "function a(){}\nfunction b(){}\nvar o = {x:a, y:b};\nvar k = \"x\" + \"\";\no[k]();";
    let ast = mujs_syntax::parse(src).unwrap();
    let prog = mujs_ir::lower_program(&ast);
    let a = func_named(&prog, "a");
    let b = func_named(&prog, "b");
    let dyn_sites = dynamic_prop_sites(&prog);
    assert_eq!(dyn_sites.len(), 1);

    let baseline = solve(&prog, &PtaConfig::default());
    let sites = call_sites(&prog);
    assert!(sites
        .iter()
        .any(|s| baseline.callees(*s).contains(&a) && baseline.callees(*s).contains(&b)));

    let mut facts = InjectedFacts::default();
    facts
        .prop_keys
        .insert(dyn_sites[0], prog.interner.get("x").unwrap());
    let injected = solve(
        &prog,
        &PtaConfig {
            facts: Some(facts),
            ..Default::default()
        },
    );
    assert_eq!(injected.stats.injected_keys, 1);
    // The call now sees only `a` — same precision as a source rewrite.
    assert!(sites.iter().any(|s| injected.callees(*s) == vec![a]));
    assert!(!sites.iter().any(|s| injected.callees(*s).contains(&b)));
}

#[test]
fn injected_callee_resolves_opaque_call() {
    // Baseline cannot see through eval: the call is unresolved and its
    // result opaque. A determinacy fact names the target exactly.
    let src = "function t() { return {}; }\nvar f = eval(\"t\");\nvar o = f();";
    let ast = mujs_syntax::parse(src).unwrap();
    let prog = mujs_ir::lower_program(&ast);
    let t = func_named(&prog, "t");
    let sites = call_sites(&prog);
    assert_eq!(sites.len(), 1);

    let baseline = solve(&prog, &PtaConfig::default());
    assert!(baseline.callees(sites[0]).is_empty());

    let mut facts = InjectedFacts::default();
    facts.callees.insert(sites[0], t);
    let injected = solve(
        &prog,
        &PtaConfig {
            facts: Some(facts),
            ..Default::default()
        },
    );
    assert_eq!(injected.stats.injected_calls, 1);
    assert_eq!(injected.callees(sites[0]), vec![t]);
    // The return value now flows to the caller.
    let o = injected.points_to(&global_var(&prog, "o"));
    assert!(o.iter().any(|x| matches!(x, AbsObj::Alloc(_))));
}

#[test]
fn deterministic_exports_are_byte_identical() {
    let src = "function a(){} function b(){} var o = {x:a, y:b}; o.x()(); o.y(); var z = new a();";
    let ast = mujs_syntax::parse(src).unwrap();
    let prog = mujs_ir::lower_program(&ast);
    let r1 = solve(&prog, &PtaConfig::default());
    let r2 = solve(&prog, &PtaConfig::default());
    assert_eq!(
        format!("{:?}", r1.all_points_to()),
        format!("{:?}", r2.all_points_to())
    );
    assert_eq!(
        format!("{:?}", r1.call_graph()),
        format!("{:?}", r2.call_graph())
    );
}

// ---------------------------------------------------------------------
// Budget boundaries on a copy cycle.
// ---------------------------------------------------------------------

/// A program with a genuine copy cycle feeding a call: propagation goes
/// around the a/b/c ring until its members agree.
fn cyclic_prog() -> Program {
    let src = "function f(){} function g(){}\n\
               var a = {x:f, y:g}; var b = a; var c = b; a = c;\n\
               var d = c.x; d();";
    let ast = mujs_syntax::parse(src).unwrap();
    mujs_ir::lower_program(&ast)
}

fn budget_cfg(budget: u64) -> PtaConfig {
    PtaConfig {
        budget,
        ..Default::default()
    }
}

#[test]
fn exact_budget_completes_on_a_copy_cycle() {
    let prog = cyclic_prog();
    let full = solve(&prog, &budget_cfg(u64::MAX));
    assert_eq!(full.status, PtaStatus::Completed);
    let needed = full.stats.propagations;
    assert!(needed > 0);
    let exact = solve(&prog, &budget_cfg(needed));
    assert_eq!(exact.status, PtaStatus::Completed);
    assert_eq!(exact.stats.propagations, needed);
    let short = solve(&prog, &budget_cfg(needed - 1));
    assert_eq!(short.status, PtaStatus::BudgetExceeded);
    assert_eq!(short.stats.propagations, needed - 1);
}

#[test]
fn partial_results_queryable_on_a_copy_cycle() {
    let prog = cyclic_prog();
    let full = solve(&prog, &budget_cfg(u64::MAX));
    assert_eq!(sum_points_to(&full) as u64, full.stats.propagations);
    // Every truncation point yields a queryable, sound-under-full result
    // holding exactly the facts it counted.
    for budget in 0..full.stats.propagations {
        let partial = solve(&prog, &budget_cfg(budget));
        assert_eq!(partial.status, PtaStatus::BudgetExceeded);
        assert_eq!(partial.stats.propagations, budget);
        assert_eq!(sum_points_to(&partial) as u64, budget);
        for site in call_sites(&prog) {
            let p = partial.callees(site);
            let f = full.callees(site);
            assert!(p.iter().all(|c| f.contains(c)));
        }
        for (node, pts) in partial.all_points_to() {
            let f = full.points_to(&node);
            assert!(pts.iter().all(|o| f.contains(o)));
        }
    }
}
