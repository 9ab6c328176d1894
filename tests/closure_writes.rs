//! `ClosureWrites::compute` (one var-only walk per function, names resolved
//! by scanning declarations) against the formulation it replaced: the full
//! write domain of every function, each variable resolved through a
//! `Resolver`. The two must give the same set on the jQuery-like pages, on
//! the §5.2 eval programs after their eval chunks have loaded, and on
//! generated programs.

use determinacy::driver::DetHarness;
use determinacy::AnalysisConfig;
use mujs_ir::closure_writes::ClosureWrites;
use mujs_ir::ir::{FuncId, FuncKind, Program};
use mujs_ir::resolve::{Binding, Resolver};
use mujs_ir::vd::write_domain;
use mujs_ir::Sym;
use std::collections::HashSet;

/// The replaced formulation, kept as the oracle.
fn oracle(prog: &Program) -> HashSet<(FuncId, Sym)> {
    let resolver = Resolver::new(prog);
    let mut written = HashSet::new();
    for g in &prog.funcs {
        let wd = write_domain(&g.body);
        let writer = effective_scope(prog, g.id);
        for place in &wd.places {
            if let Some(name) = place.as_var_sym() {
                if let Binding::Local(f) = resolver.resolve(prog, g.id, name) {
                    if f != writer {
                        written.insert((f, name));
                    }
                }
            }
        }
        if wd.contains_eval {
            let mut cur = Some(g.id);
            while let Some(id) = cur {
                let func = prog.func(id);
                if func.kind == FuncKind::Function {
                    written.extend(func.params.iter().map(|&n| (id, n)));
                    written.extend(func.decls.vars.iter().map(|&n| (id, n)));
                    written.extend(func.decls.funcs.iter().map(|&(n, _)| (id, n)));
                    if func.bind_self {
                        written.extend(func.name.map(|n| (id, n)));
                    }
                    written.insert((id, Sym::ARGUMENTS));
                }
                cur = func.parent;
            }
        }
    }
    written
}

fn effective_scope(prog: &Program, id: FuncId) -> FuncId {
    let mut cur = id;
    loop {
        let f = prog.func(cur);
        if f.kind != FuncKind::EvalChunk {
            return cur;
        }
        match f.parent {
            Some(p) => cur = p,
            None => return cur,
        }
    }
}

/// Asserts equal sets; returns the set's size.
fn assert_matches_oracle(what: &str, prog: &Program) -> usize {
    let want = oracle(prog);
    let got = ClosureWrites::compute(prog);
    assert_eq!(got.len(), want.len(), "{what}: set sizes differ");
    for &(f, name) in &want {
        assert!(
            got.is_written(f, name),
            "{what}: ({f:?}, {}) missing",
            prog.interner.resolve(name)
        );
    }
    want.len()
}

fn lower(src: &str) -> Program {
    mujs_syntax::parse_with(src, mujs_ir::lower_program).expect("parses")
}

/// `src` as the body of a function: its script-level declarations become
/// locals that its closures can write.
fn wrapped(src: &str) -> String {
    format!("function wrapper() {{\n{src}\n}}")
}

#[test]
fn jquery_like_pages_agree() {
    for v in mujs_corpus::jquery_like::all_versions() {
        assert_matches_oracle(v.version, &lower(&v.src));
        assert_matches_oracle(v.version, &lower(&wrapped(&v.src)));
    }
}

#[test]
fn eval_programs_agree_after_their_chunks_load() {
    let mut chunks = 0;
    for b in mujs_corpus::evalbench::all() {
        let mut h = DetHarness::from_src(&b.src).expect("evalbench parses");
        let before = h.program.funcs.len();
        assert_matches_oracle(b.name, &h.program);
        if b.runnable {
            let cfg = AnalysisConfig::default();
            if b.needs_dom {
                h.analyze_dom(cfg, b.doc(), &b.plan());
            } else {
                h.analyze(cfg);
            }
        }
        chunks += h.program.funcs.len() - before;
        assert_matches_oracle(b.name, &h.program);
    }
    assert!(chunks > 0, "some eval chunks must have loaded");
}

#[test]
fn generated_programs_agree() {
    let cfg = mujs_gen::GenConfig::default();
    let mut total = 0;
    for seed in 0..1024 {
        let src = mujs_gen::generate(seed, &cfg);
        assert_matches_oracle(&format!("seed {seed}"), &lower(&src));
        total += assert_matches_oracle(&format!("seed {seed} wrapped"), &lower(&wrapped(&src)));
    }
    assert!(total > 0, "wrapped programs have closure writes");
}

#[test]
fn eval_poisoning_and_shadowing_agree() {
    for src in [
        "function f(p) { var a; return function g() { eval(\"x\"); a = 1; p = 2; }; }",
        "function f() { var a; var h = function a() { a = 1; }; function g() { a = 2; } }",
        "function f(a) { function g(a) { a = 1; } function h() { a = 2; arguments = 3; } }",
        "function f() { var e; try { g(); } catch (e) { e = 1; } return function() { try {} catch (e) {} }; }",
        "var t = 1; function f() { t = 2; eval(\"function k() { t = 3; }\"); }",
    ] {
        assert!(assert_matches_oracle(src, &lower(src)) > 0, "{src}");
    }
}

#[test]
fn chunks_lowered_into_a_function_agree() {
    // A chunk lowered under a function that holds no `eval` statement (as
    // the specializer leaves behind when it inlines one): its writes
    // resolve through the chunk to the enclosing functions, with no eval
    // poisoning to cover them.
    let mut prog = lower("function outer() { var a, b; function host() { var b; } }");
    let host = prog
        .funcs
        .iter()
        .find(|f| f.name.is_some_and(|s| prog.interner.resolve(s) == "host"))
        .expect("host")
        .id;
    let chunk =
        mujs_syntax::parse("a = 1; b = 2; function k() { a = 3; b = 4; }").expect("chunk parses");
    mujs_ir::lower_chunk(&mut prog, &chunk, FuncKind::EvalChunk, Some(host));
    assert_eq!(assert_matches_oracle("chunk", &prog), 2);
}
