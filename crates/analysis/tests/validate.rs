//! The validator must accept everything the real pipeline produces —
//! including the slot-resolution edge cases around `eval` and shadowing
//! — and reject seeded mutations of each invariant.

use mujs_analysis::{validate_program, Violation};
use mujs_ir::ir::{FuncId, FuncKind, Place, Program, StmtKind, TempId};
use mujs_ir::lower::{lower_chunk, lower_program};
use mujs_ir::Sym;
use mujs_syntax::parse;

fn lower(src: &str) -> Program {
    lower_program(&parse(src).unwrap())
}

fn assert_clean(prog: &Program) {
    let violations = validate_program(prog);
    assert!(
        violations.is_empty(),
        "expected a clean program, got: {:?}",
        violations
            .iter()
            .map(|v| v.describe(prog))
            .collect::<Vec<_>>()
    );
}

/// Finds the first statement (depth-first) in `f` matching `pred` and
/// applies `mutate` to it.
fn mutate_stmt(
    prog: &mut Program,
    func: FuncId,
    pred: impl Fn(&StmtKind) -> bool,
    mutate: impl Fn(&mut StmtKind),
) {
    let f = prog.func_mut(func);
    let mut done = false;
    fn walk(
        block: &mut [mujs_ir::Stmt],
        pred: &impl Fn(&StmtKind) -> bool,
        mutate: &impl Fn(&mut StmtKind),
        done: &mut bool,
    ) {
        for s in block {
            if *done {
                return;
            }
            if pred(&s.kind) {
                mutate(&mut s.kind);
                *done = true;
                return;
            }
            match &mut s.kind {
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    walk(then_blk, pred, mutate, done);
                    walk(else_blk, pred, mutate, done);
                }
                StmtKind::Loop {
                    cond_blk,
                    body,
                    update,
                    ..
                } => {
                    walk(cond_blk, pred, mutate, done);
                    walk(body, pred, mutate, done);
                    walk(update, pred, mutate, done);
                }
                StmtKind::Breakable { body } => walk(body, pred, mutate, done),
                StmtKind::Try {
                    block,
                    catch,
                    finally,
                } => {
                    walk(block, pred, mutate, done);
                    if let Some((_, b)) = catch {
                        walk(b, pred, mutate, done);
                    }
                    if let Some(b) = finally {
                        walk(b, pred, mutate, done);
                    }
                }
                _ => {}
            }
        }
    }
    walk(&mut f.body, &pred, &mutate, &mut done);
    assert!(done, "mutation target not found");
}

fn func_named(p: &Program, name: &str) -> FuncId {
    p.funcs
        .iter()
        .find(|f| f.name.is_some_and(|s| p.interner.resolve(s) == name))
        .unwrap()
        .id
}

fn first_slot_stmt(p: &Program, func: FuncId) -> bool {
    let mut found = false;
    Program::walk_block(&p.func(func).body, &mut |s| {
        s.kind.for_each_place(&mut |pl| {
            if matches!(pl, Place::Slot { .. }) {
                found = true;
            }
        });
    });
    found
}

// ---------------------------------------------------------------------
// Acceptance: everything the real pipeline produces is clean.
// ---------------------------------------------------------------------

#[test]
fn accepts_plain_programs() {
    assert_clean(&lower("var x = 1; function f(a) { return a + x; } f(2);"));
}

#[test]
fn accepts_control_flow_and_try() {
    assert_clean(&lower(
        "function f(n) { var acc = 0; \
         for (var i = 0; i < n; i = i + 1) { \
           try { if (i % 2) { continue; } acc = acc + i; } \
           catch (e) { break; } finally { acc = acc + 0; } } \
         return acc; } f(10);",
    ));
}

#[test]
fn accepts_direct_eval_scopes() {
    // The definer's own eval keeps its hop-0 slots; a nested function
    // below the definer loses resolution — both shapes must validate.
    assert_clean(&lower(
        "function f() { var x = 1; eval(\"x = 2\"); return x; } \
         function g() { var y = 1; function h() { eval(\"y\"); return y; } return h(); }",
    ));
}

#[test]
fn accepts_shadowing_across_hops() {
    assert_clean(&lower(
        "function a(v) { function b(v) { function c() { return v; } return c; } \
         return b(v); } a(1);",
    ));
}

#[test]
fn accepts_catch_poisoned_closures() {
    assert_clean(&lower(
        "function f() { var c = 1; try { g(); } catch (c) { \
         var k = function q() { return c; }; } return c; }",
    ));
}

#[test]
fn accepts_runtime_lowered_chunks() {
    // Chunks lowered into an existing program, as the interpreters do
    // for direct eval at runtime.
    let mut p = lower("function host() { var x = 1; return x; }");
    let host = func_named(&p, "host");
    let chunk = parse("var mk = function inner(a) { return a + x; }; mk(1);").unwrap();
    lower_chunk(&mut p, &chunk, FuncKind::EvalChunk, Some(host));
    assert_clean(&p);
}

#[test]
fn accepts_deeply_nested_functions() {
    // Deep lexical nesting exercises the frontend entry point and long
    // hop chains.
    let mut src = String::from("function f0() { var v0 = 0; ");
    for i in 1..40 {
        src.push_str(&format!("function f{i}() {{ var v{i} = v{} + 1; ", i - 1));
    }
    src.push_str("var leaf = v0;");
    for _ in 0..40 {
        src.push_str(" }");
    }
    let p = mujs_syntax::parse_with(&src, lower_program).unwrap();
    assert_clean(&p);
}

// ---------------------------------------------------------------------
// Rejection: seeded mutations of each invariant are caught.
// ---------------------------------------------------------------------

/// Rewrites the first `Place::Slot` found anywhere in `func`'s body.
fn mutate_first_slot(prog: &mut Program, func: FuncId, f: impl Fn(&mut u32, &mut u32)) {
    let done = std::cell::Cell::new(false);
    mutate_stmt(
        prog,
        func,
        |k| {
            let mut has = false;
            k.for_each_place(&mut |p| has |= matches!(p, Place::Slot { .. }));
            has
        },
        |k| {
            k.for_each_place_mut(&mut |p| {
                if done.get() {
                    return;
                }
                if let Place::Slot { hops, slot, .. } = p {
                    f(hops, slot);
                    done.set(true);
                }
            });
        },
    );
}

#[test]
fn rejects_out_of_range_slot_index() {
    let mut p = lower("function f(a) { return a; }");
    let f = func_named(&p, "f");
    assert!(first_slot_stmt(&p, f));
    mutate_first_slot(&mut p, f, |_, slot| *slot = 99);
    let v = validate_program(&p);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::SlotOutOfRange { .. })),
        "got {v:?}"
    );
}

#[test]
fn rejects_absurd_hop_count() {
    let mut p = lower("function f(a) { return a; }");
    let f = func_named(&p, "f");
    mutate_first_slot(&mut p, f, |hops, _| *hops = 1_000_000);
    let v = validate_program(&p);
    // The walk trips on the very first frame (the name is declared
    // right there, so any hops > 0 is shadowed) — and could never
    // complete anyway.
    assert!(
        v.iter().any(|x| matches!(
            x,
            Violation::SlotBrokenChain { .. }
                | Violation::SlotNonFunctionFrame { .. }
                | Violation::SlotShadowed { .. }
        )),
        "got {v:?}"
    );
}

#[test]
fn rejects_uninterned_sym() {
    let mut p = lower("function f(a) { return a; }");
    let f = func_named(&p, "f");
    mutate_stmt(
        &mut p,
        f,
        |k| matches!(k, StmtKind::Return { .. }),
        |k| {
            if let StmtKind::Return { arg: Some(pl) } = k {
                *pl = Place::Named(Sym(9999));
            }
        },
    );
    let v = validate_program(&p);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::SymOutOfRange { .. })),
        "got {v:?}"
    );
}

#[test]
fn rejects_dangling_closure_target() {
    let mut p = lower("var k = function f() { return 1; };");
    let entry = p.entry().unwrap();
    mutate_stmt(
        &mut p,
        entry,
        |k| matches!(k, StmtKind::Closure { .. }),
        |k| {
            if let StmtKind::Closure { func, .. } = k {
                *func = FuncId(999);
            }
        },
    );
    let v = validate_program(&p);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::FuncOutOfRange { .. })),
        "got {v:?}"
    );
}

#[test]
fn rejects_out_of_range_stmt_id() {
    let mut p = lower("var x = 1;");
    let entry = p.entry().unwrap();
    let f = p.func_mut(entry);
    f.body[0].id = mujs_ir::StmtId(u32::MAX);
    let v = validate_program(&p);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::StmtOutOfRange { .. })),
        "got {v:?}"
    );
}

#[test]
fn rejects_cleared_eval_flag() {
    let mut p = lower("function f() { var x = 1; eval(\"x\"); }");
    let f = func_named(&p, "f");
    p.func_mut(f).has_direct_eval = false;
    let v = validate_program(&p);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::MissingEvalFlag { .. })),
        "got {v:?}"
    );
}

#[test]
fn rejects_shuffled_locals_layout() {
    let mut p = lower("function f(a, b) { var c = a + b; return c; }");
    let f = func_named(&p, "f");
    p.func_mut(f).locals.swap(0, 1);
    let v = validate_program(&p);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::LocalsLayoutMismatch { .. })),
        "got {v:?}"
    );
    // The slot places now disagree with the frame too.
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::SlotSymMismatch { .. })),
        "got {v:?}"
    );
}

#[test]
fn rejects_out_of_range_temp() {
    let mut p = lower("var x = 1 + 2;");
    let entry = p.entry().unwrap();
    let n = p.func(entry).n_temps;
    mutate_stmt(
        &mut p,
        entry,
        |k| {
            matches!(
                k,
                StmtKind::Const {
                    dst: Place::Temp(_),
                    ..
                }
            )
        },
        |k| {
            if let StmtKind::Const { dst, .. } = k {
                *dst = Place::Temp(TempId(n + 7));
            }
        },
    );
    let v = validate_program(&p);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::TempOutOfRange { .. })),
        "got {v:?}"
    );
}

#[test]
fn rejects_duplicated_stmt_id() {
    let mut p = lower("var x = 1; var y = 2;");
    let entry = p.entry().unwrap();
    let f = p.func_mut(entry);
    let first_id = f.body[0].id;
    f.body[1].id = first_id;
    let v = validate_program(&p);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::DuplicateStmt { .. })),
        "got {v:?}"
    );
}

#[test]
fn rejects_slot_crossing_evalful_frame() {
    // Legitimately resolved capture, then the middle frame grows a fake
    // eval flag: the chain now crosses an eval.
    let mut p = lower("function out() { var x = 1; function mid() { return x; } }");
    let mid = func_named(&p, "mid");
    assert!(first_slot_stmt(&p, mid));
    p.func_mut(mid).has_direct_eval = true;
    let v = validate_program(&p);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::SlotCrossesEval { .. })),
        "got {v:?}"
    );
}
