//! Static write domains — the `vd(s)` function of the paper (§3.1).
//!
//! `vd(s)` is the set of variables that a statement list *may* assign,
//! excluding assignments inside nested functions (callees cannot write
//! their caller's locals). The instrumented semantics uses it in rule
//! (ĈNTRABORT): when counterfactual execution is cut off, every variable
//! in `vd` of the unexecuted branch is conservatively marked indeterminate.
//!
//! Heap effects (`pd`) cannot be bounded statically — a branch may call
//! arbitrary functions — which is exactly why (ĈNTRABORT) also flushes the
//! heap.

use crate::ir::{Place, StmtKind};
use std::collections::HashSet;

/// Slot places canonicalize to their name: write-domain identity is
/// name-based, unaffected by slot resolution.
fn canon(p: &Place) -> Place {
    match p.as_var_sym() {
        Some(sym) => Place::Named(sym),
        None => p.clone(),
    }
}

/// The statically computed write domain of a block.
#[derive(Debug, Clone, Default)]
pub struct WriteDomain {
    /// Places that may be assigned.
    pub places: HashSet<Place>,
    /// Whether the block contains a *direct* `eval`, which can declare and
    /// assign variables invisible to this analysis. Consumers must treat
    /// the entire scope chain as written when this is set.
    pub contains_eval: bool,
}

/// Computes the write domain of `block` (without descending into nested
/// functions — closures created here execute elsewhere).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mujs_syntax::SyntaxError> {
/// use mujs_ir::ir::Place;
/// let ast = mujs_syntax::parse("var x; if (c) { x = 1; } else { y = 2; }")?;
/// let prog = mujs_ir::lower::lower_program(&ast);
/// let wd = mujs_ir::vd::write_domain(&prog.func(prog.entry().unwrap()).body);
/// assert!(wd.places.contains(&Place::Named(prog.interner.get("x").unwrap())));
/// assert!(wd.places.contains(&Place::Named(prog.interner.get("y").unwrap())));
/// # Ok(())
/// # }
/// ```
pub fn write_domain(block: &[crate::ir::Stmt]) -> WriteDomain {
    let mut places = HashSet::new();
    let contains_eval = visit_writes(block, &mut |p| {
        places.insert(canon(p));
    });
    WriteDomain {
        places,
        contains_eval,
    }
}

/// Calls `visit` on the destination of every assignment in `block`, in
/// statement order and without descending into nested functions (the
/// places of [`write_domain`], uncanonicalized and with repeats).
/// Returns whether the block contains a *direct* `eval`.
pub(crate) fn visit_writes(block: &[crate::ir::Stmt], visit: &mut impl FnMut(&Place)) -> bool {
    let mut contains_eval = false;
    for s in block {
        match &s.kind {
            StmtKind::Const { dst, .. }
            | StmtKind::Copy { dst, .. }
            | StmtKind::Closure { dst, .. }
            | StmtKind::NewObject { dst, .. }
            | StmtKind::GetProp { dst, .. }
            | StmtKind::DeleteProp { dst, .. }
            | StmtKind::BinOp { dst, .. }
            | StmtKind::UnOp { dst, .. }
            | StmtKind::Call { dst, .. }
            | StmtKind::New { dst, .. }
            | StmtKind::LoadThis { dst }
            | StmtKind::TypeofName { dst, .. }
            | StmtKind::HasProp { dst, .. }
            | StmtKind::InstanceOf { dst, .. }
            | StmtKind::EnumProps { dst, .. } => visit(dst),
            StmtKind::Eval { dst, .. } => {
                visit(dst);
                contains_eval = true;
            }
            StmtKind::SetProp { .. } => {}
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                contains_eval |= visit_writes(then_blk, visit);
                contains_eval |= visit_writes(else_blk, visit);
            }
            StmtKind::Loop {
                cond_blk,
                body,
                update,
                ..
            } => {
                contains_eval |= visit_writes(cond_blk, visit);
                contains_eval |= visit_writes(body, visit);
                contains_eval |= visit_writes(update, visit);
            }
            StmtKind::Breakable { body } => contains_eval |= visit_writes(body, visit),
            StmtKind::Try {
                block,
                catch,
                finally,
            } => {
                contains_eval |= visit_writes(block, visit);
                if let Some((name, b)) = catch {
                    visit(&Place::Named(*name));
                    contains_eval |= visit_writes(b, visit);
                }
                if let Some(b) = finally {
                    contains_eval |= visit_writes(b, visit);
                }
            }
            StmtKind::Return { .. }
            | StmtKind::Break
            | StmtKind::Continue
            | StmtKind::Throw { .. } => {}
        }
    }
    contains_eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Program;
    use crate::lower::lower_program;
    use mujs_syntax::parse;

    fn prog_of(src: &str) -> Program {
        lower_program(&parse(src).unwrap())
    }

    fn wd_of(prog: &Program) -> WriteDomain {
        write_domain(&prog.func(prog.entry().unwrap()).body)
    }

    fn has_named(prog: &Program, wd: &WriteDomain, name: &str) -> bool {
        prog.interner
            .get(name)
            .is_some_and(|s| wd.places.contains(&Place::Named(s)))
    }

    #[test]
    fn includes_writes_in_all_branches() {
        let p = prog_of("if (c) { a = 1; } else { while (d) { b = 2; } }");
        let wd = wd_of(&p);
        assert!(has_named(&p, &wd, "a"));
        assert!(has_named(&p, &wd, "b"));
    }

    #[test]
    fn excludes_nested_function_writes() {
        let p = prog_of("var f = function() { hidden = 1; };");
        let wd = wd_of(&p);
        assert!(!has_named(&p, &wd, "hidden"));
        assert!(has_named(&p, &wd, "f"));
    }

    #[test]
    fn heap_writes_are_not_variable_writes() {
        let p = prog_of("o.p = 1;");
        let wd = wd_of(&p);
        assert!(!has_named(&p, &wd, "o"));
        assert!(!has_named(&p, &wd, "p"));
    }

    #[test]
    fn catch_variable_is_written() {
        let p = prog_of("try { f(); } catch (e) { g(); }");
        let wd = wd_of(&p);
        assert!(has_named(&p, &wd, "e"));
    }

    #[test]
    fn slot_resolved_writes_canonicalize_to_names() {
        let p = prog_of("function f() { var a; if (c) { a = 1; } }");
        let f = p
            .funcs
            .iter()
            .find(|f| f.name.is_some_and(|s| p.interner.resolve(s) == "f"))
            .unwrap();
        let wd = write_domain(&f.body);
        assert!(has_named(&p, &wd, "a"), "Slot writes must appear as Named");
    }

    #[test]
    fn direct_eval_is_flagged() {
        assert!(wd_of(&prog_of("eval(s);")).contains_eval);
        assert!(!wd_of(&prog_of("f(s);")).contains_eval);
    }
}
