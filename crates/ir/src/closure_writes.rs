//! Which variables can be written by closures other than their declaring
//! function.
//!
//! A heap flush in the instrumented semantics models "an unknown function
//! was called, it may have written anything it can reach". A captured
//! local can only be written by such a call if *some* closure in the
//! program assigns it (µJS makes this vacuous — callees can never write
//! caller locals, the paper's footnote 4). This analysis computes the set
//! of `(declaring function, name)` pairs assigned from a lexically nested
//! function, so the flush policy can leave all other locals determinate —
//! which is exactly what Figure 2 relies on (`checkf` stays callable with
//! a determinate target after the line 21 flush).
//!
//! Functions containing a *direct* `eval` conservatively write every name
//! visible to them.

use crate::hash::FastSet;
use crate::intern::Sym;
use crate::ir::{FuncId, FuncKind, Program};
use crate::vd::visit_writes;

/// The set of closure-written variables of a program.
#[derive(Debug, Default)]
pub struct ClosureWrites {
    written: FastSet<(FuncId, Sym)>,
}

impl ClosureWrites {
    /// Computes the set for every function currently in `prog`: one walk
    /// over each body collecting only variable destinations, each distinct
    /// name resolved against the enclosing functions' declarations.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), mujs_syntax::SyntaxError> {
    /// use mujs_ir::closure_writes::ClosureWrites;
    /// let ast = mujs_syntax::parse(
    ///     "function f() { var a = 1, b = 2; return function() { b = 3; }; }",
    /// )?;
    /// let prog = mujs_ir::lower::lower_program(&ast);
    /// let cw = ClosureWrites::compute(&prog);
    /// let f = prog
    ///     .funcs
    ///     .iter()
    ///     .find(|x| x.name.is_some_and(|s| prog.interner.resolve(s) == "f"))
    ///     .unwrap()
    ///     .id;
    /// let a = prog.interner.get("a").unwrap();
    /// let b = prog.interner.get("b").unwrap();
    /// assert!(!cw.is_written(f, a));
    /// assert!(cw.is_written(f, b));
    /// # Ok(())
    /// # }
    /// ```
    pub fn compute(prog: &Program) -> Self {
        let mut written = FastSet::default();
        let mut names = Vec::new();
        for g in &prog.funcs {
            // The writing scope: eval chunks write through their parent.
            let writer = effective_scope(prog, g.id);
            if prog.func(writer).kind != FuncKind::Function {
                // Script-level code (and eval chunks run there) reaches
                // no function scope: every name it writes is global.
                continue;
            }
            names.clear();
            let contains_eval = visit_writes(&g.body, &mut |p| names.extend(p.as_var_sym()));
            names.sort_unstable();
            names.dedup();
            for &name in &names {
                if let Some(f) = declaring_function(prog, g.id, name) {
                    if f != writer {
                        written.insert((f, name));
                    }
                }
            }
            if contains_eval {
                // Direct eval can assign any visible name.
                let mut cur = Some(g.id);
                while let Some(id) = cur {
                    let func = prog.func(id);
                    if func.kind == FuncKind::Function {
                        written.extend(func.declared_names().map(|n| (id, n)));
                        // `arguments` is implicitly declared.
                        written.insert((id, Sym::ARGUMENTS));
                    }
                    cur = func.parent;
                }
            }
        }
        ClosureWrites { written }
    }

    /// Whether some nested closure may assign `name` declared in `func`.
    pub fn is_written(&self, func: FuncId, name: Sym) -> bool {
        self.written.contains(&(func, name))
    }

    /// Number of closure-written pairs.
    pub fn len(&self) -> usize {
        self.written.len()
    }

    /// Whether no variable is closure-written.
    pub fn is_empty(&self) -> bool {
        self.written.is_empty()
    }
}

/// The function whose activation declares `name` as referenced from
/// inside `func`, or `None` for the global scope: the walk of
/// [`crate::resolve::Resolver::resolve`], scanning each function's
/// declarations instead of building a set per function.
fn declaring_function(prog: &Program, func: FuncId, name: Sym) -> Option<FuncId> {
    let mut cur = Some(func);
    while let Some(id) = cur {
        let f = prog.func(id);
        match f.kind {
            FuncKind::Script => return None,
            FuncKind::EvalChunk => {}
            FuncKind::Function => {
                if f.declared_names().any(|n| n == name) {
                    return Some(id);
                }
            }
        }
        cur = f.parent;
    }
    None
}

/// The function whose activation actually owns writes made by `id`:
/// eval chunks delegate to their nearest enclosing real function.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use mujs_syntax::parse;

    fn setup(src: &str) -> (Program, ClosureWrites) {
        let prog = lower_program(&parse(src).unwrap());
        let cw = ClosureWrites::compute(&prog);
        (prog, cw)
    }

    fn fid(prog: &Program, name: &str) -> FuncId {
        prog.funcs
            .iter()
            .find(|f| f.name.is_some_and(|s| prog.interner.resolve(s) == name))
            .unwrap()
            .id
    }

    fn written(prog: &Program, cw: &ClosureWrites, func: &str, name: &str) -> bool {
        prog.interner
            .get(name)
            .is_some_and(|s| cw.is_written(fid(prog, func), s))
    }

    #[test]
    fn own_writes_do_not_count() {
        let (p, cw) = setup("function f() { var a = 1; a = 2; }");
        assert!(!written(&p, &cw, "f", "a"));
    }

    #[test]
    fn nested_writes_count() {
        let (p, cw) = setup("function f() { var a; function g() { a = 1; } return g; }");
        assert!(written(&p, &cw, "f", "a"));
    }

    #[test]
    fn deeply_nested_writes_count() {
        let (p, cw) =
            setup("function f() { var a; return function() { return function() { a = 1; }; }; }");
        assert!(written(&p, &cw, "f", "a"));
    }

    #[test]
    fn reads_do_not_count() {
        let (p, cw) = setup("function f() { var a = 1; return function() { return a; }; }");
        assert!(!written(&p, &cw, "f", "a"));
    }

    #[test]
    fn function_declarations_are_not_closure_written() {
        // The Figure 2 situation: checkf/setg are only called, never
        // reassigned, so a heap flush must not invalidate them.
        let (p, cw) = setup(
            "function outer() { function checkf() { setg(); } function setg() {} checkf(); }",
        );
        assert!(!written(&p, &cw, "outer", "checkf"));
        assert!(!written(&p, &cw, "outer", "setg"));
    }

    #[test]
    fn eval_poisons_visible_names() {
        let (p, cw) = setup("function f(p) { var a; return function g() { eval(\"x\"); }; }");
        assert!(written(&p, &cw, "f", "a"));
        assert!(written(&p, &cw, "f", "p"));
        assert!(written(&p, &cw, "f", "arguments"));
    }
}
