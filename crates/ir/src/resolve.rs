//! Static lexical name resolution.
//!
//! The interpreters resolve names dynamically through the scope chain (so
//! `eval`-introduced bindings work), but the *static* consumers — the
//! pointer analysis and the specializer — need to know where a named
//! reference binds. This module computes, for every `(function, name)`
//! reference, the function whose activation declares the name, or `Global`.
//!
//! Eval chunks have no scope of their own; their references resolve
//! starting at the lexically enclosing function.

use crate::intern::Sym;
use crate::ir::{FuncId, FuncKind, Program};

/// Where a named reference binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Binding {
    /// A local of the given function's activation.
    Local(FuncId),
    /// The global scope.
    Global,
}

/// Precomputed per-function declared-name sets supporting
/// [`Resolver::resolve`].
#[derive(Debug, Clone)]
pub struct Resolver {
    /// Each function's declared names, sorted and deduplicated, indexed
    /// by function id.
    declared: Vec<Vec<Sym>>,
}

impl Resolver {
    /// Builds a resolver for all functions currently in `prog`.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), mujs_syntax::SyntaxError> {
    /// use mujs_ir::resolve::{Binding, Resolver};
    /// let ast = mujs_syntax::parse("function f(p) { var x; return p + x + y; }")?;
    /// let prog = mujs_ir::lower::lower_program(&ast);
    /// let r = Resolver::new(&prog);
    /// let f = prog.funcs[1].id;
    /// let x = prog.interner.get("x").unwrap();
    /// let y = prog.interner.get("y").unwrap();
    /// assert_eq!(r.resolve(&prog, f, x), Binding::Local(f));
    /// // Script-level declarations live in the global scope.
    /// assert_eq!(r.resolve(&prog, f, y), Binding::Global);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(prog: &Program) -> Self {
        let mut declared = vec![Vec::new(); prog.funcs.len()];
        for f in &prog.funcs {
            let mut names: Vec<Sym> = f.declared_names().collect();
            names.sort_unstable();
            names.dedup();
            declared[f.id.0 as usize] = names;
        }
        Resolver { declared }
    }

    /// Resolves `name` as referenced from inside `func`.
    pub fn resolve(&self, prog: &Program, func: FuncId, name: Sym) -> Binding {
        let mut cur = Some(func);
        while let Some(id) = cur {
            let f = prog.func(id);
            // Eval chunks and the top-level script do not own a scope: the
            // script's declarations are global, eval chunks defer to their
            // parent.
            match f.kind {
                FuncKind::Script => return Binding::Global,
                FuncKind::EvalChunk => {
                    cur = f.parent;
                    continue;
                }
                FuncKind::Function => {}
            }
            if self
                .declared
                .get(id.0 as usize)
                .is_some_and(|names| names.binary_search(&name).is_ok())
            {
                return Binding::Local(id);
            }
            cur = f.parent;
        }
        Binding::Global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use mujs_syntax::parse;

    fn setup(src: &str) -> (Program, Resolver) {
        let prog = lower_program(&parse(src).unwrap());
        let r = Resolver::new(&prog);
        (prog, r)
    }

    fn func_named(prog: &Program, name: &str) -> FuncId {
        prog.funcs
            .iter()
            .find(|f| f.name.is_some_and(|s| prog.interner.resolve(s) == name))
            .unwrap()
            .id
    }

    fn sym(prog: &Program, name: &str) -> Sym {
        prog.interner.get(name).unwrap()
    }

    #[test]
    fn params_shadow_outer_vars() {
        let (prog, r) = setup("function outer(x) { function inner(x) { return x; } }");
        let inner = func_named(&prog, "inner");
        assert_eq!(
            r.resolve(&prog, inner, sym(&prog, "x")),
            Binding::Local(inner)
        );
    }

    #[test]
    fn free_variables_climb_to_enclosing_function() {
        let (prog, r) = setup("function outer() { var v; function inner() { return v; } }");
        let inner = func_named(&prog, "inner");
        let outer = func_named(&prog, "outer");
        assert_eq!(
            r.resolve(&prog, inner, sym(&prog, "v")),
            Binding::Local(outer)
        );
    }

    #[test]
    fn script_level_vars_are_global() {
        let (prog, r) = setup("var g; function f() { return g; }");
        let f = func_named(&prog, "f");
        assert_eq!(r.resolve(&prog, f, sym(&prog, "g")), Binding::Global);
        // A name declared nowhere resolves to Global too.
        let mut p2 = prog.clone();
        let unbound = p2.interner.intern("nonexistent");
        assert_eq!(r.resolve(&p2, f, unbound), Binding::Global);
    }

    #[test]
    fn hoisted_function_names_are_bindings() {
        let (prog, r) = setup("function f() { function g() {} return g; }");
        let f = func_named(&prog, "f");
        assert_eq!(r.resolve(&prog, f, sym(&prog, "g")), Binding::Local(f));
    }

    #[test]
    fn named_function_expression_self_binding() {
        let (prog, r) = setup("var h = function rec() { return rec; };");
        let rec = func_named(&prog, "rec");
        assert_eq!(
            r.resolve(&prog, rec, sym(&prog, "rec")),
            Binding::Local(rec)
        );
    }
}
