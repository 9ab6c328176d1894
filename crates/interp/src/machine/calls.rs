//! Calls, construction, closures, direct and indirect `eval`, and the
//! entry script. An indeterminate callee (rule ÎNV) flushes the heap after
//! the call and taints its result.

use super::{Frame, Machine, MAX_CALL_DEPTH};
use crate::context::CtxId;
use crate::domain::{AnnValue, Domain, Flag, Flow, Stop, TraceAbs};
use crate::values::{ObjClass, ObjId, ScopeId, Value};
use mujs_dom::document::Document;
use mujs_dom::events::EventPlan;
use mujs_ir::ir::FuncKind;
use mujs_ir::{FuncId, StmtId, Sym};
use std::rc::Rc;

impl<D: Domain> Machine<'_, D> {
    /// Runs the entry script to completion.
    pub fn run(&mut self) -> D::Outcome {
        let r = self.run_script();
        D::outcome(r)
    }

    /// Loads a page: installs the DOM, runs the entry script, then fires
    /// the implicit `load`/`ready` events and `plan`, stopping at the first
    /// failure.
    pub fn run_page(&mut self, doc: Document, plan: &EventPlan) -> D::Outcome {
        self.install_dom(doc);
        let r = self.run_script().and_then(|()| self.fire_events(plan));
        D::outcome(r)
    }

    fn run_script(&mut self) -> Result<(), D::Err> {
        let entry = self.prog.entry().expect("program has an entry");
        let f = self.prog.func_rc(entry);
        debug_assert_eq!(f.kind, FuncKind::Script);
        // Script declarations go to the global object.
        let g = self.global;
        for &v in &f.decls.vars {
            if !self.obj(g).props.contains(v) {
                self.write_prop_s(g, v, D::V::det(Value::Undefined));
            }
        }
        for &(name, fid) in &f.decls.funcs {
            let clos = self.make_closure(fid, None);
            self.write_prop_s(g, name, D::V::det(Value::Object(clos)));
        }
        let this = D::V::det(Value::Object(g));
        let mut frame = self.fresh_frame(entry, None, None, this, CtxId::ROOT);
        match self.exec_block(&mut frame, &f.body)? {
            Flow::Normal => Ok(()),
            _ => Err(D::stop(Stop::IllegalCompletion)),
        }
    }

    /// Creates a closure object over `env` with its fresh `.prototype`.
    pub fn make_closure(&mut self, func: FuncId, env: Option<ScopeId>) -> ObjId {
        self.mark_captured(env);
        let clos = self.alloc(ObjClass::Function { func, env }, Some(self.protos.function));
        let proto = self.alloc(ObjClass::Plain, Some(self.protos.object));
        D::tag(self, proto, TraceAbs::ProtoOf(func));
        self.set_raw_s(proto, Sym::CONSTRUCTOR, Value::Object(clos));
        self.set_raw_s(clos, Sym::PROTOTYPE, Value::Object(proto));
        let f = self.prog.func(func);
        let nparams = f.params.len() as f64;
        let name = f.name;
        self.set_raw_s(clos, Sym::LENGTH, Value::Num(nparams));
        if let Some(n) = name {
            let text = self.prog.interner.name(n).clone();
            self.set_raw_s(clos, Sym::NAME, Value::Str(text));
        }
        clos
    }

    /// Rule ÎNV's epilogue: after a call through an indeterminate callee,
    /// flush the heap and taint the result (or the exception).
    fn finish_call(&mut self, callee_d: D::Flag, r: Result<D::V, D::Err>) -> Result<D::V, D::Err> {
        if !callee_d.is_indet() {
            return r;
        }
        match r {
            Ok(v) => {
                D::flush(self)?;
                Ok(v.weaken(callee_d))
            }
            Err(e) => Err(D::taint_thrown(e)),
        }
    }

    /// Calls a value. `ctx` is the callee's calling context.
    ///
    /// # Errors
    ///
    /// `TypeError` for non-callables; whatever the body throws.
    pub fn call_value(
        &mut self,
        callee: &D::V,
        this: D::V,
        args: &[D::V],
        ctx: CtxId,
    ) -> Result<D::V, D::Err> {
        let ic = callee.d().is_indet();
        let Value::Object(fid) = *callee.v() else {
            return Err(self.throw_error_ic("TypeError", "value is not a function", ic));
        };
        let r = match self.obj(fid).class {
            ObjClass::Function { func, env } => {
                self.call_function(func, env, Some(fid), this, args, ctx)
            }
            ObjClass::Native(nid) => self.call_native(nid.0, this, args),
            _ => Err(self.throw_error_ic("TypeError", "value is not a function", ic)),
        };
        self.finish_call(callee.d(), r)
    }

    /// Dispatches one native call — the single funnel for every native.
    fn call_native(&mut self, nid: u32, this: D::V, args: &[D::V]) -> Result<D::V, D::Err> {
        D::on_native_call(self)?;
        let f = self.natives[nid as usize].1;
        f(self, this, args)
    }

    /// Enters one call level, or throws `RangeError` at
    /// [`MAX_CALL_DEPTH`]; a successful entry is left by
    /// `self.call_depth -= 1`.
    fn enter_call(&mut self) -> Result<(), D::Err> {
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(self.throw_error("RangeError", "Maximum call stack size exceeded"));
        }
        self.call_depth += 1;
        Ok(())
    }

    fn call_function(
        &mut self,
        func: FuncId,
        env: Option<ScopeId>,
        self_obj: Option<ObjId>,
        this: D::V,
        args: &[D::V],
        ctx: CtxId,
    ) -> Result<D::V, D::Err> {
        self.enter_call()?;
        let r = self.run_function(func, env, self_obj, this, args, ctx);
        self.call_depth -= 1;
        r
    }

    fn run_function(
        &mut self,
        func: FuncId,
        env: Option<ScopeId>,
        self_obj: Option<ObjId>,
        this: D::V,
        args: &[D::V],
        ctx: CtxId,
    ) -> Result<D::V, D::Err> {
        let f = self.prog.func_rc(func);
        let scope = self.new_activation(func, env);
        for (i, &p) in f.params.iter().enumerate() {
            let v = args
                .get(i)
                .cloned()
                .unwrap_or_else(|| D::V::det(Value::Undefined));
            self.declare(Some(scope), p, v);
        }
        // The `arguments` array.
        let args_arr = self.alloc(ObjClass::Array, Some(self.protos.array));
        self.set_raw_s(args_arr, Sym::LENGTH, Value::Num(args.len() as f64));
        for (i, v) in args.iter().enumerate() {
            let slot = self.prog.interner.intern_index(i);
            self.write_prop_s(args_arr, slot, v.clone());
        }
        self.declare(
            Some(scope),
            Sym::ARGUMENTS,
            D::V::det(Value::Object(args_arr)),
        );
        // Static locals are pre-initialized to determinate `undefined` by
        // the slot layout; only names outside it (e.g. added by the
        // specializer after layout) still need declaring.
        for &v in &f.decls.vars {
            if f.local_slot(v).is_none() && !self.scope(scope).ext.contains_key(&v) {
                self.declare(Some(scope), v, D::V::det(Value::Undefined));
            }
        }
        for &(name, nested) in &f.decls.funcs {
            let clos = self.make_closure(nested, Some(scope));
            self.declare(Some(scope), name, D::V::det(Value::Object(clos)));
        }
        if f.bind_self {
            if let (Some(name), Some(clos)) = (f.name, self_obj) {
                // The self-binding loses to any like-named declaration.
                let shadowed = name == Sym::ARGUMENTS
                    || f.params.contains(&name)
                    || f.decls.vars.contains(&name)
                    || f.decls.funcs.iter().any(|&(n, _)| n == name);
                if !shadowed {
                    self.declare(Some(scope), name, D::V::det(Value::Object(clos)));
                }
            }
        }
        let mut frame = self.fresh_frame(func, Some(scope), Some(scope), this, ctx);
        match self.exec_block(&mut frame, &f.body)? {
            Flow::Normal => Ok(D::V::det(Value::Undefined)),
            Flow::Return(v, ic) => Ok(if ic { v.weaken(D::Flag::INDET) } else { v }),
            Flow::Break(_) | Flow::Continue(_) => Err(D::stop(Stop::IllegalCompletion)),
        }
    }

    /// `new F(args)` at `site`, with the flag of `F.prototype` threaded
    /// into the created object's prototype link.
    ///
    /// # Errors
    ///
    /// `TypeError` for non-constructables; whatever the body throws.
    pub fn construct(
        &mut self,
        site: StmtId,
        callee: &D::V,
        args: &[D::V],
        ctx: CtxId,
    ) -> Result<D::V, D::Err> {
        let ic = callee.d().is_indet();
        let Value::Object(fid) = *callee.v() else {
            return Err(self.throw_error_ic("TypeError", "value is not a constructor", ic));
        };
        let r = if Some(fid) == self.specials.array_ctor {
            Ok(self.new_array(Some(site), args))
        } else if Some(fid) == self.specials.object_ctor {
            let o = self.alloc(ObjClass::Plain, Some(self.protos.object));
            D::on_construct(self, site, o, None, args, None);
            Ok(D::V::det(Value::Object(o)))
        } else if Some(fid) == self.specials.error_ctor {
            Ok(self.new_error(Some(site), args))
        } else {
            match self.obj(fid).class {
                ObjClass::Function { func, env } => {
                    let proto_slot = self.own_prop_s(fid, Sym::PROTOTYPE);
                    let proto = match proto_slot.v() {
                        Value::Object(p) => *p,
                        _ => self.protos.object,
                    };
                    let this_obj = self.alloc_with(ObjClass::Plain, Some(proto), proto_slot.d());
                    D::on_construct(self, site, this_obj, Some(func), args, Some(proto));
                    let this = D::V::det(Value::Object(this_obj));
                    let r = self.call_function(func, env, Some(fid), this, args, ctx)?;
                    Ok(match r.v() {
                        Value::Object(_) => r,
                        _ => D::V::new(Value::Object(this_obj), r.d()),
                    })
                }
                ObjClass::Native(nid) => {
                    // Generic natives used with `new`: call with a fresh object.
                    let this_obj = self.alloc(ObjClass::Plain, Some(self.protos.object));
                    D::on_construct(self, site, this_obj, None, args, None);
                    let r = self.call_native(nid.0, D::V::det(Value::Object(this_obj)), args)?;
                    Ok(match r.v() {
                        Value::Object(_) => r,
                        _ => D::V::det(Value::Object(this_obj)),
                    })
                }
                _ => {
                    return Err(self.throw_error_ic("TypeError", "value is not a constructor", ic))
                }
            }
        };
        self.finish_call(callee.d(), r)
    }

    /// `Array(...)` / `new Array(...)`; `site` is the `new` site, if any.
    pub fn new_array(&mut self, site: Option<StmtId>, args: &[D::V]) -> D::V {
        let arr = self.alloc(ObjClass::Array, Some(self.protos.array));
        if let Some(site) = site {
            D::on_construct(self, site, arr, None, args, None);
        }
        if let [len] = args {
            if let Value::Num(n) = len.v() {
                let len = D::V::new(Value::Num(n.trunc()), len.d());
                self.write_prop_s(arr, Sym::LENGTH, len);
                return D::V::det(Value::Object(arr));
            }
        }
        self.set_raw_s(arr, Sym::LENGTH, Value::Num(args.len() as f64));
        for (i, v) in args.iter().enumerate() {
            let slot = self.prog.interner.intern_index(i);
            self.write_prop_s(arr, slot, v.clone());
        }
        D::V::det(Value::Object(arr))
    }

    /// `new Error(msg)`; `site` is the `new` site, if any.
    pub fn new_error(&mut self, site: Option<StmtId>, args: &[D::V]) -> D::V {
        let e = self.alloc(ObjClass::Plain, Some(self.protos.error));
        if let Some(site) = site {
            D::on_construct(self, site, e, None, args, None);
        }
        let msg = match args.first() {
            Some(v) => D::V::new(Value::Str(self.value_to_string(v.v())), v.d()),
            None => D::V::det(Value::Str(Rc::from(""))),
        };
        self.write_prop_s(e, Sym::MESSAGE, msg);
        self.set_raw_s(e, Sym::NAME, Value::Str(Rc::from("Error")));
        D::V::det(Value::Object(e))
    }

    // --------------------------------------------------------------- eval

    /// Parses and lowers eval code as a chunk nested in `parent`. An
    /// indeterminate source flushes the heap first (§4: code loaded at
    /// runtime is instrumented recursively, "flushing the heap if the code
    /// is not determinate").
    fn load_eval_chunk(&mut self, src: &str, d: D::Flag, parent: FuncId) -> Result<FuncId, D::Err> {
        if d.is_indet() {
            D::flush(self)?;
        }
        // The machine's own stack parses and lowers eval code, so it gets
        // the inline guard: deeper code is a catchable SyntaxError.
        let parsed = match mujs_syntax::parse_inline(src) {
            Ok(p) => p,
            Err(e) => return Err(self.throw_error_ic("SyntaxError", &e.to_string(), d.is_indet())),
        };
        let chunk = mujs_ir::lower_chunk(self.prog, &parsed, FuncKind::EvalChunk, Some(parent));
        #[cfg(debug_assertions)]
        mujs_analysis::assert_valid(self.prog);
        D::on_code_loaded(self);
        Ok(chunk)
    }

    /// Direct `eval` in the caller's scope. Non-string arguments are
    /// returned unchanged (as in JS).
    pub(crate) fn eval_direct(
        &mut self,
        frame: &mut Frame<D::V>,
        arg: &D::V,
        ctx: CtxId,
    ) -> Result<D::V, D::Err> {
        let Value::Str(src) = arg.v() else {
            return Ok(arg.clone());
        };
        let chunk = self.load_eval_chunk(src, arg.d(), frame.func)?;
        let r = self.run_eval_chunk(frame, chunk, ctx)?;
        Ok(r.weaken(arg.d()))
    }

    /// Indirect `eval`: the chunk runs in the global scope from the root
    /// context.
    pub fn eval_indirect(&mut self, arg: Option<&D::V>) -> Result<D::V, D::Err> {
        let Some(arg) = arg else {
            return Ok(D::V::det(Value::Undefined));
        };
        let Value::Str(src) = arg.v() else {
            return Ok(arg.clone());
        };
        let entry = self.prog.entry().expect("program has an entry");
        let chunk = self.load_eval_chunk(src, arg.d(), entry)?;
        let this = D::V::det(Value::Object(self.global));
        let mut frame = self.fresh_frame(chunk, None, None, this, CtxId::ROOT);
        let r = self.run_eval_chunk(&mut frame, chunk, CtxId::ROOT)?;
        Ok(r.weaken(arg.d()))
    }

    /// Runs an eval chunk in the caller's scope, one call level deeper.
    fn run_eval_chunk(
        &mut self,
        frame: &mut Frame<D::V>,
        chunk: FuncId,
        ctx: CtxId,
    ) -> Result<D::V, D::Err> {
        self.enter_call()?;
        let r = self.run_chunk_body(frame, chunk, ctx);
        self.call_depth -= 1;
        r
    }

    fn run_chunk_body(
        &mut self,
        frame: &mut Frame<D::V>,
        chunk: FuncId,
        ctx: CtxId,
    ) -> Result<D::V, D::Err> {
        let f = self.prog.func_rc(chunk);
        // Hoist the chunk's declarations into the caller's scope.
        for &v in &f.decls.vars {
            if self.lookup(frame.scope, v).is_none() {
                self.declare_hoisted(frame.scope, v, D::V::det(Value::Undefined));
            }
        }
        for &(name, nested) in &f.decls.funcs {
            let clos = self.make_closure(nested, frame.scope);
            self.assign(frame.scope, name, D::V::det(Value::Object(clos)));
        }
        let this = frame.this_val.clone();
        let mut eframe = self.fresh_frame(chunk, frame.scope, frame.activation, this, ctx);
        match self.exec_block(&mut eframe, &f.body)? {
            Flow::Normal => Ok(eframe
                .temps
                .first()
                .cloned()
                .unwrap_or_else(|| D::V::det(Value::Undefined))),
            _ => Err(D::stop(Stop::IllegalCompletion)),
        }
    }

    /// Calls a closure object as an event handler or test hook, from the
    /// root context.
    pub fn call_closure_by_id(
        &mut self,
        clos: ObjId,
        this: D::V,
        args: &[D::V],
    ) -> Result<D::V, D::Err> {
        self.call_value(&D::V::det(Value::Object(clos)), this, args, CtxId::ROOT)
    }
}
