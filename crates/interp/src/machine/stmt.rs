//! Statements: the rule for every `StmtKind`, written once. Under
//! determinate control these are the concrete big-step rules (Fig. 8);
//! where a guard, callee, key or throw is indeterminate they become the
//! instrumented rules of Fig. 9 through the domain's region, flush and
//! counterfactual hooks, including the merge-point treatment of
//! unstructured control flow (§4).

use super::{lit_value, Machine};
use crate::coerce;
use crate::concrete::TraceAbs;
use crate::domain::{AnnValue, Domain, Flag, Flow, Stop};
use crate::machine::Frame;
use crate::values::{ObjClass, Value};
use mujs_ir::ir::{Place, PropKey, StmtKind};
use mujs_ir::{Stmt, StmtId, Sym};
use std::rc::Rc;

/// One loop iteration's verdict.
enum LoopStep<V> {
    Next,
    Exit,
    Propagate(Flow<V>),
}

/// Per-loop bookkeeping for the trip-count fact and the ÎF1 regions.
struct LoopState {
    first: bool,
    /// Every guard so far was determinate (the trip count is a fact).
    all_det: bool,
    /// Some guard was indeterminate: later iterations run under ÎF1.
    tainted: bool,
    trips: u32,
}

/// The parts of a `Loop` statement.
struct LoopParts<'s> {
    cond_blk: &'s [Stmt],
    cond: &'s Place,
    body: &'s [Stmt],
    update: &'s [Stmt],
    check_cond_first: bool,
}

impl<D: Domain> Machine<'_, D> {
    /// Runs a block. An abrupt completion or throw under indeterminate
    /// control skips the rest of the block in this run only; other
    /// executions may run it, so it runs counterfactually.
    pub fn exec_block(
        &mut self,
        frame: &mut Frame<D::V>,
        block: &[Stmt],
    ) -> Result<Flow<D::V>, D::Err> {
        for (i, stmt) in block.iter().enumerate() {
            let r = self.exec_stmt(frame, stmt);
            let indet_ctl = match &r {
                Ok(Flow::Normal) => continue,
                Ok(flow) => flow.indet_ctl(),
                Err(e) => D::as_thrown(e).is_some_and(|(_, ic)| ic),
            };
            if indet_ctl && i + 1 < block.len() {
                D::counterfactual(self, frame, &[&block[i + 1..]])?;
            }
            return r;
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, frame: &mut Frame<D::V>, stmt: &Stmt) -> Result<Flow<D::V>, D::Err> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(D::stop(Stop::StepLimit));
        }
        if self.steps.is_multiple_of(self.limits.poll_interval) {
            D::poll(self)?;
        }
        D::on_step(self)?;
        let id = stmt.id;
        match &stmt.kind {
            StmtKind::Const { dst, lit } => {
                self.define(frame, id, dst, D::V::det(lit_value(lit)));
            }
            StmtKind::Copy { dst, src } => {
                let v = self.read_place(frame, src)?;
                self.define(frame, id, dst, v);
            }
            StmtKind::Closure { dst, func } => {
                let clos = self.make_closure(*func, frame.scope);
                self.define(frame, id, dst, D::V::det(Value::Object(clos)));
            }
            StmtKind::NewObject { dst, is_array } => {
                let o = if *is_array {
                    let a = self.alloc(ObjClass::Array, Some(self.protos.array));
                    self.set_raw_s(a, Sym::LENGTH, Value::Num(0.0));
                    a
                } else {
                    self.alloc(ObjClass::Plain, Some(self.protos.object))
                };
                D::tag(self, o, TraceAbs::Alloc(id));
                self.define(frame, id, dst, D::V::det(Value::Object(o)));
            }
            StmtKind::GetProp { dst, obj, key } => {
                let o = self.read_place(frame, obj)?;
                let (k, kd) = self.prop_key(frame, id, key)?;
                let v = self.get_prop(&o, k, kd)?;
                self.define(frame, id, dst, v);
            }
            StmtKind::SetProp { obj, key, val } => {
                let o = self.read_place(frame, obj)?;
                let (k, kd) = self.prop_key(frame, id, key)?;
                let v = self.read_place(frame, val)?;
                D::on_set_prop(self, id, &o, k, &v);
                self.set_prop(&o, k, kd, v)?;
            }
            StmtKind::DeleteProp { dst, obj, key } => {
                let o = self.read_place(frame, obj)?;
                let (k, kd) = self.prop_key(frame, id, key)?;
                if let Value::Object(oid) = *o.v() {
                    self.delete_prop_s(oid, k);
                    if kd.is_indet() {
                        D::open_record(self, oid);
                    }
                    if o.d().is_indet() {
                        D::flush(self)?;
                    }
                }
                self.define(frame, id, dst, D::V::new(Value::Bool(true), o.d().join(kd)));
            }
            StmtKind::BinOp { dst, op, lhs, rhs } => {
                let a = self.read_place(frame, lhs)?;
                let b = self.read_place(frame, rhs)?;
                let d = a.d().join(b.d());
                let v =
                    coerce::bin_op(*op, a.v(), b.v()).map_err(|_| self.coerce_err(d.is_indet()))?;
                self.define(frame, id, dst, D::V::new(v, d));
            }
            StmtKind::UnOp { dst, op, src } => {
                let a = self.read_place(frame, src)?;
                let ov = self.typeof_override(a.v());
                let v =
                    coerce::un_op(*op, a.v(), ov).map_err(|_| self.coerce_err(a.d().is_indet()))?;
                self.define(frame, id, dst, D::V::new(v, a.d()));
            }
            StmtKind::Call {
                dst,
                callee,
                this_arg,
                args,
            } => {
                let f = self.read_place(frame, callee)?;
                D::on_callee(self, frame.ctx, id, &f);
                let this = match this_arg {
                    Some(p) => self.read_place(frame, p)?,
                    None => D::V::det(Value::Object(self.global)),
                };
                let argv = self.read_args(frame, args)?;
                let ctx = self.enter_site(frame, id);
                D::on_call(self, id, &f, this_arg.as_ref().map(|_| &this), &argv);
                let v = self.call_value(&f, this, &argv, ctx)?;
                self.define(frame, id, dst, v);
            }
            StmtKind::New { dst, callee, args } => {
                let f = self.read_place(frame, callee)?;
                D::on_callee(self, frame.ctx, id, &f);
                let argv = self.read_args(frame, args)?;
                let ctx = self.enter_site(frame, id);
                let v = self.construct(id, &f, &argv, ctx)?;
                self.define(frame, id, dst, v);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => return self.exec_if(frame, id, cond, then_blk, else_blk),
            StmtKind::Loop {
                cond_blk,
                cond,
                body,
                update,
                check_cond_first,
            } => {
                let parts = LoopParts {
                    cond_blk,
                    cond,
                    body,
                    update,
                    check_cond_first: *check_cond_first,
                };
                return self.exec_loop(frame, id, &parts);
            }
            StmtKind::Breakable { body } => {
                return Ok(match self.exec_block(frame, body)? {
                    Flow::Normal | Flow::Break(_) => Flow::Normal,
                    other => other,
                });
            }
            StmtKind::Try {
                block,
                catch,
                finally,
            } => return self.exec_try(frame, block, catch, finally),
            StmtKind::Return { arg } => {
                let v = match arg {
                    Some(p) => self.read_place(frame, p)?,
                    None => D::V::det(Value::Undefined),
                };
                D::on_return(self, frame.func, &v);
                return Ok(Flow::Return(v, false));
            }
            StmtKind::Break => return Ok(Flow::Break(false)),
            StmtKind::Continue => return Ok(Flow::Continue(false)),
            StmtKind::Throw { arg } => {
                let v = self.read_place(frame, arg)?;
                return Err(D::thrown(v, false));
            }
            StmtKind::LoadThis { dst } => {
                let v = frame.this_val.clone();
                self.define(frame, id, dst, v);
            }
            StmtKind::TypeofName { dst, name } => {
                let v = match self.lookup(frame.scope, *name) {
                    Some(dv) => {
                        let ov = self.typeof_override(dv.v());
                        let v = coerce::un_op(mujs_ir::UnOp::Typeof, dv.v(), ov)
                            .map_err(|_| self.coerce_err(dv.d().is_indet()))?;
                        D::V::new(v, dv.d())
                    }
                    None => D::V::new(
                        Value::Str(Rc::from("undefined")),
                        D::absent_flag(self, self.global),
                    ),
                };
                self.define(frame, id, dst, v);
            }
            StmtKind::HasProp { dst, key, obj } => {
                let kv = self.read_place(frame, key)?;
                let k = self.intern_key(&kv)?;
                let o = self.read_place(frame, obj)?;
                let Value::Object(oid) = *o.v() else {
                    return Err(self.throw_error_ic(
                        "TypeError",
                        "'in' requires an object",
                        o.d().is_indet(),
                    ));
                };
                let (has, presence) = self.has_prop(oid, k);
                let d = o.d().join(kv.d()).join(presence);
                self.define(frame, id, dst, D::V::new(Value::Bool(has), d));
            }
            StmtKind::InstanceOf { dst, val, ctor } => {
                let v = self.read_place(frame, val)?;
                let c = self.read_place(frame, ctor)?;
                let cid = match *c.v() {
                    Value::Object(cid) if self.obj(cid).class.is_callable() => cid,
                    _ => {
                        let ic = c.d().is_indet();
                        return Err(self.throw_error_ic(
                            "TypeError",
                            "instanceof requires a function",
                            ic,
                        ));
                    }
                };
                let proto = self.own_prop_s(cid, Sym::PROTOTYPE);
                let mut d = v.d().join(c.d()).join(proto.d());
                let mut result = false;
                if let (Value::Object(mut o), Value::Object(p)) = (v.v(), proto.v()) {
                    let mut fuel = 10_000;
                    while let Some(next) = self.obj(o).proto {
                        d = d.join(D::proto_flag(self, o));
                        if next == *p {
                            result = true;
                            break;
                        }
                        o = next;
                        fuel -= 1;
                        if fuel == 0 {
                            break;
                        }
                    }
                }
                self.define(frame, id, dst, D::V::new(Value::Bool(result), d));
            }
            StmtKind::EnumProps { dst, obj } => {
                let o = self.read_place(frame, obj)?;
                let (keys, kd) = self.enum_props(&o);
                let arr = self.alloc(ObjClass::Array, Some(self.protos.array));
                D::tag(self, arr, TraceAbs::Alloc(id));
                self.write_prop_s(
                    arr,
                    Sym::LENGTH,
                    D::V::new(Value::Num(keys.len() as f64), kd),
                );
                for (i, k) in keys.into_iter().enumerate() {
                    let text = self.prog.interner.name(k).clone();
                    let slot = self.prog.interner.intern_index(i);
                    self.write_prop_s(arr, slot, D::V::new(Value::Str(text), kd));
                }
                self.define(frame, id, dst, D::V::new(Value::Object(arr), o.d()));
            }
            StmtKind::Eval { dst, arg } => {
                let a = self.read_place(frame, arg)?;
                let ctx = self.enter_site(frame, id);
                D::on_eval(self, id, ctx, &a);
                let v = self.eval_direct(frame, &a, ctx)?;
                self.define(frame, id, dst, v);
            }
        }
        Ok(Flow::Normal)
    }

    fn read_args(&mut self, frame: &Frame<D::V>, args: &[Place]) -> Result<Vec<D::V>, D::Err> {
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.read_place(frame, a)?);
        }
        Ok(argv)
    }

    /// The key of a property access; dynamic keys are reported to the
    /// domain (occurrence-qualified key facts).
    fn prop_key(
        &mut self,
        frame: &mut Frame<D::V>,
        id: StmtId,
        key: &PropKey,
    ) -> Result<(Sym, D::Flag), D::Err> {
        let (k, kd) = self.key_of(frame, key)?;
        if matches!(key, PropKey::Dynamic(_)) {
            D::on_key(self, frame, id, k, kd);
        }
        Ok((k, kd))
    }

    // ------------------------------------------------------- conditionals

    /// The Figure 9 conditional rules, generalized to two-armed ifs by the
    /// desugaring `if(c) A else B ≡ if(c) A; if(!c) B`: a determinate
    /// guard runs the taken branch plainly; an indeterminate guard runs
    /// the taken branch in a write-log region (ÎF1, marking after the
    /// merge) and the untaken branch counterfactually (ĈNTR).
    fn exec_if(
        &mut self,
        frame: &mut Frame<D::V>,
        id: StmtId,
        cond: &Place,
        then_blk: &[Stmt],
        else_blk: &[Stmt],
    ) -> Result<Flow<D::V>, D::Err> {
        let cv = self.read_place(frame, cond)?;
        D::on_cond(self, id, frame.ctx, &cv);
        let (taken, untaken) = if coerce::to_boolean(cv.v()) {
            (then_blk, else_blk)
        } else {
            (else_blk, then_blk)
        };
        if !cv.d().is_indet() {
            return self.exec_block(frame, taken);
        }
        D::open_region(self);
        let r = self.exec_block(frame, taken);
        D::close_region(self, frame, true);
        let ran_to_merge = match &r {
            Ok(_) => true,
            Err(e) => D::as_thrown(e).is_some(),
        };
        if ran_to_merge {
            D::counterfactual(self, frame, &[untaken])?;
        }
        match r {
            Ok(flow) => Ok(flow.taint()),
            Err(e) => Err(D::taint_thrown(e)),
        }
    }

    /// Loops: per-iteration ÎF1 regions once any guard has been
    /// indeterminate; a final ĈNTR of the body when exiting on an
    /// indeterminate-false guard (the paper's WHILE-as-IF desugaring);
    /// trip counts for the specializer's unrolling.
    fn exec_loop(
        &mut self,
        frame: &mut Frame<D::V>,
        id: StmtId,
        parts: &LoopParts<'_>,
    ) -> Result<Flow<D::V>, D::Err> {
        let mut st = LoopState {
            first: true,
            all_det: true,
            tainted: false,
            trips: 0,
        };
        let all = [parts.cond_blk, parts.body, parts.update];
        loop {
            D::open_region(self);
            let step = self.loop_iteration(frame, parts, &mut st);
            // Before any indeterminate guard the iteration ran in every
            // execution: keep its writes as they are.
            D::close_region(self, frame, st.tainted);
            match step {
                Ok(LoopStep::Next) => continue,
                Ok(LoopStep::Exit) => {
                    D::on_loop_exit(self, id, frame.ctx, st.all_det.then_some(st.trips));
                    return Ok(Flow::Normal);
                }
                Ok(LoopStep::Propagate(flow)) => {
                    if flow.indet_ctl() {
                        // Other executions may keep iterating.
                        D::cntr_abort(self, frame, &all)?;
                    }
                    D::on_loop_exit(self, id, frame.ctx, None);
                    return Ok(flow);
                }
                Err(e) => {
                    if D::as_thrown(&e).is_some_and(|(_, ic)| ic) {
                        D::cntr_abort(self, frame, &all)?;
                    }
                    return Err(e);
                }
            }
        }
    }

    fn loop_iteration(
        &mut self,
        frame: &mut Frame<D::V>,
        parts: &LoopParts<'_>,
        st: &mut LoopState,
    ) -> Result<LoopStep<D::V>, D::Err> {
        let all = [parts.cond_blk, parts.body, parts.update];
        if parts.check_cond_first || !st.first {
            match self.exec_block(frame, parts.cond_blk)? {
                Flow::Normal => {}
                flow => return Ok(LoopStep::Propagate(flow)),
            }
            let cv = self.read_place(frame, parts.cond)?;
            if cv.d().is_indet() {
                st.all_det = false;
                st.tainted = true;
            }
            if !coerce::to_boolean(cv.v()) {
                if cv.d().is_indet() {
                    // Rule ĈNTR on the iteration other executions may
                    // still perform.
                    D::counterfactual(self, frame, &[parts.body, parts.update])?;
                }
                return Ok(LoopStep::Exit);
            }
        }
        st.first = false;
        match self.exec_block(frame, parts.body)? {
            Flow::Normal => {}
            Flow::Continue(ic) => {
                if ic {
                    D::cntr_abort(self, frame, &all)?;
                    st.all_det = false;
                    st.tainted = true;
                }
            }
            Flow::Break(ic) => {
                if ic {
                    D::cntr_abort(self, frame, &all)?;
                }
                // A break-exit leaves a partial iteration behind: `trips`
                // counts completed iterations only, so an exact count
                // would let the unroller drop the partial iteration.
                st.all_det = false;
                return Ok(LoopStep::Exit);
            }
            flow @ Flow::Return(..) => return Ok(LoopStep::Propagate(flow)),
        }
        match self.exec_block(frame, parts.update)? {
            Flow::Normal => {}
            flow => return Ok(LoopStep::Propagate(flow)),
        }
        st.trips += 1;
        Ok(LoopStep::Next)
    }

    /// `try`/`catch`/`finally`. Under an indeterminate throw other
    /// executions may skip the handler, so the handler is an ÎF1 region
    /// and its completion is tainted.
    fn exec_try(
        &mut self,
        frame: &mut Frame<D::V>,
        block: &[Stmt],
        catch: &Option<(Sym, Vec<Stmt>)>,
        finally: &Option<Vec<Stmt>>,
    ) -> Result<Flow<D::V>, D::Err> {
        let mut result = self.exec_block(frame, block);
        let caught = match (&result, catch) {
            (Err(e), Some((name, handler))) => {
                D::as_thrown(e).map(|(v, ic)| (v.clone(), ic, *name, handler))
            }
            _ => None,
        };
        if let Some((exn, ic, name, handler)) = caught {
            // The catch variable lives in its own little scope.
            let saved = frame.scope;
            let cscope = self.new_scope(saved, frame.func);
            let bound = if ic { exn.weaken(D::Flag::INDET) } else { exn };
            self.declare(Some(cscope), name, bound);
            frame.scope = Some(cscope);
            if ic {
                D::open_region(self);
            }
            let hr = self.exec_block(frame, handler);
            if ic {
                D::close_region(self, frame, true);
            }
            frame.scope = saved;
            result = match hr {
                Ok(flow) if ic => Ok(flow.taint()),
                Err(e) if ic => Err(D::taint_thrown(e)),
                hr => hr,
            };
        }
        if let Some(fin) = finally {
            match self.exec_block(frame, fin)? {
                Flow::Normal => {}
                flow => return Ok(flow), // finally overrides
            }
        }
        result
    }
}
