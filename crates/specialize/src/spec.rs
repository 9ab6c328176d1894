//! The determinacy-fact-driven program specializer (§2.2, §5.1, §5.2).
//!
//! Given a program, the fact database of an instrumented run, and its
//! context table, the specializer produces a rewritten program applying:
//!
//! 1. **branch pruning** — `if`s whose condition is determinately
//!    true/false under the current context collapse to the taken branch;
//! 2. **static property keys** — dynamic accesses whose key string is
//!    determinate become static accesses;
//! 3. **loop unrolling** — loops with a determinate trip count are
//!    unrolled when that exposes per-iteration facts (the paper's
//!    `24₀`-style occurrence contexts become distinct code);
//! 4. **eval elimination** — direct `eval` calls with a determinate
//!    argument string are replaced by the statically parsed and inlined
//!    code (§2.3, the unevalizer comparison of §5.2);
//! 5. **context cloning** — call sites with a determinate closure callee
//!    are redirected to per-context clones of the callee (bounded depth,
//!    the paper's ≤ 4 levels), which is how the facts inside callees
//!    become usable by the flow-insensitive pointer analysis.
//!
//! Transformations 1–4 preserve the program's behavior on the observed
//! input (facts are sound, so the collapsed branches are the ones every
//! execution takes). Transformation 5 preserves behavior only for
//! functions whose captured environment is unique (top-level functions);
//! the rewriter applies it only there.

use determinacy::{Fact, FactDb, FactKind, FactValue, TripFact};
use mujs_interp::context::{ContextTable, CtxId};
use mujs_ir::ir::{Place, PropKey, StmtKind};
use mujs_ir::{Block, FuncId, FuncKind, Function, Program, Stmt, StmtId, TempId};
use std::collections::HashMap;

/// Specializer configuration.
#[derive(Debug, Clone)]
pub struct SpecConfig {
    /// Maximum function clones to create.
    pub max_clones: usize,
    /// Maximum trip count eligible for unrolling (the paper unrolled one
    /// loop 21 times; default leaves headroom).
    pub max_unroll: u32,
    /// Maximum cloning context depth (§5.1: "up to four levels").
    pub max_context_depth: usize,
    /// Enable branch pruning.
    pub prune_branches: bool,
    /// Enable dynamic→static key rewriting.
    pub staticize_keys: bool,
    /// Enable loop unrolling.
    pub unroll_loops: bool,
    /// Enable eval elimination.
    pub eliminate_eval: bool,
    /// Enable per-context function cloning.
    pub clone_functions: bool,
}

impl Default for SpecConfig {
    fn default() -> Self {
        SpecConfig {
            max_clones: 512,
            max_unroll: 32,
            max_context_depth: 4,
            prune_branches: true,
            staticize_keys: true,
            unroll_loops: true,
            eliminate_eval: true,
            clone_functions: true,
        }
    }
}

/// Why an `eval` site was or was not eliminated (feeds the §5.2 study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalStatus {
    /// Replaced by statically inlined code.
    Eliminated,
    /// The argument string is indeterminate.
    IndeterminateArg,
    /// Inside a loop without a determinate bound ("eval occurs inside a
    /// loop for which the dynamic analysis cannot derive a determinate
    /// upper bound", §5.2).
    InLoop,
    /// No fact recorded — the dynamic run did not reach the site.
    NoFact,
    /// The determinate string did not parse.
    ParseFailed,
    /// The site was erased together with a determinately-dead branch
    /// (DetDOM's "detection of unreachable code", §5.2).
    DeadCode,
}

/// Counters describing what the specializer did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecReport {
    /// Function clones created.
    pub clones: usize,
    /// `if` branches collapsed.
    pub branches_pruned: usize,
    /// Dynamic keys made static.
    pub keys_staticized: usize,
    /// Loops unrolled.
    pub loops_unrolled: usize,
    /// `eval` calls replaced by inlined code.
    pub evals_eliminated: usize,
    /// `eval` calls left in the output.
    pub evals_remaining: usize,
    /// Call sites redirected to clones.
    pub calls_redirected: usize,
    /// Per-original-eval-site outcomes, one event per rewrite visit.
    pub eval_events: Vec<(StmtId, EvalStatus)>,
}

/// The specializer output.
#[derive(Debug)]
pub struct Specialized {
    /// The rewritten program (entry at id 0, clones appended).
    pub program: Program,
    /// What happened.
    pub report: SpecReport,
}

/// Runs the specializer.
pub fn specialize(
    prog: &Program,
    facts: &FactDb,
    ctxs: &mut ContextTable,
    cfg: &SpecConfig,
) -> Specialized {
    let mut sp = Specializer {
        orig: prog,
        out: prog.clone(),
        facts,
        ctxs,
        cfg: cfg.clone(),
        instances: HashMap::new(),
        report: SpecReport::default(),
        entry: prog.entry().expect("program has an entry"),
    };
    let entry = sp.entry;
    sp.instances.insert((entry, CtxId::ROOT), entry);
    let new_body = sp.rewrite_function_body(entry, CtxId::ROOT, entry, &[]);
    let fe = sp.out.func_mut(entry);
    fe.body = new_body.body;
    fe.n_temps = new_body.n_temps;
    merge_decls(fe, new_body.extra_decls);
    fe.has_direct_eval = contains_eval(&fe.body);
    let mut report = sp.report;
    // Count surviving evals across the output program.
    let mut remaining = 0usize;
    for f in &sp.out.funcs {
        Program::walk_block(&f.body, &mut |s| {
            if matches!(s.kind, StmtKind::Eval { .. }) {
                remaining += 1;
            }
        });
    }
    report.evals_remaining = remaining;
    Specialized {
        program: sp.out,
        report,
    }
}

struct RewrittenBody {
    body: Block,
    n_temps: u32,
    extra_decls: mujs_ir::Decls,
}

struct Specializer<'a> {
    orig: &'a Program,
    out: Program,
    facts: &'a FactDb,
    ctxs: &'a mut ContextTable,
    cfg: SpecConfig,
    instances: HashMap<(FuncId, CtxId), FuncId>,
    report: SpecReport,
    entry: FuncId,
}

struct RewriteCx {
    /// The function (in the output program) being built.
    target: FuncId,
    /// The context facts are looked up under.
    ctx: CtxId,
    /// Next temp index for splices needing fresh temps.
    n_temps: u32,
    /// Static occurrence counters per original call/eval site.
    occ: HashMap<StmtId, u32>,
    /// Nesting depth of loops that were *kept* (not unrolled): call sites
    /// inside execute under varying occurrence contexts, so cloning and
    /// occurrence-based facts are disabled there.
    kept_loop_depth: u32,
    /// Declarations hoisted from inlined eval chunks.
    extra_decls: mujs_ir::Decls,
    /// Original functions along the current specialization chain; calls to
    /// functions defined by one of these may be redirected (their captured
    /// activation is the chain's own).
    ancestors: Vec<FuncId>,
}

impl Specializer<'_> {
    fn rewrite_function_body(
        &mut self,
        orig_func: FuncId,
        ctx: CtxId,
        target: FuncId,
        ancestors: &[FuncId],
    ) -> RewrittenBody {
        let f = self.orig.func(orig_func).clone();
        let mut ancestors = ancestors.to_vec();
        ancestors.push(orig_func);
        let mut cx = RewriteCx {
            target,
            ctx,
            n_temps: f.n_temps,
            occ: HashMap::new(),
            kept_loop_depth: 0,
            extra_decls: mujs_ir::Decls::default(),
            ancestors,
        };
        let body = self.rewrite_block(&f.body, &mut cx);
        RewrittenBody {
            body,
            n_temps: cx.n_temps,
            extra_decls: cx.extra_decls,
        }
    }

    fn fact(&self, kind: FactKind, point: StmtId, ctx: CtxId) -> Option<&Fact> {
        self.facts.get(kind, point, ctx)
    }

    fn rewrite_block(&mut self, block: &[Stmt], cx: &mut RewriteCx) -> Block {
        let mut out = Vec::new();
        for s in block {
            self.rewrite_stmt(s, cx, &mut out);
        }
        out
    }

    fn fresh(&mut self, s: &Stmt, cx: &RewriteCx, kind: StmtKind) -> Stmt {
        let id = self.out.fresh_stmt(s.span, cx.target);
        Stmt {
            id,
            span: s.span,
            kind,
        }
    }

    fn rewrite_stmt(&mut self, s: &Stmt, cx: &mut RewriteCx, out: &mut Block) {
        match &s.kind {
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if self.cfg.prune_branches && cx.kept_loop_depth == 0 {
                    if let Some(Fact::Det(FactValue::Bool(b))) =
                        self.fact(FactKind::Cond, s.id, cx.ctx)
                    {
                        let b = *b;
                        self.report.branches_pruned += 1;
                        let taken = if b { then_blk } else { else_blk };
                        let dead = if b { else_blk } else { then_blk };
                        self.mark_dead_evals(dead);
                        let spliced = self.rewrite_block(taken, cx);
                        out.extend(spliced);
                        return;
                    }
                }
                let t = self.rewrite_block(then_blk, cx);
                let e = self.rewrite_block(else_blk, cx);
                let st = self.fresh(
                    s,
                    cx,
                    StmtKind::If {
                        cond: cond.clone(),
                        then_blk: t,
                        else_blk: e,
                    },
                );
                out.push(st);
            }
            StmtKind::Loop {
                cond_blk,
                cond,
                body,
                update,
                check_cond_first,
            } => {
                let unrollable = self.cfg.unroll_loops
                    && cx.kept_loop_depth == 0
                    && *check_cond_first
                    && matches!(
                        self.facts.trip(s.id, cx.ctx),
                        Some(TripFact::Exact(n)) if n <= self.cfg.max_unroll
                    )
                    && block_benefits_from_unrolling(body)
                    // `break`/`continue` bound to this loop would escape
                    // the spliced copies.
                    && !has_escaping_jumps(body)
                    && !has_escaping_jumps(update)
                    && !has_escaping_jumps(cond_blk);
                if unrollable {
                    let Some(TripFact::Exact(n)) = self.facts.trip(s.id, cx.ctx) else {
                        unreachable!("checked above");
                    };
                    self.report.loops_unrolled += 1;
                    for _ in 0..n {
                        out.extend(self.rewrite_block(cond_blk, cx));
                        out.extend(self.rewrite_block(body, cx));
                        out.extend(self.rewrite_block(update, cx));
                    }
                    // The final (false) test, for its side effects.
                    out.extend(self.rewrite_block(cond_blk, cx));
                    return;
                }
                cx.kept_loop_depth += 1;
                let cb = self.rewrite_block(cond_blk, cx);
                let b = self.rewrite_block(body, cx);
                let u = self.rewrite_block(update, cx);
                cx.kept_loop_depth -= 1;
                let st = self.fresh(
                    s,
                    cx,
                    StmtKind::Loop {
                        cond_blk: cb,
                        cond: cond.clone(),
                        body: b,
                        update: u,
                        check_cond_first: *check_cond_first,
                    },
                );
                out.push(st);
            }
            StmtKind::Breakable { body } => {
                let b = self.rewrite_block(body, cx);
                let st = self.fresh(s, cx, StmtKind::Breakable { body: b });
                out.push(st);
            }
            StmtKind::Try {
                block,
                catch,
                finally,
            } => {
                let b = self.rewrite_block(block, cx);
                let c = catch.as_ref().map(|(n, h)| (*n, self.rewrite_block(h, cx)));
                let fin = finally.as_ref().map(|h| self.rewrite_block(h, cx));
                let st = self.fresh(
                    s,
                    cx,
                    StmtKind::Try {
                        block: b,
                        catch: c,
                        finally: fin,
                    },
                );
                out.push(st);
            }
            StmtKind::GetProp { dst, obj, key } => {
                let key = self.rewrite_key(s.id, key, cx);
                let st = self.fresh(
                    s,
                    cx,
                    StmtKind::GetProp {
                        dst: dst.clone(),
                        obj: obj.clone(),
                        key,
                    },
                );
                out.push(st);
            }
            StmtKind::SetProp { obj, key, val } => {
                let key = self.rewrite_key(s.id, key, cx);
                let st = self.fresh(
                    s,
                    cx,
                    StmtKind::SetProp {
                        obj: obj.clone(),
                        key,
                        val: val.clone(),
                    },
                );
                out.push(st);
            }
            StmtKind::DeleteProp { dst, obj, key } => {
                let key = self.rewrite_key(s.id, key, cx);
                let st = self.fresh(
                    s,
                    cx,
                    StmtKind::DeleteProp {
                        dst: dst.clone(),
                        obj: obj.clone(),
                        key,
                    },
                );
                out.push(st);
            }
            StmtKind::Eval { dst, arg } => {
                let occ = next_occ(cx, s.id);
                let eval_ctx = self.ctxs.child(cx.ctx, s.id, occ);
                let status = if cx.kept_loop_depth > 0 {
                    EvalStatus::InLoop
                } else {
                    match self.fact(FactKind::EvalArg, s.id, eval_ctx) {
                        Some(Fact::Det(FactValue::Str(code))) => {
                            let code = code.clone();
                            if self.cfg.eliminate_eval && self.inline_eval(s, dst, &code, cx, out) {
                                self.report.evals_eliminated += 1;
                                self.report.eval_events.push((s.id, EvalStatus::Eliminated));
                                return;
                            }
                            EvalStatus::ParseFailed
                        }
                        Some(Fact::Det(_)) | Some(Fact::Indet) => EvalStatus::IndeterminateArg,
                        None => EvalStatus::NoFact,
                    }
                };
                self.report.eval_events.push((s.id, status));
                let st = self.fresh(
                    s,
                    cx,
                    StmtKind::Eval {
                        dst: dst.clone(),
                        arg: arg.clone(),
                    },
                );
                out.push(st);
            }
            StmtKind::Call {
                dst,
                callee,
                this_arg,
                args,
            } => {
                let occ = next_occ(cx, s.id);
                let callee = self.maybe_redirect(s, callee, occ, cx, out);
                let st = self.fresh(
                    s,
                    cx,
                    StmtKind::Call {
                        dst: dst.clone(),
                        callee,
                        this_arg: this_arg.clone(),
                        args: args.clone(),
                    },
                );
                out.push(st);
            }
            StmtKind::New { dst, callee, args } => {
                let occ = next_occ(cx, s.id);
                let callee = self.maybe_redirect(s, callee, occ, cx, out);
                let st = self.fresh(
                    s,
                    cx,
                    StmtKind::New {
                        dst: dst.clone(),
                        callee,
                        args: args.clone(),
                    },
                );
                out.push(st);
            }
            // Everything else is copied verbatim (with a fresh id).
            other => {
                let st = self.fresh(s, cx, other.clone());
                out.push(st);
            }
        }
    }

    fn rewrite_key(&mut self, point: StmtId, key: &PropKey, cx: &mut RewriteCx) -> PropKey {
        if let PropKey::Dynamic(_) = key {
            // Occurrence numbering must advance even when staticization is
            // skipped, to stay aligned with the dynamic machine.
            let occ = next_occ(cx, point);
            if !self.cfg.staticize_keys || cx.kept_loop_depth > 0 {
                return key.clone();
            }
            let key_ctx = self.ctxs.child(cx.ctx, point, occ);
            let hit = match self.fact(FactKind::PropKey, point, key_ctx) {
                Some(Fact::Det(FactValue::Str(k))) => Some(k.clone()),
                _ => None,
            };
            if let Some(k) = hit {
                self.report.keys_staticized += 1;
                return PropKey::Static(self.out.interner.intern_rc(&k));
            }
        }
        key.clone()
    }

    /// Records DeadCode events for every eval site inside pruned code,
    /// including evals in functions whose only closure sites are in the
    /// pruned region.
    fn mark_dead_evals(&mut self, dead: &[Stmt]) {
        let mut funcs = Vec::new();
        Program::walk_block(dead, &mut |s| match &s.kind {
            StmtKind::Eval { .. } => {
                self.report.eval_events.push((s.id, EvalStatus::DeadCode));
            }
            StmtKind::Closure { func, .. } => funcs.push(*func),
            _ => {}
        });
        let mut seen = std::collections::HashSet::new();
        while let Some(fid) = funcs.pop() {
            if !seen.insert(fid) || fid.0 as usize >= self.orig.funcs.len() {
                continue;
            }
            let f = self.orig.func(fid).clone();
            Program::walk_block(&f.body, &mut |s| match &s.kind {
                StmtKind::Eval { .. } => {
                    self.report.eval_events.push((s.id, EvalStatus::DeadCode));
                }
                StmtKind::Closure { func, .. } => funcs.push(*func),
                _ => {}
            });
            for (_, nested) in &f.decls.funcs {
                funcs.push(*nested);
            }
        }
    }

    /// Inlines a determinate eval: parse the code, lower it as a chunk of
    /// the target function, splice its body with temps remapped.
    fn inline_eval(
        &mut self,
        s: &Stmt,
        dst: &Place,
        code: &str,
        cx: &mut RewriteCx,
        out: &mut Block,
    ) -> bool {
        let Ok(ast) = mujs_syntax::parse_inline(code) else {
            return false;
        };
        let chunk_id =
            mujs_ir::lower_chunk(&mut self.out, &ast, FuncKind::EvalChunk, Some(cx.target));
        let chunk = self.out.func(chunk_id).clone();
        let offset = cx.n_temps;
        cx.n_temps += chunk.n_temps;
        // Hoist the chunk's declarations into the enclosing function.
        cx.extra_decls.vars.extend(chunk.decls.vars.iter().cloned());
        for &(name, fid) in &chunk.decls.funcs {
            cx.extra_decls.funcs.push((name, fid));
            self.out.func_mut(fid).parent = Some(cx.target);
        }
        // Re-parent the chunk's directly nested functions to the target.
        for i in 0..self.out.funcs.len() {
            if self.out.funcs[i].parent == Some(chunk_id) {
                self.out.func_mut(FuncId(i as u32)).parent = Some(cx.target);
            }
        }
        let body = chunk.body.clone();
        let remapped = remap_temps(&body, offset, &mut self.out, cx.target, s.span);
        out.extend(remapped);
        // The completion value lives in the chunk's temp 0.
        let id = self.out.fresh_stmt(s.span, cx.target);
        out.push(Stmt {
            id,
            span: s.span,
            kind: StmtKind::Copy {
                dst: dst.clone(),
                src: Place::Temp(TempId(offset)),
            },
        });
        true
    }

    /// Redirects a call with a determinate closure callee to a per-context
    /// clone, if that clone would benefit from specialization.
    fn maybe_redirect(
        &mut self,
        s: &Stmt,
        callee: &Place,
        occ: u32,
        cx: &mut RewriteCx,
        out: &mut Block,
    ) -> Place {
        if !self.cfg.clone_functions
            || cx.kept_loop_depth > 0
            || self.instances.len() >= self.cfg.max_clones
        {
            return callee.clone();
        }
        let Some(Fact::Det(FactValue::Closure(forig))) = self.fact(FactKind::Callee, s.id, cx.ctx)
        else {
            return callee.clone();
        };
        let forig = *forig;
        // Only redirect statically-bound functions whose environment is the
        // global scope (cloning preserves semantics there).
        if forig.0 as usize >= self.orig.funcs.len() {
            return callee.clone(); // eval-created function
        }
        let parent = self.orig.func(forig).parent;
        let parent_ok = match parent {
            None => true,
            Some(p) => p == self.entry || cx.ancestors.contains(&p),
        };
        if !parent_ok {
            return callee.clone();
        }
        let child_ctx = self.ctxs.child(cx.ctx, s.id, occ);
        if self.ctxs.depth(child_ctx) > self.cfg.max_context_depth {
            return callee.clone();
        }
        if !self.has_specializable_facts(forig, child_ctx) {
            return callee.clone();
        }
        let clone = self.instance(forig, child_ctx, &cx.ancestors.clone());
        self.report.calls_redirected += 1;
        let t = TempId(cx.n_temps);
        cx.n_temps += 1;
        let id = self.out.fresh_stmt(s.span, cx.target);
        out.push(Stmt {
            id,
            span: s.span,
            kind: StmtKind::Closure {
                dst: Place::Temp(t),
                func: clone,
            },
        });
        Place::Temp(t)
    }

    /// Whether the fact database holds any specialization-enabling fact for
    /// statements of `func` under `ctx`. PropKey/EvalArg facts are
    /// occurrence-qualified, so their first occurrence is probed.
    fn has_specializable_facts(&mut self, func: FuncId, ctx: CtxId) -> bool {
        let f = self.orig.func(func).clone();
        let mut sites: Vec<(StmtId, u8)> = Vec::new();
        Program::walk_block(&f.body, &mut |s| match &s.kind {
            StmtKind::If { .. } => sites.push((s.id, 0)),
            StmtKind::GetProp {
                key: PropKey::Dynamic(_),
                ..
            }
            | StmtKind::SetProp {
                key: PropKey::Dynamic(_),
                ..
            } => sites.push((s.id, 1)),
            StmtKind::Eval { .. } => sites.push((s.id, 2)),
            StmtKind::Loop { .. } => sites.push((s.id, 3)),
            _ => {}
        });
        for (id, tag) in sites {
            let hit = match tag {
                0 => matches!(self.fact(FactKind::Cond, id, ctx), Some(Fact::Det(_))),
                1 => {
                    let c0 = self.ctxs.child(ctx, id, 0);
                    matches!(self.fact(FactKind::PropKey, id, c0), Some(Fact::Det(_)))
                }
                2 => {
                    let c0 = self.ctxs.child(ctx, id, 0);
                    matches!(self.fact(FactKind::EvalArg, id, c0), Some(Fact::Det(_)))
                }
                _ => matches!(
                    self.facts.trip(id, ctx),
                    Some(TripFact::Exact(n)) if n <= self.cfg.max_unroll
                ),
            };
            if hit {
                return true;
            }
        }
        false
    }

    /// Gets or creates the clone of `func` specialized for `ctx`.
    fn instance(&mut self, func: FuncId, ctx: CtxId, ancestors: &[FuncId]) -> FuncId {
        if let Some(&id) = self.instances.get(&(func, ctx)) {
            return id;
        }
        let clone_id = self.out.reserve_func();
        self.instances.insert((func, ctx), clone_id);
        self.report.clones += 1;
        let mut f = self.orig.func(func).clone();
        f.id = clone_id;
        f.specialized_from = Some(func);
        self.out.set_func(f);
        let rewritten = self.rewrite_function_body(func, ctx, clone_id, ancestors);
        let fref = self.out.func_mut(clone_id);
        fref.body = rewritten.body;
        fref.n_temps = rewritten.n_temps;
        merge_decls(fref, rewritten.extra_decls);
        // Specializing determinate evals away makes the lowering-time flag
        // stale; recompute it so downstream analyses (slot validation,
        // closure-write sets, the PTA resolver) see the rewritten truth.
        fref.has_direct_eval = contains_eval(&fref.body);
        clone_id
    }
}

fn contains_eval(body: &[Stmt]) -> bool {
    let mut found = false;
    Program::walk_block(body, &mut |s| {
        if matches!(s.kind, StmtKind::Eval { .. }) {
            found = true;
        }
    });
    found
}

fn next_occ(cx: &mut RewriteCx, site: StmtId) -> u32 {
    let c = cx.occ.entry(site).or_insert(0);
    let occ = *c;
    *c += 1;
    occ
}

fn merge_decls(f: &mut Function, extra: mujs_ir::Decls) {
    for v in extra.vars {
        if !f.decls.vars.contains(&v) {
            f.decls.vars.push(v);
        }
    }
    for (n, id) in extra.funcs {
        f.decls.funcs.retain(|(en, _)| *en != n);
        f.decls.funcs.push((n, id));
    }
}

/// Unrolling only pays off when per-iteration facts can specialize
/// something inside (§5.1: "unrolling loops ... if this enables other
/// specializations").
fn block_benefits_from_unrolling(body: &[Stmt]) -> bool {
    let mut found = false;
    Program::walk_block(body, &mut |s| {
        if matches!(
            s.kind,
            StmtKind::Call { .. }
                | StmtKind::New { .. }
                | StmtKind::Eval { .. }
                | StmtKind::GetProp {
                    key: PropKey::Dynamic(_),
                    ..
                }
                | StmtKind::SetProp {
                    key: PropKey::Dynamic(_),
                    ..
                }
        ) {
            found = true;
        }
    });
    found
}

/// Whether `block` contains a `break`/`continue` that would bind to the
/// enclosing loop (i.e. not captured by a nested `Loop`, or for `break`,
/// a nested `Breakable`).
fn has_escaping_jumps(block: &[Stmt]) -> bool {
    fn walk(block: &[Stmt]) -> (bool, bool) {
        // (escaping_break, escaping_continue)
        let mut br = false;
        let mut co = false;
        for s in block {
            match &s.kind {
                StmtKind::Break => br = true,
                StmtKind::Continue => co = true,
                StmtKind::Loop { .. } => {
                    // A nested loop captures both kinds.
                }
                StmtKind::Breakable { body } => {
                    // Captures breaks; continues pass through.
                    let (_, c) = walk(body);
                    co |= c;
                }
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    let (b1, c1) = walk(then_blk);
                    let (b2, c2) = walk(else_blk);
                    br |= b1 | b2;
                    co |= c1 | c2;
                }
                StmtKind::Try {
                    block,
                    catch,
                    finally,
                } => {
                    let (b1, c1) = walk(block);
                    br |= b1;
                    co |= c1;
                    if let Some((_, h)) = catch {
                        let (b2, c2) = walk(h);
                        br |= b2;
                        co |= c2;
                    }
                    if let Some(f) = finally {
                        let (b3, c3) = walk(f);
                        br |= b3;
                        co |= c3;
                    }
                }
                _ => {}
            }
        }
        (br, co)
    }
    let (b, c) = walk(block);
    b || c
}

/// Remaps a chunk's temps by `offset` and re-ids its statements into
/// `target`.
fn remap_temps(
    block: &[Stmt],
    offset: u32,
    out: &mut Program,
    target: FuncId,
    span: mujs_syntax::Span,
) -> Block {
    block
        .iter()
        .map(|s| {
            let kind = remap_kind(&s.kind, offset, out, target, span);
            let id = out.fresh_stmt(s.span, target);
            Stmt {
                id,
                span: s.span,
                kind,
            }
        })
        .collect()
}

fn remap_place(p: &Place, offset: u32) -> Place {
    match p {
        Place::Temp(TempId(i)) => Place::Temp(TempId(i + offset)),
        named => named.clone(),
    }
}

fn remap_key(k: &PropKey, offset: u32) -> PropKey {
    match k {
        PropKey::Dynamic(p) => PropKey::Dynamic(remap_place(p, offset)),
        s => s.clone(),
    }
}

fn remap_kind(
    kind: &StmtKind,
    off: u32,
    out: &mut Program,
    target: FuncId,
    span: mujs_syntax::Span,
) -> StmtKind {
    use StmtKind::*;
    match kind {
        Const { dst, lit } => Const {
            dst: remap_place(dst, off),
            lit: lit.clone(),
        },
        Copy { dst, src } => Copy {
            dst: remap_place(dst, off),
            src: remap_place(src, off),
        },
        Closure { dst, func } => Closure {
            dst: remap_place(dst, off),
            func: *func,
        },
        NewObject { dst, is_array } => NewObject {
            dst: remap_place(dst, off),
            is_array: *is_array,
        },
        GetProp { dst, obj, key } => GetProp {
            dst: remap_place(dst, off),
            obj: remap_place(obj, off),
            key: remap_key(key, off),
        },
        SetProp { obj, key, val } => SetProp {
            obj: remap_place(obj, off),
            key: remap_key(key, off),
            val: remap_place(val, off),
        },
        DeleteProp { dst, obj, key } => DeleteProp {
            dst: remap_place(dst, off),
            obj: remap_place(obj, off),
            key: remap_key(key, off),
        },
        BinOp { dst, op, lhs, rhs } => BinOp {
            dst: remap_place(dst, off),
            op: *op,
            lhs: remap_place(lhs, off),
            rhs: remap_place(rhs, off),
        },
        UnOp { dst, op, src } => UnOp {
            dst: remap_place(dst, off),
            op: *op,
            src: remap_place(src, off),
        },
        Call {
            dst,
            callee,
            this_arg,
            args,
        } => Call {
            dst: remap_place(dst, off),
            callee: remap_place(callee, off),
            this_arg: this_arg.as_ref().map(|p| remap_place(p, off)),
            args: args.iter().map(|p| remap_place(p, off)).collect(),
        },
        New { dst, callee, args } => New {
            dst: remap_place(dst, off),
            callee: remap_place(callee, off),
            args: args.iter().map(|p| remap_place(p, off)).collect(),
        },
        If {
            cond,
            then_blk,
            else_blk,
        } => If {
            cond: remap_place(cond, off),
            then_blk: remap_temps(then_blk, off, out, target, span),
            else_blk: remap_temps(else_blk, off, out, target, span),
        },
        Loop {
            cond_blk,
            cond,
            body,
            update,
            check_cond_first,
        } => Loop {
            cond_blk: remap_temps(cond_blk, off, out, target, span),
            cond: remap_place(cond, off),
            body: remap_temps(body, off, out, target, span),
            update: remap_temps(update, off, out, target, span),
            check_cond_first: *check_cond_first,
        },
        Breakable { body } => Breakable {
            body: remap_temps(body, off, out, target, span),
        },
        Try {
            block,
            catch,
            finally,
        } => Try {
            block: remap_temps(block, off, out, target, span),
            catch: catch
                .as_ref()
                .map(|(n, b)| (*n, remap_temps(b, off, out, target, span))),
            finally: finally
                .as_ref()
                .map(|b| remap_temps(b, off, out, target, span)),
        },
        Return { arg } => Return {
            arg: arg.as_ref().map(|p| remap_place(p, off)),
        },
        Break => Break,
        Continue => Continue,
        Throw { arg } => Throw {
            arg: remap_place(arg, off),
        },
        LoadThis { dst } => LoadThis {
            dst: remap_place(dst, off),
        },
        TypeofName { dst, name } => TypeofName {
            dst: remap_place(dst, off),
            name: *name,
        },
        HasProp { dst, key, obj } => HasProp {
            dst: remap_place(dst, off),
            key: remap_place(key, off),
            obj: remap_place(obj, off),
        },
        InstanceOf { dst, val, ctor } => InstanceOf {
            dst: remap_place(dst, off),
            val: remap_place(val, off),
            ctor: remap_place(ctor, off),
        },
        EnumProps { dst, obj } => EnumProps {
            dst: remap_place(dst, off),
            obj: remap_place(obj, off),
        },
        Eval { dst, arg } => Eval {
            dst: remap_place(dst, off),
            arg: remap_place(arg, off),
        },
    }
}
