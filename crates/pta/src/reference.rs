//! The naive reference solver: the pre-optimization algorithm, kept as a
//! small, obviously-correct oracle for the delta-propagating solver.
//!
//! It propagates one `(node, object)` pair at a time over `HashSet`
//! points-to sets, with no difference propagation. The equivalence tests
//! solve every corpus program with both
//! solvers at unlimited budget and require byte-identical
//! [`PtaResult::export_json`] output; intentionally duplicated from
//! `solver.rs` so a bug in the optimized propagation machinery cannot
//! hide in shared code.

use crate::nodes::{AbsObj, Node};
use crate::pts::Pts;
use crate::solver::{wf_ret, InjectedFacts, Pending, PtaConfig, PtaResult, PtaStats, PtaStatus};
use mujs_ir::ir::{Place, PropKey, StmtKind};
use mujs_ir::resolve::{Binding, Resolver};
use mujs_ir::{FuncId, FuncKind, Program, Stmt, StmtId, Sym};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Runs the reference analysis over every function of `prog`.
pub fn solve_reference(prog: &Program, cfg: &PtaConfig) -> PtaResult {
    RefSolver::new(prog, cfg.clone()).run()
}

struct RefSolver<'p> {
    prog: &'p Program,
    cfg: PtaConfig,
    resolver: Resolver,
    node_ids: HashMap<Node, u32>,
    nodes: Vec<Node>,
    obj_ids: HashMap<AbsObj, u32>,
    objs: Vec<AbsObj>,
    pts: Vec<HashSet<u32>>,
    edges: Vec<Vec<u32>>,
    pending: Vec<Vec<Pending>>,
    worklist: VecDeque<(u32, u32)>, // (node, new obj)
    call_graph: BTreeMap<StmtId, BTreeSet<FuncId>>,
    processed_funcs: HashSet<FuncId>,
    func_queue: VecDeque<FuncId>,
    stats: PtaStats,
    exhausted: bool,
}

impl<'p> RefSolver<'p> {
    fn new(prog: &'p Program, cfg: PtaConfig) -> Self {
        RefSolver {
            prog,
            cfg,
            resolver: Resolver::new(prog),
            node_ids: HashMap::new(),
            nodes: Vec::new(),
            obj_ids: HashMap::new(),
            objs: Vec::new(),
            pts: Vec::new(),
            edges: Vec::new(),
            pending: Vec::new(),
            worklist: VecDeque::new(),
            call_graph: BTreeMap::new(),
            processed_funcs: HashSet::new(),
            func_queue: VecDeque::new(),
            stats: PtaStats::default(),
            exhausted: false,
        }
    }

    fn node(&mut self, n: Node) -> u32 {
        if let Some(&id) = self.node_ids.get(&n) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.node_ids.insert(n.clone(), id);
        self.nodes.push(n.clone());
        self.pts.push(HashSet::new());
        self.edges.push(Vec::new());
        self.pending.push(Vec::new());
        // Materializing a named property wires it into the ⋆ join.
        if let Node::Prop(o, _) = &n {
            let star = self.node(Node::StarProps(o.clone()));
            self.add_edge(id, star);
        }
        id
    }

    fn obj(&mut self, o: AbsObj) -> u32 {
        if let Some(&id) = self.obj_ids.get(&o) {
            return id;
        }
        let id = self.objs.len() as u32;
        self.obj_ids.insert(o.clone(), id);
        self.objs.push(o);
        id
    }

    fn add_edge(&mut self, from: u32, to: u32) {
        if from == to || self.edges[from as usize].contains(&to) {
            return;
        }
        self.edges[from as usize].push(to);
        self.stats.edges += 1;
        let existing: Vec<u32> = self.pts[from as usize].iter().copied().collect();
        for o in existing {
            self.insert(to, o);
        }
    }

    fn insert(&mut self, node: u32, obj: u32) {
        if self.exhausted || self.pts[node as usize].contains(&obj) {
            return;
        }
        // Check *before* inserting: a solve that needs exactly `budget`
        // insertions completes, and the recorded propagation count always
        // equals the number of facts actually inserted.
        if self.stats.propagations == self.cfg.budget {
            self.exhausted = true;
            return;
        }
        self.pts[node as usize].insert(obj);
        self.stats.propagations += 1;
        self.worklist.push_back((node, obj));
    }

    fn seed(&mut self, node: u32, o: AbsObj) {
        let oid = self.obj(o);
        self.insert(node, oid);
    }

    // ------------------------------------------------------------ naming

    fn place_node(&mut self, func: FuncId, place: &Place) -> u32 {
        match place {
            Place::Temp(t) => self.node(Node::Temp(func, t.0)),
            p => {
                let name = p.as_var_sym().expect("non-temp place");
                self.named_node(func, name)
            }
        }
    }

    fn named_node(&mut self, func: FuncId, name: Sym) -> u32 {
        match self.resolver.resolve(self.prog, func, name) {
            Binding::Local(f) => {
                let f = self.canon(f);
                self.node(Node::Local(f, name))
            }
            Binding::Global => self.node(Node::Prop(AbsObj::Global, name)),
        }
    }

    /// Follows `specialized_from` links to the original function.
    fn canon(&self, mut f: FuncId) -> FuncId {
        let mut fuel = 64;
        while let Some(orig) = self.prog.func(f).specialized_from {
            f = orig;
            fuel -= 1;
            if fuel == 0 {
                break;
            }
        }
        f
    }

    // -------------------------------------------------------- constraints

    fn run(mut self) -> PtaResult {
        if let Some(entry) = self.prog.entry() {
            self.enqueue_func(entry);
            let this_entry = self.node(Node::This(entry));
            self.seed(this_entry, AbsObj::Global);
        }
        while !self.exhausted {
            if let Some(f) = self.func_queue.pop_front() {
                self.gen_function(f);
                continue;
            }
            let Some((node, obj)) = self.worklist.pop_front() else {
                break;
            };
            self.propagate(node, obj);
        }
        self.stats.nodes = self.nodes.len();
        self.stats.call_edges = self.call_graph.values().map(|s| s.len()).sum();
        // The optimized result stores hybrid sets.
        let pts: Vec<Pts> = self
            .pts
            .iter()
            .map(|s| {
                let mut p = Pts::new();
                for &o in s {
                    p.insert(o);
                }
                p
            })
            .collect();
        PtaResult {
            status: if self.exhausted {
                PtaStatus::BudgetExceeded
            } else {
                PtaStatus::Completed
            },
            stats: self.stats,
            pts,
            node_ids: self.node_ids.into_iter().collect(),
            objs: self.objs,
            call_graph: self.call_graph,
            // The oracle checks sets and call graphs, not provenance;
            // `cfg.provenance` is ignored.
            blame: None,
        }
    }

    fn propagate(&mut self, node: u32, obj: u32) {
        let targets = self.edges[node as usize].clone();
        for t in targets {
            self.insert(t, obj);
        }
        let pendings = self.pending[node as usize].clone();
        let o = self.objs[obj as usize].clone();
        for p in pendings {
            self.apply_pending(&p, &o);
        }
    }

    fn attach(&mut self, node: u32, p: Pending) {
        let existing: Vec<u32> = self.pts[node as usize].iter().copied().collect();
        self.pending[node as usize].push(p.clone());
        for oid in existing {
            let o = self.objs[oid as usize].clone();
            self.apply_pending(&p, &o);
        }
    }

    fn apply_pending(&mut self, p: &Pending, o: &AbsObj) {
        match p {
            Pending::Load { key, dst } => self.apply_load(o, *key, *dst),
            Pending::Store { key, src } => self.apply_store(o, *key, *src),
            Pending::Call {
                site,
                this,
                args,
                dst,
                is_new,
            } => self.apply_call(o, *site, *this, args.clone(), *dst, *is_new),
        }
    }

    fn apply_load(&mut self, o: &AbsObj, key: Option<Sym>, dst: u32) {
        let unknown = self.node(Node::UnknownProps(o.clone()));
        self.add_edge(unknown, dst);
        match key {
            Some(k) => {
                let f = self.node(Node::Prop(o.clone(), k));
                self.add_edge(f, dst);
            }
            None => {
                let star = self.node(Node::StarProps(o.clone()));
                self.add_edge(star, dst);
            }
        }
        // Loads fall through the prototype chain.
        let pv = self.node(Node::ProtoVar(o.clone()));
        self.attach(pv, Pending::Load { key, dst });
    }

    fn apply_store(&mut self, o: &AbsObj, key: Option<Sym>, src: u32) {
        match key {
            Some(k) => {
                let f = self.node(Node::Prop(o.clone(), k));
                self.add_edge(src, f);
            }
            None => {
                let unknown = self.node(Node::UnknownProps(o.clone()));
                self.add_edge(src, unknown);
            }
        }
    }

    fn apply_call(
        &mut self,
        o: &AbsObj,
        site: StmtId,
        this: Option<u32>,
        args: Vec<u32>,
        dst: u32,
        is_new: bool,
    ) {
        match o {
            AbsObj::Closure(f) => {
                let f = *f;
                self.call_graph.entry(site).or_default().insert(f);
                self.enqueue_func(f);
                let func = self.prog.func(f).clone();
                let pf = self.canon(f);
                for (i, &p) in func.params.iter().enumerate() {
                    if let Some(&a) = args.get(i) {
                        let pn = self.node(Node::Local(pf, p));
                        self.add_edge(a, pn);
                    }
                }
                let ret = self.node(Node::Ret(f));
                self.add_edge(ret, dst);
                if is_new {
                    let alloc = AbsObj::Alloc(site);
                    self.seed(dst, alloc.clone());
                    let this_n = self.node(Node::This(f));
                    let alloc_id = self.obj(alloc.clone());
                    self.insert(this_n, alloc_id);
                    let fproto = self.node(Node::Prop(AbsObj::Closure(f), Sym::PROTOTYPE));
                    let pv = self.node(Node::ProtoVar(alloc));
                    self.add_edge(fproto, pv);
                } else if let Some(t) = this {
                    let this_n = self.node(Node::This(f));
                    self.add_edge(t, this_n);
                }
            }
            AbsObj::Opaque => {
                let sink = self.node(Node::UnknownProps(AbsObj::Opaque));
                for a in args {
                    self.add_edge(a, sink);
                }
                self.seed(dst, AbsObj::Opaque);
            }
            _ => {
                // Calling a non-function abstract object: no effect.
            }
        }
    }

    fn enqueue_func(&mut self, f: FuncId) {
        if self.processed_funcs.insert(f) {
            self.func_queue.push_back(f);
        }
    }

    // ----------------------------------------------------- per-statement

    fn site_key(&mut self, site: StmtId, key: &PropKey) -> Option<Sym> {
        match key {
            PropKey::Static(k) => Some(*k),
            PropKey::Dynamic(_) => {
                let injected = self
                    .cfg
                    .facts
                    .as_ref()
                    .and_then(|f: &InjectedFacts| f.prop_keys.get(&site))
                    .copied();
                if injected.is_some() {
                    self.stats.injected_keys += 1;
                }
                injected
            }
        }
    }

    fn site_callee(&self, site: StmtId) -> Option<FuncId> {
        self.cfg
            .facts
            .as_ref()
            .and_then(|f| f.callees.get(&site))
            .copied()
    }

    fn gen_function(&mut self, fid: FuncId) {
        let f = self.prog.func(fid).clone();
        for &(name, nested) in &f.decls.funcs {
            let n = self.named_node(fid, name);
            self.seed(n, AbsObj::Closure(nested));
            self.init_closure(nested);
        }
        if f.kind == FuncKind::Function {
            let cf = self.canon(fid);
            let n = self.node(Node::Local(cf, Sym::ARGUMENTS));
            self.seed(n, AbsObj::Opaque);
        }
        let stmts = f.body.clone();
        self.gen_block(fid, &stmts);
    }

    fn init_closure(&mut self, f: FuncId) {
        let protos = self.node(Node::Prop(AbsObj::Closure(f), Sym::PROTOTYPE));
        self.seed(protos, AbsObj::ProtoOf(f));
        let ctor = self.node(Node::Prop(AbsObj::ProtoOf(f), Sym::CONSTRUCTOR));
        self.seed(ctor, AbsObj::Closure(f));
    }

    fn gen_block(&mut self, fid: FuncId, block: &[Stmt]) {
        let wf = fid;
        for s in block {
            if self.exhausted {
                return;
            }
            match &s.kind {
                StmtKind::Const { .. } => {}
                StmtKind::Copy { dst, src } => {
                    let d = self.place_node(wf, dst);
                    let sn = self.place_node(wf, src);
                    self.add_edge(sn, d);
                }
                StmtKind::Closure { dst, func } => {
                    let d = self.place_node(wf, dst);
                    self.seed(d, AbsObj::Closure(*func));
                    self.init_closure(*func);
                }
                StmtKind::NewObject { dst, .. } => {
                    let d = self.place_node(wf, dst);
                    self.seed(d, AbsObj::Alloc(s.id));
                }
                StmtKind::GetProp { dst, obj, key } => {
                    let d = self.place_node(wf, dst);
                    let o = self.place_node(wf, obj);
                    let key = self.site_key(s.id, key);
                    self.attach(o, Pending::Load { key, dst: d });
                }
                StmtKind::SetProp { obj, key, val } => {
                    let o = self.place_node(wf, obj);
                    let v = self.place_node(wf, val);
                    let key = self.site_key(s.id, key);
                    self.attach(o, Pending::Store { key, src: v });
                }
                StmtKind::DeleteProp { .. } => {}
                StmtKind::BinOp { .. } | StmtKind::UnOp { .. } => {}
                StmtKind::Call {
                    dst,
                    callee,
                    this_arg,
                    args,
                } => {
                    let d = self.place_node(wf, dst);
                    let t = this_arg.as_ref().map(|p| self.place_node(wf, p));
                    let a: Vec<u32> = args.iter().map(|p| self.place_node(wf, p)).collect();
                    if let Some(target) = self.site_callee(s.id) {
                        self.stats.injected_calls += 1;
                        self.init_closure(target);
                        self.apply_call(&AbsObj::Closure(target), s.id, t, a, d, false);
                    } else {
                        let c = self.place_node(wf, callee);
                        self.attach(
                            c,
                            Pending::Call {
                                site: s.id,
                                this: t,
                                args: a,
                                dst: d,
                                is_new: false,
                            },
                        );
                    }
                }
                StmtKind::New { dst, callee, args } => {
                    let d = self.place_node(wf, dst);
                    let a: Vec<u32> = args.iter().map(|p| self.place_node(wf, p)).collect();
                    if let Some(target) = self.site_callee(s.id) {
                        self.stats.injected_calls += 1;
                        self.init_closure(target);
                        self.apply_call(&AbsObj::Closure(target), s.id, None, a, d, true);
                    } else {
                        let c = self.place_node(wf, callee);
                        self.attach(
                            c,
                            Pending::Call {
                                site: s.id,
                                this: None,
                                args: a,
                                dst: d,
                                is_new: true,
                            },
                        );
                    }
                }
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    self.gen_block(fid, then_blk);
                    self.gen_block(fid, else_blk);
                }
                StmtKind::Loop {
                    cond_blk,
                    body,
                    update,
                    ..
                } => {
                    self.gen_block(fid, cond_blk);
                    self.gen_block(fid, body);
                    self.gen_block(fid, update);
                }
                StmtKind::Breakable { body } => self.gen_block(fid, body),
                StmtKind::Try {
                    block,
                    catch,
                    finally,
                } => {
                    self.gen_block(fid, block);
                    if let Some((name, b)) = catch {
                        let exc = self.node(Node::ExcPool);
                        let v = self.named_node(wf, *name);
                        self.add_edge(exc, v);
                        self.gen_block(fid, b);
                    }
                    if let Some(b) = finally {
                        self.gen_block(fid, b);
                    }
                }
                StmtKind::Return { arg } => {
                    if let Some(p) = arg {
                        let r = self.node(Node::Ret(wf_ret(self.prog, fid)));
                        let v = self.place_node(wf, p);
                        self.add_edge(v, r);
                    }
                }
                StmtKind::Break | StmtKind::Continue => {}
                StmtKind::Throw { arg } => {
                    let exc = self.node(Node::ExcPool);
                    let v = self.place_node(wf, arg);
                    self.add_edge(v, exc);
                }
                StmtKind::LoadThis { dst } => {
                    let d = self.place_node(wf, dst);
                    let t = self.node(Node::This(wf_ret(self.prog, fid)));
                    self.add_edge(t, d);
                }
                StmtKind::TypeofName { .. } => {}
                StmtKind::HasProp { .. } | StmtKind::InstanceOf { .. } => {}
                StmtKind::EnumProps { dst, .. } => {
                    let d = self.place_node(wf, dst);
                    self.seed(d, AbsObj::Alloc(s.id));
                }
                StmtKind::Eval { dst, .. } => {
                    let d = self.place_node(wf, dst);
                    self.seed(d, AbsObj::Opaque);
                }
            }
        }
    }
}
