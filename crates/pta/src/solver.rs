//! The Andersen-style inclusion-constraint solver with on-the-fly call
//! graph construction — the reproduction's stand-in for WALA's JavaScript
//! points-to analysis \[30\].
//!
//! Dynamic property accesses whose names the analysis cannot resolve smear
//! through per-object ⋆-nodes: a dynamic store reaches every read of the
//! object, and a dynamic load sees every store. This is the imprecision
//! engine behind Table 1's baseline blow-ups; the specializer removes it
//! by turning dynamic keys static.
//!
//! The solver propagates *differences*: each node's points-to set is split
//! into `old` (already pushed along every outgoing edge and applied to
//! every pending constraint) and `delta` (newly arrived), the worklist
//! holds dirty nodes rather than `(node, object)` pairs, and sets are the
//! hybrid sparse/dense bitsets of [`crate::pts`]. Every pointer keeps its
//! own node and set: a copy cycle is propagated around until its members
//! agree, with no merging (DESIGN.md §6 records why). See `reference` for
//! the naive baseline algorithm the equivalence tests compare against.
//!
//! The bookkeeping around propagation hashes no `Node` where an index
//! serves: temps are looked up in a per-function table and an object's
//! ⋆, unknown-props and proto-var nodes in a row indexed by its object
//! id; named properties go through the `Node` map. A new edge is deduped
//! against its source's own out-list, by a scan while the list is short.
//!
//! The solver counts propagation work and stops when a configured budget
//! is exceeded — the deterministic equivalent of the paper's 10-minute
//! timeout.

use crate::blame::{BlameCause, BlameData, Provenance, INHERIT};
use crate::nodes::{AbsObj, Node};
use crate::pts::{self, Pts};
use mujs_ir::hash::{FastMap, FastSet};
use mujs_ir::ir::{Place, PropKey, StmtKind};
use mujs_ir::resolve::{Binding, Resolver};
use mujs_ir::{FuncId, FuncKind, Program, Stmt, StmtId, Sym};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Out-lists shorter than this dedupe a new edge by scanning the list;
/// longer ones also keep their edges in the solver's `(from, to)` set,
/// so a hub variable or a ⋆ join does not cost a scan per edge. On the
/// jQuery-like corpus 99.6% or more of the final out-lists, and three
/// dedupe checks in four, are shorter; thresholds from 4 to 64 solve
/// alike there (EXPERIMENTS.md §4).
const SCAN_EDGES: usize = 16;

/// An empty slot of the solver's node-id tables.
const NO_NODE: u32 = u32::MAX;

/// Columns of [`Solver::obj_nodes`], one per per-object node kind.
const STAR: usize = 0;
const UNKNOWN: usize = 1;
const PROTO: usize = 2;

/// Determinacy facts injected into the solver: per-site resolutions of
/// dynamic property keys and call targets, keyed by statement id.
///
/// The paper's pipeline removes ⋆-smearing by *rewriting the source*
/// (specialization) and re-running the analysis; fact injection achieves
/// the same precision without touching the program — when a site carries
/// a fact, the solver treats the dynamic key as static (resp. resolves
/// the call directly) instead of routing through the per-object ⋆ nodes.
#[derive(Debug, Clone, Default)]
pub struct InjectedFacts {
    /// Dynamic property accesses (`GetProp`/`SetProp` with
    /// [`PropKey::Dynamic`]) whose key is determinate: site → interned key.
    pub prop_keys: HashMap<StmtId, Sym>,
    /// Call/new sites whose callee is determinate: site → target function.
    pub callees: HashMap<StmtId, FuncId>,
}

impl InjectedFacts {
    /// Total number of injectable facts.
    pub fn len(&self) -> usize {
        self.prop_keys.len() + self.callees.len()
    }

    /// Whether there is anything to inject.
    pub fn is_empty(&self) -> bool {
        self.prop_keys.is_empty() && self.callees.is_empty()
    }
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct PtaConfig {
    /// Propagation-work budget (points-to insertions); exceeding it stops
    /// the analysis with [`PtaStatus::BudgetExceeded`].
    pub budget: u64,
    /// Determinacy facts to consult at dynamic property accesses and
    /// call sites (`None` = plain baseline analysis).
    pub facts: Option<InjectedFacts>,
    /// Record imprecision provenance: every points-to tuple carries a
    /// blame tag naming the first cause that introduced it (see
    /// [`crate::blame`]). Provenance is a side channel of the one
    /// sequential driver: sets, exports, propagation counts and the
    /// budget truncation point are bit-for-bit those of the
    /// provenance-free solve, so blame always explains the result the
    /// plain solve reports. Off by default.
    pub provenance: bool,
    /// Concrete-execution region summaries (see [`crate::shortcut`]).
    /// When the on-the-fly call graph first reaches a summarized
    /// function, its summary is applied as budget-accounted insertions
    /// (blamed [`BlameCause::Shortcut`]) instead of generating the
    /// region's constraints. `None` leaves every solve bit-for-bit
    /// unaffected.
    pub shortcuts: Option<std::sync::Arc<crate::shortcut::ShortcutSummaries>>,
}

impl Default for PtaConfig {
    fn default() -> Self {
        PtaConfig {
            budget: 25_000_000,
            facts: None,
            provenance: false,
            shortcuts: None,
        }
    }
}

/// How a solve ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtaStatus {
    /// Fixpoint reached within budget.
    Completed,
    /// Budget exhausted (the paper's ✗ / timeout).
    BudgetExceeded,
}

/// Work statistics.
#[derive(Debug, Clone, Default)]
pub struct PtaStats {
    /// Points-to facts inserted (the budgeted quantity).
    pub propagations: u64,
    /// Distinct pointer nodes materialized.
    pub nodes: usize,
    /// Subset edges added.
    pub edges: u64,
    /// Call edges discovered.
    pub call_edges: usize,
    /// Dynamic property accesses resolved by an injected fact.
    pub injected_keys: usize,
    /// Call sites resolved by an injected fact.
    pub injected_calls: usize,
    /// Always 0: the solver collapses no cycles. Kept only for detperf's
    /// `pta.scc_passes` trace counter; ROADMAP item 7 drops both.
    pub scc_passes: u64,
    /// Always 0, like [`PtaStats::scc_passes`] (ROADMAP item 7).
    pub nodes_merged: u64,
    /// Functions whose constraints were replaced by a region summary.
    pub shortcut_regions: usize,
    /// Points-to tuples applied from region summaries.
    pub shortcut_tuples: u64,
}

/// Precision metrics of a finished solve, comparable across baseline,
/// fact-injected, and specialized runs of the same source program.
#[derive(Debug, Clone, Default)]
pub struct PtaPrecision {
    /// Call sites with at least one resolved target.
    pub call_sites: usize,
    /// Call sites with more than one (canonical) target.
    pub poly_sites: usize,
    /// Mean number of canonical targets per resolved call site.
    pub avg_targets: f64,
    /// Mean points-to set size over variable nodes with non-empty sets.
    pub avg_points_to: f64,
    /// Largest points-to set over variable nodes.
    pub max_points_to: usize,
    /// Distinct (canonical) functions appearing as call targets.
    pub reachable_funcs: usize,
}

/// Result of a solve: one points-to set per materialized node, indexed by
/// node id.
#[derive(Debug)]
pub struct PtaResult {
    /// Completion status.
    pub status: PtaStatus,
    /// Statistics.
    pub stats: PtaStats,
    pub(crate) pts: Vec<Pts>,
    pub(crate) node_ids: FastMap<Node, u32>,
    pub(crate) objs: Vec<AbsObj>,
    pub(crate) call_graph: BTreeMap<StmtId, BTreeSet<FuncId>>,
    pub(crate) blame: Option<BlameData>,
}

impl PtaResult {
    /// The points-to set of a node (empty if the node never materialized).
    pub fn points_to(&self, node: &Node) -> Vec<AbsObj> {
        let Some(id) = self.node_ids.get(node) else {
            return Vec::new();
        };
        self.points_to_id(*id)
    }

    /// Functions a call/new site may invoke.
    pub fn callees(&self, site: StmtId) -> Vec<FuncId> {
        let mut v: Vec<FuncId> = self
            .call_graph
            .get(&site)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort();
        v
    }

    /// All resolved call edges, in deterministic (site, target) order.
    pub fn call_graph(&self) -> &BTreeMap<StmtId, BTreeSet<FuncId>> {
        &self.call_graph
    }

    /// Number of call sites with more than `k` targets (a precision
    /// metric).
    pub fn polymorphic_sites(&self, k: usize) -> usize {
        self.call_graph.values().filter(|s| s.len() > k).count()
    }

    /// Every materialized node with its (sorted) points-to set, in
    /// deterministic node order — byte-identical across runs.
    pub fn all_points_to(&self) -> Vec<(Node, Vec<AbsObj>)> {
        let mut v: Vec<(Node, Vec<AbsObj>)> = self
            .node_ids
            .iter()
            .map(|(n, id)| (n.clone(), self.points_to_id(*id)))
            .collect();
        v.sort();
        v
    }

    fn set_of(&self, id: u32) -> &Pts {
        &self.pts[id as usize]
    }

    fn points_to_id(&self, id: u32) -> Vec<AbsObj> {
        let mut v: Vec<AbsObj> = self
            .set_of(id)
            .iter()
            .map(|o| self.objs[o as usize].clone())
            .collect();
        v.sort();
        v
    }

    /// Deterministic JSON rendering of the call graph and every node's
    /// points-to set — the byte-comparison surface of the delta-solver /
    /// reference-solver equivalence tests.
    pub fn export_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("{\"call_graph\":{");
        for (i, (site, targets)) in self.call_graph.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let t: Vec<String> = targets.iter().map(|f| format!("{f:?}")).collect();
            let _ = write!(s, "\"{site:?}\":[{}]", t.join(","));
        }
        s.push_str("},\"points_to\":{");
        for (i, (node, objs)) in self.all_points_to().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let o: Vec<String> = objs.iter().map(|o| format!("\"{o:?}\"")).collect();
            let _ = write!(s, "\"{node:?}\":[{}]", o.join(","));
        }
        s.push_str("}}");
        s
    }

    /// Whether this result carries imprecision provenance (solved with
    /// [`PtaConfig::provenance`] on).
    pub fn has_blame(&self) -> bool {
        self.blame.is_some()
    }

    /// The blame causes of a node's points-to tuples, sorted by object —
    /// empty without provenance or when the node never materialized.
    pub fn blame_of(&self, node: &Node) -> Vec<(AbsObj, BlameCause)> {
        let (Some(b), Some(&id)) = (&self.blame, self.node_ids.get(node)) else {
            return Vec::new();
        };
        let mut v: Vec<(AbsObj, BlameCause)> = self.pts[id as usize]
            .iter()
            .filter_map(|o| {
                b.cause_of(id, o)
                    .map(|c| (self.objs[o as usize].clone(), c.clone()))
            })
            .collect();
        v.sort();
        v
    }

    /// Tuple counts per blame cause over the points-to relation,
    /// most-frequent first with ties broken by cause order. Empty without
    /// provenance.
    pub fn blame_histogram(&self) -> Vec<(BlameCause, u64)> {
        let Some(b) = &self.blame else {
            return Vec::new();
        };
        let mut counts: BTreeMap<BlameCause, u64> = BTreeMap::new();
        for id in 0..self.pts.len() as u32 {
            for o in self.pts[id as usize].iter() {
                if let Some(c) = b.cause_of(id, o) {
                    *counts.entry(c.clone()).or_default() += 1;
                }
            }
        }
        let mut v: Vec<(BlameCause, u64)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Deterministic JSON rendering of the blame relation: every
    /// materialized node in sorted order, each of its points-to tuples
    /// labeled with its cause. The byte-comparison surface of the blame
    /// determinism tests. `None` without provenance.
    pub fn export_blame_json(&self) -> Option<String> {
        use std::fmt::Write;
        let b = self.blame.as_ref()?;
        let mut nodes: Vec<(&Node, u32)> = self.node_ids.iter().map(|(n, &id)| (n, id)).collect();
        nodes.sort();
        let mut s = String::from("{\"blame\":{");
        for (i, (node, id)) in nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let mut entries: Vec<(AbsObj, String)> = self.pts[*id as usize]
                .iter()
                .filter_map(|o| {
                    b.cause_of(*id, o)
                        .map(|c| (self.objs[o as usize].clone(), c.label()))
                })
                .collect();
            entries.sort();
            let e: Vec<String> = entries
                .iter()
                .map(|(o, l)| format!("\"{o:?}\":\"{l}\""))
                .collect();
            let _ = write!(s, "\"{node:?}\":{{{}}}", e.join(","));
        }
        s.push_str("}}");
        Some(s)
    }

    /// Precision metrics comparable across baseline / fact-injected /
    /// specialized runs. Call targets are canonicalized through
    /// `specialized_from` so that a specialized program's clones count as
    /// their originals.
    pub fn precision(&self, prog: &Program) -> PtaPrecision {
        let canon = |mut f: FuncId| {
            let mut fuel = 64;
            while let Some(orig) = prog.func(f).specialized_from {
                f = orig;
                fuel -= 1;
                if fuel == 0 {
                    break;
                }
            }
            f
        };
        let call_sites = self.call_graph.len();
        let mut poly_sites = 0;
        let mut total_targets = 0usize;
        let mut reachable: BTreeSet<FuncId> = BTreeSet::new();
        for targets in self.call_graph.values() {
            let canonical: BTreeSet<FuncId> = targets.iter().map(|&f| canon(f)).collect();
            if canonical.len() > 1 {
                poly_sites += 1;
            }
            total_targets += canonical.len();
            reachable.extend(canonical);
        }
        let mut var_nodes = 0usize;
        let mut sum = 0usize;
        let mut max_points_to = 0usize;
        for (node, &id) in &self.node_ids {
            if matches!(node, Node::Temp(..) | Node::Local(..)) {
                let sz = self.set_of(id).len();
                if sz > 0 {
                    var_nodes += 1;
                    sum += sz;
                    max_points_to = max_points_to.max(sz);
                }
            }
        }
        PtaPrecision {
            call_sites,
            poly_sites,
            avg_targets: if call_sites > 0 {
                total_targets as f64 / call_sites as f64
            } else {
                0.0
            },
            avg_points_to: if var_nodes > 0 {
                sum as f64 / var_nodes as f64
            } else {
                0.0
            },
            max_points_to,
            reachable_funcs: reachable.len(),
        }
    }
}

/// Runs the analysis over every function of `prog`: the sequential
/// delta-propagating worklist, the one fixpoint driver for every
/// configuration (provenance and shortcuts included).
pub fn solve(prog: &Program, cfg: &PtaConfig) -> PtaResult {
    Solver::new(prog, cfg.clone()).run()
}

#[derive(Debug, Clone)]
pub(crate) enum Pending {
    /// `dst ⊇ base.key` (`None` = dynamic key).
    Load { key: Option<Sym>, dst: u32 },
    /// `base.key ⊇ src` (`None` = dynamic key).
    Store { key: Option<Sym>, src: u32 },
    /// A call through the node: wire params/ret when closures arrive.
    Call {
        site: StmtId,
        this: Option<u32>,
        args: Vec<u32>,
        dst: u32,
        is_new: bool,
    },
}

struct Solver<'p> {
    prog: &'p Program,
    cfg: PtaConfig,
    resolver: Resolver,
    /// Every materialized node. Temps and per-object nodes are looked up
    /// through the index tables below, which fall back to this map only
    /// the first time they see a node.
    node_ids: FastMap<Node, u32>,
    /// Temp nodes by function id, then temp index (`NO_NODE` = not
    /// looked up yet). A function's row is allocated on its first temp.
    temps: Vec<Vec<u32>>,
    /// The ⋆, unknown-props and proto-var nodes of each interned object,
    /// by object id (columns [`STAR`], [`UNKNOWN`], [`PROTO`]).
    obj_nodes: Vec<[u32; 3]>,
    obj_ids: FastMap<AbsObj, u32>,
    objs: Vec<AbsObj>,
    /// Facts already pushed along every out-edge / applied to every
    /// pending constraint of the node.
    old: Vec<Pts>,
    /// Facts that arrived since the node was last processed.
    delta: Vec<Pts>,
    /// Outgoing copy edges, deduped; no list holds a self-loop.
    edges: Vec<Vec<u32>>,
    /// The `(from, to)` pairs of every out-list with at least
    /// [`SCAN_EDGES`] entries (shorter lists dedupe by scanning).
    edge_set: FastSet<(u32, u32)>,
    pending: Vec<Vec<Pending>>,
    /// Dirty-node worklist: nodes with a non-empty delta.
    dirty: VecDeque<u32>,
    on_dirty: Vec<bool>,
    call_graph: BTreeMap<StmtId, BTreeSet<FuncId>>,
    processed_funcs: FastSet<FuncId>,
    func_queue: VecDeque<FuncId>,
    stats: PtaStats,
    exhausted: bool,
    /// Imprecision provenance side state (`Some` iff `cfg.provenance`).
    prov: Option<Provenance>,
    /// Reusable insertion-log buffer for provenance-tracked flows.
    scratch_log: Vec<pts::FlowLogEntry>,
}

/// Whether `from → t` is missing from `outs`, `from`'s deduped out-list.
/// A long list answers through `set`, and an edge it reports new is
/// recorded there.
fn edge_is_new(outs: &[u32], set: &mut FastSet<(u32, u32)>, from: u32, t: u32) -> bool {
    if outs.len() < SCAN_EDGES {
        !outs.contains(&t)
    } else {
        set.insert((from, t))
    }
}

/// Called after an edge was appended to `outs`: the list that just
/// reached [`SCAN_EDGES`] entries moves its dedupe into `set`.
fn edge_pushed(outs: &[u32], set: &mut FastSet<(u32, u32)>, from: u32) {
    if outs.len() == SCAN_EDGES {
        set.extend(outs.iter().map(|&t| (from, t)));
    }
}

impl<'p> Solver<'p> {
    fn new(prog: &'p Program, cfg: PtaConfig) -> Self {
        let prov = cfg.provenance.then(Provenance::new);
        Solver {
            prog,
            cfg,
            resolver: Resolver::new(prog),
            node_ids: FastMap::default(),
            temps: vec![Vec::new(); prog.funcs.len()],
            obj_nodes: Vec::new(),
            obj_ids: FastMap::default(),
            objs: Vec::new(),
            old: Vec::new(),
            delta: Vec::new(),
            edges: Vec::new(),
            edge_set: FastSet::default(),
            pending: Vec::new(),
            dirty: VecDeque::new(),
            on_dirty: Vec::new(),
            call_graph: BTreeMap::new(),
            processed_funcs: FastSet::default(),
            func_queue: VecDeque::new(),
            stats: PtaStats::default(),
            exhausted: false,
            prov,
            scratch_log: Vec::new(),
        }
    }

    fn node(&mut self, n: Node) -> u32 {
        let id = self.old.len() as u32;
        match self.node_ids.entry(n.clone()) {
            Entry::Occupied(e) => return *e.get(),
            Entry::Vacant(e) => e.insert(id),
        };
        self.old.push(Pts::new());
        self.delta.push(Pts::new());
        self.edges.push(Vec::new());
        self.pending.push(Vec::new());
        self.on_dirty.push(false);
        if let Some(p) = self.prov.as_mut() {
            // Havoc nodes stamp their own cause onto every outflowing
            // tuple; interning here keeps flow phases intern-free.
            let stamp = match &n {
                Node::StarProps(o) => p.intern(BlameCause::StarSmear(o.clone())),
                Node::UnknownProps(o) => p.intern(BlameCause::UnknownSmear(o.clone())),
                Node::ExcPool => p.intern(BlameCause::ExcFlow),
                _ => INHERIT,
            };
            p.push_node(stamp);
        }
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
        self.obj_nodes.push([NO_NODE; 3]);
        id
    }

    /// The ⋆ (`col` = [`STAR`]), unknown-props ([`UNKNOWN`]) or proto-var
    /// ([`PROTO`]) node of interned object `oid`.
    fn obj_node(&mut self, oid: u32, col: usize) -> u32 {
        let id = self.obj_nodes[oid as usize][col];
        if id != NO_NODE {
            return id;
        }
        let o = self.objs[oid as usize].clone();
        let id = self.node(match col {
            STAR => Node::StarProps(o),
            UNKNOWN => Node::UnknownProps(o),
            _ => Node::ProtoVar(o),
        });
        self.obj_nodes[oid as usize][col] = id;
        id
    }

    /// The node of interned object `oid`'s property `k`.
    fn prop_node(&mut self, oid: u32, k: Sym) -> u32 {
        self.node(Node::Prop(self.objs[oid as usize].clone(), k))
    }

    /// The node of temp `t` of function `f`.
    fn temp_node(&mut self, f: FuncId, t: u32) -> u32 {
        let col = t as usize;
        if let Some(&id) = self.temps[f.0 as usize].get(col) {
            if id != NO_NODE {
                return id;
            }
        }
        let id = self.node(Node::Temp(f, t));
        let n_temps = self.prog.func(f).n_temps as usize;
        let row = &mut self.temps[f.0 as usize];
        if row.len() <= col {
            row.resize(n_temps.max(col + 1), NO_NODE);
        }
        row[col] = id;
        id
    }

    fn mark_dirty(&mut self, n: u32) {
        if !self.on_dirty[n as usize] {
            self.on_dirty[n as usize] = true;
            self.dirty.push_back(n);
        }
    }

    fn add_edge(&mut self, f: u32, t: u32) {
        let outs = &mut self.edges[f as usize];
        if f == t || !edge_is_new(outs, &mut self.edge_set, f, t) {
            return;
        }
        outs.push(t);
        edge_pushed(outs, &mut self.edge_set, f);
        self.stats.edges += 1;
        // A new edge flows the source's full current set (old ∪ delta):
        // `old` facts were pushed along the *previous* edge set only.
        if self.exhausted {
            return;
        }
        let src = self.old[f as usize].take();
        self.flow_from(f, &src, t);
        self.old[f as usize] = src;
        if self.exhausted {
            return;
        }
        let src = self.delta[f as usize].take();
        self.flow_from(f, &src, t);
        self.delta[f as usize] = src;
    }

    /// Budget-exact bulk union of `src` (node `f`'s set, moved out by the
    /// caller) into node `t`'s delta. Exhaustion triggers only when the
    /// budget is hit *and* a further new element exists, matching the
    /// reference solver's check-before-insert. Under provenance, each
    /// inserted tuple inherits `f`'s blame (or `f`'s havoc stamp).
    fn flow_from(&mut self, f: u32, src: &Pts, t: u32) {
        if src.is_empty() || self.exhausted {
            return;
        }
        let remaining = self.cfg.budget - self.stats.propagations;
        let logging = self.prov.is_some();
        let mut log = std::mem::take(&mut self.scratch_log);
        log.clear();
        let (added, truncated) = pts::flow_into(
            src,
            &self.old[t as usize],
            &mut self.delta[t as usize],
            remaining,
            logging.then_some(&mut log),
        );
        if logging {
            self.assign_blame(f, t, &log);
        }
        self.scratch_log = log;
        self.stats.propagations += added;
        if added > 0 {
            self.mark_dirty(t);
        }
        if truncated {
            self.exhausted = true;
        }
    }

    /// Assigns blame for the tuples `log` records as newly inserted into
    /// node `t` by a flow out of node `f`: havoc stamps override, ordinary
    /// nodes pass their tuples' blame through. `t` is never `f` itself
    /// (self-edges don't flow), so the row reads and writes are disjoint.
    fn assign_blame(&mut self, f: u32, t: u32, log: &[pts::FlowLogEntry]) {
        let Some(p) = self.prov.as_mut() else {
            return;
        };
        let stamp = p.stamp[f as usize];
        for e in log {
            let mut bits = e.bits;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let v = e.word * 64 + b;
                let tag = crate::blame::outflow(&p.blame[f as usize], stamp, v);
                p.record(t, v, tag);
            }
        }
    }

    fn insert(&mut self, n: u32, obj: u32, cause: BlameCause) {
        if self.exhausted {
            return;
        }
        if self.old[n as usize].contains(obj) || self.delta[n as usize].contains(obj) {
            return;
        }
        // Check *before* inserting: a solve that needs exactly `budget`
        // insertions completes, and the recorded propagation count always
        // equals the number of facts actually inserted.
        if self.stats.propagations == self.cfg.budget {
            self.exhausted = true;
            return;
        }
        self.delta[n as usize].insert(obj);
        self.stats.propagations += 1;
        if let Some(p) = self.prov.as_mut() {
            let tag = p.intern(cause);
            p.record(n, obj, tag);
        }
        self.mark_dirty(n);
    }

    fn seed(&mut self, node: u32, o: AbsObj, cause: BlameCause) {
        let oid = self.obj(o);
        self.insert(node, oid, cause);
    }

    // ------------------------------------------------------------ naming

    fn place_node(&mut self, func: FuncId, place: &Place) -> u32 {
        match place {
            Place::Temp(t) => self.temp_node(func, t.0),
            // Named and slot-resolved places both resolve by name; the
            // resolver agrees with the lowering's slot coordinates.
            p => {
                let name = p.as_var_sym().expect("non-temp place");
                self.named_node(func, name)
            }
        }
    }

    fn named_node(&mut self, func: FuncId, name: Sym) -> u32 {
        match self.resolver.resolve(self.prog, func, name) {
            // Specializer clones share their original's variable space:
            // nested closures keep referring to the original's locals, so
            // a clone's writes must reach them (sound, slightly merging
            // local-variable contexts while the heap stays per-clone).
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

    // -------------------------------------------------------- propagation

    fn run(mut self) -> PtaResult {
        // Seed the entry function: its constraints queue for generation
        // and its `this` is the global object.
        if let Some(entry) = self.prog.entry() {
            self.enqueue_func(entry);
            let this_entry = self.node(Node::This(entry));
            self.seed(this_entry, AbsObj::Global, BlameCause::Base);
        }
        // The analysis is flow-insensitive: generate constraints for all
        // reachable functions, then propagate to fixpoint, interleaved
        // because the call graph is discovered on the fly.
        while !self.exhausted {
            if let Some(f) = self.func_queue.pop_front() {
                self.gen_function(f);
                continue;
            }
            let Some(n) = self.dirty.pop_front() else {
                break;
            };
            self.on_dirty[n as usize] = false;
            self.process(n);
        }
        self.finish()
    }

    /// Drains node `n`'s delta: pushes it along every outgoing edge and
    /// applies every pending constraint to each newly arrived object.
    fn process(&mut self, n: u32) {
        // Commit delta → old *first*: constraint application below may
        // attach new pendings or edges to `n` itself, and those flow the
        // node's full current set on attachment — the committed delta must
        // be visible to them, and must not be re-flowed here afterwards.
        let d = self.delta[n as usize].take();
        self.old[n as usize].union_with(&d);
        // Index loops, not clones: `edges[n]` cannot change during the
        // flow loop (flows only touch sets), and pendings appended to
        // `pending[n]` during application were already applied to the
        // node's full set (old now includes `d`) by `attach`.
        let n_edges = self.edges[n as usize].len();
        for i in 0..n_edges {
            if self.exhausted {
                return;
            }
            let t = self.edges[n as usize][i];
            self.flow_from(n, &d, t);
        }
        let n_pending = self.pending[n as usize].len();
        for i in 0..n_pending {
            let p = self.pending[n as usize][i].clone();
            for oid in d.iter() {
                if self.exhausted {
                    return;
                }
                self.apply_pending(&p, oid);
            }
        }
    }

    fn finish(mut self) -> PtaResult {
        self.stats.nodes = self.old.len();
        self.stats.call_edges = self.call_graph.values().map(|s| s.len()).sum();
        // Fold unprocessed deltas into the reported sets.
        for i in 0..self.old.len() {
            let d = self.delta[i].take();
            self.old[i].union_with(&d);
        }
        let blame = self.prov.take().map(|p| BlameData {
            tags: p.tags,
            map: p.blame,
        });
        PtaResult {
            status: if self.exhausted {
                PtaStatus::BudgetExceeded
            } else {
                PtaStatus::Completed
            },
            stats: self.stats,
            pts: self.old,
            node_ids: self.node_ids,
            objs: self.objs,
            call_graph: self.call_graph,
            blame,
        }
    }

    // -------------------------------------------------------- constraints

    fn attach(&mut self, n: u32, p: Pending) {
        // Snapshot (old ∪ delta) up front: applying `p` may insert into
        // `n` itself, and those arrivals are handled by the dirty-queue
        // pass, not here.
        let existing: Vec<u32> = self.old[n as usize]
            .iter()
            .chain(self.delta[n as usize].iter())
            .collect();
        self.pending[n as usize].push(p.clone());
        for oid in existing {
            if self.exhausted {
                return;
            }
            self.apply_pending(&p, oid);
        }
    }

    /// Applies constraint `p` to object `oid` arriving at its node.
    fn apply_pending(&mut self, p: &Pending, oid: u32) {
        match p {
            Pending::Load { key, dst } => self.apply_load(oid, *key, *dst),
            Pending::Store { key, src } => self.apply_store(oid, *key, *src),
            Pending::Call {
                site,
                this,
                args,
                dst,
                is_new,
            } => {
                let o = self.objs[oid as usize].clone();
                self.apply_call(&o, *site, *this, args, *dst, *is_new, false);
            }
        }
    }

    fn apply_load(&mut self, oid: u32, key: Option<Sym>, dst: u32) {
        let unknown = self.obj_node(oid, UNKNOWN);
        self.add_edge(unknown, dst);
        match key {
            Some(k) => {
                let f = self.prop_node(oid, k);
                self.add_edge(f, dst);
            }
            None => {
                let star = self.obj_node(oid, STAR);
                self.add_edge(star, dst);
            }
        }
        // Loads fall through the prototype chain. `ProtoOf(F)` objects
        // chain to Object.prototype, which we fold into Opaque; the chain
        // itself comes from `new` wiring.
        let pv = self.obj_node(oid, PROTO);
        self.attach(pv, Pending::Load { key, dst });
    }

    fn apply_store(&mut self, oid: u32, key: Option<Sym>, src: u32) {
        match key {
            Some(k) => {
                let f = self.prop_node(oid, k);
                self.add_edge(src, f);
            }
            None => {
                let unknown = self.obj_node(oid, UNKNOWN);
                self.add_edge(src, unknown);
            }
        }
    }

    /// `injected` marks a call wired directly by an injected determinate-
    /// callee fact (rather than by closures flowing in): the tuples it
    /// introduces carry [`BlameCause::Injected`] so provenance reports
    /// can separate fact-driven facts from baseline ones.
    #[allow(clippy::too_many_arguments)]
    fn apply_call(
        &mut self,
        o: &AbsObj,
        site: StmtId,
        this: Option<u32>,
        args: &[u32],
        dst: u32,
        is_new: bool,
        injected: bool,
    ) {
        match o {
            AbsObj::Closure(f) => {
                let f = *f;
                self.call_graph.entry(site).or_default().insert(f);
                self.enqueue_func(f);
                // Borrow through the `'p` program reference — cloning the
                // callee (whole statement tree) per closure arrival was a
                // dominant cost of the naive solver.
                let prog = self.prog;
                let pf = self.canon(f);
                for (i, &p) in prog.func(f).params.iter().enumerate() {
                    if let Some(&a) = args.get(i) {
                        let pn = self.node(Node::Local(pf, p));
                        self.add_edge(a, pn);
                    }
                }
                let ret = self.node(Node::Ret(f));
                self.add_edge(ret, dst);
                if is_new {
                    // The freshly constructed object.
                    let cause = if injected {
                        BlameCause::Injected(site)
                    } else {
                        BlameCause::Base
                    };
                    let alloc = AbsObj::Alloc(site);
                    self.seed(dst, alloc.clone(), cause.clone());
                    let this_n = self.node(Node::This(f));
                    let alloc_id = self.obj(alloc.clone());
                    self.insert(this_n, alloc_id, cause);
                    // Its prototype chain parent is F.prototype's value.
                    let fproto = self.node(Node::Prop(AbsObj::Closure(f), Sym::PROTOTYPE));
                    let pv = self.node(Node::ProtoVar(alloc));
                    self.add_edge(fproto, pv);
                } else if let Some(t) = this {
                    let this_n = self.node(Node::This(f));
                    self.add_edge(t, this_n);
                }
            }
            AbsObj::Opaque => {
                // Calling the unknown: arguments escape, the result is
                // unknown.
                let sink = self.node(Node::UnknownProps(AbsObj::Opaque));
                for &a in args {
                    self.add_edge(a, sink);
                }
                self.seed(dst, AbsObj::Opaque, BlameCause::Native(site));
            }
            _ => {
                // Calling a non-function abstract object: no effect (the
                // concrete execution would throw).
            }
        }
    }

    fn enqueue_func(&mut self, f: FuncId) {
        if self.processed_funcs.insert(f) {
            self.func_queue.push_back(f);
        }
    }

    // ----------------------------------------------------- per-statement

    /// The effective key of a property access: static keys pass through;
    /// dynamic keys resolve through an injected determinacy fact when one
    /// exists for the site.
    fn site_key(&mut self, site: StmtId, key: &PropKey) -> Option<Sym> {
        match key {
            PropKey::Static(k) => Some(*k),
            PropKey::Dynamic(_) => {
                let injected = self
                    .cfg
                    .facts
                    .as_ref()
                    .and_then(|f| f.prop_keys.get(&site))
                    .copied();
                if injected.is_some() {
                    self.stats.injected_keys += 1;
                }
                injected
            }
        }
    }

    /// The injected determinate callee of a call/new site, if any.
    fn site_callee(&self, site: StmtId) -> Option<FuncId> {
        self.cfg
            .facts
            .as_ref()
            .and_then(|f| f.callees.get(&site))
            .copied()
    }

    fn gen_function(&mut self, fid: FuncId) {
        if let Some(sums) = self.cfg.shortcuts.clone() {
            if let Some(region) = sums.regions.get(&fid) {
                self.apply_summary(fid, region);
                return;
            }
        }
        let prog = self.prog;
        let f = prog.func(fid);
        // Hoisted function declarations.
        for &(name, nested) in &f.decls.funcs {
            let n = self.named_node(fid, name);
            self.seed(n, AbsObj::Closure(nested), BlameCause::Base);
            self.init_closure(nested);
        }
        // `arguments`: coarse—an opaque array.
        if f.kind == FuncKind::Function {
            let cf = self.canon(fid);
            let n = self.node(Node::Local(cf, Sym::ARGUMENTS));
            self.seed(n, AbsObj::Opaque, BlameCause::Arguments(cf));
        }
        self.gen_block(fid, &f.body);
    }

    /// Applies a region summary in place of `fid`'s constraints: the
    /// hoisted-declaration prologue is kept (nested declarations are
    /// closure values other code may call), then the call-graph fragment
    /// and the summary tuples are applied in their deterministic sorted
    /// order. Every tuple goes through the ordinary budgeted [`Self::insert`],
    /// so exact-budget truncation and rollback behave exactly as they do
    /// mid-`gen_block`.
    fn apply_summary(&mut self, fid: FuncId, region: &crate::shortcut::RegionSummary) {
        let prog = self.prog;
        let f = prog.func(fid);
        for &(name, nested) in &f.decls.funcs {
            if self.exhausted {
                return;
            }
            let n = self.named_node(fid, name);
            self.seed(n, AbsObj::Closure(nested), BlameCause::Base);
            self.init_closure(nested);
        }
        // Keep the coarse `arguments` seeding: a nested (unsummarized)
        // closure may read the region's `arguments` through the resolver.
        if f.kind == FuncKind::Function {
            let cf = self.canon(fid);
            let n = self.node(Node::Local(cf, Sym::ARGUMENTS));
            self.seed(n, AbsObj::Opaque, BlameCause::Arguments(cf));
        }
        self.stats.shortcut_regions += 1;
        for &(site, callee) in &region.calls {
            if self.exhausted {
                return;
            }
            self.call_graph.entry(site).or_default().insert(callee);
            // The callee's closure record may only have been created
            // inside a summarized body; seeding it here is idempotent
            // and keeps the prototype chain wired.
            self.init_closure(callee);
            self.enqueue_func(callee);
        }
        for (node, obj) in &region.tuples {
            if self.exhausted {
                return;
            }
            let n = self.node(node.clone());
            if let AbsObj::Closure(g) = obj {
                self.init_closure(*g);
            }
            let oid = self.obj(obj.clone());
            self.insert(n, oid, BlameCause::Shortcut(fid));
            self.stats.shortcut_tuples += 1;
        }
    }

    fn init_closure(&mut self, f: FuncId) {
        let protos = self.node(Node::Prop(AbsObj::Closure(f), Sym::PROTOTYPE));
        self.seed(protos, AbsObj::ProtoOf(f), BlameCause::Base);
        let ctor = self.node(Node::Prop(AbsObj::ProtoOf(f), Sym::CONSTRUCTOR));
        self.seed(ctor, AbsObj::Closure(f), BlameCause::Base);
    }

    fn gen_block(&mut self, fid: FuncId, block: &[Stmt]) {
        // Temps index into `fid`'s own frame; named places resolve through
        // the resolver (which already skips eval-chunk pseudo-scopes).
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
                    self.seed(d, AbsObj::Closure(*func), BlameCause::Base);
                    self.init_closure(*func);
                    // On-the-fly call graph: the body is analyzed only
                    // once a call edge reaches the closure.
                }
                StmtKind::NewObject { dst, .. } => {
                    let d = self.place_node(wf, dst);
                    self.seed(d, AbsObj::Alloc(s.id), BlameCause::Base);
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
                        // Determinate callee: wire the one target directly
                        // instead of waiting for closures to flow in.
                        self.stats.injected_calls += 1;
                        self.init_closure(target);
                        self.apply_call(&AbsObj::Closure(target), s.id, t, &a, d, false, true);
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
                        self.apply_call(&AbsObj::Closure(target), s.id, None, &a, d, true, true);
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
                    self.seed(d, AbsObj::Alloc(s.id), BlameCause::Base);
                }
                StmtKind::Eval { dst, .. } => {
                    // Statically unanalyzable; the specializer's job is to
                    // remove these (§2.3).
                    let d = self.place_node(wf, dst);
                    self.seed(d, AbsObj::Opaque, BlameCause::Eval(s.id));
                }
            }
        }
    }
}

/// The function owning writes for name resolution (eval chunks resolve
/// through their parent).
pub(crate) fn effective_func(prog: &Program, f: FuncId) -> FuncId {
    let mut cur = f;
    loop {
        let func = prog.func(cur);
        if func.kind != FuncKind::EvalChunk {
            return cur;
        }
        match func.parent {
            Some(p) => cur = p,
            None => return cur,
        }
    }
}

/// `this`/`return` of an eval chunk belong to the enclosing function.
pub(crate) fn wf_ret(prog: &Program, f: FuncId) -> FuncId {
    effective_func(prog, f)
}
