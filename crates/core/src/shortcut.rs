//! Dynamic shortcuts: concrete-execution fast-forward summaries.
//!
//! PR 4's fact injection hands the solver flat per-site facts; blame
//! reports show the remaining budget starvation traces to *regions* —
//! whole determinate functions (jQuery's `extend` copy loop,
//! `defAccessors`) whose effects flat injection provably cannot cover.
//! This module implements the next step: stop re-analyzing regions the
//! dynamic run proved determinate.
//!
//! 1. [`determinate_regions`] walks the fact database and each
//!    function's body, selecting functions whose every recorded key,
//!    callee, branch, and loop trip was determinate *in each context*
//!    (region selection does not need cross-context agreement — the
//!    replay witnesses every recorded context), with no exceptional or
//!    eval control flow (no `try`/`throw`/direct `eval` at any depth).
//! 2. [`shortcut_summaries`] replays the program once on the sealed
//!    concrete interpreter with heap tracing enabled at the region
//!    points, under panic isolation and the analysis' step budget. Any
//!    failure — parse drift, a run error, a panic, a truncated trace —
//!    degrades soundly to *no* summaries: the solver then analyzes every
//!    region ordinarily.
//! 3. The distiller maps the recorded events onto the exact nodes the
//!    solver would have used (same resolver, same canonicalization, same
//!    `Ret`/`This`/param wiring as `apply_call`), producing one
//!    [`RegionSummary`] per region plus its call-graph fragment.
//!
//! Soundness matches fact injection's basis: a summary covers the heap
//! effects of the *recorded* executions. Events are recorded with
//! deduplicated record-time abstraction ([`mujs_interp::TraceAbs`]), so
//! the summary is independent of heap layout and run length.

use crate::config::AnalysisConfig;
use crate::facts::{FactDb, FactKind, TripFact};
use mujs_dom::document::Document;
use mujs_dom::events::EventPlan;
use mujs_interp::driver::Harness;
use mujs_interp::{HeapTrace, InterpOptions, TraceAbs, TraceConfig};
use mujs_ir::ir::{Place, StmtKind};
use mujs_ir::resolve::{Binding, Resolver};
use mujs_ir::{FuncId, FuncKind, Program, StmtId, Sym};
use mujs_pta::{AbsObj, Node, RegionSummary, ShortcutSummaries};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default cap on recorded trace events; a replay that trips it returns
/// a truncated trace and the summarizer degrades to no summaries.
pub const SHORTCUT_MAX_EVENTS: usize = 1_000_000;

/// What the summarizer produced, and why, for reporting.
#[derive(Debug, Default)]
pub struct ShortcutOutcome {
    /// The solver-ready summaries (empty when degraded).
    pub summaries: ShortcutSummaries,
    /// Candidate regions the extractor selected.
    pub candidates: usize,
    /// The replay failed (error, panic, or truncation) and the
    /// summaries were dropped — ordinary analysis everywhere.
    pub degraded: bool,
}

/// Selects the maximal determinate regions of `prog` under `db`: ordinary
/// functions that executed, whose recorded conditions, callees, dynamic
/// keys, and loop trips were determinate in every recorded context, with
/// no `try`/`throw`/direct-`eval` at any nesting depth. Results ascend by
/// function id.
pub fn determinate_regions(prog: &Program, db: &FactDb) -> Vec<FuncId> {
    // Per-point disqualification: any indeterminate branch/callee/key
    // fact in any context poisons the point.
    let mut bad_point: HashSet<StmtId> = HashSet::new();
    let mut executed: HashSet<FuncId> = HashSet::new();
    for (kind, point, _ctx, fact) in db.iter() {
        executed.insert(prog.func_of(point));
        if matches!(
            kind,
            FactKind::Cond | FactKind::Callee | FactKind::PropKey | FactKind::EvalArg
        ) && !fact.is_det()
        {
            bad_point.insert(point);
        }
    }
    for (point, _ctx, trip) in db.iter_trips() {
        executed.insert(prog.func_of(point));
        if trip == TripFact::Unknown {
            bad_point.insert(point);
        }
    }
    let mut out = Vec::new();
    for f in &prog.funcs {
        if f.kind != FuncKind::Function || f.specialized_from.is_some() {
            continue;
        }
        if !executed.contains(&f.id) {
            continue;
        }
        let mut ok = true;
        Program::walk_block(&f.body, &mut |s| {
            if matches!(
                s.kind,
                StmtKind::Eval { .. } | StmtKind::Try { .. } | StmtKind::Throw { .. }
            ) || bad_point.contains(&s.id)
            {
                ok = false;
            }
        });
        if ok {
            out.push(f.id);
        }
    }
    out
}

/// Replays `src` on the sealed concrete interpreter with tracing at the
/// determinate regions of (`prog`, `db`) and distills the trace into
/// solver-ready summaries. `prog` must be the program the facts were
/// recorded against; property-key strings the replay interned are
/// re-interned into it (deterministically, in recording order).
pub fn shortcut_summaries(
    src: &str,
    doc: &Document,
    plan: &EventPlan,
    cfg: &AnalysisConfig,
    db: &FactDb,
    prog: &mut Program,
) -> ShortcutOutcome {
    let regions = determinate_regions(prog, db);
    if regions.is_empty() {
        return ShortcutOutcome::default();
    }
    let mut points: HashSet<StmtId> = HashSet::new();
    for &fid in &regions {
        Program::walk_block(&prog.func(fid).body, &mut |s| {
            points.insert(s.id);
        });
    }
    let funcs: HashSet<FuncId> = regions.iter().copied().collect();
    let seed = cfg.seed;
    let max_steps = cfg.max_steps;
    // The replay runs the same lowering over the same source, so every
    // StmtId/FuncId aligns with `prog`; only runtime-interned property
    // keys need translation afterwards.
    let src_owned = src.to_owned();
    let doc2 = doc.clone();
    let replayed = catch_unwind(AssertUnwindSafe(move || -> Option<(HeapTrace, Program)> {
        let mut h = Harness::from_src(&src_owned).ok()?;
        let opts = InterpOptions {
            seed,
            max_steps,
            trace: Some(TraceConfig {
                points,
                funcs,
                max_events: SHORTCUT_MAX_EVENTS,
            }),
            ..Default::default()
        };
        let out = h.run_dom(opts, doc2, plan);
        if out.result.is_err() {
            return None;
        }
        let trace = out.trace?;
        if trace.truncated {
            return None;
        }
        Some((trace, h.program))
    }))
    .ok()
    .flatten();
    let Some((trace, replay_prog)) = replayed else {
        return ShortcutOutcome {
            summaries: ShortcutSummaries::default(),
            candidates: regions.len(),
            degraded: true,
        };
    };
    let summaries = distill(prog, &replay_prog, &regions, &trace);
    ShortcutOutcome {
        summaries,
        candidates: regions.len(),
        degraded: false,
    }
}

/// Maps the recorded heap events onto solver nodes, mirroring the
/// solver's own wiring exactly: `place_node` naming, `canon`
/// specialization links, `apply_call`'s param/`This`/`ProtoVar` seeds,
/// and the opaque-call escape to `UnknownProps(Opaque)`.
fn distill(
    prog: &mut Program,
    replay: &Program,
    regions: &[FuncId],
    trace: &HeapTrace,
) -> ShortcutSummaries {
    // Mutable phase first: translate the replay's runtime-interned
    // property keys into `prog`'s interner, in recording order so the
    // interner growth is deterministic.
    let mut key_map: HashMap<Sym, Sym> = HashMap::new();
    for (_, _, key, _) in &trace.writes {
        if !key_map.contains_key(key) {
            let s = replay.interner.resolve(*key).to_owned();
            let ps = prog.interner.intern(&s);
            key_map.insert(*key, ps);
        }
    }
    let prog = &*prog;
    let resolver = Resolver::new(prog);
    let region_set: BTreeSet<FuncId> = regions.iter().copied().collect();
    // Defining statements of region bodies, for mapping define events
    // back to their destination place.
    let mut dst_of: HashMap<StmtId, Place> = HashMap::new();
    for &fid in regions {
        Program::walk_block(&prog.func(fid).body, &mut |s| {
            if let Some(d) = dst_place(&s.kind) {
                dst_of.insert(s.id, d.clone());
            }
        });
    }
    let canon = |mut f: FuncId| -> FuncId {
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
    let abs = |a: &TraceAbs| -> AbsObj {
        match a {
            TraceAbs::Global => AbsObj::Global,
            TraceAbs::Closure(f) => AbsObj::Closure(*f),
            TraceAbs::ProtoOf(f) => AbsObj::ProtoOf(*f),
            TraceAbs::Alloc(s) => AbsObj::Alloc(*s),
            TraceAbs::Opaque => AbsObj::Opaque,
        }
    };
    let place_node = |f: FuncId, p: &Place| -> Node {
        match p {
            Place::Temp(t) => Node::Temp(f, t.0),
            p => {
                let name = p.as_var_sym().expect("non-temp place");
                match resolver.resolve(prog, f, name) {
                    Binding::Local(g) => Node::Local(canon(g), name),
                    Binding::Global => Node::Prop(AbsObj::Global, name),
                }
            }
        }
    };
    let mut tuples: BTreeMap<FuncId, BTreeSet<(Node, AbsObj)>> = BTreeMap::new();
    let mut calls: BTreeMap<FuncId, BTreeSet<(StmtId, FuncId)>> = BTreeMap::new();
    for &fid in &region_set {
        tuples.insert(fid, BTreeSet::new());
        calls.insert(fid, BTreeSet::new());
    }
    let owner = |site: StmtId| -> Option<FuncId> {
        let f = prog.func_of(site);
        region_set.contains(&f).then_some(f)
    };
    for (site, a) in &trace.defines {
        let Some(f) = owner(*site) else { continue };
        let Some(dst) = dst_of.get(site) else {
            continue;
        };
        tuples
            .get_mut(&f)
            .unwrap()
            .insert((place_node(f, dst), abs(a)));
    }
    for (site, base, key, val) in &trace.writes {
        let Some(f) = owner(*site) else { continue };
        let pkey = key_map[key];
        tuples
            .get_mut(&f)
            .unwrap()
            .insert((Node::Prop(abs(base), pkey), abs(val)));
    }
    for (func, a) in &trace.rets {
        if !region_set.contains(func) {
            continue;
        }
        tuples
            .get_mut(func)
            .unwrap()
            .insert((Node::Ret(*func), abs(a)));
    }
    for ev in &trace.calls {
        let Some(f) = owner(ev.site) else { continue };
        let t = tuples.get_mut(&f).unwrap();
        match ev.callee {
            Some(g) => {
                calls.get_mut(&f).unwrap().insert((ev.site, g));
                let cg = canon(g);
                for (i, &p) in prog.func(g).params.iter().enumerate() {
                    if let Some(Some(a)) = ev.args.get(i) {
                        t.insert((Node::Local(cg, p), abs(a)));
                    }
                }
                if ev.is_new {
                    t.insert((Node::This(g), AbsObj::Alloc(ev.site)));
                    if let Some(pa) = &ev.proto {
                        // The solver skips prototype wiring for opaque
                        // protos too (nothing flows from Opaque's props).
                        if !matches!(pa, TraceAbs::Opaque) {
                            t.insert((Node::ProtoVar(AbsObj::Alloc(ev.site)), abs(pa)));
                        }
                    }
                } else if let Some(ta) = &ev.this {
                    t.insert((Node::This(g), abs(ta)));
                }
            }
            None => {
                // Calling an unmodeled native: arguments escape into the
                // opaque unknown-props pool, exactly as the solver's
                // `apply_call` does for `AbsObj::Opaque`.
                for a in ev.args.iter().flatten() {
                    t.insert((Node::UnknownProps(AbsObj::Opaque), abs(a)));
                }
            }
        }
    }
    let mut out = ShortcutSummaries::default();
    for &fid in &region_set {
        out.regions.insert(
            fid,
            RegionSummary {
                tuples: tuples.remove(&fid).unwrap().into_iter().collect(),
                calls: calls.remove(&fid).unwrap().into_iter().collect(),
            },
        );
    }
    out
}

/// The destination place of a defining statement, if it has one.
fn dst_place(kind: &StmtKind) -> Option<&Place> {
    use StmtKind::*;
    match kind {
        Const { dst, .. }
        | Copy { dst, .. }
        | Closure { dst, .. }
        | NewObject { dst, .. }
        | GetProp { dst, .. }
        | DeleteProp { dst, .. }
        | BinOp { dst, .. }
        | UnOp { dst, .. }
        | Call { dst, .. }
        | New { dst, .. }
        | LoadThis { dst }
        | TypeofName { dst, .. }
        | HasProp { dst, .. }
        | InstanceOf { dst, .. }
        | EnumProps { dst, .. }
        | Eval { dst, .. } => Some(dst),
        _ => None,
    }
}

// ------------------------------------------------------------- portable

/// A portable abstract object: program-bound ids replaced by raw indices.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum PortableObj {
    /// `AbsObj::Alloc`.
    Alloc(u32),
    /// `AbsObj::Closure`.
    Closure(u32),
    /// `AbsObj::ProtoOf`.
    ProtoOf(u32),
    /// `AbsObj::Global`.
    Global,
    /// `AbsObj::Opaque`.
    Opaque,
}

/// A portable solver node: `Sym`s resolved to strings, ids to indices.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum PortableNode {
    /// `Node::Temp`.
    Temp(u32, u32),
    /// `Node::Local` with the variable name resolved.
    Local(u32, String),
    /// `Node::Prop` with the property name resolved.
    Prop(PortableObj, String),
    /// `Node::StarProps`.
    StarProps(PortableObj),
    /// `Node::UnknownProps`.
    UnknownProps(PortableObj),
    /// `Node::ProtoVar`.
    ProtoVar(PortableObj),
    /// `Node::Ret`.
    Ret(u32),
    /// `Node::This`.
    This(u32),
    /// `Node::ExcPool`.
    ExcPool,
}

/// One region's portable summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortableRegion {
    /// The region function's index.
    pub func: u32,
    /// Portable points-to tuples, sorted.
    pub tuples: Vec<(PortableNode, PortableObj)>,
    /// Call-graph fragment `(site, callee)` pairs, sorted.
    pub calls: Vec<(u32, u32)>,
}

/// The serialization-friendly form of [`ShortcutSummaries`] — the
/// stage-boundary artifact the analysis service caches, mirroring
/// [`crate::InjectablePairs`]: `Sym`s dangle across programs, strings
/// re-interned against a rehydrated program reproduce the original
/// summary exactly (lowering is deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortableSummaries {
    /// Per-region summaries, ascending by function index.
    pub regions: Vec<PortableRegion>,
}

impl PortableSummaries {
    /// Extracts the portable form (resolving each `Sym` through the
    /// program that produced it).
    pub fn from_summaries(sums: &ShortcutSummaries, prog: &Program) -> Self {
        let obj = |o: &AbsObj| -> PortableObj {
            match o {
                AbsObj::Alloc(s) => PortableObj::Alloc(s.0),
                AbsObj::Closure(f) => PortableObj::Closure(f.0),
                AbsObj::ProtoOf(f) => PortableObj::ProtoOf(f.0),
                AbsObj::Global => PortableObj::Global,
                AbsObj::Opaque => PortableObj::Opaque,
            }
        };
        let node = |n: &Node| -> PortableNode {
            match n {
                Node::Temp(f, t) => PortableNode::Temp(f.0, *t),
                Node::Local(f, s) => PortableNode::Local(f.0, prog.interner.resolve(*s).to_owned()),
                Node::Prop(o, s) => {
                    PortableNode::Prop(obj(o), prog.interner.resolve(*s).to_owned())
                }
                Node::StarProps(o) => PortableNode::StarProps(obj(o)),
                Node::UnknownProps(o) => PortableNode::UnknownProps(obj(o)),
                Node::ProtoVar(o) => PortableNode::ProtoVar(obj(o)),
                Node::Ret(f) => PortableNode::Ret(f.0),
                Node::This(f) => PortableNode::This(f.0),
                Node::ExcPool => PortableNode::ExcPool,
            }
        };
        let mut regions: Vec<PortableRegion> = sums
            .regions
            .iter()
            .map(|(fid, r)| {
                let mut tuples: Vec<(PortableNode, PortableObj)> =
                    r.tuples.iter().map(|(n, o)| (node(n), obj(o))).collect();
                tuples.sort();
                let mut calls: Vec<(u32, u32)> = r.calls.iter().map(|(s, f)| (s.0, f.0)).collect();
                calls.sort_unstable();
                PortableRegion {
                    func: fid.0,
                    tuples,
                    calls,
                }
            })
            .collect();
        regions.sort_by_key(|r| r.func);
        PortableSummaries { regions }
    }

    /// Rebuilds solver-ready summaries against `prog` (lowered from the
    /// byte-identical source). Strings are interned in the portable
    /// order, keeping interner growth deterministic.
    pub fn into_summaries(&self, prog: &mut Program) -> ShortcutSummaries {
        fn obj(o: &PortableObj) -> AbsObj {
            match o {
                PortableObj::Alloc(s) => AbsObj::Alloc(StmtId(*s)),
                PortableObj::Closure(f) => AbsObj::Closure(FuncId(*f)),
                PortableObj::ProtoOf(f) => AbsObj::ProtoOf(FuncId(*f)),
                PortableObj::Global => AbsObj::Global,
                PortableObj::Opaque => AbsObj::Opaque,
            }
        }
        let mut out = ShortcutSummaries::default();
        for r in &self.regions {
            let mut tuples: Vec<(Node, AbsObj)> = r
                .tuples
                .iter()
                .map(|(n, o)| {
                    let node = match n {
                        PortableNode::Temp(f, t) => Node::Temp(FuncId(*f), *t),
                        PortableNode::Local(f, s) => {
                            Node::Local(FuncId(*f), prog.interner.intern(s))
                        }
                        PortableNode::Prop(po, s) => Node::Prop(obj(po), prog.interner.intern(s)),
                        PortableNode::StarProps(po) => Node::StarProps(obj(po)),
                        PortableNode::UnknownProps(po) => Node::UnknownProps(obj(po)),
                        PortableNode::ProtoVar(po) => Node::ProtoVar(obj(po)),
                        PortableNode::Ret(f) => Node::Ret(FuncId(*f)),
                        PortableNode::This(f) => Node::This(FuncId(*f)),
                        PortableNode::ExcPool => Node::ExcPool,
                    };
                    (node, obj(o))
                })
                .collect();
            tuples.sort();
            let calls: Vec<(StmtId, FuncId)> = r
                .calls
                .iter()
                .map(|(s, f)| (StmtId(*s), FuncId(*f)))
                .collect();
            out.regions
                .insert(FuncId(r.func), RegionSummary { tuples, calls });
        }
        out
    }

    /// Total regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no region was summarized.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Total points-to tuples across all regions.
    pub fn tuple_count(&self) -> usize {
        self.regions.iter().map(|r| r.tuples.len()).sum()
    }

    /// Encodes the summaries as a JSON tree for the analysis service's
    /// stage cache (the summary-stage counterpart of the injectable-pair
    /// artifact). Enums render as tagged arrays (`["closure", 3]`);
    /// regions and tuples are already sorted, so equal summaries encode
    /// to byte-identical JSON.
    pub fn to_value(&self) -> Value {
        fn obj(o: &PortableObj) -> Value {
            let (tag, id) = match o {
                PortableObj::Alloc(n) => ("alloc", Some(*n)),
                PortableObj::Closure(n) => ("closure", Some(*n)),
                PortableObj::ProtoOf(n) => ("proto", Some(*n)),
                PortableObj::Global => ("global", None),
                PortableObj::Opaque => ("opaque", None),
            };
            let mut items = vec![Value::Str(tag.to_owned())];
            if let Some(n) = id {
                items.push(Value::Num(f64::from(n)));
            }
            Value::Array(items)
        }
        fn node(n: &PortableNode) -> Value {
            let items = match n {
                PortableNode::Temp(f, t) => vec![
                    Value::Str("temp".to_owned()),
                    Value::Num(f64::from(*f)),
                    Value::Num(f64::from(*t)),
                ],
                PortableNode::Local(f, s) => vec![
                    Value::Str("local".to_owned()),
                    Value::Num(f64::from(*f)),
                    Value::Str(s.clone()),
                ],
                PortableNode::Prop(o, s) => {
                    vec![Value::Str("prop".to_owned()), obj(o), Value::Str(s.clone())]
                }
                PortableNode::StarProps(o) => vec![Value::Str("star".to_owned()), obj(o)],
                PortableNode::UnknownProps(o) => {
                    vec![Value::Str("unknown".to_owned()), obj(o)]
                }
                PortableNode::ProtoVar(o) => vec![Value::Str("protovar".to_owned()), obj(o)],
                PortableNode::Ret(f) => {
                    vec![Value::Str("ret".to_owned()), Value::Num(f64::from(*f))]
                }
                PortableNode::This(f) => {
                    vec![Value::Str("this".to_owned()), Value::Num(f64::from(*f))]
                }
                PortableNode::ExcPool => vec![Value::Str("exc".to_owned())],
            };
            Value::Array(items)
        }
        Value::Object(vec![(
            "regions".to_owned(),
            Value::Array(
                self.regions
                    .iter()
                    .map(|r| {
                        Value::Object(vec![
                            ("func".to_owned(), Value::Num(f64::from(r.func))),
                            (
                                "tuples".to_owned(),
                                Value::Array(
                                    r.tuples
                                        .iter()
                                        .map(|(n, o)| Value::Array(vec![node(n), obj(o)]))
                                        .collect(),
                                ),
                            ),
                            (
                                "calls".to_owned(),
                                Value::Array(
                                    r.calls
                                        .iter()
                                        .map(|(s, f)| {
                                            Value::Array(vec![
                                                Value::Num(f64::from(*s)),
                                                Value::Num(f64::from(*f)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    /// Decodes [`Self::to_value`] output; `None` on any shape mismatch
    /// (a foreign or corrupted artifact), never a partial summary.
    pub fn from_value(v: &Value) -> Option<Self> {
        fn num(v: &Value) -> Option<u32> {
            let f = v.as_f64()?;
            (f >= 0.0 && f <= f64::from(u32::MAX) && f.fract() == 0.0).then_some(f as u32)
        }
        fn obj(v: &Value) -> Option<PortableObj> {
            let items = v.as_array()?;
            Some(match items.first()?.as_str()? {
                "alloc" => PortableObj::Alloc(num(items.get(1)?)?),
                "closure" => PortableObj::Closure(num(items.get(1)?)?),
                "proto" => PortableObj::ProtoOf(num(items.get(1)?)?),
                "global" => PortableObj::Global,
                "opaque" => PortableObj::Opaque,
                _ => return None,
            })
        }
        fn node(v: &Value) -> Option<PortableNode> {
            let items = v.as_array()?;
            Some(match items.first()?.as_str()? {
                "temp" => PortableNode::Temp(num(items.get(1)?)?, num(items.get(2)?)?),
                "local" => {
                    PortableNode::Local(num(items.get(1)?)?, items.get(2)?.as_str()?.to_owned())
                }
                "prop" => {
                    PortableNode::Prop(obj(items.get(1)?)?, items.get(2)?.as_str()?.to_owned())
                }
                "star" => PortableNode::StarProps(obj(items.get(1)?)?),
                "unknown" => PortableNode::UnknownProps(obj(items.get(1)?)?),
                "protovar" => PortableNode::ProtoVar(obj(items.get(1)?)?),
                "ret" => PortableNode::Ret(num(items.get(1)?)?),
                "this" => PortableNode::This(num(items.get(1)?)?),
                "exc" => PortableNode::ExcPool,
                _ => return None,
            })
        }
        let regions = v
            .get("regions")?
            .as_array()?
            .iter()
            .map(|r| {
                let tuples = r
                    .get("tuples")?
                    .as_array()?
                    .iter()
                    .map(|t| {
                        let t = t.as_array()?;
                        Some((node(t.first()?)?, obj(t.get(1)?)?))
                    })
                    .collect::<Option<Vec<_>>>()?;
                let calls = r
                    .get("calls")?
                    .as_array()?
                    .iter()
                    .map(|c| {
                        let c = c.as_array()?;
                        Some((num(c.first()?)?, num(c.get(1)?)?))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(PortableRegion {
                    func: num(r.get("func")?)?,
                    tuples,
                    calls,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(PortableSummaries { regions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DetHarness;

    fn analyze(src: &str) -> (DetHarness, FactDb) {
        let mut h = DetHarness::from_src(src).unwrap();
        let out = h.analyze(AnalysisConfig::default());
        (h, out.facts)
    }

    #[test]
    fn determinate_function_is_a_region() {
        let src = "function mk(v) { var o = {}; o.x = v; return o; }\n\
                   var a = mk(1); var b = mk(2);";
        let (h, db) = analyze(src);
        let regions = determinate_regions(&h.program, &db);
        assert_eq!(regions.len(), 1, "mk should be the only region");
    }

    #[test]
    fn indeterminate_branch_disqualifies() {
        let src = "function f(v) { if (Math.random() < 0.5) { return {}; } return v; }\n\
                   var a = f({});";
        let (h, db) = analyze(src);
        let regions = determinate_regions(&h.program, &db);
        assert!(regions.is_empty(), "random branch must disqualify f");
    }

    #[test]
    fn try_and_eval_disqualify() {
        let src = "function f() { try { return 1; } catch (e) { return 2; } }\n\
                   function g() { return eval('3'); }\n\
                   var a = f(); var b = g();";
        let (h, db) = analyze(src);
        let regions = determinate_regions(&h.program, &db);
        assert!(regions.is_empty());
    }

    #[test]
    fn unexecuted_functions_are_not_regions() {
        let src = "function dead() { return {}; } var x = 1;";
        let (h, db) = analyze(src);
        let regions = determinate_regions(&h.program, &db);
        assert!(regions.is_empty(), "dead code is never summarizable");
    }

    #[test]
    fn portable_summaries_round_trip() {
        let src = "function mk(v) { var o = {}; o.x = v; return o; }\n\
                   var a = mk({}); var b = mk({});";
        let (mut h, db) = analyze(src);
        let doc = mujs_dom::document::DocumentBuilder::new().build();
        let plan = EventPlan::default();
        let out = shortcut_summaries(
            src,
            &doc,
            &plan,
            &AnalysisConfig::default(),
            &db,
            &mut h.program,
        );
        assert!(!out.degraded);
        assert!(!out.summaries.is_empty());
        let portable = PortableSummaries::from_summaries(&out.summaries, &h.program);
        let mut h2 = DetHarness::from_src(src).unwrap();
        let back = portable.into_summaries(&mut h2.program);
        assert_eq!(out.summaries, back);
        assert_eq!(
            portable,
            PortableSummaries::from_summaries(&back, &h2.program)
        );
        // The JSON artifact encoding is lossless and byte-stable.
        let json = serde_json::to_string(&portable.to_value()).unwrap();
        let reparsed: Value = serde_json::from_str(&json).unwrap();
        let decoded = PortableSummaries::from_value(&reparsed).expect("well-formed artifact");
        assert_eq!(decoded, portable);
        assert_eq!(serde_json::to_string(&decoded.to_value()).unwrap(), json);
        assert!(PortableSummaries::from_value(&Value::Null).is_none());
    }

    #[test]
    fn summary_solve_matches_full_solve_precision() {
        let src = "function mk(v) { var o = {}; o.x = v; return o; }\n\
                   var a = mk({}); var b = mk({}); var c = a.x;";
        let (mut h, db) = analyze(src);
        let doc = mujs_dom::document::DocumentBuilder::new().build();
        let plan = EventPlan::default();
        let out = shortcut_summaries(
            src,
            &doc,
            &plan,
            &AnalysisConfig::default(),
            &db,
            &mut h.program,
        );
        assert!(!out.summaries.is_empty());
        let base = mujs_pta::solve(&h.program, &mujs_pta::PtaConfig::default());
        let sc = mujs_pta::solve(
            &h.program,
            &mujs_pta::PtaConfig {
                shortcuts: Some(std::sync::Arc::new(out.summaries)),
                ..Default::default()
            },
        );
        assert_eq!(base.status, mujs_pta::PtaStatus::Completed);
        assert_eq!(sc.status, mujs_pta::PtaStatus::Completed);
        assert!(sc.stats.shortcut_regions >= 1);
        // The summarized solve must stay at least as precise.
        // The summarized solve must stay sound-and-precise relative to
        // the full solve on this fully determinate program: every node's
        // set is a subset of the baseline's.
        let base_pts: std::collections::BTreeMap<_, _> = base.all_points_to().into_iter().collect();
        for (n, objs) in sc.all_points_to() {
            let b = base_pts.get(&n).cloned().unwrap_or_default();
            for o in &objs {
                assert!(b.contains(o), "{n:?} gained {o:?} over baseline");
            }
        }
        let bp = base.precision(&h.program);
        let sp = sc.precision(&h.program);
        assert!(sp.avg_points_to <= bp.avg_points_to + 1e-9);
    }
}
