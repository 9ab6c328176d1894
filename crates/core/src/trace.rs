//! Heap tracing for dynamic shortcuts: while [`RunHooks::trace`] is set,
//! the instrumented machine records its heap effects — defines, property
//! writes, calls and returns of object values — abstracted *at record
//! time*, when the machine still knows every object's allocation
//! provenance ([`TraceAbs`]).
//!
//! Every statement is traced, counterfactual executions included, so a
//! trace covers exactly the executions the run's facts rest on; the
//! shortcut summarizer keeps the events of the regions it selects from
//! those facts ([`crate::shortcut`]). Events are deduplicated, so a trace
//! is independent of heap layout and run length.
//!
//! [`RunHooks::trace`]: crate::supervisor::RunHooks::trace

use crate::det::DValue;
use crate::machine::DMachine;
use mujs_interp::{ObjClass, ObjId, TraceAbs, Value};
use mujs_ir::hash::{FastMap, FastSet};
use mujs_ir::{FuncId, StmtId, Sym};

/// Cap on the distinct events one run records; a run that hits it has a
/// truncated trace, and the summarizer degrades to no summaries.
pub const SHORTCUT_MAX_EVENTS: usize = 1_000_000;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceCall {
    /// The call/new site.
    pub site: StmtId,
    /// The user-code callee; `None` for native/opaque callees (whose
    /// object arguments escape the modeled world).
    pub callee: Option<FuncId>,
    /// The observed `this` abstraction, recorded only when the site
    /// passes an explicit receiver (mirrors the solver's wiring).
    pub this: Option<TraceAbs>,
    /// Argument abstractions (`None` = primitive).
    pub args: Vec<Option<TraceAbs>>,
    /// Whether the site is a `new`.
    pub is_new: bool,
    /// For `new`: the constructed object's prototype-chain parent.
    pub proto: Option<TraceAbs>,
}

/// The deduplicated, abstracted heap events of one instrumented run —
/// everything the shortcut summarizer needs to distill a region's effects
/// into points-to tuples.
#[derive(Debug, Default)]
pub struct HeapTrace {
    /// `(site, value)` for every object value a statement wrote into its
    /// destination place.
    pub defines: FastSet<(StmtId, TraceAbs)>,
    /// `(site, base, key, value)` for every object value a `SetProp`
    /// stored (concrete key, post-coercion).
    pub writes: FastSet<(StmtId, TraceAbs, Sym, TraceAbs)>,
    /// Calls executed at call/new sites.
    pub calls: FastSet<TraceCall>,
    /// `(function, value)` for every object value a function returned.
    pub rets: FastSet<(FuncId, TraceAbs)>,
    /// The event cap was hit; the trace is incomplete and must not be
    /// used for summarization.
    pub truncated: bool,
}

impl HeapTrace {
    /// Checks the event cap; trips `truncated` when full.
    fn room(&mut self) -> bool {
        let len = self.defines.len() + self.writes.len() + self.calls.len() + self.rets.len();
        if len >= SHORTCUT_MAX_EVENTS {
            self.truncated = true;
        }
        !self.truncated
    }
}

/// Heap-trace recording state: the trace so far and allocation
/// provenance.
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    pub(crate) out: HeapTrace,
    /// Site-allocated objects and closure `.prototype` records; objects
    /// absent here abstract to [`TraceAbs::Opaque`]. Tagging goes on past
    /// the event cap, so recorded events stay well-formed.
    tags: FastMap<ObjId, TraceAbs>,
}

/// The record-time abstraction of an object.
fn abs_obj(m: &DMachine<'_>, t: &Tracer, id: ObjId) -> TraceAbs {
    if id == m.global() {
        return TraceAbs::Global;
    }
    if let ObjClass::Function { func, .. } = &m.obj(id).class {
        return TraceAbs::Closure(*func);
    }
    t.tags.get(&id).copied().unwrap_or(TraceAbs::Opaque)
}

/// The record-time abstraction of a value; `None` for primitives.
fn abs(m: &DMachine<'_>, t: &Tracer, v: &Value) -> Option<TraceAbs> {
    match v {
        Value::Object(id) => Some(abs_obj(m, t, *id)),
        _ => None,
    }
}

/// Runs one recording step when the run is traced; an untraced run pays
/// only the check.
#[inline(always)]
fn with_tracer(m: &mut DMachine<'_>, f: impl FnOnce(&DMachine<'_>, &mut Tracer)) {
    if m.domain.tracer.is_some() {
        record(m, f);
    }
}

/// Takes the tracer out of the machine for one recording step (the
/// abstraction reads the heap while the trace is written).
#[inline(never)]
fn record(m: &mut DMachine<'_>, f: impl FnOnce(&DMachine<'_>, &mut Tracer)) {
    if let Some(mut t) = m.domain.tracer.take() {
        f(m, &mut t);
        m.domain.tracer = Some(t);
    }
}

/// Statement `point` defined `v`.
pub(crate) fn define(m: &mut DMachine<'_>, point: StmtId, v: &DValue) {
    with_tracer(m, |m, t| {
        if let Some(a) = abs(m, t, &v.v) {
            if t.out.room() {
                t.out.defines.insert((point, a));
            }
        }
    });
}

/// The call at `site` is about to run.
pub(crate) fn call(
    m: &mut DMachine<'_>,
    site: StmtId,
    callee: &DValue,
    this: Option<&DValue>,
    args: &[DValue],
) {
    with_tracer(m, |m, t| {
        let Value::Object(fo) = callee.v else {
            return;
        };
        let callee = match &m.obj(fo).class {
            ObjClass::Function { func, .. } => Some(*func),
            ObjClass::Native(_) => None,
            _ => return,
        };
        let ev = TraceCall {
            site,
            callee,
            this: this.and_then(|v| abs(m, t, &v.v)),
            args: args.iter().map(|a| abs(m, t, &a.v)).collect(),
            is_new: false,
            proto: None,
        };
        if t.out.room() {
            t.out.calls.insert(ev);
        }
    });
}

/// `new` at `site` allocated `obj` for `callee` with prototype `proto`.
pub(crate) fn construct(
    m: &mut DMachine<'_>,
    site: StmtId,
    obj: ObjId,
    callee: Option<FuncId>,
    args: &[DValue],
    proto: Option<ObjId>,
) {
    with_tracer(m, |m, t| {
        t.tags.insert(obj, TraceAbs::Alloc(site));
        let ev = TraceCall {
            site,
            callee,
            this: None,
            args: args.iter().map(|a| abs(m, t, &a.v)).collect(),
            is_new: true,
            proto: proto.map(|p| abs_obj(m, t, p)),
        };
        if t.out.room() {
            t.out.calls.insert(ev);
        }
    });
}

/// `SetProp` at `site` is about to store `v` at `base[key]`.
pub(crate) fn set_prop(m: &mut DMachine<'_>, site: StmtId, base: &DValue, key: Sym, v: &DValue) {
    with_tracer(m, |m, t| {
        if let (Some(b), Some(v)) = (abs(m, t, &base.v), abs(m, t, &v.v)) {
            if t.out.room() {
                t.out.writes.insert((site, b, key, v));
            }
        }
    });
}

/// A function of code `func` returns `v`.
pub(crate) fn ret(m: &mut DMachine<'_>, func: FuncId, v: &DValue) {
    with_tracer(m, |m, t| {
        if let Some(a) = abs(m, t, &v.v) {
            if t.out.room() {
                t.out.rets.insert((func, a));
            }
        }
    });
}

/// Allocation provenance of `obj`.
pub(crate) fn tag(m: &mut DMachine<'_>, obj: ObjId, a: TraceAbs) {
    with_tracer(m, |_, t| {
        t.tags.insert(obj, a);
    });
}
