//! The concrete domain: `()` annotations and no-op hooks, so the machine
//! monomorphized over it is the plain concrete interpreter ([`Interp`]).
//!
//! Its only state is cooperative cancellation and, optionally, the heap
//! trace behind dynamic shortcuts: deduplicated heap events abstracted at
//! record time, when the machine still knows every object's allocation
//! provenance. Tracing is concrete-domain state rather than a third
//! domain because it observes the concrete run without changing any
//! rule.

use crate::context::CtxId;
use crate::domain::{Domain, Limits, Stop};
use crate::machine::Machine;
use crate::values::{ObjClass, ObjId, ScopeId, Slot, Value};
use mujs_ir::{FuncId, StmtId, Sym};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The concrete interpreter: the machine over the [`Concrete`] domain.
pub type Interp<'p> = Machine<'p, Concrete>;

// The zero-cost claim, checked at build time: concrete annotations carry
// nothing, so a concrete slot is exactly a value.
const _: () = assert!(std::mem::size_of::<<Concrete as Domain>::Flag>() == 0);
const _: () = assert!(std::mem::size_of::<<Concrete as Domain>::Ann>() == 0);
const _: () =
    assert!(std::mem::size_of::<Slot<<Concrete as Domain>::Ann>>() == std::mem::size_of::<Value>());

/// Fatal outcomes of a concrete run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// An uncaught JavaScript exception.
    Thrown(Value),
    /// The configured step budget was exhausted.
    StepLimit,
    /// `return`/`break`/`continue` escaped its legal context (e.g. a
    /// `return` inside eval code).
    IllegalCompletion,
    /// The run was cancelled through [`InterpOptions::cancel`].
    Cancelled,
    /// The wall-clock deadline ([`InterpOptions::deadline_ms`]) elapsed.
    Deadline,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Thrown(v) => write!(f, "uncaught exception: {}", v.kind_str()),
            RunError::StepLimit => write!(f, "step limit exceeded"),
            RunError::IllegalCompletion => write!(f, "illegal abrupt completion"),
            RunError::Cancelled => write!(f, "run cancelled"),
            RunError::Deadline => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

impl std::error::Error for RunError {}

/// Configuration of a concrete run.
#[derive(Debug, Clone)]
pub struct InterpOptions {
    /// Seed for `Math.random` (the analysis' canonical indeterminate
    /// input); re-randomize across runs to explore executions.
    pub seed: u64,
    /// Statement budget; exceeded ⇒ [`RunError::StepLimit`].
    pub max_steps: u64,
    /// Record per-statement `(point, context, value)` observations for the
    /// soundness harness.
    pub record_observations: bool,
    /// Cap on recorded observations.
    pub max_observations: usize,
    /// Cooperative cancellation flag, polled every
    /// [`InterpOptions::poll_interval`] statements; setting it makes the
    /// run stop with [`RunError::Cancelled`] at a statement boundary.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Wall-clock budget in milliseconds, measured from machine
    /// construction; elapsing ⇒ [`RunError::Deadline`].
    pub deadline_ms: Option<u64>,
    /// Statements between cancellation/deadline polls (clamped to ≥ 1).
    pub poll_interval: u64,
    /// Record a [`HeapTrace`] of abstracted heap effects at the configured
    /// sites (the dynamic-shortcut summarizer's data source). `None` (the
    /// default) records nothing and changes no behavior.
    pub trace: Option<TraceConfig>,
}

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            seed: 0xD5EA51DE,
            max_steps: 20_000_000,
            record_observations: false,
            max_observations: 2_000_000,
            cancel: None,
            deadline_ms: None,
            poll_interval: 1024,
            trace: None,
        }
    }
}

/// Which program points the heap trace records events at.
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    /// Statement ids whose define / property-write / call events are
    /// recorded.
    pub points: HashSet<StmtId>,
    /// Functions whose `return` values are recorded.
    pub funcs: HashSet<FuncId>,
    /// Cap on distinct recorded events; exceeding it sets
    /// [`HeapTrace::truncated`] and stops recording (allocation-site
    /// tagging continues, so already-recorded events stay well-formed).
    pub max_events: usize,
}

/// The abstraction of a concrete heap value, resolved *at record time*.
/// Mirrors the points-to analysis' abstract object domain: site-allocated
/// objects, closures, per-function `.prototype` records, the global, and
/// an opaque bucket for everything the analysis does not model (natives,
/// DOM values, stdlib-internal allocations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceAbs {
    /// The global (`window`) object.
    Global,
    /// A closure of the function.
    Closure(FuncId),
    /// The fresh `.prototype` object created with each closure.
    ProtoOf(FuncId),
    /// An object allocated at the statement (`{}`/`[]` literals, `for-in`
    /// key arrays, `new F` results).
    Alloc(StmtId),
    /// Unmodeled: native functions and their results, DOM values.
    Opaque,
}

/// One recorded call through a trace point.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

/// Deduplicated, abstracted heap events of one concrete run — everything
/// the dynamic-shortcut summarizer needs to distill a region's effects
/// into points-to tuples. Event vectors are in first-occurrence order;
/// consumers sort before use.
#[derive(Debug, Default)]
pub struct HeapTrace {
    /// `(site, value)` for every object value a recorded statement wrote
    /// into its destination place.
    pub defines: Vec<(StmtId, TraceAbs)>,
    /// `(site, base, key, value)` for every object value a recorded
    /// `SetProp` stored (concrete key, post-coercion).
    pub writes: Vec<(StmtId, TraceAbs, Sym, TraceAbs)>,
    /// Calls executed at recorded call/new sites.
    pub calls: Vec<TraceCall>,
    /// `(function, value)` for every object value a traced function
    /// returned.
    pub rets: Vec<(FuncId, TraceAbs)>,
    /// The event cap was hit; the trace is incomplete and must not be
    /// used for summarization.
    pub truncated: bool,
}

impl HeapTrace {
    /// Total recorded (distinct) events.
    pub fn len(&self) -> usize {
        self.defines.len() + self.writes.len() + self.calls.len() + self.rets.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Heap-trace recording state: the configuration, the trace so far with
/// its dedup sets, and allocation provenance.
#[derive(Debug, Default)]
struct Tracer {
    cfg: TraceConfig,
    out: HeapTrace,
    seen_defines: HashSet<(StmtId, TraceAbs)>,
    seen_writes: HashSet<(StmtId, TraceAbs, Sym, TraceAbs)>,
    seen_calls: HashSet<TraceCall>,
    seen_rets: HashSet<(FuncId, TraceAbs)>,
    /// Site-allocated objects and closure `.prototype` records; objects
    /// absent here abstract to [`TraceAbs::Opaque`].
    tags: HashMap<ObjId, TraceAbs>,
}

impl Tracer {
    /// Checks the event cap; trips `truncated` when full.
    fn room(&mut self) -> bool {
        if self.out.truncated {
            return false;
        }
        if self.out.len() >= self.cfg.max_events {
            self.out.truncated = true;
            return false;
        }
        true
    }
}

/// The concrete domain's state.
#[derive(Debug)]
pub struct Concrete {
    cancel: Option<Arc<AtomicBool>>,
    tracer: Option<Box<Tracer>>,
}

impl Interp<'_> {
    /// Takes the recorded heap trace, ending recording. `None` when
    /// tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<HeapTrace> {
        self.domain.tracer.take().map(|t| t.out)
    }

    /// The tracer, when recording events at `point`.
    fn tracer_at(&mut self, point: StmtId) -> Option<&mut Tracer> {
        self.domain
            .tracer
            .as_deref_mut()
            .filter(|t| t.cfg.points.contains(&point))
    }

    /// The record-time abstraction of a value; `None` for primitives.
    fn trace_abs(&self, v: &Value) -> Option<TraceAbs> {
        match v {
            Value::Object(id) => Some(self.trace_abs_obj(*id)),
            _ => None,
        }
    }

    fn trace_abs_obj(&self, id: ObjId) -> TraceAbs {
        if id == self.global() {
            return TraceAbs::Global;
        }
        if let ObjClass::Function { func, .. } = &self.obj(id).class {
            return TraceAbs::Closure(*func);
        }
        self.domain
            .tracer
            .as_ref()
            .and_then(|t| t.tags.get(&id))
            .copied()
            .unwrap_or(TraceAbs::Opaque)
    }

    fn trace_call(&mut self, ev: TraceCall) {
        let Some(t) = self.domain.tracer.as_deref_mut() else {
            return;
        };
        if t.room() && t.seen_calls.insert(ev.clone()) {
            t.out.calls.push(ev);
        }
    }
}

impl Domain for Concrete {
    type Flag = ();
    type V = Value;
    type Ann = ();
    type Err = RunError;
    type Config = InterpOptions;
    type Outcome = Result<(), RunError>;

    fn init(opts: InterpOptions) -> (Self, Limits) {
        let limits = Limits {
            seed: opts.seed,
            max_steps: opts.max_steps,
            poll_interval: opts.poll_interval,
            deadline_ms: opts.deadline_ms,
            record_observations: opts.record_observations,
            max_observations: opts.max_observations,
        };
        let tracer = opts.trace.map(|cfg| {
            Box::new(Tracer {
                cfg,
                ..Tracer::default()
            })
        });
        let domain = Concrete {
            cancel: opts.cancel,
            tracer,
        };
        (domain, limits)
    }

    fn outcome(r: Result<(), RunError>) -> Result<(), RunError> {
        r
    }

    fn thrown(v: Value, _indet_ctl: bool) -> RunError {
        RunError::Thrown(v)
    }

    fn as_thrown(e: &RunError) -> Option<(&Value, bool)> {
        match e {
            RunError::Thrown(v) => Some((v, false)),
            _ => None,
        }
    }

    fn stop(s: Stop) -> RunError {
        match s {
            Stop::StepLimit => RunError::StepLimit,
            Stop::Cancelled => RunError::Cancelled,
            Stop::Deadline => RunError::Deadline,
            Stop::IllegalCompletion => RunError::IllegalCompletion,
        }
    }

    fn poll(m: &mut Interp<'_>) -> Result<(), RunError> {
        if m.domain
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
        {
            return Err(RunError::Cancelled);
        }
        if m.deadline_passed() {
            return Err(RunError::Deadline);
        }
        Ok(())
    }

    #[inline(always)]
    fn ann(_: &Interp<'_>, _: ()) {}
    #[inline(always)]
    fn prop_flag(_: &Interp<'_>, _: &()) {}
    #[inline(always)]
    fn var_flag(_: &Interp<'_>, _: ScopeId, _: Sym, _: &()) {}

    #[inline]
    fn on_define(m: &mut Interp<'_>, _: CtxId, point: StmtId, v: &Value) {
        if m.domain.tracer.is_none() {
            return;
        }
        let Some(abs) = m.trace_abs(v) else {
            return;
        };
        if let Some(t) = m.tracer_at(point) {
            if t.room() && t.seen_defines.insert((point, abs)) {
                t.out.defines.push((point, abs));
            }
        }
    }

    #[inline]
    fn on_call(
        m: &mut Interp<'_>,
        site: StmtId,
        callee: &Value,
        this: Option<&Value>,
        args: &[Value],
    ) {
        if m.tracer_at(site).is_none() {
            return;
        }
        let Value::Object(fo) = callee else {
            return;
        };
        let callee = match &m.obj(*fo).class {
            ObjClass::Function { func, .. } => Some(*func),
            ObjClass::Native(_) => None,
            _ => return,
        };
        let ev = TraceCall {
            site,
            callee,
            this: this.and_then(|t| m.trace_abs(t)),
            args: args.iter().map(|a| m.trace_abs(a)).collect(),
            is_new: false,
            proto: None,
        };
        m.trace_call(ev);
    }

    #[inline]
    fn on_construct(
        m: &mut Interp<'_>,
        site: StmtId,
        obj: ObjId,
        callee: Option<FuncId>,
        args: &[Value],
        proto: Option<ObjId>,
    ) {
        if m.domain.tracer.is_none() {
            return;
        }
        Self::tag(m, obj, TraceAbs::Alloc(site));
        if m.tracer_at(site).is_none() {
            return;
        }
        let ev = TraceCall {
            site,
            callee,
            this: None,
            args: args.iter().map(|a| m.trace_abs(a)).collect(),
            is_new: true,
            proto: proto.map(|p| m.trace_abs_obj(p)),
        };
        m.trace_call(ev);
    }

    #[inline]
    fn on_set_prop(m: &mut Interp<'_>, site: StmtId, base: &Value, key: Sym, v: &Value) {
        if m.domain.tracer.is_none() {
            return;
        }
        let (Some(b), Some(v)) = (m.trace_abs(base), m.trace_abs(v)) else {
            return;
        };
        if let Some(t) = m.tracer_at(site) {
            if t.room() && t.seen_writes.insert((site, b, key, v)) {
                t.out.writes.push((site, b, key, v));
            }
        }
    }

    #[inline]
    fn on_return(m: &mut Interp<'_>, func: FuncId, v: &Value) {
        let traced = m
            .domain
            .tracer
            .as_ref()
            .is_some_and(|t| t.cfg.funcs.contains(&func));
        if !traced {
            return;
        }
        let Some(abs) = m.trace_abs(v) else {
            return;
        };
        let t = m.domain.tracer.as_deref_mut().expect("traced");
        if t.room() && t.seen_rets.insert((func, abs)) {
            t.out.rets.push((func, abs));
        }
    }

    /// Allocation provenance is recorded everywhere while tracing,
    /// regardless of the point filter: objects allocated anywhere can flow
    /// into recorded events.
    #[inline]
    fn tag(m: &mut Interp<'_>, obj: ObjId, abs: TraceAbs) {
        if let Some(t) = m.domain.tracer.as_deref_mut() {
            t.tags.insert(obj, abs);
        }
    }
}
