//! The annotation domain the one µJS [`Machine`] is generic over.
//!
//! The paper's instrumented semantics (§3.2, Fig. 9) is the concrete
//! semantics with determinacy annotations added. The machine therefore
//! implements every statement rule once; a [`Domain`] supplies what the
//! annotations are and what happens at the points where the instrumented
//! rules add work:
//!
//! * the value annotation ([`Domain::Flag`], carried by [`Domain::V`]) and
//!   the slot annotation ([`Domain::Ann`]);
//! * fact recording and heap tracing (`on_*` hooks);
//! * write logging and undo (`*_written`, [`Domain::open_region`],
//!   [`Domain::close_region`]);
//! * heap flushes and open records ([`Domain::flush`],
//!   [`Domain::open_record`]), and the natives' effects
//!   ([`Domain::native_effect`]);
//! * the Fig. 9 if/loop/try/call rules under indeterminate control,
//!   including counterfactual execution ([`Domain::counterfactual`],
//!   [`Domain::cntr_abort`]).
//!
//! The concrete domain ([`crate::concrete::Concrete`]) uses `()` for both
//! annotations and leaves every hook at its no-op default, so after
//! monomorphization its machine carries nothing. The instrumented domain
//! lives in the `determinacy` crate.

use crate::concrete::TraceAbs;
use crate::context::CtxId;
use crate::machine::{Frame, Machine};
use crate::values::{ObjId, ScopeId, Slot, Value};
use mujs_ir::{FuncId, Stmt, StmtId, Sym};
use std::fmt::Debug;

/// A value annotation: a two-point join semilattice in the instrumented
/// domain (`!` ⊑ `?`), a single point in the concrete one.
pub trait Flag: Copy + PartialEq + Debug {
    /// "Same in every execution" (`!`).
    const DET: Self;
    /// "May differ across executions" (`?`).
    const INDET: Self;
    /// The join: determinate only if both are.
    #[must_use]
    fn join(self, other: Self) -> Self;
    /// Whether this is `?`. Always `false` in the concrete domain, which is
    /// what lets the compiler delete the indeterminate paths there.
    fn is_indet(self) -> bool;
}

impl Flag for () {
    const DET: () = ();
    const INDET: () = ();
    #[inline(always)]
    fn join(self, _: ()) {}
    #[inline(always)]
    fn is_indet(self) -> bool {
        false
    }
}

/// A runtime value together with its annotation (`v^d`).
pub trait AnnValue: Clone + Debug {
    /// The annotation type.
    type Flag: Flag;
    /// Pairs a value with an annotation.
    fn new(v: Value, d: Self::Flag) -> Self;
    /// The concrete value.
    fn v(&self) -> &Value;
    /// The annotation.
    fn d(&self) -> Self::Flag;
    /// The value and its annotation, by move.
    fn into_parts(self) -> (Value, Self::Flag);
    /// The same value with the joined annotation (`(v^d1)^d2`).
    #[must_use]
    fn weaken(self, d: Self::Flag) -> Self;
    /// A determinate value.
    fn det(v: Value) -> Self {
        Self::new(v, Self::Flag::DET)
    }
}

impl AnnValue for Value {
    type Flag = ();
    #[inline(always)]
    fn new(v: Value, _: ()) -> Self {
        v
    }
    #[inline(always)]
    fn v(&self) -> &Value {
        self
    }
    #[inline(always)]
    fn d(&self) {}
    #[inline(always)]
    fn into_parts(self) -> (Value, ()) {
        (self, ())
    }
    #[inline(always)]
    fn weaken(self, _: ()) -> Self {
        self
    }
}

/// Statement completions other than exceptions. The flag on abrupt
/// completions marks control that depends on indeterminate data (other
/// executions may complete differently); the concrete domain never sets it.
#[derive(Debug, Clone, PartialEq)]
pub enum Flow<V = Value> {
    /// Fall through to the next statement.
    Normal,
    /// `break`.
    Break(bool),
    /// `continue`.
    Continue(bool),
    /// `return v`.
    Return(V, bool),
}

impl<V> Flow<V> {
    /// The indeterminate-control marker of an abrupt completion.
    pub fn indet_ctl(&self) -> bool {
        match self {
            Flow::Normal => false,
            Flow::Break(b) | Flow::Continue(b) | Flow::Return(_, b) => *b,
        }
    }

    /// The same completion with the marker forced on.
    #[must_use]
    pub fn taint(self) -> Self {
        match self {
            Flow::Normal => Flow::Normal,
            Flow::Break(_) => Flow::Break(true),
            Flow::Continue(_) => Flow::Continue(true),
            Flow::Return(v, _) => Flow::Return(v, true),
        }
    }
}

/// Machine-detected reasons to stop a run; each domain maps them onto its
/// own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The statement budget is exhausted.
    StepLimit,
    /// External cancellation was observed at a poll.
    Cancelled,
    /// The wall-clock deadline elapsed.
    Deadline,
    /// `return`/`break`/`continue` escaped its legal context.
    IllegalCompletion,
}

/// The machine-owned run limits, derived from each domain's configuration.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Seed of the `Math.random`/`Date.now` stream.
    pub seed: u64,
    /// Statement budget.
    pub max_steps: u64,
    /// Statements between [`Domain::poll`] calls (clamped to ≥ 1).
    pub poll_interval: u64,
    /// Wall-clock budget in milliseconds from machine construction.
    pub deadline_ms: Option<u64>,
    /// Record per-definition [`Observation`]s.
    pub record_observations: bool,
    /// Cap on recorded observations.
    pub max_observations: usize,
}

/// One recorded definition event: statement `point` under calling context
/// `ctx` wrote `value` into its destination.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation<V = Value> {
    /// The program point.
    pub point: StmtId,
    /// The interned calling context.
    pub ctx: CtxId,
    /// The written value (object ids refer to this machine's heap).
    pub value: V,
}

/// Where a scope binding lives: a static local slot or an ext entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKey {
    /// Index into the activation's slot vector.
    Slot(u32),
    /// A by-name overflow binding.
    Ext(Sym),
}

/// An annotation domain: the types and hooks that turn the one machine
/// into the concrete interpreter or the instrumented determinacy machine.
///
/// Hooks are associated functions over the whole machine (the domain's own
/// state is `m.domain`). Every hook except the required ones defaults to
/// the concrete behavior: do nothing.
#[allow(unused_variables)]
pub trait Domain: Sized {
    /// The value annotation.
    type Flag: Flag;
    /// An annotated value.
    type V: AnnValue<Flag = Self::Flag>;
    /// The slot annotation stored with every binding and property.
    type Ann: Clone + Debug;
    /// Abrupt, non-[`Flow`] outcomes: exceptions and stops.
    type Err: Debug;
    /// The configuration the machine is built from.
    type Config;
    /// What [`Machine::run`] reports.
    type Outcome;

    /// Builds the domain state and the machine-owned limits.
    fn init(cfg: Self::Config) -> (Self, Limits);
    /// Host setup — the native table at construction, the DOM at
    /// [`Machine::install_dom`] — begins (`active`) or ends. What is
    /// created in between is part of the host environment.
    #[inline(always)]
    fn setup(m: &mut Machine<'_, Self>, active: bool) {}
    /// Maps the entry script's completion to the run result.
    fn outcome(r: Result<(), Self::Err>) -> Self::Outcome;

    // ------------------------------------------------------------ errors

    /// A JavaScript exception; `indet_ctl` says whether other executions
    /// might not throw here.
    fn thrown(v: Self::V, indet_ctl: bool) -> Self::Err;
    /// The thrown value and its indeterminate-control marker, if `e` is a
    /// JavaScript exception.
    fn as_thrown(e: &Self::Err) -> Option<(&Self::V, bool)>;
    /// A machine stop.
    fn stop(s: Stop) -> Self::Err;
    /// `e` with the indeterminate-control marker forced on when it is an
    /// exception.
    fn taint_thrown(e: Self::Err) -> Self::Err {
        e
    }

    // ----------------------------------------------------------- polling

    /// Cancellation, deadline and budget checks, every
    /// [`Limits::poll_interval`] statements.
    fn poll(m: &mut Machine<'_, Self>) -> Result<(), Self::Err>;
    /// Per-statement checks after the step count.
    #[inline(always)]
    fn on_step(m: &mut Machine<'_, Self>) -> Result<(), Self::Err> {
        Ok(())
    }

    // ------------------------------------------------------- annotations

    /// The annotation of a property slot or binding written with flag `d`.
    fn ann(m: &Machine<'_, Self>, d: Self::Flag) -> Self::Ann;
    /// The effective flag of a property slot now.
    fn prop_flag(m: &Machine<'_, Self>, ann: &Self::Ann) -> Self::Flag;
    /// The effective flag of binding `name` of scope `sid` now.
    fn var_flag(m: &Machine<'_, Self>, sid: ScopeId, name: Sym, ann: &Self::Ann) -> Self::Flag;
    /// The flag of a property found absent on `obj` (unknown when the
    /// record is open).
    #[inline(always)]
    fn absent_flag(m: &Machine<'_, Self>, obj: ObjId) -> Self::Flag {
        Self::Flag::DET
    }
    /// The flag of `obj`'s prototype link.
    #[inline(always)]
    fn proto_flag(m: &Machine<'_, Self>, obj: ObjId) -> Self::Flag {
        Self::Flag::DET
    }
    /// The flag of values read from the DOM.
    #[inline(always)]
    fn dom_flag(m: &Machine<'_, Self>) -> Self::Flag {
        Self::Flag::DET
    }

    // ---------------------------------------- write logging and accounting

    /// An object was allocated with a prototype link of flag `proto`.
    #[inline(always)]
    fn on_alloc(m: &mut Machine<'_, Self>, obj: ObjId, proto: Self::Flag) {}
    /// A property was written or deleted; `old` is its previous slot
    /// (`None` when the write created it).
    #[inline(always)]
    fn prop_written(m: &mut Machine<'_, Self>, obj: ObjId, key: Sym, old: Option<Slot<Self::Ann>>) {
    }
    /// A scope binding was written; `old` is `None` when it was created.
    #[inline(always)]
    fn var_written(
        m: &mut Machine<'_, Self>,
        sid: ScopeId,
        key: VarKey,
        old: Option<Slot<Self::Ann>>,
    ) {
    }
    /// A temp of the activation with serial `frame` was written.
    #[inline(always)]
    fn temp_written(m: &mut Machine<'_, Self>, frame: u64, idx: u32, old: Self::V) {}

    // --------------------------------------------- flushes and open records

    /// The heap flush (an unknown call may have written anything).
    #[inline(always)]
    fn flush(m: &mut Machine<'_, Self>) -> Result<(), Self::Err> {
        Ok(())
    }
    /// A store with an indeterminate name opens the record (rule ŜTO).
    #[inline(always)]
    fn open_record(m: &mut Machine<'_, Self>, obj: ObjId) {}
    /// Whether execution is hypothetical (counterfactual).
    #[inline(always)]
    fn hypothetical(m: &Machine<'_, Self>) -> bool {
        false
    }
    /// A native is about to have an effect no model tracks (DOM mutation,
    /// listener registration, `__opaque`); the instrumented domain aborts
    /// hypothetical execution here.
    #[inline(always)]
    fn native_effect(m: &mut Machine<'_, Self>) -> Result<(), Self::Err> {
        Ok(())
    }

    // ------------------------------------------------ facts and traces

    /// Statement `point` under `ctx` defines `v`.
    #[inline(always)]
    fn on_define(m: &mut Machine<'_, Self>, ctx: CtxId, point: StmtId, v: &Self::V) {}
    /// A dynamic property key `key` with flag `d` was computed at `point`.
    #[inline(always)]
    fn on_key(
        m: &mut Machine<'_, Self>,
        frame: &mut Frame<Self::V>,
        point: StmtId,
        key: Sym,
        d: Self::Flag,
    ) {
    }
    /// The callee of the call/new at `site` under `ctx` was read.
    #[inline(always)]
    fn on_callee(m: &mut Machine<'_, Self>, ctx: CtxId, site: StmtId, callee: &Self::V) {}
    /// A call at `site` is about to run; `this` is the explicit receiver.
    #[inline(always)]
    fn on_call(
        m: &mut Machine<'_, Self>,
        site: StmtId,
        callee: &Self::V,
        this: Option<&Self::V>,
        args: &[Self::V],
    ) {
    }
    /// `new` at `site` allocated `obj` for `callee` (`None` for natives)
    /// whose prototype is `proto`.
    #[inline(always)]
    fn on_construct(
        m: &mut Machine<'_, Self>,
        site: StmtId,
        obj: ObjId,
        callee: Option<FuncId>,
        args: &[Self::V],
        proto: Option<ObjId>,
    ) {
    }
    /// `SetProp` at `site` is about to store `v` at `base[key]`.
    #[inline(always)]
    fn on_set_prop(m: &mut Machine<'_, Self>, site: StmtId, base: &Self::V, key: Sym, v: &Self::V) {
    }
    /// A function of code `func` returns `v`.
    #[inline(always)]
    fn on_return(m: &mut Machine<'_, Self>, func: FuncId, v: &Self::V) {}
    /// Allocation provenance of `obj`.
    #[inline(always)]
    fn tag(m: &mut Machine<'_, Self>, obj: ObjId, abs: TraceAbs) {}
    /// The guard of the `if` at `site` under `ctx` evaluated to `v`.
    #[inline(always)]
    fn on_cond(m: &mut Machine<'_, Self>, site: StmtId, ctx: CtxId, v: &Self::V) {}
    /// The argument of the direct `eval` at `site` under `ctx`.
    #[inline(always)]
    fn on_eval(m: &mut Machine<'_, Self>, site: StmtId, ctx: CtxId, arg: &Self::V) {}
    /// The loop at `site` under `ctx` exited normally after `trips`
    /// iterations (`None` when the count is not determinate).
    #[inline(always)]
    fn on_loop_exit(m: &mut Machine<'_, Self>, site: StmtId, ctx: CtxId, trips: Option<u32>) {}
    /// The program's code was loaded: at construction, and whenever
    /// `eval` appends new functions.
    #[inline(always)]
    fn on_code_loaded(m: &mut Machine<'_, Self>) {}
    /// A native is about to run (the single funnel for native calls).
    #[inline(always)]
    fn on_native_call(m: &mut Machine<'_, Self>) -> Result<(), Self::Err> {
        Ok(())
    }
    /// An event handler is about to be entered.
    #[inline(always)]
    fn on_handler_entry(m: &mut Machine<'_, Self>) -> Result<(), Self::Err> {
        Ok(())
    }

    // ------------------------------------------------- the Fig. 9 rules

    /// Opens a write-log region (rule ÎF1).
    #[inline(always)]
    fn open_region(m: &mut Machine<'_, Self>) {}
    /// Closes the innermost region; `mark` marks every written location
    /// indeterminate, otherwise the writes are kept as they are.
    #[inline(always)]
    fn close_region(m: &mut Machine<'_, Self>, frame: &mut Frame<Self::V>, mark: bool) {}
    /// Runs `blocks` counterfactually (rule ĈNTR): execute, undo, mark.
    fn counterfactual(
        m: &mut Machine<'_, Self>,
        frame: &mut Frame<Self::V>,
        blocks: &[&[Stmt]],
    ) -> Result<(), Self::Err> {
        Ok(())
    }
    /// The conservative ĈNTRABORT over the write domain of `blocks`.
    fn cntr_abort(
        m: &mut Machine<'_, Self>,
        frame: &mut Frame<Self::V>,
        blocks: &[&[Stmt]],
    ) -> Result<(), Self::Err> {
        Ok(())
    }
}
