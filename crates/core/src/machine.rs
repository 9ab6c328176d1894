//! The instrumented domain: the one µJS machine of `mujs-interp` with
//! determinacy annotations (the rules of Figure 9). This module supplies
//! what the concrete domain leaves out:
//!
//! * annotations — `Det` on values, [`SlotAnn`] (flag plus epoch) on
//!   slots, and per-object `ObjExtra` state (creation epoch, forced
//!   openness, prototype-link flag);
//! * the O(1) epoch-counter heap flush (§4) and open records;
//! * the write logs of the conditional rules: a location log that every
//!   open region (ÎF1 or ĈNTR) marks from, and an undo log of prior
//!   values kept only under counterfactual execution (ĈNTR), with its
//!   conservative abort (ĈNTRABORT);
//! * fact recording, heap tracing for dynamic shortcuts ([`crate::trace`]),
//!   budgets, supervision hooks and fault injection.
//!
//! Statement execution and the native models are the machine's
//! (`mujs_interp::natives`, `mujs_interp::dom_binding`); the models reach
//! this domain through its hooks (`flush`, `hypothetical`,
//! `native_effect`, `absent_flag`, `dom_flag`).

use crate::config::{AnalysisConfig, AnalysisStats, AnalysisStatus};
use crate::det::{DValue, Det, SlotAnn, BUILTIN_EPOCH};
use crate::facts::{FactDb, FactKind, TripFact};
use crate::supervisor::{CancelToken, RunHooks};
use crate::trace::{self, Tracer};
use mujs_interp::context::CtxId;
use mujs_interp::domain::{Domain, Limits, Stop, VarKey};
use mujs_interp::{Flow, Frame, Machine, ObjId, Observation, ScopeId, Slot, TraceAbs, Value};
use mujs_ir::{FuncId, Stmt, StmtId, Sym};

/// The instrumented determinacy machine: the µJS machine over the
/// [`Instrumented`] domain.
pub type DMachine<'p> = Machine<'p, Instrumented>;

/// Statement completions of the instrumented machine.
pub type DFlow = Flow<DValue>;

/// An activation record of the instrumented machine.
pub type DFrame = Frame<DValue>;

/// Instrumented observation for the soundness harness.
pub type DObservation = Observation<DValue>;

/// Abrupt, non-[`DFlow`] outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum DErr {
    /// A JavaScript exception; the flag records whether the throw is
    /// control-dependent on indeterminate data (other executions may not
    /// throw).
    Thrown(DValue, bool),
    /// Abort the innermost counterfactual execution (native with unknown
    /// effects, exception, or budget exhaustion inside a counterfactual).
    CfAbort,
    /// Stop the whole analysis (step limit / flush cap).
    Stop(AnalysisStatus),
}

/// Per-object analysis state kept outside the shared object struct.
#[derive(Debug, Clone, Copy)]
struct ObjExtra {
    /// Epoch at creation; a record created before the last flush is open.
    created_epoch: u64,
    /// Set by stores with indeterminate property names (rule ŜTO) and by
    /// deletions under indeterminate control.
    forced_open: bool,
    /// Determinacy of the prototype link (from the `F.prototype` slot the
    /// object was constructed with).
    proto_det: Det,
}

/// A location written inside an open region: what ÎF1 and ĈNTR mark.
#[derive(Debug)]
enum Written {
    /// A property of a record.
    Prop {
        /// Receiver.
        obj: ObjId,
        /// Key.
        key: Sym,
    },
    /// A variable binding.
    Var {
        /// Owning scope.
        scope: ScopeId,
        /// Where in the scope the binding lives.
        key: VarKey,
    },
    /// A temp in some activation.
    Temp {
        /// The activation's serial.
        frame: u64,
        /// Temp index.
        idx: u32,
    },
}

/// One undoable mutation, with the state it overwrote.
#[derive(Debug)]
enum LogEntry {
    /// A property write or delete; `old == None` means the property did
    /// not exist before.
    Prop {
        /// Receiver.
        obj: ObjId,
        /// Key.
        key: Sym,
        /// Previous slot.
        old: Option<Slot<SlotAnn>>,
    },
    /// A variable write.
    Var {
        /// Owning scope.
        scope: ScopeId,
        /// Where in the scope the binding lives.
        key: VarKey,
        /// Previous binding (`None` when eval hoisting created it).
        old: Option<Slot<SlotAnn>>,
    },
    /// A temp write in some activation.
    Temp {
        /// The activation's serial.
        frame: u64,
        /// Temp index.
        idx: u32,
        /// Previous value.
        old: DValue,
    },
    /// A record's open flag transition.
    Opened {
        /// The record.
        obj: ObjId,
        /// Previous flag.
        was: bool,
    },
}

/// The instrumented domain's state.
#[derive(Debug)]
pub struct Instrumented {
    /// Analysis configuration.
    pub cfg: AnalysisConfig,
    /// Run statistics (flush counts feed Table 1).
    pub stats: AnalysisStats,
    /// The fact database.
    pub facts: FactDb,
    extras: Vec<ObjExtra>,
    /// The global epoch counter; incrementing it is the O(1) heap flush.
    epoch: u64,
    cf_depth: u32,
    cf_steps: u64,
    /// The locations written under every open Figure 9 conditional rule
    /// (ÎF1 or ĈNTR), innermost region last; kept only while some region
    /// is open.
    written: Vec<Written>,
    /// The start offset in `written` of each open region, innermost last.
    regions: Vec<usize>,
    /// The undo log of every open ĈNTR, innermost last; written only
    /// while one is open (`cf_depth > 0`).
    undo: Vec<LogEntry>,
    /// The start offset in `undo` of each open ĈNTR, innermost last.
    cntrs: Vec<usize>,
    closure_writes: mujs_ir::closure_writes::ClosureWrites,
    cw_funcs_len: usize,
    /// Library setup: slots and objects created now are built-ins.
    setup_mode: bool,
    /// External cancellation, polled at statement boundaries.
    cancel: Option<CancelToken>,
    /// Live statement counter shared with the supervisor; written at every
    /// poll so it stays meaningful even if the machine later panics.
    progress: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>,
    /// Cumulative heap cells allocated: objects plus newly created
    /// property slots. Monotone (slot deletes and counterfactual undos do
    /// not decrement), so `cfg.mem_cell_budget` bounds total allocation
    /// work rather than instantaneous residency — which is what keeps a
    /// runaway allocation loop from exhausting the host.
    cells_allocated: u64,
    /// The heap trace, recorded while [`RunHooks::trace`] is set.
    pub(crate) tracer: Option<Box<Tracer>>,
    /// Fault-injection state (testing only).
    #[cfg(feature = "fault-inject")]
    faults: Option<crate::supervisor::FaultState>,
    /// Set by the injected allocation fault; the next poll reports
    /// [`AnalysisStatus::MemLimit`].
    #[cfg(feature = "fault-inject")]
    forced_memfail: bool,
}

impl Instrumented {
    /// Installs supervision hooks (cancellation, progress, heap tracing,
    /// fault plan). Call before running; the drivers do this
    /// automatically.
    pub fn install_hooks(&mut self, hooks: &RunHooks) {
        self.cancel = hooks.cancel.clone();
        self.progress = hooks.progress.clone();
        self.tracer = hooks.trace.then(Box::default);
        #[cfg(feature = "fault-inject")]
        {
            self.faults = hooks.faults.clone().map(crate::supervisor::FaultState::new);
        }
    }

    /// How an abrupt completion of the whole run ends the analysis.
    pub fn status_of(e: DErr) -> AnalysisStatus {
        match e {
            DErr::Thrown(..) => AnalysisStatus::UncaughtException,
            DErr::Stop(s) => s,
            // A counterfactual abort can only escape if the machine has a
            // bug; surface it loudly in debug builds.
            DErr::CfAbort => {
                debug_assert!(false, "CfAbort escaped its counterfactual");
                AnalysisStatus::Completed
            }
        }
    }

    /// Whether execution is currently counterfactual.
    pub fn in_counterfactual(&self) -> bool {
        self.cf_depth > 0
    }

    /// The determinacy of DOM-sourced values under the current config.
    pub fn dom_det(&self) -> Det {
        if self.cfg.det_dom {
            Det::D
        } else {
            Det::I
        }
    }

    /// Whether the record is open (unknown properties may exist in other
    /// executions). Setup-created objects (globals, prototypes) count as
    /// created at epoch 0: their *slots* survive flushes via the sentinel
    /// epoch, but once any flush has happened an unknown callee may have
    /// added properties, so absent-property reads become indeterminate.
    pub fn is_open(&self, id: ObjId) -> bool {
        let e = &self.extras[id.0 as usize];
        let created = if e.created_epoch == BUILTIN_EPOCH {
            0
        } else {
            e.created_epoch
        };
        e.forced_open || created < self.epoch
    }

    /// The determinacy of the object's prototype link.
    pub fn proto_det(&self, id: ObjId) -> Det {
        self.extras[id.0 as usize].proto_det
    }

    /// The heap flush: one epoch increment invalidates every non-builtin
    /// property slot and every captured-scope variable (§4).
    pub fn flush_heap(&mut self) -> Result<(), DErr> {
        self.epoch += 1;
        self.stats.heap_flushes += 1;
        if let Some(cap) = self.cfg.flush_cap {
            if self.stats.heap_flushes > cap {
                return Err(DErr::Stop(AnalysisStatus::FlushCapReached));
            }
        }
        Ok(())
    }

    /// Logs a write for the open regions: its location for marking, and,
    /// under a ĈNTR, the overwritten state for undo. `undo` is called only
    /// then, so outside counterfactual execution the old state is dropped
    /// unread.
    #[inline]
    fn log(&mut self, at: Written, undo: impl FnOnce() -> LogEntry) {
        if !self.regions.is_empty() {
            self.written.push(at);
            if !self.cntrs.is_empty() {
                self.undo.push(undo());
            }
        }
    }

    /// Recomputes the closure-written-variable set after `eval` appends
    /// new functions to the program.
    fn refresh_closure_writes(&mut self, prog: &mujs_ir::Program) {
        if prog.funcs.len() != self.cw_funcs_len {
            self.closure_writes = mujs_ir::closure_writes::ClosureWrites::compute(prog);
            self.cw_funcs_len = prog.funcs.len();
        }
    }
}

impl Domain for Instrumented {
    type Flag = Det;
    type V = DValue;
    type Ann = SlotAnn;
    type Err = DErr;
    type Config = AnalysisConfig;
    type Outcome = AnalysisStatus;

    fn init(cfg: AnalysisConfig) -> (Self, Limits) {
        let limits = Limits {
            seed: cfg.seed,
            max_steps: cfg.max_steps,
            poll_interval: cfg.poll_interval,
            deadline_ms: cfg.deadline_ms,
            record_observations: cfg.record_observations,
            max_observations: cfg.max_observations,
        };
        let domain = Instrumented {
            stats: AnalysisStats::default(),
            facts: FactDb::new(cfg.max_facts),
            cfg,
            extras: Vec::new(),
            epoch: 0,
            cf_depth: 0,
            cf_steps: 0,
            written: Vec::new(),
            regions: Vec::new(),
            undo: Vec::new(),
            cntrs: Vec::new(),
            closure_writes: mujs_ir::closure_writes::ClosureWrites::default(),
            cw_funcs_len: 0,
            setup_mode: true,
            cancel: None,
            progress: None,
            cells_allocated: 0,
            tracer: None,
            #[cfg(feature = "fault-inject")]
            faults: None,
            #[cfg(feature = "fault-inject")]
            forced_memfail: false,
        };
        (domain, limits)
    }

    /// The standard library and the DOM bindings are installed in setup
    /// mode: they are part of the host environment and stay determinate
    /// across heap flushes.
    fn setup(m: &mut DMachine<'_>, active: bool) {
        m.domain.setup_mode = active;
    }

    fn outcome(r: Result<(), DErr>) -> AnalysisStatus {
        match r {
            Ok(()) => AnalysisStatus::Completed,
            Err(e) => Self::status_of(e),
        }
    }

    fn thrown(v: DValue, indet_ctl: bool) -> DErr {
        DErr::Thrown(v, indet_ctl)
    }

    fn as_thrown(e: &DErr) -> Option<(&DValue, bool)> {
        match e {
            DErr::Thrown(v, ic) => Some((v, *ic)),
            _ => None,
        }
    }

    fn stop(s: Stop) -> DErr {
        DErr::Stop(match s {
            Stop::StepLimit => AnalysisStatus::StepLimit,
            Stop::Cancelled => AnalysisStatus::Cancelled,
            Stop::Deadline => AnalysisStatus::Deadline,
            Stop::IllegalCompletion => AnalysisStatus::UncaughtException,
        })
    }

    fn taint_thrown(e: DErr) -> DErr {
        match e {
            DErr::Thrown(v, _) => DErr::Thrown(v, true),
            e => e,
        }
    }

    /// The cooperative stop conditions — cancellation, wall-clock
    /// deadline, heap-cell budget — plus progress publication. Each stop
    /// reason preserves the sound fact prefix exactly like the flush cap.
    fn poll(m: &mut DMachine<'_>) -> Result<(), DErr> {
        if let Some(p) = &m.domain.progress {
            p.store(m.steps(), std::sync::atomic::Ordering::Relaxed);
        }
        if m.domain
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            return Err(DErr::Stop(AnalysisStatus::Cancelled));
        }
        if m.deadline_passed() {
            return Err(DErr::Stop(AnalysisStatus::Deadline));
        }
        let d = &m.domain;
        let over_budget = d.cfg.mem_cell_budget.is_some_and(|b| d.cells_allocated > b);
        #[cfg(feature = "fault-inject")]
        let over_budget = over_budget || d.forced_memfail;
        if over_budget {
            return Err(DErr::Stop(AnalysisStatus::MemLimit));
        }
        Ok(())
    }

    #[inline]
    fn on_step(m: &mut DMachine<'_>) -> Result<(), DErr> {
        // Under fault injection, poll every statement so injected faults
        // surface at a deterministic point regardless of poll_interval.
        #[cfg(feature = "fault-inject")]
        if m.domain.faults.is_some() {
            Self::poll(m)?;
        }
        let d = &mut m.domain;
        if d.cf_depth > 0 {
            d.cf_steps += 1;
            if d.cf_steps > d.cfg.cf_step_budget {
                return Err(DErr::CfAbort);
            }
        }
        Ok(())
    }

    /// Library setup writes no scope bindings, so only built-in
    /// properties get the sentinel epoch.
    #[inline]
    fn ann(m: &DMachine<'_>, det: Det) -> SlotAnn {
        let epoch = if m.domain.setup_mode {
            BUILTIN_EPOCH
        } else {
            m.domain.epoch
        };
        SlotAnn::new(det, epoch)
    }

    #[inline]
    fn prop_flag(m: &DMachine<'_>, ann: &SlotAnn) -> Det {
        ann.effective(m.domain.epoch, ann.epoch() != BUILTIN_EPOCH)
    }

    /// A flush models an unknown call, which can only have written this
    /// binding if the scope is captured *and* some closure actually
    /// assigns the name (see `mujs_ir::closure_writes`).
    #[inline]
    fn var_flag(m: &DMachine<'_>, sid: ScopeId, name: Sym, ann: &SlotAnn) -> Det {
        if ann.det() == Det::I {
            return Det::I;
        }
        let epoch = ann.epoch();
        if epoch == m.domain.epoch || epoch == BUILTIN_EPOCH {
            return Det::D;
        }
        let s = m.scope(sid);
        if s.captured && m.domain.closure_writes.is_written(s.owner, name) {
            Det::I
        } else {
            Det::D
        }
    }

    #[inline]
    fn absent_flag(m: &DMachine<'_>, obj: ObjId) -> Det {
        if m.domain.is_open(obj) {
            Det::I
        } else {
            Det::D
        }
    }

    #[inline]
    fn proto_flag(m: &DMachine<'_>, obj: ObjId) -> Det {
        m.domain.proto_det(obj)
    }

    fn dom_flag(m: &DMachine<'_>) -> Det {
        m.domain.dom_det()
    }

    /// Every object costs a heap cell, except the machine's base objects
    /// (prototypes, global), which predate the cell budget.
    #[inline]
    fn on_alloc(m: &mut DMachine<'_>, obj: ObjId, proto: Det) {
        let counted = obj > m.global();
        let d = &mut m.domain;
        d.cells_allocated += u64::from(counted);
        #[cfg(feature = "fault-inject")]
        if let Some(fs) = d.faults.as_mut() {
            fs.allocs += 1;
            if fs.plan.alloc_fail_at == Some(fs.allocs) {
                d.forced_memfail = true;
            }
        }
        d.extras.push(ObjExtra {
            created_epoch: if d.setup_mode { BUILTIN_EPOCH } else { d.epoch },
            forced_open: false,
            proto_det: proto,
        });
    }

    /// Creating a slot costs a heap cell.
    #[inline]
    fn prop_written(m: &mut DMachine<'_>, obj: ObjId, key: Sym, old: Option<Slot<SlotAnn>>) {
        if old.is_none() {
            m.domain.cells_allocated += 1;
        }
        m.domain.log(Written::Prop { obj, key }, || LogEntry::Prop {
            obj,
            key,
            old,
        });
    }

    #[inline]
    fn var_written(m: &mut DMachine<'_>, scope: ScopeId, key: VarKey, old: Option<Slot<SlotAnn>>) {
        m.domain.log(Written::Var { scope, key }, || LogEntry::Var {
            scope,
            key,
            old,
        });
    }

    #[inline]
    fn temp_written(m: &mut DMachine<'_>, frame: u64, idx: u32, old: DValue) {
        m.domain
            .log(Written::Temp { frame, idx }, || LogEntry::Temp {
                frame,
                idx,
                old,
            });
    }

    fn flush(m: &mut DMachine<'_>) -> Result<(), DErr> {
        m.domain.flush_heap()
    }

    /// Forces a record open (indeterminate-name store, rule ŜTO) and marks
    /// all its properties indeterminate. The marks need no log: undo
    /// restores slots wholesale from the Opened and Prop entries. Only
    /// ĈNTR undoes a flag transition, so only its undo log records one.
    fn open_record(m: &mut DMachine<'_>, obj: ObjId) {
        let was = std::mem::replace(&mut m.domain.extras[obj.0 as usize].forced_open, true);
        if !m.domain.cntrs.is_empty() {
            m.domain.undo.push(LogEntry::Opened { obj, was });
        }
        for (_, slot) in m.obj_mut(obj).props.iter_mut() {
            slot.ann.mark_indet();
        }
    }

    fn hypothetical(m: &DMachine<'_>) -> bool {
        m.domain.cf_depth > 0
    }

    /// "If counterfactual execution encounters a call to a native function
    /// that is not known to be side effect-free, we immediately abort"
    /// (§4).
    fn native_effect(m: &mut DMachine<'_>) -> Result<(), DErr> {
        if m.domain.in_counterfactual() {
            return Err(DErr::CfAbort);
        }
        Ok(())
    }

    #[inline]
    fn on_define(m: &mut DMachine<'_>, ctx: CtxId, point: StmtId, v: &DValue) {
        if m.domain.cfg.collect_facts {
            let class = match &v.v {
                Value::Object(id) => Some(m.obj(*id).class.clone()),
                _ => None,
            };
            m.domain
                .facts
                .record_with_class(FactKind::Define, point, ctx, v, class.as_ref());
        }
        trace::define(m, point, v);
    }

    #[inline]
    fn on_call(
        m: &mut DMachine<'_>,
        site: StmtId,
        callee: &DValue,
        this: Option<&DValue>,
        args: &[DValue],
    ) {
        trace::call(m, site, callee, this, args);
    }

    #[inline]
    fn on_construct(
        m: &mut DMachine<'_>,
        site: StmtId,
        obj: ObjId,
        callee: Option<FuncId>,
        args: &[DValue],
        proto: Option<ObjId>,
    ) {
        trace::construct(m, site, obj, callee, args, proto);
    }

    #[inline]
    fn on_set_prop(m: &mut DMachine<'_>, site: StmtId, base: &DValue, key: Sym, v: &DValue) {
        trace::set_prop(m, site, base, key, v);
    }

    #[inline]
    fn on_return(m: &mut DMachine<'_>, func: FuncId, v: &DValue) {
        trace::ret(m, func, v);
    }

    #[inline]
    fn tag(m: &mut DMachine<'_>, obj: ObjId, abs: TraceAbs) {
        trace::tag(m, obj, abs);
    }

    /// Occurrence-qualified key facts, so per-iteration facts of
    /// unrolled loops stay distinct.
    fn on_key(m: &mut DMachine<'_>, frame: &mut DFrame, point: StmtId, key: Sym, d: Det) {
        let ctx = m.enter_site(frame, point);
        if m.domain.cfg.collect_facts {
            let v = DValue {
                v: Value::Str(m.prog.interner.name(key).clone()),
                d,
            };
            m.domain.facts.record(FactKind::PropKey, point, ctx, &v);
        }
    }

    fn on_callee(m: &mut DMachine<'_>, ctx: CtxId, site: StmtId, callee: &DValue) {
        if m.domain.cfg.collect_facts {
            let class = match &callee.v {
                Value::Object(o) => Some(m.obj(*o).class.clone()),
                _ => None,
            };
            m.domain
                .facts
                .record_with_class(FactKind::Callee, site, ctx, callee, class.as_ref());
        }
    }

    fn on_cond(m: &mut DMachine<'_>, site: StmtId, ctx: CtxId, v: &DValue) {
        if m.domain.cfg.collect_facts {
            let b = DValue {
                v: Value::Bool(mujs_interp::coerce::to_boolean(&v.v)),
                d: v.d,
            };
            m.domain.facts.record(FactKind::Cond, site, ctx, &b);
        }
    }

    /// Occurrence-qualified, so per-iteration facts in unrolled loops stay
    /// distinct (the paper's `24₀` notation).
    fn on_eval(m: &mut DMachine<'_>, site: StmtId, ctx: CtxId, arg: &DValue) {
        if m.domain.cfg.collect_facts {
            m.domain.facts.record(FactKind::EvalArg, site, ctx, arg);
        }
    }

    fn on_loop_exit(m: &mut DMachine<'_>, site: StmtId, ctx: CtxId, trips: Option<u32>) {
        if m.domain.cfg.collect_facts {
            let trip = trips.map_or(TripFact::Unknown, TripFact::Exact);
            m.domain.facts.record_trip(site, ctx, trip);
        }
    }

    fn on_code_loaded(m: &mut DMachine<'_>) {
        m.domain.refresh_closure_writes(m.prog);
    }

    /// Injection point for native faults under the `fault-inject`
    /// feature.
    #[inline]
    fn on_native_call(m: &mut DMachine<'_>) -> Result<(), DErr> {
        #[cfg(feature = "fault-inject")]
        if let Some(fs) = m.domain.faults.as_mut() {
            fs.native_calls += 1;
            let n = fs.native_calls;
            if fs.plan.native_panic_at == Some(n) {
                panic!("injected native fault: panic at native call #{n}");
            }
            if fs.plan.native_error_at == Some(n) {
                return Err(m.throw_error("Error", "injected native failure"));
            }
        }
        let _ = m;
        Ok(())
    }

    /// "We perform a heap flush immediately upon entering an event
    /// handler."
    fn on_handler_entry(m: &mut DMachine<'_>) -> Result<(), DErr> {
        m.domain.stats.handlers_fired += 1;
        m.domain.flush_heap()
    }

    fn open_region(m: &mut DMachine<'_>) {
        m.domain.regions.push(m.domain.written.len());
    }

    /// Closes the innermost region, marking every written location
    /// indeterminate (rule ÎF1 with `d = ?`) when `mark` is set.
    fn close_region(m: &mut DMachine<'_>, frame: &mut DFrame, mark: bool) {
        end_region(m, frame, false, mark);
    }

    /// Rule ĈNTR: execute `blocks` under an undo log, roll back, and mark
    /// every written location indeterminate. Aborts (ĈNTRABORT) beyond
    /// depth `k`, on exceptions, on abrupt completions, on natives with
    /// unknown effects, or when the counterfactual step budget runs out.
    fn counterfactual(
        m: &mut DMachine<'_>,
        frame: &mut DFrame,
        blocks: &[&[Stmt]],
    ) -> Result<(), DErr> {
        if blocks.iter().all(|b| b.is_empty()) {
            return Ok(());
        }
        if !m.domain.cfg.counterfactual || m.domain.cf_depth >= m.domain.cfg.cf_depth_k {
            return Self::cntr_abort(m, frame, blocks);
        }
        // Injected ĈNTRABORT storm: every counterfactual takes the
        // abort-and-undo path, exercising log restoration under load.
        #[cfg(feature = "fault-inject")]
        if m.domain
            .faults
            .as_ref()
            .is_some_and(|f| f.plan.cf_abort_storm)
        {
            return Self::cntr_abort(m, frame, blocks);
        }
        m.domain.stats.counterfactuals += 1;
        let occ_snapshot = frame.occurrences.clone();
        // The RNG stream and clock are machine state too: hypothetical
        // execution must not consume them, or the real execution would
        // diverge from the concrete semantics on the same seed.
        let entropy = m.entropy();
        if m.domain.cf_depth == 0 {
            m.domain.cf_steps = 0;
        }
        m.domain.cf_depth += 1;
        m.domain.regions.push(m.domain.written.len());
        m.domain.cntrs.push(m.domain.undo.len());
        let mut outcome: Result<(), DErr> = Ok(());
        for b in blocks {
            match m.exec_block(frame, b) {
                Ok(Flow::Normal) => {}
                // Abrupt hypothetical control: we cannot follow the
                // hypothetical continuation, so abort conservatively.
                Ok(_) | Err(DErr::Thrown(..)) | Err(DErr::CfAbort) => {
                    outcome = Err(DErr::CfAbort);
                    break;
                }
                Err(e @ DErr::Stop(_)) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        m.domain.cf_depth -= 1;
        frame.occurrences = occ_snapshot;
        m.restore_entropy(entropy);
        // Undo every write in reverse order, then mark the restored
        // locations indeterminate — ĈNTR's `ρ̂′[vd(t̂) := ρ̂?]` /
        // `ĥ′[pd(t̂) := ĥ?]`.
        end_region(m, frame, true, true);
        match outcome {
            Ok(()) => Ok(()),
            Err(DErr::Stop(s)) => Err(DErr::Stop(s)),
            Err(_) => Self::cntr_abort(m, frame, blocks),
        }
    }

    /// The conservative ĈNTRABORT: flush the heap and mark the static
    /// write domain of the unexecuted code indeterminate. With `eval`
    /// inside, the whole visible scope chain is poisoned.
    fn cntr_abort(
        m: &mut DMachine<'_>,
        frame: &mut DFrame,
        blocks: &[&[Stmt]],
    ) -> Result<(), DErr> {
        m.domain.stats.cf_aborts += 1;
        m.domain.flush_heap()?;
        for block in blocks {
            let wd = mujs_ir::vd::write_domain(block);
            if wd.contains_eval {
                mark_scope_chain_indet(m, frame.scope);
            }
            for place in &wd.places {
                match place {
                    mujs_ir::Place::Temp(t) => {
                        if let Some(slot) = frame.temps.get_mut(t.0 as usize) {
                            slot.d = Det::I;
                        }
                    }
                    // The write domain canonicalizes slot-resolved places
                    // to names, so a scope walk covers both.
                    p => {
                        if let Some(name) = p.as_var_sym() {
                            mark_var_indet(m, frame.scope, name);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Closes the innermost region. When `undo` is set the region is the
/// innermost ĈNTR: its undo-log entries are undone in reverse first. When
/// `mark` is set, every location written in the region is then marked
/// indeterminate. Both logs keep the closed region's entries, which now
/// belong to the enclosing region (an inner ĈNTR's undo entries to the
/// enclosing ĈNTR), and each log is freed, buffer and all, when its last
/// region closes, so no log memory stays held between outermost regions.
/// Neither step logs, so the logs are taken out while they run.
fn end_region(m: &mut DMachine<'_>, frame: &mut DFrame, undo: bool, mark: bool) {
    if undo {
        let start = m.domain.cntrs.pop().expect("counterfactual open");
        let log = std::mem::take(&mut m.domain.undo);
        for e in log[start..].iter().rev() {
            undo_entry(m, e, frame);
        }
        if !m.domain.cntrs.is_empty() {
            m.domain.undo = log;
        }
    }
    let start = m.domain.regions.pop().expect("log region open");
    let written = std::mem::take(&mut m.domain.written);
    if mark {
        for w in &written[start..] {
            mark_written(m, w, frame);
        }
    }
    if !m.domain.regions.is_empty() {
        m.domain.written = written;
    }
}

/// Marks a written location indeterminate in the current state.
fn mark_written(m: &mut DMachine<'_>, w: &Written, frame: &mut DFrame) {
    match w {
        Written::Prop { obj, key } => match m.obj_mut(*obj).props.get_mut(*key) {
            Some(slot) => slot.ann.mark_indet(),
            // The property is now absent (deleted in the region, or the
            // undo removed it): other executions may have it, so the
            // record's contents are unknown.
            None => m.domain.extras[obj.0 as usize].forced_open = true,
        },
        Written::Var { scope, key } => {
            if let Some(slot) = m.binding_mut(*scope, *key) {
                slot.ann.mark_indet();
            }
        }
        Written::Temp { frame: fs, idx } => {
            if *fs == frame.serial {
                frame.temps[*idx as usize].d = Det::I;
            }
        }
    }
}

/// Restores the pre-region state for one entry.
fn undo_entry(m: &mut DMachine<'_>, e: &LogEntry, frame: &mut DFrame) {
    match e {
        LogEntry::Prop { obj, key, old } => {
            let props = &mut m.obj_mut(*obj).props;
            match old {
                Some(slot) => {
                    props.insert(*key, slot.clone());
                }
                None => {
                    props.remove(*key);
                }
            }
        }
        LogEntry::Var { scope, key, old } => {
            let s = m.scope_mut(*scope);
            match (key, old) {
                (VarKey::Slot(i), Some(slot)) => s.slots[*i as usize] = slot.clone(),
                // A static slot always exists, so its log entries always
                // carry the previous state.
                (VarKey::Slot(_), None) => {}
                (VarKey::Ext(name), Some(slot)) => {
                    s.ext.insert(*name, slot.clone());
                }
                (VarKey::Ext(name), None) => {
                    s.ext.remove(name);
                }
            }
        }
        LogEntry::Temp {
            frame: fs,
            idx,
            old,
        } => {
            if *fs == frame.serial {
                frame.temps[*idx as usize] = old.clone();
            }
        }
        LogEntry::Opened { obj, was } => {
            m.domain.extras[obj.0 as usize].forced_open = *was;
        }
    }
}

fn mark_var_indet(m: &mut DMachine<'_>, scope: Option<ScopeId>, name: Sym) {
    let g = m.global();
    let slot = match m.resolve(scope, name) {
        Some((sid, key)) => m.binding_mut(sid, key),
        None => m.obj_mut(g).props.get_mut(name),
    };
    if let Some(slot) = slot {
        slot.ann.mark_indet();
    }
}

fn mark_scope_chain_indet(m: &mut DMachine<'_>, scope: Option<ScopeId>) {
    let mut cur = scope;
    while let Some(sid) = cur {
        let s = m.scope_mut(sid);
        for slot in s.slots.iter_mut().chain(s.ext.values_mut()) {
            slot.ann.mark_indet();
        }
        cur = s.parent;
    }
}
