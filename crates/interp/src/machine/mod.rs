//! The one µJS machine: a big-step interpreter over the structured IR,
//! generic over an annotation [`Domain`]. The concrete interpreter
//! ([`crate::Interp`]) and the instrumented determinacy machine (the
//! `determinacy` crate's `DMachine`) are its two instantiations.
//!
//! The machine owns the heap, the scope arena, frames, calling contexts,
//! the step count, poll cadence and deadline (each domain's `poll` hook
//! checks its own cancellation source), and every statement rule. It is
//! split by concern:
//!
//! * this module — state, construction, raw heap access, errors, output;
//! * `scope` — places and scopes: the scope arena, slot addressing,
//!   variable and temp reads/writes, definitions, calling contexts;
//! * `props` — property reads, writes and deletes, array-length upkeep,
//!   `in`, for-in enumeration;
//! * `stmt` — statements: the rule for every `StmtKind`, including the
//!   if/loop/try rules;
//! * `calls` — calls, construction, closures, direct and indirect
//!   `eval`, and the entry script.
//!
//! Exceptions and stops propagate through `Result<_, D::Err>`; the other
//! abrupt completions travel in [`crate::domain::Flow`].

mod calls;
mod props;
mod scope;
mod stmt;

pub use scope::Scope;

use crate::context::ContextTable;
use crate::domain::{AnnValue, Domain, Flag, Limits, Observation};
use crate::values::{NativeId, ObjClass, ObjId, Object, ScopeId, Value};
use mujs_dom::document::{Document, NodeId};
use mujs_dom::events::EventRegistry;
use mujs_ir::{FuncId, Program, Sym};
use mujs_syntax::ast::Lit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::rc::Rc;

/// Byte budget for one [`Machine::display`] rendering. Real output is far
/// below it; the cap only bounds pathological arrays.
const DISPLAY_BYTE_CAP: usize = 1 << 16;

/// How deep calls may nest: a call (or `eval` chunk) past this many
/// active levels throws `RangeError` instead of recursing further, so
/// unbounded JS recursion ends as an exception, not a native stack
/// overflow. Every machine shares the rule, so the instrumented machine
/// throws exactly where the concrete one does.
///
/// Sized for a thread with [`mujs_syntax::PARSER_STACK_BYTES`] of stack
/// in a debug build. Measured native stack per level of the instrumented
/// machine (x86_64, rustc 1.95): 15.7 KB for plain recursion and up to
/// 31 KB for a constructor or a call inside an indeterminate branch in a
/// debug build (6–12 MiB at the bound), 1.5–2.5 KB in a release build
/// (under 1 MiB, so a release 2 MiB thread is enough for these shapes).
/// Each further enclosing statement around the recursive call adds to
/// a level: a call inside `for`, `try` and `if` costs 59 KB in debug,
/// more than 16 MiB holds at the bound, and 4 KB in release.
pub const MAX_CALL_DEPTH: u32 = 400;

/// An activation record.
#[derive(Debug)]
pub struct Frame<V = Value> {
    /// The function being executed.
    pub func: FuncId,
    /// Scope for named lookups (`None` ⇒ global object only).
    pub scope: Option<ScopeId>,
    /// The frame's own activation scope — the base of slot addressing.
    /// Stays fixed while `scope` moves through catch scopes.
    pub activation: Option<ScopeId>,
    /// Temporary slots.
    pub temps: Vec<V>,
    /// The `this` binding.
    pub this_val: V,
    /// Calling context of this activation.
    pub ctx: crate::context::CtxId,
    /// Per-site dynamic occurrence counters within this activation,
    /// indexed by the statement's dense per-function index.
    pub occurrences: Vec<u32>,
    /// Unique id of the activation (names its temps in write logs).
    pub serial: u64,
}

/// Built-in prototype objects.
#[derive(Debug, Clone, Copy)]
pub struct Protos {
    /// `Object.prototype`
    pub object: ObjId,
    /// `Function.prototype`
    pub function: ObjId,
    /// `Array.prototype`
    pub array: ObjId,
    /// `String.prototype`
    pub string: ObjId,
    /// `Number.prototype`
    pub number: ObjId,
    /// `Boolean.prototype`
    pub boolean: ObjId,
    /// `Error.prototype`
    pub error: ObjId,
}

/// Well-known constructor objects needing special `new` behavior.
#[derive(Debug, Clone, Copy, Default)]
pub struct Specials {
    /// `Array`
    pub array_ctor: Option<ObjId>,
    /// `Error`
    pub error_ctor: Option<ObjId>,
    /// `Object`
    pub object_ctor: Option<ObjId>,
    /// the `eval` function value (for indirect calls)
    pub eval_fn: Option<ObjId>,
}

/// Signature of built-in functions (one table, generic over the domain:
/// [`crate::natives`], [`crate::dom_binding`]).
pub type NativeFn<D> = fn(
    &mut Machine<'_, D>,
    <D as Domain>::V,
    &[<D as Domain>::V],
) -> Result<<D as Domain>::V, <D as Domain>::Err>;

/// The µJS machine over annotation domain `D`.
///
/// The domain's state is the public [`Machine::domain`] field; the machine
/// also dereferences to it, so domain state reads like machine state
/// (`m.facts`, `m.stats` on the instrumented machine).
pub struct Machine<'p, D: Domain> {
    /// The program (mutable: `eval` appends lowered chunks).
    pub prog: &'p mut Program,
    heap: Vec<Object<D::Ann>>,
    scopes: Vec<Scope<D::Ann>>,
    global: ObjId,
    /// Built-in prototypes.
    pub protos: Protos,
    /// Well-known constructors.
    pub specials: Specials,
    natives: Vec<(&'static str, NativeFn<D>)>,
    /// The emulated document, if DOM bindings are installed.
    pub doc: Option<Document>,
    /// Registered event handlers (closure object ids).
    pub events: EventRegistry<ObjId>,
    dom_nodes: HashMap<NodeId, ObjId>,
    /// The `document` object, once the DOM is installed.
    pub dom_document_obj: Option<ObjId>,
    /// The prototype of element wrappers, once the DOM is installed.
    pub dom_element_proto: Option<ObjId>,
    rng: StdRng,
    now: f64,
    steps: u64,
    limits: Limits,
    /// Wall-clock stop point derived from [`Limits::deadline_ms`].
    deadline: Option<std::time::Instant>,
    next_frame_serial: u64,
    /// Active call and `eval` chunk levels (see [`MAX_CALL_DEPTH`]).
    call_depth: u32,
    /// Captured `console.log`/`alert` output.
    pub output: Vec<String>,
    /// Interned calling contexts.
    pub ctxs: ContextTable,
    /// Recorded observations (real execution only, when enabled).
    pub observations: Vec<Observation<D::V>>,
    /// The domain's own state.
    pub domain: D,
}

impl<D: Domain> std::ops::Deref for Machine<'_, D> {
    type Target = D;
    fn deref(&self) -> &D {
        &self.domain
    }
}

impl<D: Domain> std::ops::DerefMut for Machine<'_, D> {
    fn deref_mut(&mut self) -> &mut D {
        &mut self.domain
    }
}

impl<'p, D: Domain> Machine<'p, D> {
    /// Creates a machine over `prog` and installs the standard library.
    pub fn new(prog: &'p mut Program, cfg: D::Config) -> Self {
        let (domain, mut limits) = D::init(cfg);
        limits.poll_interval = limits.poll_interval.max(1);
        // The base objects take the first heap ids, in field order, with
        // the global last.
        let object = ObjId(0);
        let protos = Protos {
            object,
            function: ObjId(1),
            array: ObjId(2),
            string: ObjId(3),
            number: ObjId(4),
            boolean: ObjId(5),
            error: ObjId(6),
        };
        let mut m = Machine {
            prog,
            heap: Vec::new(),
            scopes: Vec::new(),
            global: ObjId(7),
            protos,
            specials: Specials::default(),
            natives: Vec::new(),
            doc: None,
            events: EventRegistry::new(),
            dom_nodes: HashMap::new(),
            dom_document_obj: None,
            dom_element_proto: None,
            rng: StdRng::seed_from_u64(limits.seed),
            now: 1.6e12,
            steps: 0,
            deadline: limits
                .deadline_ms
                .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms)),
            limits,
            next_frame_serial: 0,
            call_depth: 0,
            output: Vec::new(),
            ctxs: ContextTable::new(),
            observations: Vec::new(),
            domain,
        };
        m.alloc(ObjClass::Plain, None);
        while m.heap.len() <= m.global.0 as usize {
            m.alloc(ObjClass::Plain, Some(object));
        }
        D::setup(&mut m, true);
        crate::natives::install(&mut m);
        D::setup(&mut m, false);
        D::on_code_loaded(&mut m);
        m
    }

    // ------------------------------------------------------------ plumbing

    /// The global (`window`) object.
    pub fn global(&self) -> ObjId {
        self.global
    }

    /// Number of statements executed so far (counterfactual ones included).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether the wall-clock deadline has elapsed.
    pub fn deadline_passed(&self) -> bool {
        self.deadline
            .is_some_and(|dl| std::time::Instant::now() >= dl)
    }

    /// Allocates a heap object with a determinate prototype link.
    pub fn alloc(&mut self, class: ObjClass, proto: Option<ObjId>) -> ObjId {
        self.alloc_with(class, proto, D::Flag::DET)
    }

    /// Allocates a heap object whose prototype link has flag `proto_flag`.
    pub fn alloc_with(
        &mut self,
        class: ObjClass,
        proto: Option<ObjId>,
        proto_flag: D::Flag,
    ) -> ObjId {
        let id = ObjId(self.heap.len() as u32);
        self.heap.push(Object::new(class, proto));
        D::on_alloc(self, id, proto_flag);
        id
    }

    /// Borrows an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid heap address.
    pub fn obj(&self, id: ObjId) -> &Object<D::Ann> {
        &self.heap[id.0 as usize]
    }

    /// Mutably borrows an object (bypasses the domain's write hooks).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid heap address.
    pub fn obj_mut(&mut self, id: ObjId) -> &mut Object<D::Ann> {
        &mut self.heap[id.0 as usize]
    }

    /// Registers a native function, wraps it in a callable object and
    /// installs that as `holder.name`.
    pub fn register_native(&mut self, name: &'static str, holder: ObjId, f: NativeFn<D>) -> ObjId {
        let nid = NativeId(self.natives.len() as u32);
        self.natives.push((name, f));
        let obj = self.alloc(ObjClass::Native(nid), Some(self.protos.function));
        self.obj_mut(obj).builtin = true;
        self.set_raw(holder, name, Value::Object(obj));
        obj
    }

    /// Sets `obj.name = value` (determinate, no array/DOM magic); used
    /// while building the standard library.
    pub fn set_raw(&mut self, obj: ObjId, name: &str, value: Value) {
        let key = self.prog.interner.intern(name);
        self.set_raw_s(obj, key, value);
    }

    /// [`Machine::set_raw`] with a pre-interned key.
    pub fn set_raw_s(&mut self, obj: ObjId, key: Sym, value: Value) {
        self.write_prop_s(obj, key, D::V::det(value));
    }

    /// Reads `obj.name` directly (own properties only).
    pub fn get_raw(&self, obj: ObjId, name: &str) -> Option<Value> {
        // An un-interned name cannot be a key of any property table.
        let key = self.prog.interner.get(name)?;
        self.get_raw_s(obj, key)
    }

    /// [`Machine::get_raw`] with a pre-interned key.
    pub fn get_raw_s(&self, obj: ObjId, key: Sym) -> Option<Value> {
        self.obj(obj).props.get(key).map(|s| s.value.clone())
    }

    /// Throws a fresh error object with the given message.
    pub fn throw_error(&mut self, kind: &str, msg: &str) -> D::Err {
        self.throw_error_ic(kind, msg, false)
    }

    /// [`Machine::throw_error`] whose throw is control-dependent on
    /// indeterminate data when `indet_ctl` is set (other executions may
    /// not throw).
    pub fn throw_error_ic(&mut self, kind: &str, msg: &str, indet_ctl: bool) -> D::Err {
        let e = self.alloc(ObjClass::Plain, Some(self.protos.error));
        self.set_raw_s(e, Sym::NAME, Value::Str(Rc::from(kind)));
        self.set_raw_s(e, Sym::MESSAGE, Value::Str(Rc::from(msg)));
        D::thrown(D::V::det(Value::Object(e)), indet_ctl)
    }

    /// `TypeError` for a failed primitive conversion.
    pub(crate) fn coerce_err(&mut self, indet: bool) -> D::Err {
        self.throw_error_ic("TypeError", "cannot convert object to primitive", indet)
    }

    /// Draws from the seeded RNG (`Math.random`).
    pub fn random(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Monotonic clock for `Date.now` (advances each call; draws from the
    /// same stream as [`Machine::random`]).
    pub fn now(&mut self) -> f64 {
        self.now += 1.0 + self.rng.gen::<f64>() * 10.0;
        self.now
    }

    /// The RNG stream and clock — machine state that hypothetical
    /// execution must not consume.
    pub fn entropy(&self) -> (StdRng, f64) {
        (self.rng.clone(), self.now)
    }

    /// Restores a state taken with [`Machine::entropy`].
    pub fn restore_entropy(&mut self, (rng, now): (StdRng, f64)) {
        self.rng = rng;
        self.now = now;
    }

    // ------------------------------------------------------------- output

    /// Renders a value for `console.log`/`alert` capture. Rendering streams
    /// into one buffer and stops at a fixed byte cap.
    pub fn display(&self, v: &Value) -> String {
        let mut out = String::new();
        self.display_into(&mut out, v);
        out
    }

    fn display_into(&self, out: &mut String, v: &Value) {
        match v {
            Value::Str(s) => out.push_str(s),
            Value::Object(id) => match &self.obj(*id).class {
                ObjClass::Array => {
                    let len = match self.get_raw_s(*id, Sym::LENGTH) {
                        Some(Value::Num(n)) => n as usize,
                        _ => 0,
                    };
                    for i in 0..len.min(100) {
                        if i > 0 {
                            out.push(',');
                        }
                        if out.len() > DISPLAY_BYTE_CAP {
                            return;
                        }
                        if let Some(item) = self.get_raw(*id, &i.to_string()) {
                            self.display_into(out, &item);
                        }
                    }
                }
                c if c.is_callable() => out.push_str("function"),
                _ => out.push_str("[object Object]"),
            },
            other => match crate::coerce::to_string(other) {
                Ok(s) => out.push_str(&s),
                Err(_) => out.push_str("[object]"),
            },
        }
    }

    /// `ToString` that renders objects as `"[object Object]"` (explicit
    /// stringification contexts like `String(x)` and `Array.join` allow
    /// this even though implicit coercion of objects is an error).
    pub fn value_to_string(&self, v: &Value) -> Rc<str> {
        match v {
            Value::Object(id) => match &self.obj(*id).class {
                ObjClass::Array => Rc::from(self.display(v).as_str()),
                c if c.is_callable() => Rc::from("function"),
                _ => Rc::from("[object Object]"),
            },
            _ => crate::coerce::to_string(v).expect("non-object"),
        }
    }

    /// [`Machine::value_to_string`] of argument `i` with its annotation;
    /// `"undefined"` (determinate) when the argument is absent.
    pub fn arg_string(&self, args: &[D::V], i: usize) -> (Rc<str>, D::Flag) {
        match args.get(i) {
            Some(v) => (self.value_to_string(v.v()), v.d()),
            None => (Rc::from("undefined"), D::Flag::DET),
        }
    }

    /// `typeof` for callables (the primitive operator cannot see classes).
    pub(crate) fn typeof_override(&self, v: &Value) -> Option<&'static str> {
        match v {
            Value::Object(id) if self.obj(*id).class.is_callable() => Some("function"),
            _ => None,
        }
    }

    // ---------------------------------------------------------------- DOM

    /// The JS wrapper object for a DOM node (cached, one per node).
    pub fn element_obj(&mut self, node: NodeId) -> ObjId {
        if let Some(&o) = self.dom_nodes.get(&node) {
            return o;
        }
        let proto = self.dom_element_proto;
        let o = self.alloc(ObjClass::DomElement(node), proto);
        self.dom_nodes.insert(node, o);
        o
    }
}

/// Converts an AST literal to a runtime value.
pub fn lit_value(lit: &Lit) -> Value {
    match lit {
        Lit::Num(n) => Value::Num(*n),
        Lit::Str(s) => Value::Str(s.clone()),
        Lit::Bool(b) => Value::Bool(*b),
        Lit::Null => Value::Null,
        Lit::Undefined => Value::Undefined,
    }
}

/// Whether `key` is a canonical array index: decimal digits only, no
/// sign, whitespace or leading zero (so `"+1"`, `" 1"` and `"01"` are
/// ordinary property names).
pub fn array_index(key: &str) -> Option<u32> {
    if key.is_empty()
        || (key.len() > 1 && key.starts_with('0'))
        || !key.bytes().all(|b| b.is_ascii_digit())
    {
        return None;
    }
    key.parse::<u32>().ok()
}
