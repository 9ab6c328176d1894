//! Places and scopes: the scope arena with slot addressing, variable and
//! temp reads and writes, definitions, and calling contexts.

use super::{Frame, Machine};
use crate::context::CtxId;
use crate::domain::{AnnValue, Domain, Flag, Observation, VarKey};
use crate::values::{ScopeId, Slot, Value};
use mujs_ir::ir::{Place, PropKey};
use mujs_ir::{FuncId, StmtId, Sym, TempId};
use std::collections::HashMap;

/// A lexical scope with annotated bindings: slot-addressed locals for
/// function activations plus by-name overflow (`ext`) for catch bindings
/// and anything `eval` hoists outside the static layout. A name lives in
/// at most one of the two. `parent == None` means the global object
/// terminates the chain.
#[derive(Debug, Clone)]
pub struct Scope<A> {
    /// The function whose activation this scope belongs to (catch scopes
    /// inherit their frame's).
    pub owner: FuncId,
    /// Whether this is a function activation carrying the static slot
    /// layout of `owner` (catch scopes are ext-only).
    pub activation: bool,
    /// Locals indexed by the owner's [`mujs_ir::Function::locals`] layout.
    pub slots: Vec<Slot<A>>,
    /// Bindings outside the static layout.
    pub ext: HashMap<Sym, Slot<A>>,
    /// The enclosing scope.
    pub parent: Option<ScopeId>,
    /// Nearest enclosing activation (catch scopes are transparent to slot
    /// addressing); slot coordinates with `hops ≥ 1` climb this chain.
    pub fn_parent: Option<ScopeId>,
    /// Set when a closure captures this scope: captured scopes can be
    /// written by callees.
    pub captured: bool,
}

impl<D: Domain> Machine<'_, D> {
    /// Borrows a scope.
    pub fn scope(&self, sid: ScopeId) -> &Scope<D::Ann> {
        &self.scopes[sid.0 as usize]
    }

    /// Mutably borrows a scope (bypasses the domain's write hooks).
    pub fn scope_mut(&mut self, sid: ScopeId) -> &mut Scope<D::Ann> {
        &mut self.scopes[sid.0 as usize]
    }

    /// Creates an ext-only scope (catch blocks).
    pub(crate) fn new_scope(&mut self, parent: Option<ScopeId>, owner: FuncId) -> ScopeId {
        self.push_scope(owner, false, Vec::new(), parent)
    }

    /// Creates a function activation whose slot vector follows the
    /// function's static `locals` layout, every slot a determinate
    /// `undefined` — the binding state a declaration of `undefined` makes.
    pub(crate) fn new_activation(&mut self, func: FuncId, parent: Option<ScopeId>) -> ScopeId {
        let n = self.prog.func(func).locals.len();
        let init = self.var_slot(D::V::det(Value::Undefined));
        self.push_scope(func, true, vec![init; n], parent)
    }

    fn push_scope(
        &mut self,
        owner: FuncId,
        activation: bool,
        slots: Vec<Slot<D::Ann>>,
        parent: Option<ScopeId>,
    ) -> ScopeId {
        let id = ScopeId(self.scopes.len() as u32);
        let fn_parent = self.nearest_activation(parent);
        self.scopes.push(Scope {
            owner,
            activation,
            slots,
            ext: HashMap::new(),
            parent,
            fn_parent,
            captured: false,
        });
        id
    }

    /// The nearest activation scope at or above `from`.
    fn nearest_activation(&self, from: Option<ScopeId>) -> Option<ScopeId> {
        let mut cur = from;
        while let Some(sid) = cur {
            let s = self.scope(sid);
            if s.activation {
                return Some(sid);
            }
            cur = s.parent;
        }
        None
    }

    /// Position of `name` in the scope's static slot layout, if any.
    fn slot_index(&self, sid: ScopeId, name: Sym) -> Option<u32> {
        let s = self.scope(sid);
        if !s.activation {
            return None;
        }
        self.prog.func(s.owner).local_slot(name)
    }

    /// The scope and place binding `name` along the chain from `scope`;
    /// `None` when only the global object can hold it.
    pub fn resolve(&self, scope: Option<ScopeId>, name: Sym) -> Option<(ScopeId, VarKey)> {
        let mut cur = scope;
        while let Some(sid) = cur {
            if let Some(i) = self.slot_index(sid, name) {
                return Some((sid, VarKey::Slot(i)));
            }
            let s = self.scope(sid);
            if s.ext.contains_key(&name) {
                return Some((sid, VarKey::Ext(name)));
            }
            cur = s.parent;
        }
        None
    }

    /// The binding at a resolved place, if live.
    pub fn binding_mut(&mut self, sid: ScopeId, key: VarKey) -> Option<&mut Slot<D::Ann>> {
        let s = self.scope_mut(sid);
        match key {
            VarKey::Slot(i) => s.slots.get_mut(i as usize),
            VarKey::Ext(name) => s.ext.get_mut(&name),
        }
    }

    /// The activation scope `hops` function levels above the frame's own.
    fn hop_scope(&self, frame: &Frame<D::V>, hops: u32) -> Option<ScopeId> {
        let mut sid = frame.activation?;
        for _ in 0..hops {
            sid = self.scope(sid).fn_parent?;
        }
        Some(sid)
    }

    /// Marks every scope from `scope` outward as captured.
    pub(crate) fn mark_captured(&mut self, scope: Option<ScopeId>) {
        let mut cur = scope;
        while let Some(sid) = cur {
            let s = self.scope_mut(sid);
            if s.captured {
                break;
            }
            s.captured = true;
            cur = s.parent;
        }
    }

    /// Reads a slot-resolved binding (already located; no name walk).
    fn read_slot(&self, sid: ScopeId, idx: u32, name: Sym) -> D::V {
        let s = &self.scope(sid).slots[idx as usize];
        D::V::new(s.value.clone(), D::var_flag(self, sid, name, &s.ann))
    }

    /// A scope binding holding `v`.
    fn var_slot(&self, v: D::V) -> Slot<D::Ann> {
        let (value, d) = v.into_parts();
        Slot {
            ann: D::ann(self, d),
            value,
        }
    }

    /// Writes a slot-resolved binding.
    fn write_slot(&mut self, sid: ScopeId, idx: u32, v: D::V) {
        let slot = self.var_slot(v);
        let old = std::mem::replace(&mut self.scope_mut(sid).slots[idx as usize], slot);
        D::var_written(self, sid, VarKey::Slot(idx), Some(old));
    }

    /// Declares a binding (not a logged write: declarations happen at
    /// activation entry, outside conditional regions). Reuses the static
    /// slot when the name has one, so a name lives in exactly one place
    /// per scope.
    pub(crate) fn declare(&mut self, scope: Option<ScopeId>, name: Sym, v: D::V) {
        match scope {
            Some(sid) => {
                let slot = self.var_slot(v);
                match self.slot_index(sid, name) {
                    Some(i) => self.scope_mut(sid).slots[i as usize] = slot,
                    None => {
                        self.scope_mut(sid).ext.insert(name, slot);
                    }
                }
            }
            None => self.write_prop_s(self.global, name, v),
        }
    }

    /// Declares a binding that `eval` hoists, possibly inside a logged
    /// region. The name is unbound — it just failed a full lookup, which
    /// also covers every static slot — so it always lands in the scope's
    /// ext map (or on the global).
    pub(crate) fn declare_hoisted(&mut self, scope: Option<ScopeId>, name: Sym, v: D::V) {
        match scope {
            Some(sid) => self.write_ext(sid, name, v),
            None => self.write_prop_s(self.global, name, v),
        }
    }

    /// Writes (or creates) an ext binding.
    fn write_ext(&mut self, sid: ScopeId, name: Sym, v: D::V) {
        let slot = self.var_slot(v);
        let old = self.scope_mut(sid).ext.insert(name, slot);
        D::var_written(self, sid, VarKey::Ext(name), old);
    }

    /// Reads a variable through the scope chain; `None` if unbound.
    pub(crate) fn lookup(&self, scope: Option<ScopeId>, name: Sym) -> Option<D::V> {
        let mut cur = scope;
        while let Some(sid) = cur {
            if let Some(i) = self.slot_index(sid, name) {
                return Some(self.read_slot(sid, i, name));
            }
            let s = self.scope(sid);
            if let Some(b) = s.ext.get(&name) {
                let d = D::var_flag(self, sid, name, &b.ann);
                return Some(D::V::new(b.value.clone(), d));
            }
            cur = s.parent;
        }
        let b = self.obj(self.global).props.get(name)?;
        Some(D::V::new(b.value.clone(), D::prop_flag(self, &b.ann)))
    }

    /// Assigns a variable through the scope chain; creates a global when
    /// the name is unbound anywhere (sloppy-mode JS).
    pub(crate) fn assign(&mut self, scope: Option<ScopeId>, name: Sym, v: D::V) {
        match self.resolve(scope, name) {
            Some((sid, VarKey::Slot(i))) => self.write_slot(sid, i, v),
            Some((sid, VarKey::Ext(_))) => self.write_ext(sid, name, v),
            None => self.write_prop_s(self.global, name, v),
        }
    }

    // ------------------------------------------------------------- places

    fn ref_error(&mut self, name: Sym) -> D::Err {
        let name = self.prog.interner.resolve(name).to_owned();
        // Other executions may have created the global (known only while
        // the global record is closed).
        let ic = D::absent_flag(self, self.global).is_indet();
        self.throw_error_ic("ReferenceError", &format!("{name} is not defined"), ic)
    }

    /// Reads a place.
    pub(crate) fn read_place(
        &mut self,
        frame: &Frame<D::V>,
        place: &Place,
    ) -> Result<D::V, D::Err> {
        match place {
            Place::Temp(TempId(i)) => Ok(frame.temps[*i as usize].clone()),
            Place::Named(name) => match self.lookup(frame.scope, *name) {
                Some(v) => Ok(v),
                None => Err(self.ref_error(*name)),
            },
            Place::Slot { hops, slot, sym } => match self.hop_scope(frame, *hops) {
                Some(sid) => Ok(self.read_slot(sid, *slot, *sym)),
                // Defensive: code running without an activation (shouldn't
                // happen for slot-resolved bodies) falls back to by-name.
                None => match self.lookup(frame.scope, *sym) {
                    Some(v) => Ok(v),
                    None => Err(self.ref_error(*sym)),
                },
            },
        }
    }

    /// Writes a place.
    pub(crate) fn write_place(&mut self, frame: &mut Frame<D::V>, place: &Place, v: D::V) {
        match place {
            Place::Temp(TempId(i)) => {
                let old = std::mem::replace(&mut frame.temps[*i as usize], v);
                D::temp_written(self, frame.serial, *i, old);
            }
            Place::Named(name) => self.assign(frame.scope, *name, v),
            Place::Slot { hops, slot, sym } => match self.hop_scope(frame, *hops) {
                Some(sid) => self.write_slot(sid, *slot, v),
                None => self.assign(frame.scope, *sym, v),
            },
        }
    }

    /// Statement `point` writes `v` into `dst`.
    pub(crate) fn define(&mut self, frame: &mut Frame<D::V>, point: StmtId, dst: &Place, v: D::V) {
        D::on_define(self, frame.ctx, point, &v);
        if self.limits.record_observations
            && self.observations.len() < self.limits.max_observations
            && !D::hypothetical(self)
        {
            self.observations.push(Observation {
                point,
                ctx: frame.ctx,
                value: v.clone(),
            });
        }
        self.write_place(frame, dst, v);
    }

    /// The interned key of a property access and its flag.
    pub(crate) fn key_of(
        &mut self,
        frame: &Frame<D::V>,
        key: &PropKey,
    ) -> Result<(Sym, D::Flag), D::Err> {
        match key {
            PropKey::Static(name) => Ok((*name, D::Flag::DET)),
            PropKey::Dynamic(p) => {
                let kv = self.read_place(frame, p)?;
                Ok((self.intern_key(&kv)?, kv.d()))
            }
        }
    }

    /// Interns the property key a value names: a string as it is, an
    /// array index (an integer in `0..2^32`) through
    /// [`mujs_ir::Interner::intern_index`] without formatting a `String`,
    /// and anything else through `ToString`. Each path interns exactly
    /// the string `ToString` produces.
    pub(crate) fn intern_key(&mut self, kv: &D::V) -> Result<Sym, D::Err> {
        Ok(match kv.v() {
            Value::Str(s) => self.prog.interner.intern_rc(s),
            Value::Num(n) if (0.0..4_294_967_296.0).contains(n) && n.fract() == 0.0 => {
                self.prog.interner.intern_index(*n as usize)
            }
            v => {
                let s =
                    crate::coerce::to_string(v).map_err(|_| self.coerce_err(kv.d().is_indet()))?;
                self.prog.interner.intern_rc(&s)
            }
        })
    }

    // ------------------------------------------------------------- frames

    /// A fresh activation record.
    pub fn fresh_frame(
        &mut self,
        func: FuncId,
        scope: Option<ScopeId>,
        activation: Option<ScopeId>,
        this_val: D::V,
        ctx: CtxId,
    ) -> Frame<D::V> {
        let serial = self.next_frame_serial;
        self.next_frame_serial += 1;
        let n_temps = self.prog.func(func).n_temps as usize;
        Frame {
            func,
            scope,
            activation,
            temps: vec![D::V::det(Value::Undefined); n_temps],
            this_val,
            ctx,
            occurrences: vec![0; self.prog.stmt_count_of(func) as usize],
            serial,
        }
    }

    /// Allocates this activation's next occurrence of `site` and interns
    /// the child context.
    pub fn enter_site(&mut self, frame: &mut Frame<D::V>, site: StmtId) -> CtxId {
        let local = self.prog.local_of(site) as usize;
        if local >= frame.occurrences.len() {
            // The function grew after this frame was created (possible only
            // through exotic re-entrancy); keep counting correctly.
            frame.occurrences.resize(local + 1, 0);
        }
        let this_occ = frame.occurrences[local];
        frame.occurrences[local] += 1;
        self.ctxs.child(frame.ctx, site, this_occ)
    }
}
