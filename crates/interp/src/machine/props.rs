//! Property operations: own-slot reads and writes, the prototype-chain
//! read (rule L̂D), the store (rule ŜTO) with array-length upkeep, `in`,
//! for-in enumeration, and the DOM property intercepts.

use super::{array_index, Machine};
use crate::domain::{AnnValue, Domain, Flag};
use crate::values::{ObjClass, ObjId, Slot, Value};
use mujs_ir::Sym;
use std::rc::Rc;

/// Prototype-chain walks give up after this many links (cycles cannot be
/// built through the supported API, but the walks stay total anyway).
const CHAIN_FUEL: u32 = 10_000;

impl<D: Domain> Machine<'_, D> {
    // ---------------------------------------------------------- own slots

    /// Reads an own property with its effective flag; an absent property
    /// reads as `undefined`, flagged by the record's openness.
    pub fn own_prop_s(&self, obj: ObjId, key: Sym) -> D::V {
        match self.obj(obj).props.get(key) {
            Some(s) => D::V::new(s.value.clone(), D::prop_flag(self, &s.ann)),
            None => D::V::new(Value::Undefined, D::absent_flag(self, obj)),
        }
    }

    /// [`Machine::own_prop_s`] by name. A never-interned name cannot be an
    /// existing key, so it reads as absent.
    pub fn own_prop(&self, obj: ObjId, key: &str) -> D::V {
        match self.prog.interner.get(key) {
            Some(k) => self.own_prop_s(obj, k),
            None => D::V::new(Value::Undefined, D::absent_flag(self, obj)),
        }
    }

    /// Whether the object has an own (live) property.
    pub fn has_own(&self, obj: ObjId, key: &str) -> bool {
        self.prog
            .interner
            .get(key)
            .is_some_and(|k| self.obj(obj).props.contains(k))
    }

    /// Writes an own property slot (no array/DOM magic).
    pub fn write_prop_s(&mut self, obj: ObjId, key: Sym, v: D::V) {
        let (value, d) = v.into_parts();
        let ann = D::ann(self, d);
        let old = self.obj_mut(obj).props.insert(key, Slot { value, ann });
        D::prop_written(self, obj, key, old);
    }

    /// [`Machine::write_prop_s`] by name, interning the key.
    pub fn write_prop(&mut self, obj: ObjId, key: &str, v: D::V) {
        let key = self.prog.interner.intern(key);
        self.write_prop_s(obj, key, v);
    }

    /// Deletes an own property.
    pub fn delete_prop_s(&mut self, obj: ObjId, key: Sym) {
        if let Some(old) = self.obj_mut(obj).props.remove(key) {
            D::prop_written(self, obj, key, Some(old));
        }
    }

    /// [`Machine::delete_prop_s`] by name.
    pub fn delete_prop(&mut self, obj: ObjId, key: &str) {
        if let Some(k) = self.prog.interner.get(key) {
            self.delete_prop_s(obj, k);
        }
    }

    // --------------------------------------------------------------- reads

    /// Full property read (rule L̂D generalized to primitives, the DOM and
    /// prototype chains); `kd` is the flag of the key.
    ///
    /// # Errors
    ///
    /// `TypeError` on `null`/`undefined` bases.
    pub fn get_prop(&mut self, base: &D::V, key: Sym, kd: D::Flag) -> Result<D::V, D::Err> {
        let base_d = base.d().join(kd);
        match base.v() {
            Value::Undefined | Value::Null => {
                let kname = self.prog.interner.resolve(key).to_owned();
                let msg = format!("cannot read property '{kname}' of {}", base.v().kind_str());
                Err(self.throw_error_ic("TypeError", &msg, base.d().is_indet()))
            }
            Value::Str(s) => {
                if key == Sym::LENGTH {
                    return Ok(D::V::new(Value::Num(s.chars().count() as f64), base_d));
                }
                if let Some(idx) = array_index(self.prog.interner.resolve(key)) {
                    let v = match s.chars().nth(idx as usize) {
                        Some(c) => Value::Str(Rc::from(c.to_string().as_str())),
                        None => Value::Undefined,
                    };
                    return Ok(D::V::new(v, base_d));
                }
                Ok(self.chain_lookup(self.protos.string, key, base_d))
            }
            Value::Num(_) => Ok(self.chain_lookup(self.protos.number, key, base_d)),
            Value::Bool(_) => Ok(self.chain_lookup(self.protos.boolean, key, base_d)),
            Value::Object(oid) => {
                let oid = *oid;
                if let Some(v) = self.dom_get_hook(oid, key) {
                    return Ok(v.weaken(base_d));
                }
                Ok(self.chain_lookup(oid, key, base_d))
            }
        }
    }

    fn chain_lookup(&self, start: ObjId, key: Sym, mut d: D::Flag) -> D::V {
        let mut cur = start;
        let mut fuel = CHAIN_FUEL;
        loop {
            let o = self.obj(cur);
            if let Some(s) = o.props.get(key) {
                return D::V::new(s.value.clone(), D::prop_flag(self, &s.ann)).weaken(d);
            }
            // An open record may have a shadowing own property in other
            // executions.
            d = d.join(D::absent_flag(self, cur));
            match o.proto {
                Some(p) if fuel > 0 => {
                    d = d.join(D::proto_flag(self, cur));
                    cur = p;
                    fuel -= 1;
                }
                _ => return D::V::new(Value::Undefined, d),
            }
        }
    }

    /// Whether `key` is on `obj`'s prototype chain, and the flag of that
    /// answer.
    pub(crate) fn has_prop(&self, mut obj: ObjId, key: Sym) -> (bool, D::Flag) {
        let mut d = D::Flag::DET;
        let mut fuel = CHAIN_FUEL;
        loop {
            let o = self.obj(obj);
            if let Some(s) = o.props.get(key) {
                return (true, d.join(D::prop_flag(self, &s.ann)));
            }
            d = d.join(D::absent_flag(self, obj));
            match o.proto {
                Some(p) if fuel > 0 => {
                    d = d.join(D::proto_flag(self, obj));
                    obj = p;
                    fuel -= 1;
                }
                _ => return (false, d),
            }
        }
    }

    /// Enumerable keys for `for-in` — own properties (minus hidden ones),
    /// then prototype-chain properties of non-builtin objects — and the
    /// flag of the key *set*, determinate only when every record on the
    /// chain is closed ("if the set of properties to iterate over is
    /// determinate, our analysis assumes that the iteration order is also
    /// determinate", §5.2).
    pub fn enum_props(&self, base: &D::V) -> (Vec<Sym>, D::Flag) {
        let mut d = base.d();
        let Value::Object(oid) = base.v() else {
            return (Vec::new(), d);
        };
        let mut out: Vec<Sym> = Vec::new();
        let mut seen: std::collections::HashSet<Sym> = std::collections::HashSet::new();
        let mut cur = Some(*oid);
        let mut fuel = CHAIN_FUEL;
        while let Some(id) = cur {
            let o = self.obj(id);
            if !o.builtin {
                d = d.join(D::absent_flag(self, id));
                for k in o.props.keys() {
                    if hidden_from_enum(&o.class, k) {
                        continue;
                    }
                    if seen.insert(k) {
                        out.push(k);
                    }
                }
            }
            d = d.join(D::proto_flag(self, id));
            cur = o.proto;
            fuel -= 1;
            if fuel == 0 {
                break;
            }
        }
        (out, d)
    }

    // -------------------------------------------------------------- writes

    /// Full property write (rule ŜTO generalized): array-length upkeep and
    /// DOM interception; an indeterminate key opens the record, an
    /// indeterminate base flushes the heap.
    ///
    /// # Errors
    ///
    /// `TypeError` on `null`/`undefined` bases. Writes to other primitives
    /// are silently ignored (sloppy-mode JS).
    pub fn set_prop(
        &mut self,
        base: &D::V,
        key: Sym,
        kd: D::Flag,
        val: D::V,
    ) -> Result<(), D::Err> {
        let oid = match base.v() {
            Value::Undefined | Value::Null => {
                let kname = self.prog.interner.resolve(key).to_owned();
                let msg = format!("cannot set property '{kname}' of {}", base.v().kind_str());
                return Err(self.throw_error_ic("TypeError", &msg, base.d().is_indet()));
            }
            Value::Object(oid) => *oid,
            _ => return Ok(()),
        };
        if self.dom_set_hook(oid, key, val.v()) {
            if base.d().is_indet() {
                D::flush(self)?;
            }
            return Ok(());
        }
        if self.obj(oid).class == ObjClass::Array {
            if key == Sym::LENGTH {
                self.array_set_length(oid, &val);
            } else {
                if let Some(idx) = array_index(self.prog.interner.resolve(key)) {
                    let len = self.own_prop_s(oid, Sym::LENGTH);
                    let cur = match len.v() {
                        Value::Num(n) => *n,
                        _ => 0.0,
                    };
                    if (idx as f64) >= cur {
                        let d = len.d().join(kd).join(val.d()).join(base.d());
                        self.write_prop_s(
                            oid,
                            Sym::LENGTH,
                            D::V::new(Value::Num(idx as f64 + 1.0), d),
                        );
                    }
                }
                self.write_prop_s(oid, key, val);
            }
        } else {
            self.write_prop_s(oid, key, val);
        }
        if kd.is_indet() {
            D::open_record(self, oid);
        }
        if base.d().is_indet() {
            D::flush(self)?;
        }
        Ok(())
    }

    fn array_set_length(&mut self, arr: ObjId, value: &D::V) {
        let new_len = crate::coerce::to_number(value.v())
            .unwrap_or(0.0)
            .max(0.0)
            .trunc();
        let old_len = match self.get_raw_s(arr, Sym::LENGTH) {
            Some(Value::Num(n)) => n,
            _ => 0.0,
        };
        if new_len < old_len {
            let doomed: Vec<Sym> = self
                .obj(arr)
                .props
                .keys()
                .filter(|&k| {
                    array_index(self.prog.interner.resolve(k))
                        .is_some_and(|i| (i as f64) >= new_len)
                })
                .collect();
            for k in doomed {
                self.delete_prop_s(arr, k);
            }
        }
        self.write_prop_s(arr, Sym::LENGTH, D::V::new(Value::Num(new_len), value.d()));
    }

    // ---------------------------------------------------------------- DOM

    /// Intercepted DOM property reads (`None` falls through to ordinary
    /// property lookup), flagged by the domain's DOM policy.
    fn dom_get_hook(&mut self, obj: ObjId, key: Sym) -> Option<D::V> {
        let v = match self.obj(obj).class {
            ObjClass::DomDocument => {
                let key = self.prog.interner.name(key).clone();
                let doc = self.doc.as_ref()?;
                match &*key {
                    "title" => Value::Str(Rc::from(doc.title.as_str())),
                    "body" => {
                        let b = doc.body();
                        Value::Object(self.element_obj(b))
                    }
                    "documentElement" => {
                        let r = doc.root();
                        Value::Object(self.element_obj(r))
                    }
                    _ => return None,
                }
            }
            ObjClass::DomElement(n) => {
                let key = self.prog.interner.name(key).clone();
                let doc = self.doc.as_ref()?;
                if !doc.contains(n) {
                    return None;
                }
                match &*key {
                    "tagName" => Value::Str(Rc::from(doc.node(n).tag.to_uppercase().as_str())),
                    "id" => Value::Str(Rc::from(doc.get_attribute(n, "id").unwrap_or(""))),
                    "className" => {
                        Value::Str(Rc::from(doc.get_attribute(n, "class").unwrap_or("")))
                    }
                    "innerHTML" => Value::Str(Rc::from(doc.node(n).text.as_str())),
                    "parentNode" => match doc.node(n).parent {
                        Some(p) => Value::Object(self.element_obj(p)),
                        None => Value::Null,
                    },
                    _ => return None,
                }
            }
            _ => return None,
        };
        Some(D::V::new(v, D::dom_flag(self)))
    }

    /// Intercepted DOM property writes; `true` if handled. Hypothetical
    /// execution must not mutate the DOM, and the intercept cannot abort,
    /// so there the write falls back to an ordinary expando.
    fn dom_set_hook(&mut self, obj: ObjId, key: Sym, value: &Value) -> bool {
        let ObjClass::DomElement(n) = self.obj(obj).class else {
            return false;
        };
        if D::hypothetical(self) {
            return false;
        }
        let key = self.prog.interner.name(key).clone();
        let Ok(s) = crate::coerce::to_string(value) else {
            return false;
        };
        let Some(doc) = self.doc.as_mut() else {
            return false;
        };
        match &*key {
            "id" => doc.set_attribute(n, "id", &s),
            "className" => doc.set_attribute(n, "class", &s),
            "innerHTML" => doc.node_mut(n).text = s.to_string(),
            _ => return false,
        }
        true
    }
}

/// Properties `for-in` skips (the role of non-enumerable descriptors).
fn hidden_from_enum(class: &ObjClass, key: Sym) -> bool {
    match class {
        ObjClass::Array => key == Sym::LENGTH,
        ObjClass::Function { .. } | ObjClass::Native(_) => {
            matches!(key, Sym::PROTOTYPE | Sym::LENGTH | Sym::NAME)
        }
        _ => false,
    }
}
