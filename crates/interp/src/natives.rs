//! The native table: `Math`, `Date`, `console`, global utilities, the
//! constructors, the `Object`/`Function`/`Array`/`String`/`Number`
//! prototype methods and indirect `eval`, each written once over any
//! annotation [`Domain`] (the DOM natives are in [`crate::dom_binding`]).
//!
//! Every native is a hand-written *model* in the sense of §4 of the paper
//! ("for some of them, we provide hand-written models that conservatively
//! approximate their effects on determinacy information"): it computes the
//! real function's concrete result and joins the flags of everything that
//! result depends on. In the concrete domain the flags are `()` and the
//! arithmetic compiles away. What only the instrumented domain does goes
//! through its hooks:
//!
//! * `Math.random`, `Date`, `Date.now` and `__indet` return
//!   [`Flag::INDET`] values: they are the indeterminacy sources;
//! * `console.log` and `alert` print only outside hypothetical execution
//!   ([`Domain::hypothetical`]);
//! * `push`, `pop` and `shift` on an indeterminate receiver flush the heap
//!   ([`Domain::flush`]);
//! * `hasOwnProperty` and `slice` see a record's openness
//!   ([`Domain::absent_flag`]);
//! * `__opaque(...)` models "calling a native function without a model":
//!   [`Domain::native_effect`] (counterfactual execution aborts), a heap
//!   flush, and an indeterminate result.

use crate::coerce;
use crate::context::CtxId;
use crate::domain::{AnnValue, Domain, Flag};
use crate::machine::Machine;
use crate::stdlib::{self, arg_num, norm_index};
use crate::values::{ObjClass, ObjId, Value};
use mujs_ir::Sym;
use std::rc::Rc;

/// Installs every global binding on a fresh machine. Allocation order is
/// part of the contract: object ids appear in fact exports.
pub(crate) fn install<D: Domain>(m: &mut Machine<'_, D>) {
    stdlib::install_prelude(m);
    let g = m.global();

    // ----- Date ---------------------------------------------------------
    let date = m.register_native("Date", g, |m, this, _| {
        // `new Date()`/`Date()`: an object carrying the current tick.
        let t = m.now();
        if let Value::Object(o) = *this.v() {
            m.write_prop(o, "_time", D::V::new(Value::Num(t), D::Flag::INDET));
        }
        Ok(this)
    });
    m.register_native("now", date, |m, _, _| {
        Ok(D::V::new(Value::Num(m.now()), D::Flag::INDET))
    });

    // ----- console / alert ------------------------------------------------
    let console = m.alloc(ObjClass::Plain, Some(m.protos.object));
    m.obj_mut(console).builtin = true;
    let log = m.register_native("log", console, |m, _, a| {
        if !D::hypothetical(m) {
            let parts: Vec<String> = a.iter().map(|v| m.display(v.v())).collect();
            m.output.push(parts.join(" "));
        }
        Ok(D::V::det(Value::Undefined))
    });
    m.set_raw(console, "error", Value::Object(log));
    m.set_raw(console, "warn", Value::Object(log));
    m.set_raw(g, "console", Value::Object(console));
    // `alert` exists even without a DOM (browsers always have it).
    m.register_native("alert", g, |m, _, a| {
        if !D::hypothetical(m) {
            let msg = match a.first() {
                Some(v) => m.display(v.v()),
                None => String::new(),
            };
            m.output.push(format!("alert: {msg}"));
        }
        Ok(D::V::det(Value::Undefined))
    });

    // ----- analysis test hooks ---------------------------------------------
    // `__indet(v)` is `v` marked indeterminate (a silent indeterminacy
    // source).
    m.register_native("__indet", g, |_, _, a| {
        let v = a.first().map_or(Value::Undefined, |v| v.v().clone());
        Ok(D::V::new(v, D::Flag::INDET))
    });
    m.register_native("__opaque", g, |m, _, _| {
        // "If counterfactual execution encounters a call to a native
        // function that is not known to be side effect-free, we
        // immediately abort" (§4).
        D::native_effect(m)?;
        D::flush(m)?;
        Ok(D::V::new(Value::Undefined, D::Flag::INDET))
    });

    // ----- global utilities -------------------------------------------------
    m.register_native("parseInt", g, |m, _, a| {
        let (s, sd) = m.arg_string(a, 0);
        let (radix, rd) = match a.get(1) {
            Some(v) => (coerce::to_number(v.v()).unwrap_or(10.0) as u32, v.d()),
            None => (10, D::Flag::DET),
        };
        Ok(D::V::new(
            Value::Num(stdlib::parse_int(&s, radix)),
            sd.join(rd),
        ))
    });
    m.register_native("parseFloat", g, |m, _, a| {
        let (s, d) = m.arg_string(a, 0);
        Ok(D::V::new(Value::Num(stdlib::parse_float(&s)), d))
    });
    m.register_native("isNaN", g, |_, _, a| {
        let (n, d) = arg_num(a, 0, f64::NAN);
        Ok(D::V::new(Value::Bool(n.is_nan()), d))
    });
    m.register_native("isFinite", g, |_, _, a| {
        let (n, d) = arg_num(a, 0, f64::NAN);
        Ok(D::V::new(Value::Bool(n.is_finite()), d))
    });

    // ----- constructors -------------------------------------------------------
    let object_ctor = m.register_native("Object", g, |m, _, a| match a.first() {
        Some(v) if matches!(v.v(), Value::Object(_)) => Ok(v.clone()),
        _ => {
            let o = m.alloc(ObjClass::Plain, Some(m.protos.object));
            Ok(D::V::det(Value::Object(o)))
        }
    });
    m.set_raw(object_ctor, "prototype", Value::Object(m.protos.object));
    m.specials.object_ctor = Some(object_ctor);

    let array_ctor = m.register_native("Array", g, |m, _, a| Ok(m.new_array(None, a)));
    m.set_raw(array_ctor, "prototype", Value::Object(m.protos.array));
    m.specials.array_ctor = Some(array_ctor);

    let string_ctor = m.register_native("String", g, |m, _, a| {
        let (s, d) = match a.first() {
            Some(v) => (m.value_to_string(v.v()), v.d()),
            None => (Rc::from(""), D::Flag::DET),
        };
        Ok(D::V::new(Value::Str(s), d))
    });
    m.set_raw(string_ctor, "prototype", Value::Object(m.protos.string));

    let number_ctor = m.register_native("Number", g, |_, _, a| {
        let (n, d) = arg_num(a, 0, 0.0);
        Ok(D::V::new(Value::Num(n), d))
    });
    m.set_raw(number_ctor, "prototype", Value::Object(m.protos.number));

    let boolean_ctor = m.register_native("Boolean", g, |_, _, a| {
        Ok(match a.first() {
            Some(v) => D::V::new(Value::Bool(coerce::to_boolean(v.v())), v.d()),
            None => D::V::det(Value::Bool(false)),
        })
    });
    m.set_raw(boolean_ctor, "prototype", Value::Object(m.protos.boolean));

    // `new Error(..)` is the machine's; this is `Error(..)` called on a
    // receiver.
    let error_ctor = m.register_native("Error", g, |m, this, a| {
        let msg = match a.first() {
            Some(v) => D::V::new(Value::Str(m.value_to_string(v.v())), v.d()),
            None => D::V::det(Value::Str(Rc::from(""))),
        };
        if let Value::Object(o) = *this.v() {
            m.write_prop(o, "message", msg);
            m.write_prop(o, "name", D::V::det(Value::Str(Rc::from("Error"))));
        }
        Ok(D::V::det(Value::Undefined))
    });
    m.set_raw(error_ctor, "prototype", Value::Object(m.protos.error));
    m.specials.error_ctor = Some(error_ctor);
    m.set_raw(m.protos.error, "name", Value::Str(Rc::from("Error")));
    m.set_raw(m.protos.error, "message", Value::Str(Rc::from("")));

    // ----- indirect eval ------------------------------------------------------
    let eval_fn = m.register_native("eval", g, |m, _, a| m.eval_indirect(a.first()));
    m.specials.eval_fn = Some(eval_fn);

    install_object_proto(m);
    install_function_proto(m);
    install_array_proto(m);
    install_string_proto(m);
    install_number_proto(m);
}

/// The `length` of an array-like object with its flag (0 when absent or
/// not a non-negative number).
fn array_len<D: Domain>(m: &Machine<'_, D>, arr: ObjId) -> (usize, D::Flag) {
    let len = m.own_prop_s(arr, Sym::LENGTH);
    match len.v() {
        Value::Num(n) if *n >= 0.0 => (*n as usize, len.d()),
        _ => (0, len.d()),
    }
}

/// `ToString` of the receiver with its flag.
fn this_string<D: Domain>(m: &Machine<'_, D>, this: &D::V) -> (Rc<str>, D::Flag) {
    (m.value_to_string(this.v()), this.d())
}

/// A string result flagged `d`.
fn str_val<V: AnnValue>(s: &str, d: V::Flag) -> V {
    V::new(Value::Str(Rc::from(s)), d)
}

fn install_object_proto<D: Domain>(m: &mut Machine<'_, D>) {
    let proto = m.protos.object;
    m.register_native("hasOwnProperty", proto, |m, this, a| {
        let Value::Object(o) = *this.v() else {
            return Ok(D::V::new(Value::Bool(false), this.d()));
        };
        let (key, kd) = m.arg_string(a, 0);
        // The own slot's flag; for an absent key, the record's openness
        // (other executions may have the property).
        let slot_d = m.own_prop(o, &key).d();
        Ok(D::V::new(
            Value::Bool(m.has_own(o, &key)),
            this.d().join(kd).join(slot_d),
        ))
    });
    m.register_native("toString", proto, |_, this, _| {
        Ok(str_val("[object Object]", this.d()))
    });
}

fn install_function_proto<D: Domain>(m: &mut Machine<'_, D>) {
    let proto = m.protos.function;
    m.register_native("call", proto, |m, this, a| {
        let bound = a
            .first()
            .cloned()
            .unwrap_or_else(|| D::V::det(Value::Undefined));
        let rest = a.get(1..).unwrap_or_default();
        m.call_value(&this, bound, rest, CtxId::ROOT)
    });
    m.register_native("apply", proto, |m, this, a| {
        let bound = a
            .first()
            .cloned()
            .unwrap_or_else(|| D::V::det(Value::Undefined));
        let mut argv = Vec::new();
        if let Some(arr_v) = a.get(1) {
            if let Value::Object(arr) = *arr_v.v() {
                let (len, ld) = array_len(m, arr);
                let d = arr_v.d().join(ld);
                argv = (0..len)
                    .map(|i| m.own_prop(arr, &i.to_string()).weaken(d))
                    .collect();
            }
        }
        m.call_value(&this, bound, &argv, CtxId::ROOT)
    });
}

fn install_array_proto<D: Domain>(m: &mut Machine<'_, D>) {
    let proto = m.protos.array;
    m.register_native("push", proto, |m, this, a| {
        let Value::Object(arr) = *this.v() else {
            return Ok(D::V::det(Value::Num(0.0)));
        };
        let (mut len, ld) = array_len(m, arr);
        for v in a {
            m.write_prop(arr, &len.to_string(), v.clone().weaken(this.d()));
            len += 1;
        }
        let d = this.d().join(ld);
        m.write_prop(arr, "length", D::V::new(Value::Num(len as f64), d));
        if this.d().is_indet() {
            D::flush(m)?;
        }
        Ok(D::V::new(Value::Num(len as f64), d))
    });
    m.register_native("pop", proto, |m, this, _| {
        let Value::Object(arr) = *this.v() else {
            return Ok(D::V::det(Value::Undefined));
        };
        let (len, ld) = array_len(m, arr);
        let d = this.d().join(ld);
        if len == 0 {
            return Ok(D::V::new(Value::Undefined, d));
        }
        let key = (len - 1).to_string();
        let v = m.own_prop(arr, &key);
        m.delete_prop(arr, &key);
        m.write_prop(arr, "length", D::V::new(Value::Num(len as f64 - 1.0), d));
        if this.d().is_indet() {
            D::flush(m)?;
        }
        Ok(v.weaken(d))
    });
    m.register_native("join", proto, |m, this, a| {
        let Value::Object(arr) = *this.v() else {
            return Ok(str_val("", this.d()));
        };
        let (sep, sd) = match a.first() {
            Some(v) => (m.value_to_string(v.v()).to_string(), v.d()),
            None => (",".to_owned(), D::Flag::DET),
        };
        let (len, ld) = array_len(m, arr);
        let mut d = this.d().join(sd).join(ld);
        let mut parts = Vec::with_capacity(len);
        for i in 0..len {
            let e = m.own_prop(arr, &i.to_string());
            d = d.join(e.d());
            parts.push(match e.v() {
                Value::Undefined | Value::Null => String::new(),
                v => m.value_to_string(v).to_string(),
            });
        }
        Ok(str_val(&parts.join(&sep), d))
    });
    m.register_native("indexOf", proto, |m, this, a| {
        let Value::Object(arr) = *this.v() else {
            return Ok(D::V::det(Value::Num(-1.0)));
        };
        let needle = a
            .first()
            .cloned()
            .unwrap_or_else(|| D::V::det(Value::Undefined));
        let (len, ld) = array_len(m, arr);
        let mut d = this.d().join(ld).join(needle.d());
        for i in 0..len {
            let e = m.own_prop(arr, &i.to_string());
            d = d.join(e.d());
            if coerce::strict_eq(e.v(), needle.v()) {
                return Ok(D::V::new(Value::Num(i as f64), d));
            }
        }
        Ok(D::V::new(Value::Num(-1.0), d))
    });
    m.register_native("slice", proto, |m, this, a| {
        let Value::Object(arr) = *this.v() else {
            return Ok(D::V::det(Value::Undefined));
        };
        let (len, ld) = array_len(m, arr);
        let (s, sd) = arg_num(a, 0, 0.0);
        let (e, ed) = arg_num(a, 1, len as f64);
        let d = this.d().join(ld).join(sd).join(ed);
        let out = m.alloc(ObjClass::Array, Some(m.protos.array));
        let end = norm_index(e, len as f64);
        let mut i = norm_index(s, len as f64);
        let mut n = 0usize;
        let mut unknown_hole = false;
        while i < end {
            let key = (i as usize).to_string();
            if m.has_own(arr, &key) {
                let e = m.own_prop(arr, &key);
                m.write_prop(out, &n.to_string(), e.weaken(d));
            } else {
                // A hole stays a hole; other executions may have an
                // element there.
                unknown_hole |= d.join(D::absent_flag(m, arr)).is_indet();
            }
            n += 1;
            i += 1.0;
        }
        if unknown_hole {
            D::open_record(m, out);
        }
        m.write_prop(out, "length", D::V::new(Value::Num(n as f64), d));
        Ok(D::V::new(Value::Object(out), d))
    });
    m.register_native("concat", proto, |m, this, a| {
        let out = m.alloc(ObjClass::Array, Some(m.protos.array));
        let mut n = 0usize;
        let mut d = D::Flag::DET;
        for v in std::iter::once(&this).chain(a) {
            d = d.join(v.d());
            match *v.v() {
                Value::Object(src) if m.obj(src).class == ObjClass::Array => {
                    let (len, ld) = array_len(m, src);
                    d = d.join(ld);
                    for i in 0..len {
                        let e = m.own_prop(src, &i.to_string());
                        d = d.join(e.d());
                        m.write_prop(out, &n.to_string(), e);
                        n += 1;
                    }
                }
                _ => {
                    m.write_prop(out, &n.to_string(), v.clone());
                    n += 1;
                }
            }
        }
        m.write_prop(out, "length", D::V::new(Value::Num(n as f64), d));
        Ok(D::V::new(Value::Object(out), d))
    });
    m.register_native("shift", proto, |m, this, _| {
        let Value::Object(arr) = *this.v() else {
            return Ok(D::V::det(Value::Undefined));
        };
        let (len, ld) = array_len(m, arr);
        let d = this.d().join(ld);
        if len == 0 {
            return Ok(D::V::new(Value::Undefined, d));
        }
        let first = m.own_prop(arr, "0");
        for i in 1..len {
            let e = m.own_prop(arr, &i.to_string());
            m.write_prop(arr, &(i - 1).to_string(), e);
        }
        m.delete_prop(arr, &(len - 1).to_string());
        m.write_prop(arr, "length", D::V::new(Value::Num(len as f64 - 1.0), d));
        if this.d().is_indet() {
            D::flush(m)?;
        }
        Ok(first.weaken(d))
    });
    m.register_native("toString", proto, |m, this, _| {
        // Rendering reads every element; approximate the join with the
        // receiver's flag plus the length slot.
        let d = match *this.v() {
            Value::Object(arr) => this.d().join(array_len(m, arr).1),
            _ => this.d(),
        };
        Ok(str_val(&m.display(this.v()), d))
    });
}

fn install_string_proto<D: Domain>(m: &mut Machine<'_, D>) {
    let proto = m.protos.string;
    m.register_native("charAt", proto, |m, this, a| {
        let (s, sd) = this_string(m, &this);
        let (i, id) = arg_num(a, 0, 0.0);
        Ok(str_val(&stdlib::char_at(&s, i), sd.join(id)))
    });
    m.register_native("charCodeAt", proto, |m, this, a| {
        let (s, sd) = this_string(m, &this);
        let (i, id) = arg_num(a, 0, 0.0);
        Ok(D::V::new(
            Value::Num(stdlib::char_code_at(&s, i)),
            sd.join(id),
        ))
    });
    m.register_native("indexOf", proto, |m, this, a| {
        let (s, sd) = this_string(m, &this);
        let (needle, nd) = m.arg_string(a, 0);
        Ok(D::V::new(
            Value::Num(stdlib::index_of(&s, &needle)),
            sd.join(nd),
        ))
    });
    m.register_native("lastIndexOf", proto, |m, this, a| {
        let (s, sd) = this_string(m, &this);
        let (needle, nd) = m.arg_string(a, 0);
        Ok(D::V::new(
            Value::Num(stdlib::last_index_of(&s, &needle)),
            sd.join(nd),
        ))
    });
    m.register_native("substr", proto, |m, this, a| {
        let (s, sd) = this_string(m, &this);
        let (start, d1) = arg_num(a, 0, 0.0);
        let (len, d2) = arg_num(a, 1, f64::INFINITY);
        Ok(str_val(
            &stdlib::substr(&s, start, len),
            sd.join(d1).join(d2),
        ))
    });
    m.register_native("substring", proto, |m, this, a| {
        let (s, sd) = this_string(m, &this);
        let (start, d1) = arg_num(a, 0, 0.0);
        let (end, d2) = arg_num(a, 1, f64::INFINITY);
        Ok(str_val(
            &stdlib::substring(&s, start, end),
            sd.join(d1).join(d2),
        ))
    });
    m.register_native("slice", proto, |m, this, a| {
        let (s, sd) = this_string(m, &this);
        let (start, d1) = arg_num(a, 0, 0.0);
        let (end, d2) = arg_num(a, 1, f64::INFINITY);
        Ok(str_val(
            &stdlib::str_slice(&s, start, end),
            sd.join(d1).join(d2),
        ))
    });
    m.register_native("toUpperCase", proto, |m, this, _| {
        let (s, sd) = this_string(m, &this);
        Ok(str_val(&s.to_uppercase(), sd))
    });
    m.register_native("toLowerCase", proto, |m, this, _| {
        let (s, sd) = this_string(m, &this);
        Ok(str_val(&s.to_lowercase(), sd))
    });
    m.register_native("trim", proto, |m, this, _| {
        let (s, sd) = this_string(m, &this);
        Ok(str_val(s.trim(), sd))
    });
    m.register_native("concat", proto, |m, this, a| {
        let (s, mut d) = this_string(m, &this);
        let mut out = s.to_string();
        for v in a {
            d = d.join(v.d());
            out.push_str(&m.value_to_string(v.v()));
        }
        Ok(str_val(&out, d))
    });
    m.register_native("split", proto, |m, this, a| {
        let (s, sd) = this_string(m, &this);
        let (parts, d) = match a.first() {
            Some(v) => match v.v() {
                Value::Str(sep) => (stdlib::split(&s, sep), sd.join(v.d())),
                _ => (vec![s.to_string()], sd),
            },
            None => (vec![s.to_string()], sd),
        };
        let arr = m.alloc(ObjClass::Array, Some(m.protos.array));
        m.write_prop(arr, "length", D::V::new(Value::Num(parts.len() as f64), d));
        for (i, p) in parts.iter().enumerate() {
            m.write_prop(arr, &i.to_string(), str_val(p, d));
        }
        Ok(D::V::new(Value::Object(arr), d))
    });
    m.register_native("replace", proto, |m, this, a| {
        let (s, sd) = this_string(m, &this);
        let (pat, pd) = m.arg_string(a, 0);
        let (rep, rd) = m.arg_string(a, 1);
        Ok(str_val(
            &stdlib::replace_first(&s, &pat, &rep),
            sd.join(pd).join(rd),
        ))
    });
    m.register_native("toString", proto, |m, this, _| {
        let (s, sd) = this_string(m, &this);
        Ok(D::V::new(Value::Str(s), sd))
    });
}

fn install_number_proto<D: Domain>(m: &mut Machine<'_, D>) {
    let to_string = m.register_native("toString", m.protos.number, |m, this, _| {
        let (s, d) = this_string(m, &this);
        Ok(D::V::new(Value::Str(s), d))
    });
    m.set_raw(m.protos.boolean, "toString", Value::Object(to_string));
}
