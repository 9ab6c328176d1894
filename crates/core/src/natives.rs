//! The instrumented native table: hand-written *models* (§4). Each
//! standard-library function is reimplemented to compute the same concrete
//! result as the concrete table in `mujs_interp::natives` while
//! propagating determinacy conservatively. Natives stay one table per
//! domain, both typed over the one generic machine; they share its
//! `Array`/`Error` construction, indirect `eval` and `ToString`
//! rendering, and the pure helpers of [`mujs_interp::stdlib`].
//!
//! Two testing/benchmarking natives exercise the paper's escape hatches:
//! `__indet(v)` returns `v` marked indeterminate (a silent indeterminacy
//! source), and `__opaque(...)` models "calling a native function without
//! a model": indeterminate result plus a heap flush, and an abort when
//! reached counterfactually.

use crate::det::{DValue, Det};
use crate::machine::{DErr, DMachine, DNativeFn};
use mujs_interp::coerce;
use mujs_interp::context::CtxId;
use mujs_interp::stdlib::{self, arg_num};
use mujs_interp::AnnValue;
use mujs_interp::{ObjClass, ObjId, Value};
use std::rc::Rc;

/// Installs every global binding and model on a fresh machine.
pub fn install_models(m: &mut DMachine<'_>) {
    // `Math.random` is the canonical indeterminate input (§2.1).
    stdlib::install_prelude(m, |m, _, _| Ok(DValue::indet(Value::Num(m.random()))));
    let g = m.global();

    // ----- Date ------------------------------------------------------------
    let date = m.register_native("Date", |m, this, _| {
        let t = m.now();
        if let Value::Object(o) = &this.v {
            m.write_prop(*o, "_time", DValue::indet(Value::Num(t)));
        }
        Ok(this)
    });
    let now = m.register_native("now", |m, _, _| Ok(DValue::indet(Value::Num(m.now()))));
    m.set_raw(date, "now", Value::Object(now));
    m.set_raw(g, "Date", Value::Object(date));

    // ----- console / alert --------------------------------------------------
    let console = m.alloc(ObjClass::Plain, Some(m.protos.object));
    m.obj_mut(console).builtin = true;
    let log = m.register_native("log", |m, _, a| {
        if !m.in_counterfactual() {
            let parts: Vec<String> = a.iter().map(|v| m.display(&v.v)).collect();
            m.output.push(parts.join(" "));
        }
        Ok(DValue::undef())
    });
    m.set_raw(console, "log", Value::Object(log));
    m.set_raw(console, "error", Value::Object(log));
    m.set_raw(console, "warn", Value::Object(log));
    m.set_raw(g, "console", Value::Object(console));
    let alert = m.register_native("alert", |m, _, a| {
        if !m.in_counterfactual() {
            let msg = match a.first() {
                Some(v) => m.display(&v.v),
                None => String::new(),
            };
            m.output.push(format!("alert: {msg}"));
        }
        Ok(DValue::undef())
    });
    m.set_raw(g, "alert", Value::Object(alert));

    // ----- analysis test hooks ----------------------------------------------
    let indet = m.register_native("__indet", |_, _, a| {
        Ok(DValue::indet(
            a.first().map(|v| v.v.clone()).unwrap_or(Value::Undefined),
        ))
    });
    m.set_raw(g, "__indet", Value::Object(indet));
    let opaque = m.register_native("__opaque", |m, _, _| {
        if m.in_counterfactual() {
            // "If counterfactual execution encounters a call to a native
            // function that is not known to be side effect-free, we
            // immediately abort" (§4).
            return Err(DErr::CfAbort);
        }
        m.flush_heap()?;
        Ok(DValue::indet(Value::Undefined))
    });
    m.set_raw(g, "__opaque", Value::Object(opaque));

    // ----- global utilities ---------------------------------------------------
    let defs: &[(&'static str, DNativeFn)] = &[
        ("parseInt", |m, _, a| {
            let s = m.arg_string(a, 0);
            let (radix, rd) = match a.get(1) {
                Some(v) => (coerce::to_number(&v.v).unwrap_or(10.0) as u32, v.d),
                None => (10, Det::D),
            };
            Ok(DValue::new(
                Value::Num(stdlib::parse_int(&s.0, radix)),
                s.1.join(rd),
            ))
        }),
        ("parseFloat", |m, _, a| {
            let s = m.arg_string(a, 0);
            Ok(DValue::new(Value::Num(stdlib::parse_float(&s.0)), s.1))
        }),
        ("isNaN", |_, _, a| {
            let (n, d) = arg_num(a, 0, f64::NAN);
            Ok(DValue::new(Value::Bool(n.is_nan()), d))
        }),
        ("isFinite", |_, _, a| {
            let (n, d) = arg_num(a, 0, f64::NAN);
            Ok(DValue::new(Value::Bool(n.is_finite()), d))
        }),
    ];
    for (name, f) in defs {
        let n = m.register_native(name, *f);
        m.set_raw(g, name, Value::Object(n));
    }

    // ----- constructors ---------------------------------------------------------
    let object_ctor = m.register_native("Object", |m, _, a| match a.first() {
        Some(DValue {
            v: Value::Object(o),
            d,
        }) => Ok(DValue::new(Value::Object(*o), *d)),
        _ => {
            let o = m.alloc(ObjClass::Plain, Some(m.protos.object));
            Ok(DValue::det(Value::Object(o)))
        }
    });
    m.set_raw(object_ctor, "prototype", Value::Object(m.protos.object));
    m.set_raw(g, "Object", Value::Object(object_ctor));
    m.specials.object_ctor = Some(object_ctor);

    let array_ctor = m.register_native("Array", |m, _, a| Ok(m.new_array(None, a)));
    m.set_raw(array_ctor, "prototype", Value::Object(m.protos.array));
    m.set_raw(g, "Array", Value::Object(array_ctor));
    m.specials.array_ctor = Some(array_ctor);

    let string_ctor = m.register_native("String", |m, _, a| {
        let (s, d) = m.arg_string(a, 0);
        Ok(DValue::new(Value::Str(s), d))
    });
    m.set_raw(string_ctor, "prototype", Value::Object(m.protos.string));
    m.set_raw(g, "String", Value::Object(string_ctor));

    let number_ctor = m.register_native("Number", |_, _, a| {
        let (n, d) = arg_num(a, 0, 0.0);
        Ok(DValue::new(Value::Num(n), d))
    });
    m.set_raw(number_ctor, "prototype", Value::Object(m.protos.number));
    m.set_raw(g, "Number", Value::Object(number_ctor));

    let boolean_ctor = m.register_native("Boolean", |_, _, a| {
        let d = a.first().map(|v| v.d).unwrap_or(Det::D);
        Ok(DValue::new(
            Value::Bool(a.first().map(|v| coerce::to_boolean(&v.v)).unwrap_or(false)),
            d,
        ))
    });
    m.set_raw(boolean_ctor, "prototype", Value::Object(m.protos.boolean));
    m.set_raw(g, "Boolean", Value::Object(boolean_ctor));

    let error_ctor = m.register_native("Error", |m, this, a| {
        let (msg, d) = match a.first() {
            Some(v) => {
                let s = m.value_to_string(&v.v);
                (s, v.d)
            }
            None => (Rc::from(""), Det::D),
        };
        if let Value::Object(o) = &this.v {
            m.write_prop(*o, "message", DValue::new(Value::Str(msg), d));
            m.write_prop(*o, "name", DValue::det(Value::Str(Rc::from("Error"))));
        }
        Ok(DValue::undef())
    });
    m.set_raw(error_ctor, "prototype", Value::Object(m.protos.error));
    m.set_raw(g, "Error", Value::Object(error_ctor));
    m.specials.error_ctor = Some(error_ctor);
    m.set_raw(m.protos.error, "name", Value::Str(Rc::from("Error")));
    m.set_raw(m.protos.error, "message", Value::Str(Rc::from("")));

    // ----- indirect eval ----------------------------------------------------------
    let eval_fn = m.register_native("eval", |m, _, a| m.eval_indirect(a.first()));
    m.set_raw(g, "eval", Value::Object(eval_fn));
    m.specials.eval_fn = Some(eval_fn);

    install_protos(m);
}

fn array_len_d(m: &DMachine<'_>, arr: ObjId) -> (usize, Det) {
    let s = m.own_prop(arr, "length");
    match s.v {
        Value::Num(n) if n >= 0.0 => (n as usize, s.d),
        _ => (0, s.d),
    }
}

fn this_string(m: &DMachine<'_>, this: &DValue) -> (Rc<str>, Det) {
    (m.value_to_string(&this.v), this.d)
}

fn install_protos(m: &mut DMachine<'_>) {
    // Object.prototype -------------------------------------------------------
    let defs: &[(&'static str, DNativeFn)] = &[
        ("hasOwnProperty", |m, this, a| {
            let Value::Object(o) = this.v else {
                return Ok(DValue::new(Value::Bool(false), this.d));
            };
            let (key, kd) = m.arg_string(a, 0);
            let has = m.has_own(o, &key);
            // Absence on an open record is unknowable.
            let openness = if !has && m.is_open(o) { Det::I } else { Det::D };
            let slot_d = if has { m.own_prop(o, &key).d } else { Det::D };
            Ok(DValue::new(
                Value::Bool(has),
                this.d.join(kd).join(openness).join(slot_d),
            ))
        }),
        ("toString", |_, this, _| {
            Ok(DValue::new(Value::Str(Rc::from("[object Object]")), this.d))
        }),
    ];
    for (name, f) in defs {
        let n = m.register_native(name, *f);
        m.set_raw(m.protos.object, name, Value::Object(n));
    }

    // Function.prototype -----------------------------------------------------
    let call = m.register_native("call", |m, this, a| {
        let bound = a.first().cloned().unwrap_or(DValue::undef());
        let rest = if a.is_empty() { &[] } else { &a[1..] };
        m.call_value(&this, bound, rest, CtxId::ROOT)
    });
    m.set_raw(m.protos.function, "call", Value::Object(call));
    let apply = m.register_native("apply", |m, this, a| {
        let bound = a.first().cloned().unwrap_or(DValue::undef());
        let mut argv = Vec::new();
        let mut extra = Det::D;
        if let Some(arr_dv) = a.get(1) {
            extra = arr_dv.d;
            if let Value::Object(arr) = arr_dv.v {
                let (len, ld) = array_len_d(m, arr);
                extra = extra.join(ld);
                for i in 0..len {
                    argv.push(m.own_prop(arr, &i.to_string()));
                }
            }
        }
        for v in &mut argv {
            v.d = v.d.join(extra);
        }
        m.call_value(&this, bound, &argv, CtxId::ROOT)
    });
    m.set_raw(m.protos.function, "apply", Value::Object(apply));

    // Array.prototype ---------------------------------------------------------
    let defs: &[(&'static str, DNativeFn)] = &[
        ("push", |m, this, a| {
            let Value::Object(arr) = this.v else {
                return Ok(DValue::det(Value::Num(0.0)));
            };
            let (mut len, ld) = array_len_d(m, arr);
            for v in a {
                m.write_prop(arr, &len.to_string(), v.clone().weaken(this.d));
                len += 1;
            }
            let d = this.d.join(ld);
            m.write_prop(arr, "length", DValue::new(Value::Num(len as f64), d));
            if this.d == Det::I {
                m.flush_heap()?;
            }
            Ok(DValue::new(Value::Num(len as f64), d))
        }),
        ("pop", |m, this, _| {
            let Value::Object(arr) = this.v else {
                return Ok(DValue::undef());
            };
            let (len, ld) = array_len_d(m, arr);
            if len == 0 {
                return Ok(DValue::new(Value::Undefined, this.d.join(ld)));
            }
            let key = (len - 1).to_string();
            let v = m.own_prop(arr, &key);
            m.delete_prop(arr, &key);
            m.write_prop(
                arr,
                "length",
                DValue::new(Value::Num(len as f64 - 1.0), this.d.join(ld)),
            );
            if this.d == Det::I {
                m.flush_heap()?;
            }
            Ok(v.weaken(this.d.join(ld)))
        }),
        ("join", |m, this, a| {
            let Value::Object(arr) = this.v else {
                return Ok(DValue::new(Value::Str(Rc::from("")), this.d));
            };
            let (sep, sd) = match a.first() {
                Some(v) => {
                    let s = m.value_to_string(&v.v);
                    (s.to_string(), v.d)
                }
                None => (",".to_owned(), Det::D),
            };
            let (len, ld) = array_len_d(m, arr);
            let mut d = this.d.join(sd).join(ld);
            let mut parts = Vec::with_capacity(len);
            for i in 0..len {
                let e = m.own_prop(arr, &i.to_string());
                d = d.join(e.d);
                parts.push(match e.v {
                    Value::Undefined | Value::Null => String::new(),
                    v => m.value_to_string(&v).to_string(),
                });
            }
            Ok(DValue::new(
                Value::Str(Rc::from(parts.join(&sep).as_str())),
                d,
            ))
        }),
        ("indexOf", |m, this, a| {
            let Value::Object(arr) = this.v else {
                return Ok(DValue::det(Value::Num(-1.0)));
            };
            let needle = a.first().cloned().unwrap_or(DValue::undef());
            let (len, ld) = array_len_d(m, arr);
            let mut d = this.d.join(ld).join(needle.d);
            for i in 0..len {
                let e = m.own_prop(arr, &i.to_string());
                d = d.join(e.d);
                if coerce::strict_eq(&e.v, &needle.v) {
                    return Ok(DValue::new(Value::Num(i as f64), d));
                }
            }
            Ok(DValue::new(Value::Num(-1.0), d))
        }),
        ("slice", |m, this, a| {
            let Value::Object(arr) = this.v else {
                return Ok(DValue::undef());
            };
            let (len, ld) = array_len_d(m, arr);
            let (s, sd) = arg_num(a, 0, 0.0);
            let (e, ed) = arg_num(a, 1, len as f64);
            let base_d = this.d.join(ld).join(sd).join(ed);
            let norm = |x: f64| {
                if x.is_nan() {
                    0.0
                } else if x < 0.0 {
                    (len as f64 + x).max(0.0)
                } else {
                    x.min(len as f64)
                }
            };
            let out = m.alloc(ObjClass::Array, Some(m.protos.array));
            let mut n = 0usize;
            let mut i = norm(s);
            let end = norm(e);
            while i < end {
                let e = m.own_prop(arr, &(i as usize).to_string());
                m.write_prop(out, &n.to_string(), e.weaken(base_d));
                n += 1;
                i += 1.0;
            }
            m.write_prop(out, "length", DValue::new(Value::Num(n as f64), base_d));
            Ok(DValue::new(Value::Object(out), base_d))
        }),
        ("concat", |m, this, a| {
            let out = m.alloc(ObjClass::Array, Some(m.protos.array));
            let mut n = 0usize;
            let mut d = this.d;
            let push_all = |m: &mut DMachine<'_>, v: &DValue, n: &mut usize, d: &mut Det| {
                *d = d.join(v.d);
                match &v.v {
                    Value::Object(src) if m.obj(*src).class == ObjClass::Array => {
                        let (len, ld) = array_len_d(m, *src);
                        *d = d.join(ld);
                        for i in 0..len {
                            let e = m.own_prop(*src, &i.to_string());
                            *d = d.join(e.d);
                            m.write_prop(out, &n.to_string(), e);
                            *n += 1;
                        }
                    }
                    _ => {
                        m.write_prop(out, &n.to_string(), v.clone());
                        *n += 1;
                    }
                }
            };
            push_all(m, &this, &mut n, &mut d);
            for v in a {
                push_all(m, v, &mut n, &mut d);
            }
            m.write_prop(out, "length", DValue::new(Value::Num(n as f64), d));
            Ok(DValue::new(Value::Object(out), d))
        }),
        ("shift", |m, this, _| {
            let Value::Object(arr) = this.v else {
                return Ok(DValue::undef());
            };
            let (len, ld) = array_len_d(m, arr);
            let d = this.d.join(ld);
            if len == 0 {
                return Ok(DValue::new(Value::Undefined, d));
            }
            let first = m.own_prop(arr, "0");
            for i in 1..len {
                let e = m.own_prop(arr, &i.to_string());
                m.write_prop(arr, &(i - 1).to_string(), e);
            }
            m.delete_prop(arr, &(len - 1).to_string());
            m.write_prop(arr, "length", DValue::new(Value::Num(len as f64 - 1.0), d));
            if this.d == Det::I {
                m.flush_heap()?;
            }
            Ok(first.weaken(d))
        }),
        ("toString", |m, this, _| {
            let s = m.display(&this.v);
            // Rendering reads every element; approximate the join with
            // the receiver's flag plus the length slot.
            let d = match this.v {
                Value::Object(arr) => this.d.join(array_len_d(m, arr).1),
                _ => this.d,
            };
            Ok(DValue::new(Value::Str(Rc::from(s.as_str())), d))
        }),
    ];
    for (name, f) in defs {
        let n = m.register_native(name, *f);
        m.set_raw(m.protos.array, name, Value::Object(n));
    }

    // String.prototype -----------------------------------------------------------
    let defs: &[(&'static str, DNativeFn)] = &[
        ("charAt", |m, this, a| {
            let (s, sd) = this_string(m, &this);
            let (i, id) = arg_num(a, 0, 0.0);
            Ok(DValue::new(
                Value::Str(Rc::from(stdlib::char_at(&s, i).as_str())),
                sd.join(id),
            ))
        }),
        ("charCodeAt", |m, this, a| {
            let (s, sd) = this_string(m, &this);
            let (i, id) = arg_num(a, 0, 0.0);
            Ok(DValue::new(
                Value::Num(stdlib::char_code_at(&s, i)),
                sd.join(id),
            ))
        }),
        ("indexOf", |m, this, a| {
            let (s, sd) = this_string(m, &this);
            let (needle, nd) = m.arg_string(a, 0);
            Ok(DValue::new(
                Value::Num(stdlib::index_of(&s, &needle)),
                sd.join(nd),
            ))
        }),
        ("lastIndexOf", |m, this, a| {
            let (s, sd) = this_string(m, &this);
            let (needle, nd) = m.arg_string(a, 0);
            Ok(DValue::new(
                Value::Num(stdlib::last_index_of(&s, &needle)),
                sd.join(nd),
            ))
        }),
        ("substr", |m, this, a| {
            let (s, sd) = this_string(m, &this);
            let (start, d1) = arg_num(a, 0, 0.0);
            let (len, d2) = arg_num(a, 1, f64::INFINITY);
            Ok(DValue::new(
                Value::Str(Rc::from(stdlib::substr(&s, start, len).as_str())),
                sd.join(d1).join(d2),
            ))
        }),
        ("substring", |m, this, a| {
            let (s, sd) = this_string(m, &this);
            let (start, d1) = arg_num(a, 0, 0.0);
            let (end, d2) = arg_num(a, 1, f64::INFINITY);
            Ok(DValue::new(
                Value::Str(Rc::from(stdlib::substring(&s, start, end).as_str())),
                sd.join(d1).join(d2),
            ))
        }),
        ("slice", |m, this, a| {
            let (s, sd) = this_string(m, &this);
            let (start, d1) = arg_num(a, 0, 0.0);
            let (end, d2) = arg_num(a, 1, f64::INFINITY);
            Ok(DValue::new(
                Value::Str(Rc::from(stdlib::str_slice(&s, start, end).as_str())),
                sd.join(d1).join(d2),
            ))
        }),
        ("toUpperCase", |m, this, _| {
            let (s, sd) = this_string(m, &this);
            Ok(DValue::new(
                Value::Str(Rc::from(s.to_uppercase().as_str())),
                sd,
            ))
        }),
        ("toLowerCase", |m, this, _| {
            let (s, sd) = this_string(m, &this);
            Ok(DValue::new(
                Value::Str(Rc::from(s.to_lowercase().as_str())),
                sd,
            ))
        }),
        ("trim", |m, this, _| {
            let (s, sd) = this_string(m, &this);
            Ok(DValue::new(Value::Str(Rc::from(s.trim())), sd))
        }),
        ("concat", |m, this, a| {
            let (s, mut d) = this_string(m, &this);
            let mut out = s.to_string();
            for v in a {
                d = d.join(v.d);
                out.push_str(&m.value_to_string(&v.v));
            }
            Ok(DValue::new(Value::Str(Rc::from(out.as_str())), d))
        }),
        ("split", |m, this, a| {
            let (s, sd) = this_string(m, &this);
            let (parts, d) = match a.first() {
                Some(DValue {
                    v: Value::Str(sep),
                    d,
                }) => (stdlib::split(&s, sep), sd.join(*d)),
                _ => (vec![s.to_string()], sd),
            };
            let arr = m.alloc(ObjClass::Array, Some(m.protos.array));
            m.write_prop(
                arr,
                "length",
                DValue::new(Value::Num(parts.len() as f64), d),
            );
            for (i, p) in parts.iter().enumerate() {
                m.write_prop(
                    arr,
                    &i.to_string(),
                    DValue::new(Value::Str(Rc::from(p.as_str())), d),
                );
            }
            Ok(DValue::new(Value::Object(arr), d))
        }),
        ("replace", |m, this, a| {
            let (s, sd) = this_string(m, &this);
            let (pat, pd) = m.arg_string(a, 0);
            let (rep, rd) = m.arg_string(a, 1);
            Ok(DValue::new(
                Value::Str(Rc::from(stdlib::replace_first(&s, &pat, &rep).as_str())),
                sd.join(pd).join(rd),
            ))
        }),
        ("toString", |m, this, _| {
            let (s, sd) = this_string(m, &this);
            Ok(DValue::new(Value::Str(s), sd))
        }),
    ];
    for (name, f) in defs {
        let n = m.register_native(name, *f);
        m.set_raw(m.protos.string, name, Value::Object(n));
    }

    // Number/Boolean.prototype ------------------------------------------------------
    let to_string = m.register_native("toString", |m, this, _| {
        let s = m.value_to_string(&this.v);
        Ok(DValue::new(Value::Str(s), this.d))
    });
    m.set_raw(m.protos.number, "toString", Value::Object(to_string));
    m.set_raw(m.protos.boolean, "toString", Value::Object(to_string));
}
