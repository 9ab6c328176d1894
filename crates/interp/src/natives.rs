//! The concrete native table: `Math`, `String`/`Array`/`Object`/`Function`
//! prototype methods, global utilities, `Error`, and indirect `eval`.
//!
//! Natives are per domain: the instrumented machine in the `determinacy`
//! crate keeps its own table of *models* of these functions (§4 of the
//! paper: "for some of them, we provide hand-written models that
//! conservatively approximate their effects on determinacy
//! information"). Both tables run on the one generic machine and share
//! its `Array`/`Error` construction, indirect `eval`, `ToString`
//! rendering, and the pure string/number helpers of [`crate::stdlib`].

use crate::coerce::{self};
use crate::concrete::{Interp, NativeFn};
use crate::context::CtxId;
use crate::stdlib::{self, arg_num};
use crate::values::{ObjClass, ObjId, Value};
use std::rc::Rc;

/// Installs every global binding on a fresh machine.
pub fn install_stdlib(interp: &mut Interp<'_>) {
    stdlib::install_prelude(interp, |it, _, _| Ok(Value::Num(it.random())));
    let g = interp.global();

    // ----- Date ---------------------------------------------------------
    let date = interp.register_native("Date", |it, this, _| {
        // `new Date()`/`Date()`: an object carrying the current tick.
        let t = it.now();
        if let Value::Object(o) = &this {
            it.set_raw(*o, "_time", Value::Num(t));
        }
        Ok(this)
    });
    let now = interp.register_native("now", |it, _, _| Ok(Value::Num(it.now())));
    interp.set_raw(date, "now", Value::Object(now));
    interp.set_raw(g, "Date", Value::Object(date));

    // ----- console ------------------------------------------------------
    let console = interp.alloc(ObjClass::Plain, Some(interp.protos.object));
    interp.obj_mut(console).builtin = true;
    let log = interp.register_native("log", |it, _, a| {
        let parts: Vec<String> = a.iter().map(|v| it.display(v)).collect();
        it.output.push(parts.join(" "));
        Ok(Value::Undefined)
    });
    interp.set_raw(console, "log", Value::Object(log));
    interp.set_raw(console, "error", Value::Object(log));
    interp.set_raw(console, "warn", Value::Object(log));
    interp.set_raw(g, "console", Value::Object(console));

    // Analysis test hooks, concretely inert: `__indet` is the identity
    // (the instrumented machine marks its result indeterminate) and
    // `__opaque` returns `undefined` (the instrumented machine treats it
    // as an unmodeled native: flush + indeterminate).
    let indet = interp.register_native("__indet", |_, _, a| {
        Ok(a.first().cloned().unwrap_or(Value::Undefined))
    });
    interp.set_raw(g, "__indet", Value::Object(indet));
    let opaque = interp.register_native("__opaque", |_, _, _| Ok(Value::Undefined));
    interp.set_raw(g, "__opaque", Value::Object(opaque));

    // `alert` exists even without a DOM (browsers always have it); the DOM
    // binding re-installs an identical implementation.
    let alert = interp.register_native("alert", |it, _, a| {
        let msg = match a.first() {
            Some(v) => it.display(v),
            None => String::new(),
        };
        it.output.push(format!("alert: {msg}"));
        Ok(Value::Undefined)
    });
    interp.set_raw(g, "alert", Value::Object(alert));

    // ----- global utilities ----------------------------------------------
    let defs: &[(&'static str, NativeFn)] = &[
        ("parseInt", |_, _, a| {
            let s = match a.first() {
                Some(Value::Str(s)) => s.to_string(),
                Some(v) => coerce::to_string(v)
                    .map(|s| s.to_string())
                    .unwrap_or_default(),
                None => String::new(),
            };
            let radix = match a.get(1) {
                Some(v) => coerce::to_number(v).unwrap_or(10.0) as u32,
                None => 10,
            };
            Ok(Value::Num(stdlib::parse_int(&s, radix)))
        }),
        ("parseFloat", |_, _, a| {
            let s = match a.first() {
                Some(Value::Str(s)) => s.to_string(),
                Some(v) => coerce::to_string(v)
                    .map(|s| s.to_string())
                    .unwrap_or_default(),
                None => String::new(),
            };
            Ok(Value::Num(stdlib::parse_float(&s)))
        }),
        ("isNaN", |_, _, a| {
            let n = a
                .first()
                .map(|v| coerce::to_number(v).unwrap_or(f64::NAN))
                .unwrap_or(f64::NAN);
            Ok(Value::Bool(n.is_nan()))
        }),
        ("isFinite", |_, _, a| {
            let n = a
                .first()
                .map(|v| coerce::to_number(v).unwrap_or(f64::NAN))
                .unwrap_or(f64::NAN);
            Ok(Value::Bool(n.is_finite()))
        }),
    ];
    for (name, f) in defs {
        let n = interp.register_native(name, *f);
        interp.set_raw(g, name, Value::Object(n));
    }

    // ----- constructors ---------------------------------------------------
    let object_ctor = interp.register_native("Object", |it, _, a| match a.first() {
        Some(Value::Object(o)) => Ok(Value::Object(*o)),
        _ => {
            let o = it.alloc(ObjClass::Plain, Some(it.protos.object));
            Ok(Value::Object(o))
        }
    });
    interp.set_raw(object_ctor, "prototype", {
        Value::Object(interp.protos.object)
    });
    interp.set_raw(g, "Object", Value::Object(object_ctor));
    interp.specials.object_ctor = Some(object_ctor);

    let array_ctor = interp.register_native("Array", |it, _, a| Ok(it.new_array(None, a)));
    interp.set_raw(array_ctor, "prototype", Value::Object(interp.protos.array));
    interp.set_raw(g, "Array", Value::Object(array_ctor));
    interp.specials.array_ctor = Some(array_ctor);

    let string_ctor = interp.register_native("String", |it, _, a| {
        let s = match a.first() {
            Some(v) => it.value_to_string(v),
            None => Rc::from(""),
        };
        Ok(Value::Str(s))
    });
    interp.set_raw(
        string_ctor,
        "prototype",
        Value::Object(interp.protos.string),
    );
    interp.set_raw(g, "String", Value::Object(string_ctor));

    let number_ctor = interp.register_native("Number", |_, _, a| {
        let n = match a.first() {
            Some(v) => coerce::to_number(v).unwrap_or(f64::NAN),
            None => 0.0,
        };
        Ok(Value::Num(n))
    });
    interp.set_raw(
        number_ctor,
        "prototype",
        Value::Object(interp.protos.number),
    );
    interp.set_raw(g, "Number", Value::Object(number_ctor));

    let boolean_ctor = interp.register_native("Boolean", |_, _, a| {
        Ok(Value::Bool(
            a.first().map(coerce::to_boolean).unwrap_or(false),
        ))
    });
    interp.set_raw(
        boolean_ctor,
        "prototype",
        Value::Object(interp.protos.boolean),
    );
    interp.set_raw(g, "Boolean", Value::Object(boolean_ctor));

    let error_ctor = interp.register_native("Error", |it, this, a| {
        let msg = match a.first() {
            Some(v) => it.value_to_string(v),
            None => Rc::from(""),
        };
        if let Value::Object(o) = &this {
            it.set_raw(*o, "message", Value::Str(msg));
            it.set_raw(*o, "name", Value::Str(Rc::from("Error")));
        }
        Ok(Value::Undefined)
    });
    interp.set_raw(error_ctor, "prototype", Value::Object(interp.protos.error));
    interp.set_raw(g, "Error", Value::Object(error_ctor));
    interp.specials.error_ctor = Some(error_ctor);
    interp.set_raw(interp.protos.error, "name", Value::Str(Rc::from("Error")));
    interp.set_raw(interp.protos.error, "message", Value::Str(Rc::from("")));

    // ----- indirect eval ---------------------------------------------------
    let eval_fn = interp.register_native("eval", |it, _, a| it.eval_indirect(a.first()));
    interp.set_raw(g, "eval", Value::Object(eval_fn));
    interp.specials.eval_fn = Some(eval_fn);

    install_object_proto(interp);
    install_function_proto(interp);
    install_array_proto(interp);
    install_string_proto(interp);
    install_number_proto(interp);
}

fn install_object_proto(it: &mut Interp<'_>) {
    let proto = it.protos.object;
    let defs: &[(&'static str, NativeFn)] = &[
        ("hasOwnProperty", |it, this, a| {
            let Value::Object(o) = this else {
                return Ok(Value::Bool(false));
            };
            let key = it.arg_string(a, 0).0;
            let key = it.prog.interner.intern_rc(&key);
            Ok(Value::Bool(it.obj(o).props.contains(key)))
        }),
        ("toString", |_, _, _| {
            Ok(Value::Str(Rc::from("[object Object]")))
        }),
    ];
    for (name, f) in defs {
        let n = it.register_native(name, *f);
        it.set_raw(proto, name, Value::Object(n));
    }
}

fn install_function_proto(it: &mut Interp<'_>) {
    let proto = it.protos.function;
    let call = it.register_native("call", |it, this, a| {
        let bound_this = a.first().cloned().unwrap_or(Value::Undefined);
        let rest = if a.is_empty() { &[] } else { &a[1..] };
        it.call_value(&this, bound_this, rest, CtxId::ROOT)
    });
    it.set_raw(proto, "call", Value::Object(call));
    let apply = it.register_native("apply", |it, this, a| {
        let bound_this = a.first().cloned().unwrap_or(Value::Undefined);
        let mut argv = Vec::new();
        if let Some(Value::Object(arr)) = a.get(1) {
            let len = match it.get_raw(*arr, "length") {
                Some(Value::Num(n)) => n as usize,
                _ => 0,
            };
            for i in 0..len {
                argv.push(it.get_raw(*arr, &i.to_string()).unwrap_or(Value::Undefined));
            }
        }
        it.call_value(&this, bound_this, &argv, CtxId::ROOT)
    });
    it.set_raw(proto, "apply", Value::Object(apply));
}

fn array_len(it: &Interp<'_>, arr: ObjId) -> usize {
    match it.get_raw(arr, "length") {
        Some(Value::Num(n)) if n >= 0.0 => n as usize,
        _ => 0,
    }
}

fn install_array_proto(it: &mut Interp<'_>) {
    let proto = it.protos.array;
    let defs: &[(&'static str, NativeFn)] = &[
        ("push", |it, this, a| {
            let Value::Object(arr) = this else {
                return Ok(Value::Num(0.0));
            };
            let mut len = array_len(it, arr);
            for v in a {
                it.set_raw(arr, &len.to_string(), v.clone());
                len += 1;
            }
            it.set_raw(arr, "length", Value::Num(len as f64));
            Ok(Value::Num(len as f64))
        }),
        ("pop", |it, this, _| {
            let Value::Object(arr) = this else {
                return Ok(Value::Undefined);
            };
            let len = array_len(it, arr);
            if len == 0 {
                return Ok(Value::Undefined);
            }
            let key = it.prog.interner.intern(&(len - 1).to_string());
            let v = it
                .obj_mut(arr)
                .props
                .remove(key)
                .map(|s| s.value)
                .unwrap_or(Value::Undefined);
            it.set_raw(arr, "length", Value::Num(len as f64 - 1.0));
            Ok(v)
        }),
        ("join", |it, this, a| {
            let Value::Object(arr) = this else {
                return Ok(Value::Str(Rc::from("")));
            };
            let sep = match a.first() {
                Some(v) => it.value_to_string(v).to_string(),
                None => ",".to_owned(),
            };
            let len = array_len(it, arr);
            let mut parts = Vec::with_capacity(len);
            for i in 0..len {
                let v = it.get_raw(arr, &i.to_string()).unwrap_or(Value::Undefined);
                parts.push(match v {
                    Value::Undefined | Value::Null => String::new(),
                    v => it.value_to_string(&v).to_string(),
                });
            }
            Ok(Value::Str(Rc::from(parts.join(&sep).as_str())))
        }),
        ("indexOf", |it, this, a| {
            let Value::Object(arr) = this else {
                return Ok(Value::Num(-1.0));
            };
            let needle = a.first().cloned().unwrap_or(Value::Undefined);
            let len = array_len(it, arr);
            for i in 0..len {
                let v = it.get_raw(arr, &i.to_string()).unwrap_or(Value::Undefined);
                if coerce::strict_eq(&v, &needle) {
                    return Ok(Value::Num(i as f64));
                }
            }
            Ok(Value::Num(-1.0))
        }),
        ("slice", |it, this, a| {
            let Value::Object(arr) = this else {
                return Ok(Value::Undefined);
            };
            let len = array_len(it, arr) as f64;
            let start = norm_index(arg_num(a, 0, 0.0).0, len);
            let end = norm_index(arg_num(a, 1, len).0, len);
            let out = it.alloc(ObjClass::Array, Some(it.protos.array));
            let mut n = 0usize;
            let mut i = start;
            while i < end {
                if let Some(v) = it.get_raw(arr, &(i as usize).to_string()) {
                    it.set_raw(out, &n.to_string(), v);
                }
                n += 1;
                i += 1.0;
            }
            it.set_raw(out, "length", Value::Num(n as f64));
            Ok(Value::Object(out))
        }),
        ("concat", |it, this, a| {
            let out = it.alloc(ObjClass::Array, Some(it.protos.array));
            let mut n = 0usize;
            let push_all = |it: &mut Interp<'_>, v: &Value, n: &mut usize| match v {
                Value::Object(src) if it.obj(*src).class == ObjClass::Array => {
                    let len = array_len(it, *src);
                    for i in 0..len {
                        let e = it.get_raw(*src, &i.to_string()).unwrap_or(Value::Undefined);
                        it.set_raw(out, &n.to_string(), e);
                        *n += 1;
                    }
                }
                other => {
                    it.set_raw(out, &n.to_string(), other.clone());
                    *n += 1;
                }
            };
            push_all(it, &this, &mut n);
            for v in a {
                push_all(it, v, &mut n);
            }
            it.set_raw(out, "length", Value::Num(n as f64));
            Ok(Value::Object(out))
        }),
        ("shift", |it, this, _| {
            let Value::Object(arr) = this else {
                return Ok(Value::Undefined);
            };
            let len = array_len(it, arr);
            if len == 0 {
                return Ok(Value::Undefined);
            }
            let first = it.get_raw(arr, "0").unwrap_or(Value::Undefined);
            for i in 1..len {
                let v = it.get_raw(arr, &i.to_string()).unwrap_or(Value::Undefined);
                it.set_raw(arr, &(i - 1).to_string(), v);
            }
            let last = it.prog.interner.intern(&(len - 1).to_string());
            it.obj_mut(arr).props.remove(last);
            it.set_raw(arr, "length", Value::Num(len as f64 - 1.0));
            Ok(first)
        }),
        ("toString", |it, this, _| {
            let s = it.display(&this);
            Ok(Value::Str(Rc::from(s.as_str())))
        }),
    ];
    for (name, f) in defs {
        let n = it.register_native(name, *f);
        it.set_raw(proto, name, Value::Object(n));
    }
}

fn norm_index(i: f64, len: f64) -> f64 {
    if i.is_nan() {
        return 0.0;
    }
    if i < 0.0 {
        (len + i).max(0.0)
    } else {
        i.min(len)
    }
}

fn install_string_proto(it: &mut Interp<'_>) {
    let proto = it.protos.string;
    let defs: &[(&'static str, NativeFn)] = &[
        ("charAt", |it, this, a| {
            let s = it.value_to_string(&this);
            let i = arg_num(a, 0, 0.0).0;
            Ok(Value::Str(Rc::from(stdlib::char_at(&s, i).as_str())))
        }),
        ("charCodeAt", |it, this, a| {
            let s = it.value_to_string(&this);
            let i = arg_num(a, 0, 0.0).0;
            Ok(Value::Num(stdlib::char_code_at(&s, i)))
        }),
        ("indexOf", |it, this, a| {
            let s = it.value_to_string(&this);
            let needle = it.arg_string(a, 0).0;
            Ok(Value::Num(stdlib::index_of(&s, &needle)))
        }),
        ("lastIndexOf", |it, this, a| {
            let s = it.value_to_string(&this);
            let needle = it.arg_string(a, 0).0;
            Ok(Value::Num(stdlib::last_index_of(&s, &needle)))
        }),
        ("substr", |it, this, a| {
            let s = it.value_to_string(&this);
            let start = arg_num(a, 0, 0.0).0;
            let len = arg_num(a, 1, f64::INFINITY).0;
            Ok(Value::Str(Rc::from(
                stdlib::substr(&s, start, len).as_str(),
            )))
        }),
        ("substring", |it, this, a| {
            let s = it.value_to_string(&this);
            let start = arg_num(a, 0, 0.0).0;
            let end = arg_num(a, 1, f64::INFINITY).0;
            Ok(Value::Str(Rc::from(
                stdlib::substring(&s, start, end).as_str(),
            )))
        }),
        ("slice", |it, this, a| {
            let s = it.value_to_string(&this);
            let start = arg_num(a, 0, 0.0).0;
            let end = arg_num(a, 1, f64::INFINITY).0;
            Ok(Value::Str(Rc::from(
                stdlib::str_slice(&s, start, end).as_str(),
            )))
        }),
        ("toUpperCase", |it, this, _| {
            let s = it.value_to_string(&this);
            Ok(Value::Str(Rc::from(s.to_uppercase().as_str())))
        }),
        ("toLowerCase", |it, this, _| {
            let s = it.value_to_string(&this);
            Ok(Value::Str(Rc::from(s.to_lowercase().as_str())))
        }),
        ("trim", |it, this, _| {
            let s = it.value_to_string(&this);
            Ok(Value::Str(Rc::from(s.trim())))
        }),
        ("concat", |it, this, a| {
            let mut s = it.value_to_string(&this).to_string();
            for v in a {
                s.push_str(&it.value_to_string(v));
            }
            Ok(Value::Str(Rc::from(s.as_str())))
        }),
        ("split", |it, this, a| {
            let s = it.value_to_string(&this);
            let parts = match a.first() {
                Some(Value::Str(sep)) => stdlib::split(&s, sep),
                _ => vec![s.to_string()],
            };
            let arr = it.alloc(ObjClass::Array, Some(it.protos.array));
            it.set_raw(arr, "length", Value::Num(parts.len() as f64));
            for (i, p) in parts.iter().enumerate() {
                it.set_raw(arr, &i.to_string(), Value::Str(Rc::from(p.as_str())));
            }
            Ok(Value::Object(arr))
        }),
        ("replace", |it, this, a| {
            let s = it.value_to_string(&this);
            let pat = it.arg_string(a, 0).0;
            let rep = it.arg_string(a, 1).0;
            Ok(Value::Str(Rc::from(
                stdlib::replace_first(&s, &pat, &rep).as_str(),
            )))
        }),
        ("toString", |it, this, _| {
            let s = it.value_to_string(&this);
            Ok(Value::Str(s))
        }),
    ];
    for (name, f) in defs {
        let n = it.register_native(name, *f);
        it.set_raw(proto, name, Value::Object(n));
    }
}

fn install_number_proto(it: &mut Interp<'_>) {
    let proto = it.protos.number;
    let to_string = it.register_native("toString", |it, this, _| {
        let s = it.value_to_string(&this);
        Ok(Value::Str(s))
    });
    it.set_raw(proto, "toString", Value::Object(to_string));
    it.set_raw(it.protos.boolean, "toString", Value::Object(to_string));
}
