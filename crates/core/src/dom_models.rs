//! DOM models for the instrumented machine (§4):
//!
//! * DOM functions "can only modify DOM data structures, so calling them
//!   does not affect the determinacy of other heap locations" — no
//!   flushes;
//! * return values of DOM functions, and any value read from a DOM data
//!   structure, are indeterminate — unless the unsound `DetDOM`
//!   assumption (§5.1) is enabled;
//! * a heap flush is performed on entry to every event handler ("since
//!   DOM events can fire in any order").

use crate::det::{DValue, Det};
use crate::machine::{DErr, DMachine, DNativeFn};
use mujs_dom::document::Document;
use mujs_interp::AnnValue;
use mujs_interp::{ObjClass, Value};
use std::rc::Rc;

/// Installs `document` and the DOM models (in setup mode, see
/// [`crate::machine::Instrumented`]).
pub(crate) fn install(m: &mut DMachine<'_>, doc: Document) {
    m.doc = Some(doc);
    let g = m.global();

    let el_proto = m.alloc(ObjClass::Plain, Some(m.protos.object));
    m.obj_mut(el_proto).builtin = true;
    m.dom_element_proto = Some(el_proto);
    let defs: &[(&'static str, DNativeFn)] = &[
        ("appendChild", |m, this, a| {
            if m.in_counterfactual() {
                return Err(DErr::CfAbort);
            }
            let (Some(p), Some(c)) = (m.as_node(&this.v), m.arg_node(a, 0)) else {
                return Err(m.throw_error_ic(
                    "TypeError",
                    "appendChild needs elements",
                    this.d == Det::I,
                ));
            };
            m.doc.as_mut().expect("dom installed").append_child(p, c);
            let dd = m.dom_det();
            Ok(a.first().cloned().unwrap_or(DValue::undef()).weaken(dd))
        }),
        ("removeChild", |m, this, a| {
            if m.in_counterfactual() {
                return Err(DErr::CfAbort);
            }
            let (Some(p), Some(c)) = (m.as_node(&this.v), m.arg_node(a, 0)) else {
                return Err(m.throw_error_ic(
                    "TypeError",
                    "removeChild needs elements",
                    this.d == Det::I,
                ));
            };
            m.doc.as_mut().expect("dom installed").remove_child(p, c);
            let dd = m.dom_det();
            Ok(a.first().cloned().unwrap_or(DValue::undef()).weaken(dd))
        }),
        ("setAttribute", |m, this, a| {
            if m.in_counterfactual() {
                return Err(DErr::CfAbort);
            }
            let Some(n) = m.as_node(&this.v) else {
                return Err(m.throw_error_ic(
                    "TypeError",
                    "setAttribute needs an element",
                    this.d == Det::I,
                ));
            };
            let name = arg_string(m, a, 0);
            let val = arg_string(m, a, 1);
            m.doc
                .as_mut()
                .expect("dom installed")
                .set_attribute(n, &name, &val);
            Ok(DValue::undef())
        }),
        ("getAttribute", |m, this, a| {
            let Some(n) = m.as_node(&this.v) else {
                return Err(m.throw_error_ic(
                    "TypeError",
                    "getAttribute needs an element",
                    this.d == Det::I,
                ));
            };
            let name = arg_string(m, a, 0);
            let v = match m
                .doc
                .as_ref()
                .expect("dom installed")
                .get_attribute(n, &name)
            {
                Some(v) => Value::Str(Rc::from(v)),
                None => Value::Null,
            };
            Ok(DValue::new(v, m.dom_det().join(this.d)))
        }),
        ("addEventListener", add_listener),
        ("removeEventListener", |m, this, a| {
            if m.in_counterfactual() {
                return Err(DErr::CfAbort);
            }
            m.remove_listener(&this, a)?;
            Ok(DValue::undef())
        }),
    ];
    for (name, f) in defs {
        let n = m.register_native(name, *f);
        m.set_raw(el_proto, name, Value::Object(n));
    }

    let doc_obj = m.alloc(ObjClass::DomDocument, Some(m.protos.object));
    m.dom_document_obj = Some(doc_obj);
    let defs: &[(&'static str, DNativeFn)] = &[
        ("getElementById", |m, _, a| {
            let id = arg_string(m, a, 0);
            let v = match m
                .doc
                .as_ref()
                .expect("dom installed")
                .get_element_by_id(&id)
            {
                Some(n) => Value::Object(m.element_obj(n)),
                None => Value::Null,
            };
            Ok(DValue { v, d: m.dom_det() })
        }),
        ("getElementsByTagName", |m, _, a| {
            let tag = arg_string(m, a, 0);
            let nodes = m
                .doc
                .as_ref()
                .expect("dom installed")
                .get_elements_by_tag_name(&tag);
            let dd = m.dom_det();
            let arr = m.alloc(ObjClass::Array, Some(m.protos.array));
            m.write_prop(
                arr,
                "length",
                DValue::new(Value::Num(nodes.len() as f64), dd),
            );
            for (i, n) in nodes.into_iter().enumerate() {
                let w = m.element_obj(n);
                m.write_prop(arr, &i.to_string(), DValue::new(Value::Object(w), dd));
            }
            Ok(DValue::new(Value::Object(arr), dd))
        }),
        ("createElement", |m, _, a| {
            if m.in_counterfactual() {
                return Err(DErr::CfAbort);
            }
            let tag = arg_string(m, a, 0);
            let n = m.doc.as_mut().expect("dom installed").create_element(&tag);
            let w = m.element_obj(n);
            Ok(DValue::new(Value::Object(w), m.dom_det()))
        }),
        ("addEventListener", add_listener),
    ];
    for (name, f) in defs {
        let n = m.register_native(name, *f);
        m.set_raw(doc_obj, name, Value::Object(n));
    }
    m.set_raw(g, "document", Value::Object(doc_obj));

    let add = m.register_native("addEventListener", add_listener);
    m.set_raw(g, "addEventListener", Value::Object(add));
}

/// `ToString` of argument `i` (`"undefined"` when absent).
fn arg_string(m: &DMachine<'_>, args: &[DValue], i: usize) -> Rc<str> {
    match args.get(i) {
        Some(v) => m.value_to_string(&v.v),
        None => Rc::from("undefined"),
    }
}

/// `addEventListener`: registering a handler is a DOM effect, so it
/// aborts hypothetical execution.
fn add_listener(m: &mut DMachine<'_>, this: DValue, args: &[DValue]) -> Result<DValue, DErr> {
    if m.in_counterfactual() {
        return Err(DErr::CfAbort);
    }
    m.add_listener(&this, args)?;
    Ok(DValue::undef())
}
