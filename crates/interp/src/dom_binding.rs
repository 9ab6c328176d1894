//! The DOM bindings: wires the `mujs-dom` substrate into the heap as
//! `window`/`document`/element objects. Event registration and dispatch
//! are written once for every domain; the concrete DOM natives declared in
//! [`mujs_dom::api`] are below (the instrumented machine keeps its own
//! table of DOM models).

use crate::concrete::{Interp, NativeFn};
use crate::domain::{AnnValue, Domain, Flag};
use crate::machine::Machine;
use crate::values::{ObjClass, Value};
use mujs_dom::document::{Document, NodeId};
use mujs_dom::events::{EventPlan, EventTarget, EventTargetSel};
use std::rc::Rc;

impl<D: Domain> Machine<'_, D> {
    /// The DOM node an element wrapper stands for.
    pub fn as_node(&self, v: &Value) -> Option<NodeId> {
        match v {
            Value::Object(o) => match self.obj(*o).class {
                ObjClass::DomElement(n) => Some(n),
                _ => None,
            },
            _ => None,
        }
    }

    /// The DOM node of argument `i`, if it is an element wrapper.
    pub fn arg_node(&self, args: &[D::V], i: usize) -> Option<NodeId> {
        args.get(i).and_then(|v| self.as_node(v.v()))
    }

    fn event_target_of(&mut self, this: &D::V) -> Result<EventTarget, D::Err> {
        match this.v() {
            Value::Object(o) if *o == self.global() => Ok(EventTarget::Window),
            Value::Object(o) if Some(*o) == self.dom_document_obj => Ok(EventTarget::Document),
            v => match self.as_node(v) {
                Some(n) => Ok(EventTarget::Element(n)),
                None => Err(self.throw_error_ic(
                    "TypeError",
                    "not an event target",
                    this.d().is_indet(),
                )),
            },
        }
    }

    /// `addEventListener(type, handler)` on `this`.
    ///
    /// # Errors
    ///
    /// `TypeError` for non-targets and non-callable listeners.
    pub fn add_listener(&mut self, this: &D::V, args: &[D::V]) -> Result<(), D::Err> {
        let target = self.event_target_of(this)?;
        let ty = match args.first() {
            Some(v) => self.value_to_string(v.v()),
            None => Rc::from("undefined"),
        };
        let handler = match args.get(1).map(|v| v.v()) {
            Some(Value::Object(h)) if self.obj(*h).class.is_callable() => *h,
            _ => return Err(self.throw_error("TypeError", "listener must be a function")),
        };
        self.events.add(target, &ty, handler);
        Ok(())
    }

    /// `removeEventListener(type)` on `this`.
    ///
    /// # Errors
    ///
    /// `TypeError` for non-targets.
    pub fn remove_listener(&mut self, this: &D::V, args: &[D::V]) -> Result<(), D::Err> {
        let target = self.event_target_of(this)?;
        let ty = match args.first() {
            Some(v) => self.value_to_string(v.v()),
            None => Rc::from("undefined"),
        };
        self.events.remove(target, &ty);
        Ok(())
    }

    /// Installs the DOM: `document`, element wrappers, event natives.
    /// Must be called before [`Machine::run`] for programs that touch the
    /// DOM.
    pub fn install_dom(&mut self, doc: Document) {
        D::install_dom(self, doc);
    }

    /// Fires the implicit `load` and `ready` events and then the plan's
    /// steps, calling each registered handler with an event object.
    ///
    /// # Errors
    ///
    /// Propagates uncaught exceptions (and stops) from handlers.
    pub fn fire_events(&mut self, plan: &EventPlan) -> Result<(), D::Err> {
        self.dispatch(EventTarget::Window, "load")?;
        self.dispatch(EventTarget::Document, "ready")?;
        for step in plan.steps() {
            let target = match &step.target {
                EventTargetSel::Window => EventTarget::Window,
                EventTargetSel::Document => EventTarget::Document,
                EventTargetSel::ById(id) => {
                    match self.doc.as_ref().and_then(|d| d.get_element_by_id(id)) {
                        Some(n) => EventTarget::Element(n),
                        None => continue,
                    }
                }
            };
            self.dispatch(target, &step.event_type)?;
        }
        Ok(())
    }

    fn dispatch(&mut self, target: EventTarget, ty: &str) -> Result<(), D::Err> {
        let handlers = self.events.handlers_for(target, ty);
        if handlers.is_empty() {
            return Ok(());
        }
        let this = match target {
            EventTarget::Window => Value::Object(self.global()),
            EventTarget::Document => self
                .dom_document_obj
                .map(Value::Object)
                .unwrap_or(Value::Undefined),
            EventTarget::Element(n) => Value::Object(self.element_obj(n)),
        };
        let dd = D::dom_flag(self);
        let ev = self.alloc(ObjClass::Plain, Some(self.protos.object));
        self.write_prop(ev, "type", D::V::new(Value::Str(Rc::from(ty)), dd));
        self.write_prop(ev, "target", D::V::new(this.clone(), dd));
        let this = D::V::det(this);
        for h in handlers {
            D::on_handler_entry(self)?;
            let arg = D::V::new(Value::Object(ev), dd);
            self.call_closure_by_id(h, this.clone(), &[arg])?;
        }
        Ok(())
    }
}

/// Installs the concrete DOM natives: `document`, element wrappers,
/// event natives.
pub(crate) fn install_dom(m: &mut Interp<'_>, doc: Document) {
    m.doc = Some(doc);
    let g = m.global();

    // Element prototype with element natives.
    let el_proto = m.alloc(ObjClass::Plain, Some(m.protos.object));
    m.obj_mut(el_proto).builtin = true;
    m.dom_element_proto = Some(el_proto);
    let defs: &[(&'static str, NativeFn)] = &[
        ("appendChild", |it, this, a| {
            let (Some(p), Some(c)) = (it.as_node(&this), it.arg_node(a, 0)) else {
                return Err(it.throw_error("TypeError", "appendChild needs elements"));
            };
            it.doc.as_mut().expect("dom installed").append_child(p, c);
            Ok(a.first().cloned().unwrap_or(Value::Undefined))
        }),
        ("removeChild", |it, this, a| {
            let (Some(p), Some(c)) = (it.as_node(&this), it.arg_node(a, 0)) else {
                return Err(it.throw_error("TypeError", "removeChild needs elements"));
            };
            it.doc.as_mut().expect("dom installed").remove_child(p, c);
            Ok(a.first().cloned().unwrap_or(Value::Undefined))
        }),
        ("setAttribute", |it, this, a| {
            let Some(n) = it.as_node(&this) else {
                return Err(it.throw_error("TypeError", "setAttribute needs an element"));
            };
            let name = it.value_to_string(a.first().unwrap_or(&Value::Undefined));
            let val = it.value_to_string(a.get(1).unwrap_or(&Value::Undefined));
            it.doc
                .as_mut()
                .expect("dom installed")
                .set_attribute(n, &name, &val);
            Ok(Value::Undefined)
        }),
        ("getAttribute", |it, this, a| {
            let Some(n) = it.as_node(&this) else {
                return Err(it.throw_error("TypeError", "getAttribute needs an element"));
            };
            let name = it.value_to_string(a.first().unwrap_or(&Value::Undefined));
            Ok(
                match it
                    .doc
                    .as_ref()
                    .expect("dom installed")
                    .get_attribute(n, &name)
                {
                    Some(v) => Value::Str(Rc::from(v)),
                    None => Value::Null,
                },
            )
        }),
        ("addEventListener", |it, this, a| {
            it.add_listener(&this, a)?;
            Ok(Value::Undefined)
        }),
        ("removeEventListener", |it, this, a| {
            it.remove_listener(&this, a)?;
            Ok(Value::Undefined)
        }),
    ];
    for (name, f) in defs {
        let n = m.register_native(name, *f);
        m.set_raw(el_proto, name, Value::Object(n));
    }

    // The document object.
    let doc_obj = m.alloc(ObjClass::DomDocument, Some(m.protos.object));
    m.dom_document_obj = Some(doc_obj);
    let defs: &[(&'static str, NativeFn)] = &[
        ("getElementById", |it, _, a| {
            let id = it.value_to_string(a.first().unwrap_or(&Value::Undefined));
            match it
                .doc
                .as_ref()
                .expect("dom installed")
                .get_element_by_id(&id)
            {
                Some(n) => Ok(Value::Object(it.element_obj(n))),
                None => Ok(Value::Null),
            }
        }),
        ("getElementsByTagName", |it, _, a| {
            let tag = it.value_to_string(a.first().unwrap_or(&Value::Undefined));
            let nodes = it
                .doc
                .as_ref()
                .expect("dom installed")
                .get_elements_by_tag_name(&tag);
            let arr = it.alloc(ObjClass::Array, Some(it.protos.array));
            it.set_raw(arr, "length", Value::Num(nodes.len() as f64));
            for (i, n) in nodes.into_iter().enumerate() {
                let w = it.element_obj(n);
                it.set_raw(arr, &i.to_string(), Value::Object(w));
            }
            Ok(Value::Object(arr))
        }),
        ("createElement", |it, _, a| {
            let tag = it.value_to_string(a.first().unwrap_or(&Value::Undefined));
            let n = it.doc.as_mut().expect("dom installed").create_element(&tag);
            Ok(Value::Object(it.element_obj(n)))
        }),
        ("addEventListener", |it, this, a| {
            it.add_listener(&this, a)?;
            Ok(Value::Undefined)
        }),
    ];
    for (name, f) in defs {
        let n = m.register_native(name, *f);
        m.set_raw(doc_obj, name, Value::Object(n));
    }
    m.set_raw(g, "document", Value::Object(doc_obj));

    // Window-level natives.
    let alert = m.register_native("alert", |it, _, a| {
        let msg = match a.first() {
            Some(v) => it.display(v),
            None => String::new(),
        };
        it.output.push(format!("alert: {msg}"));
        Ok(Value::Undefined)
    });
    m.set_raw(g, "alert", Value::Object(alert));
    let add = m.register_native("addEventListener", |it, this, a| {
        it.add_listener(&this, a)?;
        Ok(Value::Undefined)
    });
    m.set_raw(g, "addEventListener", Value::Object(add));
}
