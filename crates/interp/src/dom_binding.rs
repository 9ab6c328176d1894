//! The DOM bindings: wires the `mujs-dom` substrate into the heap as
//! `window`/`document`/element objects, with event registration and
//! dispatch and the DOM natives declared in [`mujs_dom::api`], each
//! written once over any annotation [`Domain`]. They follow the DOM
//! model of §4:
//!
//! * DOM functions "can only modify DOM data structures, so calling them
//!   does not affect the determinacy of other heap locations" — no
//!   flushes; but their effects are not modeled, so mutation and listener
//!   registration go through [`Domain::native_effect`] (counterfactual
//!   execution aborts there);
//! * return values of DOM functions, and any value read from a DOM data
//!   structure, carry [`Domain::dom_flag`] (indeterminate unless the
//!   unsound `DetDOM` assumption of §5.1 is enabled);
//! * a heap flush is performed on entry to every event handler
//!   ([`Domain::on_handler_entry`]), "since DOM events can fire in any
//!   order".

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

    /// Installs the DOM: `document`, element wrappers, event natives.
    /// Must be called before [`Machine::run`] for programs that touch the
    /// DOM.
    pub fn install_dom(&mut self, doc: Document) {
        D::setup(self, true);
        install(self, doc);
        D::setup(self, false);
    }

    fn document(&self) -> &Document {
        self.doc.as_ref().expect("dom installed")
    }

    fn document_mut(&mut self) -> &mut Document {
        self.doc.as_mut().expect("dom installed")
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

/// Installs `document`, the element prototype and the DOM natives.
fn install<D: Domain>(m: &mut Machine<'_, D>, doc: Document) {
    m.doc = Some(doc);
    let g = m.global();

    // Element prototype with element natives.
    let el = m.alloc(ObjClass::Plain, Some(m.protos.object));
    m.obj_mut(el).builtin = true;
    m.dom_element_proto = Some(el);
    m.register_native("appendChild", el, |m, this, a| {
        D::native_effect(m)?;
        let (Some(p), Some(c)) = (m.as_node(this.v()), m.arg_node(a, 0)) else {
            return Err(not_element(m, &this, "appendChild needs elements"));
        };
        m.document_mut().append_child(p, c);
        let dd = D::dom_flag(m);
        Ok(a.first()
            .cloned()
            .unwrap_or_else(|| D::V::det(Value::Undefined))
            .weaken(dd))
    });
    m.register_native("removeChild", el, |m, this, a| {
        D::native_effect(m)?;
        let (Some(p), Some(c)) = (m.as_node(this.v()), m.arg_node(a, 0)) else {
            return Err(not_element(m, &this, "removeChild needs elements"));
        };
        m.document_mut().remove_child(p, c);
        let dd = D::dom_flag(m);
        Ok(a.first()
            .cloned()
            .unwrap_or_else(|| D::V::det(Value::Undefined))
            .weaken(dd))
    });
    m.register_native("setAttribute", el, |m, this, a| {
        D::native_effect(m)?;
        let Some(n) = m.as_node(this.v()) else {
            return Err(not_element(m, &this, "setAttribute needs an element"));
        };
        let name = m.arg_string(a, 0).0;
        let val = m.arg_string(a, 1).0;
        m.document_mut().set_attribute(n, &name, &val);
        Ok(D::V::det(Value::Undefined))
    });
    m.register_native("getAttribute", el, |m, this, a| {
        let Some(n) = m.as_node(this.v()) else {
            return Err(not_element(m, &this, "getAttribute needs an element"));
        };
        let name = m.arg_string(a, 0).0;
        let v = match m.document().get_attribute(n, &name) {
            Some(v) => Value::Str(Rc::from(v)),
            None => Value::Null,
        };
        Ok(D::V::new(v, D::dom_flag(m).join(this.d())))
    });
    m.register_native("addEventListener", el, add_event_listener);
    m.register_native("removeEventListener", el, |m, this, a| {
        D::native_effect(m)?;
        let target = m.event_target_of(&this)?;
        let ty = m.arg_string(a, 0).0;
        m.events.remove(target, &ty);
        Ok(D::V::det(Value::Undefined))
    });

    // The document object.
    let doc_obj = m.alloc(ObjClass::DomDocument, Some(m.protos.object));
    m.dom_document_obj = Some(doc_obj);
    m.register_native("getElementById", doc_obj, |m, _, a| {
        let id = m.arg_string(a, 0).0;
        let v = match m.document().get_element_by_id(&id) {
            Some(n) => Value::Object(m.element_obj(n)),
            None => Value::Null,
        };
        Ok(D::V::new(v, D::dom_flag(m)))
    });
    m.register_native("getElementsByTagName", doc_obj, |m, _, a| {
        let tag = m.arg_string(a, 0).0;
        let nodes = m.document().get_elements_by_tag_name(&tag);
        let dd = D::dom_flag(m);
        let arr = m.alloc(ObjClass::Array, Some(m.protos.array));
        m.write_prop(arr, "length", D::V::new(Value::Num(nodes.len() as f64), dd));
        for (i, n) in nodes.into_iter().enumerate() {
            let w = m.element_obj(n);
            m.write_prop(arr, &i.to_string(), D::V::new(Value::Object(w), dd));
        }
        Ok(D::V::new(Value::Object(arr), dd))
    });
    m.register_native("createElement", doc_obj, |m, _, a| {
        D::native_effect(m)?;
        let tag = m.arg_string(a, 0).0;
        let n = m.document_mut().create_element(&tag);
        let w = m.element_obj(n);
        Ok(D::V::new(Value::Object(w), D::dom_flag(m)))
    });
    m.register_native("addEventListener", doc_obj, add_event_listener);
    m.set_raw(g, "document", Value::Object(doc_obj));

    // Window-level natives (`alert` is in the standard library).
    m.register_native("addEventListener", g, add_event_listener);
}

/// The `TypeError` of an element native called on a non-element; the
/// throw depends on the receiver's flag.
fn not_element<D: Domain>(m: &mut Machine<'_, D>, this: &D::V, msg: &str) -> D::Err {
    m.throw_error_ic("TypeError", msg, this.d().is_indet())
}

/// `addEventListener(type, handler)` on the window, the document or an
/// element: registering a handler is a DOM effect.
fn add_event_listener<D: Domain>(
    m: &mut Machine<'_, D>,
    this: D::V,
    args: &[D::V],
) -> Result<D::V, D::Err> {
    D::native_effect(m)?;
    let target = m.event_target_of(&this)?;
    let ty = m.arg_string(args, 0).0;
    let handler = match args.get(1).map(|v| v.v()) {
        Some(Value::Object(h)) if m.obj(*h).class.is_callable() => *h,
        _ => return Err(m.throw_error("TypeError", "listener must be a function")),
    };
    m.events.add(target, &ty, handler);
    Ok(D::V::det(Value::Undefined))
}
