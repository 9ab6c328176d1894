//! # mujs-dom
//!
//! The DOM emulation substrate — the reproduction's stand-in for the
//! ZombieJS DOM emulation the paper's prototype ran on (§4).
//!
//! It provides three things:
//!
//! * [`document`]: an emulated document tree (elements, attributes, ids,
//!   text) with the usual structural operations;
//! * [`events`]: an event-listener registry plus [`events::EventPlan`],
//!   the scripted post-load event sequence a driver fires after the main
//!   script finishes;
//! * [`api`]: the specification of the DOM native-function surface and how
//!   each function must be treated by the determinacy analysis (return
//!   values indeterminate, no heap flushes, handler-entry flushes — and the
//!   unsound `DetDOM` mode of §5.1 that flips DOM reads to determinate).
//!
//! The JavaScript-facing bindings live in the interpreter crates; this
//! crate is engine-agnostic.

#![forbid(unsafe_code)]

pub mod api;
pub mod document;
pub mod events;

pub use api::{DomEffect, DomFunctionSpec, DomHost, DOM_FUNCTIONS};
pub use document::{Document, DocumentBuilder, Node, NodeId};
pub use events::{EventPlan, EventRegistry, EventStep, EventTarget, EventTargetSel};
