//! Runtime values, objects, and property maps shared by the concrete
//! interpreter (and reused, with determinacy annotations layered on top of
//! *slots*, by the instrumented interpreter in the `determinacy` crate).

use mujs_dom::document::NodeId;
use mujs_ir::hash::FastMap;
use mujs_ir::{FuncId, Sym};
use std::fmt;
use std::rc::Rc;

/// Identifier of an object on an interpreter heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Identifier of a scope on an interpreter's scope arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScopeId(pub u32);

/// Index into an interpreter's native-function table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NativeId(pub u32);

/// A muJS runtime value. Functions, arrays and DOM nodes are all objects;
/// the distinction lives in [`ObjClass`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `undefined`
    Undefined,
    /// `null`
    Null,
    /// A boolean.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(Rc<str>),
    /// A heap object.
    Object(ObjId),
}

impl Value {
    /// Whether the value is an object reference.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// A short type tag used in diagnostics (`typeof` semantics live in the
    /// machines, which can inspect object classes).
    pub fn kind_str(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Object(_) => "object",
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Rc::from(s))
    }
}

/// What kind of object something is.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjClass {
    /// A plain object (`{}` or object literal).
    Plain,
    /// An array.
    Array,
    /// A user function: its code plus captured scope (`None` for
    /// not-yet-activated global functions of the entry script).
    Function {
        /// The lowered function.
        func: FuncId,
        /// The captured scope chain.
        env: Option<ScopeId>,
    },
    /// A built-in function.
    Native(NativeId),
    /// The `document` object.
    DomDocument,
    /// A DOM element wrapper.
    DomElement(NodeId),
}

impl ObjClass {
    /// Whether objects of this class are callable.
    pub fn is_callable(&self) -> bool {
        matches!(self, ObjClass::Function { .. } | ObjClass::Native(_))
    }

    /// Whether this is a DOM wrapper (document or element).
    pub fn is_dom(&self) -> bool {
        matches!(self, ObjClass::DomDocument | ObjClass::DomElement(_))
    }
}

/// A property slot: the value plus the annotation payload `A` the machine
/// attaches to slots (the concrete machine uses `()`, the instrumented
/// machine uses determinacy flags and epochs).
#[derive(Debug, Clone, PartialEq)]
pub struct Slot<A> {
    /// The stored value.
    pub value: Value,
    /// Machine-specific slot annotation.
    pub ann: A,
}

/// Entry count above which a [`PropMap`] builds a hash index. Most µJS
/// objects (and real-page objects, per the engine folklore the hidden-class
/// literature measures) have a handful of properties; for those a linear
/// scan over a dense `Vec<(Sym, _)>` beats hashing the key.
const SMALL_OBJ_THRESHOLD: usize = 8;

/// An insertion-ordered property map (for-in enumerates in insertion
/// order, which all major engines implement and the paper relies on for
/// determinate iteration order, §5.2).
///
/// Keys are interned [`Sym`]s. Storage is a single entry vector: below
/// [`SMALL_OBJ_THRESHOLD`] entries lookups are linear scans (comparing
/// `u32`s), above it a hash index from key to entry position is built
/// lazily and kept incrementally up to date. Deletion leaves a tombstone
/// so existing positions stay valid; a key therefore appears at most once
/// live, possibly after dead occurrences, and lookups scan from the back
/// to find the most recent entry first.
#[derive(Debug, Clone, PartialEq)]
pub struct PropMap<A> {
    entries: Vec<(Sym, Option<Slot<A>>)>,
    live: u32,
    index: Option<FastMap<Sym, u32>>,
}

impl<A> Default for PropMap<A> {
    fn default() -> Self {
        PropMap {
            entries: Vec::new(),
            live: 0,
            index: None,
        }
    }
}

impl<A> PropMap<A> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Position of the most recent entry for `key`, live or tombstoned.
    fn find(&self, key: Sym) -> Option<usize> {
        if let Some(index) = &self.index {
            return index.get(&key).map(|&i| i as usize);
        }
        self.entries.iter().rposition(|(k, _)| *k == key)
    }

    /// Builds the hash index once the entry vector outgrows the
    /// linear-scan sweet spot.
    fn maybe_index(&mut self) {
        if self.index.is_none() && self.entries.len() > SMALL_OBJ_THRESHOLD {
            let mut index =
                FastMap::with_capacity_and_hasher(self.entries.len() * 2, Default::default());
            for (i, (k, _)) in self.entries.iter().enumerate() {
                index.insert(*k, i as u32);
            }
            self.index = Some(index);
        }
    }

    /// Looks up a live slot.
    pub fn get(&self, key: Sym) -> Option<&Slot<A>> {
        let i = self.find(key)?;
        self.entries[i].1.as_ref()
    }

    /// Mutably looks up a live slot.
    pub fn get_mut(&mut self, key: Sym) -> Option<&mut Slot<A>> {
        let i = self.find(key)?;
        self.entries[i].1.as_mut()
    }

    /// Inserts or overwrites; returns the previous slot if the property was
    /// live. A deleted property re-inserted moves to the end of the
    /// enumeration order, as in real engines.
    pub fn insert(&mut self, key: Sym, slot: Slot<A>) -> Option<Slot<A>> {
        let prev = match self.find(key) {
            Some(i) if self.entries[i].1.is_some() => {
                return self.entries[i].1.replace(slot);
            }
            Some(_) => {
                // Tombstone stays where it is; the fresh entry appended
                // below restores insertion-order semantics.
                None
            }
            None => None,
        };
        if let Some(index) = &mut self.index {
            index.insert(key, self.entries.len() as u32);
        }
        self.entries.push((key, Some(slot)));
        self.live += 1;
        self.maybe_index();
        prev
    }

    /// Deletes a property; returns its slot if it was live.
    pub fn remove(&mut self, key: Sym) -> Option<Slot<A>> {
        let i = self.find(key)?;
        let slot = self.entries[i].1.take();
        if slot.is_some() {
            self.live -= 1;
        }
        slot
    }

    /// Whether the property is live.
    pub fn contains(&self, key: Sym) -> bool {
        self.get(key).is_some()
    }

    /// Live keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = Sym> + '_ {
        self.entries
            .iter()
            .filter(|(_, s)| s.is_some())
            .map(|(k, _)| *k)
    }

    /// Live `(key, slot)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &Slot<A>)> {
        self.entries
            .iter()
            .filter_map(|(k, s)| s.as_ref().map(|s| (*k, s)))
    }

    /// Mutable iteration over live slots in insertion order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Sym, &mut Slot<A>)> {
        self.entries
            .iter_mut()
            .filter_map(|(k, s)| s.as_mut().map(|s| (*k, s)))
    }

    /// Number of live properties.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// Whether there are no live properties.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// A heap object generic over the slot annotation `A`.
#[derive(Debug, Clone, PartialEq)]
pub struct Object<A> {
    /// The object's class.
    pub class: ObjClass,
    /// Own properties.
    pub props: PropMap<A>,
    /// Prototype link.
    pub proto: Option<ObjId>,
    /// Built-in library objects are skipped by `for-in` enumeration (their
    /// properties play the role of non-enumerable descriptors).
    pub builtin: bool,
}

impl<A> Object<A> {
    /// Creates an object of the given class and prototype.
    pub fn new(class: ObjClass, proto: Option<ObjId>) -> Self {
        Object {
            class,
            props: PropMap::new(),
            proto,
            builtin: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(v: Value) -> Slot<()> {
        Slot { value: v, ann: () }
    }

    const A: Sym = Sym(100);
    const B: Sym = Sym(101);
    const C: Sym = Sym(102);

    #[test]
    fn propmap_preserves_insertion_order() {
        let mut m: PropMap<()> = PropMap::new();
        m.insert(B, slot(Value::Num(1.0)));
        m.insert(A, slot(Value::Num(2.0)));
        m.insert(C, slot(Value::Num(3.0)));
        let keys: Vec<Sym> = m.keys().collect();
        assert_eq!(keys, vec![B, A, C]);
    }

    #[test]
    fn overwrite_keeps_position() {
        let mut m: PropMap<()> = PropMap::new();
        m.insert(A, slot(Value::Num(1.0)));
        m.insert(B, slot(Value::Num(2.0)));
        m.insert(A, slot(Value::Num(9.0)));
        let keys: Vec<Sym> = m.keys().collect();
        assert_eq!(keys, vec![A, B]);
        assert_eq!(m.get(A).unwrap().value, Value::Num(9.0));
    }

    #[test]
    fn delete_then_reinsert_moves_to_end() {
        let mut m: PropMap<()> = PropMap::new();
        m.insert(A, slot(Value::Num(1.0)));
        m.insert(B, slot(Value::Num(2.0)));
        assert!(m.remove(A).is_some());
        assert!(!m.contains(A));
        m.insert(A, slot(Value::Num(3.0)));
        let keys: Vec<Sym> = m.keys().collect();
        assert_eq!(keys, vec![B, A]);
    }

    #[test]
    fn len_counts_live_only() {
        let mut m: PropMap<()> = PropMap::new();
        m.insert(A, slot(Value::Num(1.0)));
        m.insert(B, slot(Value::Num(2.0)));
        m.remove(A);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn behaves_identically_across_the_index_threshold() {
        // Push past SMALL_OBJ_THRESHOLD so the hash index kicks in, then
        // check lookups, order, overwrite, and delete/reinsert all still
        // behave like the linear-scan regime.
        let mut m: PropMap<()> = PropMap::new();
        let syms: Vec<Sym> = (0..32).map(Sym).collect();
        for (i, &s) in syms.iter().enumerate() {
            m.insert(s, slot(Value::Num(i as f64)));
        }
        assert_eq!(m.len(), 32);
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(m.get(s).unwrap().value, Value::Num(i as f64));
        }
        m.insert(syms[3], slot(Value::Num(99.0)));
        assert_eq!(m.len(), 32);
        assert_eq!(m.keys().nth(3), Some(syms[3]));
        assert!(m.remove(syms[5]).is_some());
        assert!(!m.contains(syms[5]));
        m.insert(syms[5], slot(Value::Num(55.0)));
        assert_eq!(m.keys().last(), Some(syms[5]));
        assert_eq!(m.get(syms[5]).unwrap().value, Value::Num(55.0));
        assert_eq!(m.len(), 32);
    }

    #[test]
    fn value_kind_strings() {
        assert_eq!(Value::Undefined.kind_str(), "undefined");
        assert_eq!(Value::Num(1.0).kind_str(), "number");
        assert_eq!(Value::Object(ObjId(0)).kind_str(), "object");
    }
}
