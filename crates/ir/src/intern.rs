//! Global symbol interning.
//!
//! Every identifier and static property key in a lowered [`Program`] is
//! represented as a [`Sym`] — an index into the program's [`Interner`].
//! Comparing and hashing names becomes a `u32` operation, property tables
//! can be scanned without touching string data, and the interpreters only
//! materialize the underlying `Rc<str>` at the edges (fact values, error
//! messages, JSON export), so the exported artifacts are byte-identical
//! to the pre-interning engine.
//!
//! [`Program`]: crate::ir::Program

use crate::hash::FastMap;
use std::fmt;
use std::rc::Rc;

/// An interned name: an index into the owning program's [`Interner`].
///
/// `Sym` is meaningless without the interner that produced it; two syms
/// from *different* programs must never be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// Declares the pre-interned well-known names: each gets a `Sym` constant
/// with a fixed index, and [`Interner::new`] seeds them in order so the
/// constants are valid for every interner.
macro_rules! well_known {
    ($(($idx:expr, $konst:ident, $text:literal)),* $(,)?) => {
        impl Sym {
            $(
                #[doc = concat!("The pre-interned name `\"", $text, "\"`.")]
                pub const $konst: Sym = Sym($idx);
            )*
        }

        /// The seed names, in index order.
        const WELL_KNOWN: &[&str] = &[$($text),*];
    };
}

well_known! {
    (0, EMPTY, ""),
    (1, LENGTH, "length"),
    (2, PROTOTYPE, "prototype"),
    (3, CONSTRUCTOR, "constructor"),
    (4, ARGUMENTS, "arguments"),
    (5, NAME, "name"),
    (6, MESSAGE, "message"),
    (7, EVAL, "eval"),
    (8, TO_STRING, "toString"),
    (9, VALUE_OF, "valueOf"),
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A bidirectional `name ⇄ Sym` table.
///
/// Owned by [`Program`](crate::ir::Program); lowering interns every
/// identifier it sees, and the machines intern dynamically computed
/// property keys as they arise. Interning is append-only, so a `Sym`
/// never dangles.
#[derive(Debug, Clone)]
pub struct Interner {
    names: Vec<Rc<str>>,
    map: FastMap<Rc<str>, Sym>,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// Creates an interner seeded with the well-known names.
    pub fn new() -> Self {
        let mut i = Interner {
            names: Vec::with_capacity(64),
            map: FastMap::with_capacity_and_hasher(64, Default::default()),
        };
        for (idx, text) in WELL_KNOWN.iter().enumerate() {
            let s = i.intern(text);
            debug_assert_eq!(s, Sym(idx as u32));
        }
        i
    }

    /// Interns `text`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, text: &str) -> Sym {
        if let Some(&s) = self.map.get(text) {
            return s;
        }
        let rc: Rc<str> = Rc::from(text);
        self.push_new(rc)
    }

    /// Interns an already-shared string without copying its bytes when it
    /// is new.
    pub fn intern_rc(&mut self, text: &Rc<str>) -> Sym {
        if let Some(&s) = self.map.get(&**text) {
            return s;
        }
        self.push_new(text.clone())
    }

    fn push_new(&mut self, rc: Rc<str>) -> Sym {
        let s = Sym(self.names.len() as u32);
        self.names.push(rc.clone());
        self.map.insert(rc, s);
        s
    }

    /// The shared string behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `s` came from a different interner (index out of range).
    pub fn name(&self, s: Sym) -> &Rc<str> {
        &self.names[s.0 as usize]
    }

    /// The text behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `s` came from a different interner (index out of range).
    pub fn resolve(&self, s: Sym) -> &str {
        &self.names[s.0 as usize]
    }

    /// Interns the decimal rendering of `idx` (`0`, `1`, `2`, …) without
    /// allocating a `String` on the lookup path.
    ///
    /// Array-style access desugars to property keys named by element
    /// index, so the interpreters hit this for every element of every
    /// array walk; after the first visit of an index the cost is a stack
    /// buffer format plus one hash lookup.
    pub fn intern_index(&mut self, idx: usize) -> Sym {
        let mut buf = [0u8; 20];
        let mut n = idx;
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        let text = std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII");
        self.intern(text)
    }

    /// Looks up a name without interning it.
    pub fn get(&self, text: &str) -> Option<Sym> {
        self.map.get(text).copied()
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the interner is empty (never true: well-known names are
    /// always seeded).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("foo");
        assert_eq!(a, b);
        assert_eq!(i.resolve(a), "foo");
    }

    #[test]
    fn well_known_constants_match_seeds() {
        let mut i = Interner::new();
        assert_eq!(i.intern("length"), Sym::LENGTH);
        assert_eq!(i.intern("prototype"), Sym::PROTOTYPE);
        assert_eq!(i.intern("constructor"), Sym::CONSTRUCTOR);
        assert_eq!(i.intern("arguments"), Sym::ARGUMENTS);
        assert_eq!(i.intern("name"), Sym::NAME);
        assert_eq!(i.intern("message"), Sym::MESSAGE);
        assert_eq!(i.intern("eval"), Sym::EVAL);
        assert_eq!(i.intern("toString"), Sym::TO_STRING);
        assert_eq!(i.intern("valueOf"), Sym::VALUE_OF);
        assert_eq!(i.intern(""), Sym::EMPTY);
    }

    #[test]
    fn intern_rc_shares_the_allocation() {
        let mut i = Interner::new();
        let rc: Rc<str> = Rc::from("shared");
        let s = i.intern_rc(&rc);
        assert!(Rc::ptr_eq(i.name(s), &rc));
    }

    #[test]
    fn intern_index_matches_string_interning() {
        let mut i = Interner::new();
        for idx in [0usize, 1, 9, 10, 42, 255, 256, 1000, usize::MAX] {
            assert_eq!(i.intern_index(idx), i.intern(&idx.to_string()));
        }
        // Idempotent, and order-independent with plain interning.
        let mut j = Interner::new();
        let a = j.intern("7");
        assert_eq!(j.intern_index(7), a);
    }

    #[test]
    fn distinct_names_get_distinct_syms() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "a");
        assert_eq!(i.resolve(b), "b");
    }
}
