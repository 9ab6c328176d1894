//! Determinacy annotations — the `d ∈ {!, ?}` domain of the instrumented
//! semantics (Figure 7).

use mujs_interp::{ObjId, Value};
use mujs_ir::FuncId;
use std::fmt;
use std::rc::Rc;

/// A determinacy flag: `D` is the paper's `!` ("this value is the same in
/// every execution"), `I` is `?` ("may differ across executions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Det {
    /// Determinate (`!`).
    D,
    /// Indeterminate (`?`).
    I,
}

impl Det {
    /// The join: determinate only if both are.
    #[must_use]
    pub fn join(self, other: Det) -> Det {
        match (self, other) {
            (Det::D, Det::D) => Det::D,
            _ => Det::I,
        }
    }

    /// Whether this is `!`.
    pub fn is_det(self) -> bool {
        self == Det::D
    }
}

impl fmt::Display for Det {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Det::D => "!",
            Det::I => "?",
        })
    }
}

/// An instrumented value `v^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct DValue {
    /// The concrete value observed in this run.
    pub v: Value,
    /// Its determinacy.
    pub d: Det,
}

impl DValue {
    /// A determinate value (`v!`).
    pub fn det(v: Value) -> Self {
        DValue { v, d: Det::D }
    }

    /// An indeterminate value (`v?`).
    pub fn indet(v: Value) -> Self {
        DValue { v, d: Det::I }
    }

    /// `undefined!`.
    pub fn undef() -> Self {
        DValue::det(Value::Undefined)
    }

    /// The same value with the joined flag (`(v^d1)^d2`).
    #[must_use]
    pub fn weaken(mut self, d: Det) -> Self {
        self.d = self.d.join(d);
        self
    }
}

impl mujs_interp::Flag for Det {
    const DET: Det = Det::D;
    const INDET: Det = Det::I;
    #[inline]
    fn join(self, other: Det) -> Det {
        Det::join(self, other)
    }
    #[inline]
    fn is_indet(self) -> bool {
        self == Det::I
    }
}

impl mujs_interp::AnnValue for DValue {
    type Flag = Det;
    #[inline]
    fn new(v: Value, d: Det) -> Self {
        DValue { v, d }
    }
    #[inline]
    fn v(&self) -> &Value {
        &self.v
    }
    #[inline]
    fn d(&self) -> Det {
        self.d
    }
    #[inline]
    fn into_parts(self) -> (Value, Det) {
        (self.v, self.d)
    }
    #[inline]
    fn weaken(self, d: Det) -> Self {
        DValue::weaken(self, d)
    }
}

/// Epoch sentinel for slots installed by the standard library setup: they
/// stay determinate across flushes (documented assumption: unanalyzed code
/// does not overwrite built-ins; user overwrites replace the sentinel with
/// a normal epoch and are tracked precisely). The largest epoch a
/// [`SlotAnn`] holds.
pub const BUILTIN_EPOCH: u64 = u64::MAX >> 1;

/// Slot annotation: determinacy flag plus the epoch counter at write time.
/// A slot is determinate iff its flag is [`Det::D`] *and* its epoch is
/// current — incrementing the global epoch is the O(1) heap flush of §4.
///
/// Packed into one word: bit 0 is the indeterminate flag, the bits above
/// it are the epoch. This keeps a slot at 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotAnn(u64);

impl SlotAnn {
    /// An annotation with flag `det` written at `epoch` (at most
    /// [`BUILTIN_EPOCH`]).
    #[inline]
    pub fn new(det: Det, epoch: u64) -> Self {
        debug_assert!(epoch <= BUILTIN_EPOCH, "epoch overflows the packed word");
        SlotAnn(epoch << 1 | u64::from(det == Det::I))
    }

    /// Flag recorded at write time.
    #[inline]
    pub fn det(self) -> Det {
        if self.0 & 1 == 0 {
            Det::D
        } else {
            Det::I
        }
    }

    /// Global epoch at write time.
    #[inline]
    pub fn epoch(self) -> u64 {
        self.0 >> 1
    }

    /// Sets the flag to [`Det::I`], keeping the epoch.
    #[inline]
    pub fn mark_indet(&mut self) {
        self.0 |= 1;
    }

    /// The effective determinacy given the current epoch and whether the
    /// slot's container is subject to flushing.
    #[inline]
    pub fn effective(self, current_epoch: u64, flushable: bool) -> Det {
        if self.det() == Det::D && (!flushable || self.epoch() == current_epoch) {
            Det::D
        } else {
            Det::I
        }
    }
}

// The packing, checked at build time: one word of annotation, so an
// instrumented slot is a value plus 8 bytes.
const _: () = assert!(std::mem::size_of::<SlotAnn>() == 8);
const _: () = assert!(std::mem::size_of::<mujs_interp::Slot<SlotAnn>>() == 32);

/// The value part of a determinacy fact, suitable for storage and
/// cross-run comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum FactValue {
    /// `undefined`
    Undefined,
    /// `null`
    Null,
    /// A boolean.
    Bool(bool),
    /// A number (bit-compared so `NaN` facts are stable).
    Num(f64),
    /// A string.
    Str(Rc<str>),
    /// A closure over the given function. Closures with the same code but
    /// different environments compare equal at this granularity; clients
    /// that need environments must consult contexts.
    Closure(FuncId),
    /// A non-function object, identified by its address in the
    /// instrumented run (meaningful within one analysis run; across runs
    /// it is related by the paper's address mapping µ).
    Object(ObjId),
}

impl FactValue {
    /// Structural equality with bitwise NaN handling.
    pub fn same(&self, other: &FactValue) -> bool {
        match (self, other) {
            (FactValue::Num(a), FactValue::Num(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }

    /// Converts to a plain [`Value`] when primitive.
    pub fn as_value(&self) -> Option<Value> {
        Some(match self {
            FactValue::Undefined => Value::Undefined,
            FactValue::Null => Value::Null,
            FactValue::Bool(b) => Value::Bool(*b),
            FactValue::Num(n) => Value::Num(*n),
            FactValue::Str(s) => Value::Str(s.clone()),
            FactValue::Closure(_) | FactValue::Object(_) => return None,
        })
    }

    /// The string payload, if this is a string fact.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FactValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean fact.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            FactValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for FactValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactValue::Undefined => write!(f, "undefined"),
            FactValue::Null => write!(f, "null"),
            FactValue::Bool(b) => write!(f, "{b}"),
            FactValue::Num(n) => write!(f, "{}", mujs_syntax::pretty::num_to_str(*n)),
            FactValue::Str(s) => write!(f, "{}", mujs_syntax::pretty::quote_str(s)),
            FactValue::Closure(id) => write!(f, "<closure {id}>"),
            FactValue::Object(id) => write!(f, "<object {id}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_table() {
        assert_eq!(Det::D.join(Det::D), Det::D);
        assert_eq!(Det::D.join(Det::I), Det::I);
        assert_eq!(Det::I.join(Det::D), Det::I);
        assert_eq!(Det::I.join(Det::I), Det::I);
    }

    #[test]
    fn weaken_applies_outer_flag() {
        let v = DValue::det(Value::Num(1.0));
        assert_eq!(v.clone().weaken(Det::D).d, Det::D);
        assert_eq!(v.weaken(Det::I).d, Det::I);
    }

    #[test]
    fn slot_effective_determinacy() {
        let s = SlotAnn::new(Det::D, 3);
        assert_eq!(s.effective(3, true), Det::D);
        assert_eq!(s.effective(4, true), Det::I); // flushed since
        assert_eq!(s.effective(4, false), Det::D); // not flushable
        let i = SlotAnn::new(Det::I, 4);
        assert_eq!(i.effective(4, true), Det::I);
        assert_eq!(i.effective(4, false), Det::I);
    }

    #[test]
    fn slot_ann_packs_flag_and_epoch() {
        for det in [Det::D, Det::I] {
            for epoch in [0, 1, 2, 1000, u64::from(u32::MAX) + 1, BUILTIN_EPOCH] {
                let a = SlotAnn::new(det, epoch);
                assert_eq!((a.det(), a.epoch()), (det, epoch));
            }
        }
        let mut a = SlotAnn::new(Det::D, 41);
        a.mark_indet();
        assert_eq!((a.det(), a.epoch()), (Det::I, 41));
        a.mark_indet();
        assert_eq!((a.det(), a.epoch()), (Det::I, 41));
    }

    #[test]
    fn builtin_epoch_is_the_largest_packed_epoch() {
        assert_eq!(BUILTIN_EPOCH, u64::MAX >> 1);
        let b = SlotAnn::new(Det::D, BUILTIN_EPOCH);
        assert_eq!(b.epoch(), BUILTIN_EPOCH);
        assert_eq!(b.det(), Det::D);
        // A built-in slot is not flushable: it stays determinate at any
        // current epoch, and a user mark still makes it indeterminate.
        assert_eq!(b.effective(7, false), Det::D);
        let mut m = b;
        m.mark_indet();
        assert_eq!(m.epoch(), BUILTIN_EPOCH);
        assert_eq!(m.effective(7, false), Det::I);
        assert_ne!(SlotAnn::new(Det::D, 0), SlotAnn::new(Det::I, 0));
    }

    #[test]
    fn nan_facts_compare_equal() {
        assert!(FactValue::Num(f64::NAN).same(&FactValue::Num(f64::NAN)));
        assert!(!FactValue::Num(0.0).same(&FactValue::Num(1.0)));
    }
}
