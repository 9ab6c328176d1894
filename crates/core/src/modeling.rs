//! Executable soundness checking — the observable content of Theorem 1.
//!
//! The theorem states that the instrumented state *models* every concrete
//! state reachable from a modeled initial state: where the instrumented
//! run has `v!`, the concrete run has (µ-correspondingly) `v`. We check
//! the consequence clients rely on: align the instrumented run's
//! observation stream with a concrete run's stream at matching
//! `(point, context, hit-index)` positions, and verify that every
//! *determinate* instrumented value predicts the concrete value — building
//! the address bijection µ incrementally for object values.

use crate::det::Det;
use crate::machine::DObservation;
use mujs_interp::context::{ContextTable, CtxId};
use mujs_interp::Observation;
use mujs_interp::{ObjId, Value};
use mujs_ir::StmtId;
use std::collections::HashMap;

/// A machine-independent calling-context key: the resolved
/// `(site, occurrence)` chain. Raw [`CtxId`]s are interning artifacts of
/// one machine and do not align across machines.
type CtxKey = Vec<(StmtId, u32)>;

/// A soundness violation found by [`check_soundness`].
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A determinate instrumented value disagreed with the concrete value.
    ValueMismatch {
        /// The program point.
        point: StmtId,
        /// The calling context (as interned by the *instrumented* run).
        ctx: CtxId,
        /// Index of the hit at this `(point, ctx)`.
        hit: usize,
        /// What the instrumented run predicted.
        predicted: String,
        /// What the concrete run computed.
        actual: String,
    },
    /// The address bijection µ would need to map one concrete address to
    /// two instrumented addresses (or vice versa).
    AddressClash {
        /// The program point.
        point: StmtId,
        /// The calling context.
        ctx: CtxId,
        /// Index of the hit.
        hit: usize,
    },
}

/// Result of a soundness comparison.
#[derive(Debug, Default)]
pub struct SoundnessReport {
    /// Positions where a determinate prediction was checked.
    pub checked: usize,
    /// Positions skipped because the instrumented value was `?`.
    pub skipped_indet: usize,
    /// Violations found (must be empty for a sound analysis).
    pub violations: Vec<Violation>,
}

impl SoundnessReport {
    /// Whether no violations were found.
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks one concrete run against the instrumented run's observations.
///
/// Both observation streams are grouped by `(point, ctx)` and aligned by
/// hit index; the instrumented machine does not record counterfactual
/// hits, so positions correspond whenever control up to the point is
/// determinate — positions that exist on only one side are ignored (they
/// arise from legitimately divergent control on indeterminate branches).
pub fn check_soundness(
    instrumented: &[DObservation],
    instr_ctxs: &ContextTable,
    concrete: &[Observation],
    concrete_ctxs: &ContextTable,
) -> SoundnessReport {
    let mut report = SoundnessReport::default();
    // µ: concrete address → instrumented address (and inverse).
    let mut mu: HashMap<ObjId, ObjId> = HashMap::new();
    let mut mu_inv: HashMap<ObjId, ObjId> = HashMap::new();

    // Resolve interned context ids to machine-independent frame chains.
    let mut c_frames: HashMap<CtxId, CtxKey> = HashMap::new();
    let mut concrete_streams: HashMap<(StmtId, CtxKey), Vec<&Value>> = HashMap::new();
    for o in concrete {
        let frames = c_frames
            .entry(o.ctx)
            .or_insert_with(|| concrete_ctxs.frames(o.ctx))
            .clone();
        concrete_streams
            .entry((o.point, frames))
            .or_default()
            .push(&o.value);
    }
    let mut i_frames: HashMap<CtxId, CtxKey> = HashMap::new();
    let mut instr_hit_counts: HashMap<(StmtId, CtxKey), usize> = HashMap::new();

    for obs in instrumented {
        let frames = i_frames
            .entry(obs.ctx)
            .or_insert_with(|| instr_ctxs.frames(obs.ctx))
            .clone();
        let key = (obs.point, frames);
        let hit = {
            let c = instr_hit_counts.entry(key.clone()).or_insert(0);
            let h = *c;
            *c += 1;
            h
        };
        if obs.value.d == Det::I {
            report.skipped_indet += 1;
            continue;
        }
        let Some(stream) = concrete_streams.get(&key) else {
            continue;
        };
        let Some(actual) = stream.get(hit) else {
            continue;
        };
        report.checked += 1;
        match (&obs.value.v, actual) {
            (Value::Object(i_id), Value::Object(c_id)) => {
                let prev = mu.get(c_id).copied();
                let prev_inv = mu_inv.get(i_id).copied();
                match (prev, prev_inv) {
                    (None, None) => {
                        mu.insert(*c_id, *i_id);
                        mu_inv.insert(*i_id, *c_id);
                    }
                    (Some(mapped), _) if mapped == *i_id => {}
                    (None, Some(inv)) if inv == *c_id => {}
                    _ => report.violations.push(Violation::AddressClash {
                        point: obs.point,
                        ctx: obs.ctx,
                        hit,
                    }),
                }
            }
            (Value::Object(_), other) => {
                report.violations.push(Violation::ValueMismatch {
                    point: obs.point,
                    ctx: obs.ctx,
                    hit,
                    predicted: "<object>".to_owned(),
                    actual: format!("{other:?}"),
                });
            }
            (pred, act) => {
                if !prim_eq(pred, act) {
                    report.violations.push(Violation::ValueMismatch {
                        point: obs.point,
                        ctx: obs.ctx,
                        hit,
                        predicted: format!("{pred:?}"),
                        actual: format!("{act:?}"),
                    });
                }
            }
        }
    }
    report
}

fn prim_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits() || x == y,
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::DValue;

    fn dobs(point: u32, v: Value, d: Det) -> DObservation {
        DObservation {
            point: StmtId(point),
            ctx: CtxId::ROOT,
            value: DValue { v, d },
        }
    }

    fn cobs(point: u32, v: Value) -> Observation {
        Observation {
            point: StmtId(point),
            ctx: CtxId::ROOT,
            value: v,
        }
    }

    fn check(i: &[DObservation], c: &[Observation]) -> SoundnessReport {
        let t1 = ContextTable::new();
        let t2 = ContextTable::new();
        check_soundness(i, &t1, c, &t2)
    }

    #[test]
    fn matching_primitives_are_sound() {
        let i = vec![dobs(1, Value::Num(5.0), Det::D)];
        let c = vec![cobs(1, Value::Num(5.0))];
        let r = check(&i, &c);
        assert!(r.is_sound());
        assert_eq!(r.checked, 1);
    }

    #[test]
    fn determinate_mismatch_is_a_violation() {
        let i = vec![dobs(1, Value::Num(5.0), Det::D)];
        let c = vec![cobs(1, Value::Num(6.0))];
        let r = check(&i, &c);
        assert!(!r.is_sound());
    }

    #[test]
    fn indeterminate_mismatch_is_fine() {
        let i = vec![dobs(1, Value::Num(5.0), Det::I)];
        let c = vec![cobs(1, Value::Num(6.0))];
        let r = check(&i, &c);
        assert!(r.is_sound());
        assert_eq!(r.skipped_indet, 1);
    }

    #[test]
    fn object_bijection_is_enforced() {
        // Same instrumented object maps consistently to one concrete
        // object...
        let i = vec![
            dobs(1, Value::Object(ObjId(10)), Det::D),
            dobs(2, Value::Object(ObjId(10)), Det::D),
        ];
        let c = vec![
            cobs(1, Value::Object(ObjId(77))),
            cobs(2, Value::Object(ObjId(77))),
        ];
        assert!(check(&i, &c).is_sound());
        // ...but not to two different ones.
        let c_bad = vec![
            cobs(1, Value::Object(ObjId(77))),
            cobs(2, Value::Object(ObjId(78))),
        ];
        assert!(!check(&i, &c_bad).is_sound());
    }

    #[test]
    fn repeated_hits_align_by_index() {
        let i = vec![
            dobs(1, Value::Num(1.0), Det::D),
            dobs(1, Value::Num(2.0), Det::D),
        ];
        let c = vec![cobs(1, Value::Num(1.0)), cobs(1, Value::Num(2.0))];
        let r = check(&i, &c);
        assert!(r.is_sound());
        assert_eq!(r.checked, 2);
    }
}
