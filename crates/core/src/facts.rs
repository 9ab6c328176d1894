//! The determinacy fact database.
//!
//! A fact `J e K ctx = v` states that the location producing `e` holds the
//! value `v` whenever any execution reaches it under calling context `ctx`
//! (§2.1). Facts are recorded at IR statements (each statement is a
//! program point); when the same `(point, ctx)` is reached several times in
//! one run, the hits are merged — still-equal determinate values survive,
//! anything else degrades to indeterminate.

use crate::det::{DValue, Det, FactValue};
use mujs_interp::context::{ContextTable, CtxId};
use mujs_interp::{ObjClass, Value};
use mujs_ir::hash::FastMap;
use mujs_ir::{Program, StmtId};
use mujs_syntax::span::SourceFile;

/// A merged fact at one `(point, context)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Fact {
    /// Every execution sees this value here.
    Det(FactValue),
    /// The paper's `?`.
    Indet,
}

impl Fact {
    /// The determinate payload, if any.
    pub fn value(&self) -> Option<&FactValue> {
        match self {
            Fact::Det(v) => Some(v),
            Fact::Indet => None,
        }
    }

    /// Whether the fact is determinate.
    pub fn is_det(&self) -> bool {
        matches!(self, Fact::Det(_))
    }

    /// Cross-run union: both sides are all-executions claims, so more
    /// knowledge wins. Returns `true` on a determinate-vs-determinate
    /// conflict (impossible for sound inputs; degraded conservatively).
    fn union_with(&mut self, incoming: &Fact) -> bool {
        match (&*self, incoming) {
            (Fact::Det(a), Fact::Det(b)) => {
                if a.same(b) {
                    false
                } else {
                    *self = Fact::Indet;
                    true
                }
            }
            (Fact::Indet, Fact::Det(_)) => {
                *self = incoming.clone();
                false
            }
            _ => false,
        }
    }

    /// Within-run merge of two hits: the fact stays determinate only when
    /// both hits are determinate with the same value.
    fn merge_with(&mut self, incoming: &Fact) {
        if !matches!((&*self, incoming), (Fact::Det(a), Fact::Det(b)) if a.same(b)) {
            *self = Fact::Indet;
        }
    }
}

/// A loop's trip-count fact: how many times the body ran under a context,
/// provided every condition evaluation was determinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripFact {
    /// All condition tests were determinate and the body ran `n` times —
    /// every execution iterates exactly `n` times here.
    Exact(u32),
    /// Some condition test was indeterminate: no bound is known.
    Unknown,
}

impl TripFact {
    fn merge_with(&mut self, incoming: TripFact) {
        if *self != incoming {
            *self = TripFact::Unknown;
        }
    }
}

/// Kinds of facts stored in the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FactKind {
    /// The value written by a defining statement.
    Define,
    /// The condition value of an `if`.
    Cond,
    /// The argument string of a direct `eval`.
    EvalArg,
    /// The callee value of a call/new site.
    Callee,
    /// The (string) key of a dynamic property access — the fact driving
    /// §5.1's "making dynamic property accesses with determinate property
    /// names static".
    PropKey,
}

impl FactKind {
    /// The kind's name, as exported fact rows spell it.
    pub fn name(self) -> &'static str {
        match self {
            FactKind::Define => "Define",
            FactKind::Cond => "Cond",
            FactKind::EvalArg => "EvalArg",
            FactKind::Callee => "Callee",
            FactKind::PropKey => "PropKey",
        }
    }
}

/// The fact database produced by one (or merged from several) instrumented
/// runs.
#[derive(Debug, Default)]
pub struct FactDb {
    facts: FastMap<(FactKind, StmtId, CtxId), Fact>,
    trips: FastMap<(StmtId, CtxId), TripFact>,
    dropped: u64,
    max_entries: usize,
}

impl FactDb {
    /// An empty database capped at `max_entries` point facts and as many
    /// trip facts (0 = unlimited).
    pub fn new(max_entries: usize) -> Self {
        FactDb {
            max_entries,
            ..Default::default()
        }
    }

    fn over_cap(&self, len: usize) -> bool {
        self.max_entries != 0 && len >= self.max_entries
    }

    /// Records one observation, merging with previous hits.
    pub fn record(&mut self, kind: FactKind, point: StmtId, ctx: CtxId, dv: &DValue) {
        let incoming = match dv.d {
            Det::D => Fact::Det(fact_value(&dv.v, None)),
            Det::I => Fact::Indet,
        };
        self.record_fact(kind, point, ctx, incoming);
    }

    /// Records an observation whose closure identity is known.
    pub fn record_with_class(
        &mut self,
        kind: FactKind,
        point: StmtId,
        ctx: CtxId,
        dv: &DValue,
        class: Option<&ObjClass>,
    ) {
        let incoming = match dv.d {
            Det::D => Fact::Det(fact_value(&dv.v, class)),
            Det::I => Fact::Indet,
        };
        self.record_fact(kind, point, ctx, incoming);
    }

    /// Records a pre-merged fact (used by multi-run absorption and
    /// context projection).
    pub fn record_merged(&mut self, kind: FactKind, point: StmtId, ctx: CtxId, fact: Fact) {
        self.record_fact(kind, point, ctx, fact);
    }

    fn record_fact(&mut self, kind: FactKind, point: StmtId, ctx: CtxId, incoming: Fact) {
        use std::collections::hash_map::Entry;
        let at_cap = self.over_cap(self.facts.len());
        match self.facts.entry((kind, point, ctx)) {
            Entry::Occupied(mut e) => e.get_mut().merge_with(&incoming),
            Entry::Vacant(e) => {
                if at_cap {
                    self.dropped += 1;
                } else {
                    e.insert(incoming);
                }
            }
        }
    }

    /// Number of point and trip observations dropped because the cap was
    /// reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records a loop trip-count observation.
    pub fn record_trip(&mut self, point: StmtId, ctx: CtxId, trip: TripFact) {
        use std::collections::hash_map::Entry;
        let at_cap = self.over_cap(self.trips.len());
        match self.trips.entry((point, ctx)) {
            Entry::Occupied(mut e) => e.get_mut().merge_with(trip),
            Entry::Vacant(e) => {
                if at_cap {
                    self.dropped += 1;
                } else {
                    e.insert(trip);
                }
            }
        }
    }

    /// Looks up a fact.
    pub fn get(&self, kind: FactKind, point: StmtId, ctx: CtxId) -> Option<&Fact> {
        self.facts.get(&(kind, point, ctx))
    }

    /// Looks up a loop trip fact.
    pub fn trip(&self, point: StmtId, ctx: CtxId) -> Option<TripFact> {
        self.trips.get(&(point, ctx)).copied()
    }

    /// All facts of a kind at a point, across contexts.
    pub fn at_point(&self, kind: FactKind, point: StmtId) -> impl Iterator<Item = (CtxId, &Fact)> {
        self.facts
            .iter()
            .filter(move |((k, p, _), _)| *k == kind && *p == point)
            .map(|((_, _, c), f)| (*c, f))
    }

    /// Iterates over every stored fact.
    pub fn iter(&self) -> impl Iterator<Item = (FactKind, StmtId, CtxId, &Fact)> {
        self.facts.iter().map(|((k, p, c), f)| (*k, *p, *c, f))
    }

    /// Iterates over every trip fact.
    pub fn iter_trips(&self) -> impl Iterator<Item = (StmtId, CtxId, TripFact)> + '_ {
        self.trips.iter().map(|((p, c), t)| (*p, *c, *t))
    }

    /// Number of stored point facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether no facts are stored.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Count of determinate point facts.
    pub fn det_count(&self) -> usize {
        self.facts.values().filter(|f| f.is_det()).count()
    }

    /// Merges facts recorded against the *same* context table (e.g. facts
    /// split by kind within one run); clashing entries must agree or
    /// degrade. For combining *different runs*, whose context ids are
    /// interning artifacts, use [`FactDb::absorb_reinterned`].
    pub fn absorb(&mut self, other: &FactDb) {
        for (k, p, c, f) in other.iter() {
            self.record_fact(k, p, c, f.clone());
        }
        for (p, c, t) in other.iter_trips() {
            self.record_trip(p, c, t);
        }
    }

    /// Merges another run's facts, translating its context ids into
    /// `target_ctxs` via the machine-independent frame chains — the sound
    /// way to combine runs (§7: "running the determinacy analysis on
    /// different inputs yields more facts, which are all sound and hence
    /// can be used together").
    ///
    /// Unlike within-run recording (positional, where any indeterminate
    /// hit degrades the entry), each run's entry is already a sound
    /// all-executions claim, so the *union of knowledge* applies: a
    /// determinate entry beats an indeterminate one. Two *different*
    /// determinate values at the same point cannot both be sound; the
    /// entry degrades and the returned conflict count is nonzero —
    /// a nonzero count indicates an analysis bug, not an input property.
    pub fn absorb_reinterned(
        &mut self,
        other: &FactDb,
        other_ctxs: &ContextTable,
        target_ctxs: &mut ContextTable,
    ) -> u64 {
        let mut remap: FastMap<CtxId, CtxId> = FastMap::default();
        let mut translate = |c: CtxId, target: &mut ContextTable| -> CtxId {
            if let Some(&t) = remap.get(&c) {
                return t;
            }
            let mut cur = CtxId::ROOT;
            for (site, occ) in other_ctxs.frames(c) {
                cur = target.child(cur, site, occ);
            }
            remap.insert(c, cur);
            cur
        };
        let mut conflicts = 0u64;
        for (k, p, c, f) in other.iter() {
            let tc = translate(c, target_ctxs);
            conflicts += self.record_union(k, p, tc, f.clone()) as u64;
        }
        for (p, c, t) in other.iter_trips() {
            let tc = translate(c, target_ctxs);
            self.record_trip_union(p, tc, t);
        }
        conflicts
    }

    fn record_union(&mut self, kind: FactKind, point: StmtId, ctx: CtxId, incoming: Fact) -> bool {
        use std::collections::hash_map::Entry;
        let at_cap = self.over_cap(self.facts.len());
        match self.facts.entry((kind, point, ctx)) {
            Entry::Occupied(mut e) => e.get_mut().union_with(&incoming),
            Entry::Vacant(e) => {
                if at_cap {
                    self.dropped += 1;
                } else {
                    e.insert(incoming);
                }
                false
            }
        }
    }

    fn record_trip_union(&mut self, point: StmtId, ctx: CtxId, trip: TripFact) {
        use std::collections::hash_map::Entry;
        let at_cap = self.over_cap(self.trips.len());
        match self.trips.entry((point, ctx)) {
            Entry::Occupied(mut e) => {
                let cur = *e.get();
                match (cur, trip) {
                    (TripFact::Unknown, TripFact::Exact(_)) => {
                        e.insert(trip);
                    }
                    (TripFact::Exact(a), TripFact::Exact(b)) if a != b => {
                        e.insert(TripFact::Unknown);
                    }
                    _ => {}
                }
            }
            Entry::Vacant(e) => {
                if at_cap {
                    self.dropped += 1;
                } else {
                    e.insert(trip);
                }
            }
        }
    }

    /// Pretty-prints a fact in the paper's `J s K ctx = v` notation.
    pub fn describe(
        &self,
        kind: FactKind,
        point: StmtId,
        ctx: CtxId,
        prog: &Program,
        sf: &SourceFile,
        ctxs: &ContextTable,
    ) -> Option<String> {
        let f = self.get(kind, point, ctx)?;
        let line = sf.line_col(prog.span_of(point)).line;
        let ctx_s = ctxs.describe(ctx, prog, sf);
        let val = match f {
            Fact::Det(v) => v.to_string(),
            Fact::Indet => "?".to_owned(),
        };
        Some(if ctx_s == "⊤" {
            format!("J {line} K = {val}")
        } else {
            format!("J {line} K {ctx_s} = {val}")
        })
    }
}

/// Abstracts a runtime value into a [`FactValue`]; `class` supplies the
/// object class for closure detection.
pub fn fact_value(v: &Value, class: Option<&ObjClass>) -> FactValue {
    match v {
        Value::Undefined => FactValue::Undefined,
        Value::Null => FactValue::Null,
        Value::Bool(b) => FactValue::Bool(*b),
        Value::Num(n) => FactValue::Num(*n),
        Value::Str(s) => FactValue::Str(s.clone()),
        Value::Object(id) => match class {
            Some(ObjClass::Function { func, .. }) => FactValue::Closure(*func),
            _ => FactValue::Object(*id),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mujs_interp::Value;

    fn dv(v: Value) -> DValue {
        DValue::det(v)
    }

    #[test]
    fn equal_hits_stay_determinate() {
        let mut db = FactDb::new(0);
        let p = StmtId(1);
        db.record(FactKind::Define, p, CtxId::ROOT, &dv(Value::Num(5.0)));
        db.record(FactKind::Define, p, CtxId::ROOT, &dv(Value::Num(5.0)));
        assert_eq!(
            db.get(FactKind::Define, p, CtxId::ROOT),
            Some(&Fact::Det(FactValue::Num(5.0)))
        );
    }

    #[test]
    fn trip_facts_honour_the_cap() {
        let mut db = FactDb::new(2);
        for p in 0..5 {
            db.record_trip(StmtId(p), CtxId::ROOT, TripFact::Exact(p));
        }
        assert_eq!(db.iter_trips().count(), 2);
        assert_eq!(db.dropped(), 3);
        // A stored entry still merges at the cap.
        db.record_trip(StmtId(0), CtxId::ROOT, TripFact::Exact(9));
        assert_eq!(db.trip(StmtId(0), CtxId::ROOT), Some(TripFact::Unknown));
        assert_eq!(db.dropped(), 3);
        // Point facts have their own room under the same cap.
        db.record(
            FactKind::Define,
            StmtId(0),
            CtxId::ROOT,
            &dv(Value::Num(1.0)),
        );
        assert_eq!(db.len(), 1);
        // Merging another run's trips honours the cap too.
        let ctxs = ContextTable::new();
        let mut target = ContextTable::new();
        let mut merged = FactDb::new(2);
        merged.absorb_reinterned(&db, &ctxs, &mut target);
        let mut more = FactDb::new(0);
        for p in 10..13 {
            more.record_trip(StmtId(p), CtxId::ROOT, TripFact::Exact(1));
        }
        merged.absorb_reinterned(&more, &ctxs, &mut target);
        assert_eq!(merged.iter_trips().count(), 2);
        assert_eq!(merged.dropped(), 3);
        // Uncapped, nothing is dropped.
        let mut free = FactDb::new(0);
        free.absorb_reinterned(&more, &ctxs, &mut target);
        assert_eq!((free.iter_trips().count(), free.dropped()), (3, 0));
    }

    #[test]
    fn conflicting_hits_degrade() {
        let mut db = FactDb::new(0);
        let p = StmtId(1);
        db.record(FactKind::Define, p, CtxId::ROOT, &dv(Value::Num(5.0)));
        db.record(FactKind::Define, p, CtxId::ROOT, &dv(Value::Num(6.0)));
        assert_eq!(db.get(FactKind::Define, p, CtxId::ROOT), Some(&Fact::Indet));
    }

    #[test]
    fn indeterminate_poisons() {
        let mut db = FactDb::new(0);
        let p = StmtId(1);
        db.record(FactKind::Define, p, CtxId::ROOT, &dv(Value::Num(5.0)));
        db.record(
            FactKind::Define,
            p,
            CtxId::ROOT,
            &DValue::indet(Value::Num(5.0)),
        );
        assert_eq!(db.get(FactKind::Define, p, CtxId::ROOT), Some(&Fact::Indet));
        // The other order: an indeterminate first hit stays indeterminate.
        let q = StmtId(2);
        db.record(
            FactKind::Define,
            q,
            CtxId::ROOT,
            &DValue::indet(Value::Num(5.0)),
        );
        db.record(FactKind::Define, q, CtxId::ROOT, &dv(Value::Num(5.0)));
        assert_eq!(db.get(FactKind::Define, q, CtxId::ROOT), Some(&Fact::Indet));
    }

    #[test]
    fn trip_facts_merge() {
        let mut db = FactDb::new(0);
        let p = StmtId(2);
        db.record_trip(p, CtxId::ROOT, TripFact::Exact(2));
        db.record_trip(p, CtxId::ROOT, TripFact::Exact(2));
        assert_eq!(db.trip(p, CtxId::ROOT), Some(TripFact::Exact(2)));
        db.record_trip(p, CtxId::ROOT, TripFact::Exact(3));
        assert_eq!(db.trip(p, CtxId::ROOT), Some(TripFact::Unknown));
    }

    #[test]
    fn absorb_unions_databases() {
        let mut a = FactDb::new(0);
        let mut b = FactDb::new(0);
        a.record(
            FactKind::Define,
            StmtId(1),
            CtxId::ROOT,
            &dv(Value::Num(1.0)),
        );
        b.record(
            FactKind::Cond,
            StmtId(2),
            CtxId::ROOT,
            &dv(Value::Bool(true)),
        );
        a.absorb(&b);
        assert_eq!(a.len(), 2);
        assert!(a.get(FactKind::Cond, StmtId(2), CtxId::ROOT).is_some());
    }

    #[test]
    fn kinds_are_separate_namespaces() {
        let mut db = FactDb::new(0);
        let p = StmtId(1);
        db.record(FactKind::Define, p, CtxId::ROOT, &dv(Value::Num(1.0)));
        db.record(FactKind::Cond, p, CtxId::ROOT, &dv(Value::Bool(true)));
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn kind_names_are_their_debug_names() {
        use FactKind::*;
        for kind in [Define, Cond, EvalArg, Callee, PropKey] {
            assert_eq!(kind.name(), format!("{kind:?}"));
        }
    }
}
