//! Imprecision provenance: compact blame tags threaded through
//! propagation.
//!
//! When [`crate::PtaConfig::provenance`] is on, every points-to tuple
//! `(node, object)` carries a `Blame` tag — a `u32` index into an interned
//! side table of [`BlameCause`]s — recording the *first cause* that
//! introduced the tuple:
//!
//! * tuples seeded by a precisely modeled constraint (allocation sites,
//!   closure values, prototype records, the global object) are [`Base`];
//! * tuples seeded at an unanalyzable construct name the construct — an
//!   eval-lowered chunk ([`Eval`]), an unmodeled native / opaque call
//!   result ([`Native`]), the coarse `arguments` array ([`Arguments`]);
//! * tuples introduced because an injected determinacy fact resolved a
//!   site are [`Injected`];
//! * tuples applied from a concrete-execution region summary are
//!   [`Shortcut`];
//! * tuples flowing *out of* a havoc node are stamped with that node's
//!   cause: the per-object ⋆-join feeding dynamic reads
//!   ([`StarSmear`]), the unknown-name store pool flushed into every read
//!   ([`UnknownSmear`]), the thrown-value pool ([`ExcFlow`]);
//! * tuples arriving over an ordinary copy edge inherit the blame of the
//!   source tuple.
//!
//! Because points-to growth is monotone, a tuple is inserted exactly once
//! and its blame is assigned at that insertion — difference propagation
//! never revisits it. Blame rides the same sequential schedule as the
//! provenance-free solve, so a budget-truncated blame export explains
//! exactly the partial result the plain solve reports.
//!
//! [`Base`]: BlameCause::Base
//! [`Eval`]: BlameCause::Eval
//! [`Native`]: BlameCause::Native
//! [`Arguments`]: BlameCause::Arguments
//! [`Injected`]: BlameCause::Injected
//! [`Shortcut`]: BlameCause::Shortcut
//! [`StarSmear`]: BlameCause::StarSmear
//! [`UnknownSmear`]: BlameCause::UnknownSmear
//! [`ExcFlow`]: BlameCause::ExcFlow

use crate::nodes::AbsObj;
use mujs_ir::hash::FastMap;
use mujs_ir::{FuncId, StmtId};

/// Sentinel outflow stamp: the node is not a havoc node; tuples flowing
/// out of it keep their inherited blame.
pub(crate) const INHERIT: u32 = u32::MAX;

/// The interned tag id of [`BlameCause::Base`] (always interned first).
pub(crate) const BASE_TAG: u32 = 0;

/// The root cause that first introduced a points-to tuple.
///
/// The derived [`Ord`] is the deterministic order reports rank causes
/// by (ties in [`crate::PtaResult::blame_histogram`], the sorted rows of
/// [`crate::PtaResult::blame_of`]): more precisely modeled origins
/// (earlier variants) come before havoc smears.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlameCause {
    /// Seeded by a precisely modeled base constraint: an allocation site,
    /// a closure value, a prototype record, or the global object.
    Base,
    /// Introduced because an injected determinacy fact resolved the site
    /// (a determinate dynamic key or callee).
    Injected(StmtId),
    /// Introduced by applying a concrete-execution region summary at the
    /// named function instead of generating its constraints.
    Shortcut(FuncId),
    /// The coarse `arguments` array of a function (modeled as opaque).
    Arguments(FuncId),
    /// The result of an eval-lowered chunk (statically unanalyzable).
    Eval(StmtId),
    /// The result of calling an unmodeled native / opaque value at a
    /// call site (arguments escape, the result is unknown).
    Native(StmtId),
    /// Flowed out of the coarse thrown-value pool (exception havoc).
    ExcFlow,
    /// Flowed out of an object's ⋆-props join: a dynamic property *read*
    /// with an unresolved key smeared every named property through.
    StarSmear(AbsObj),
    /// Flowed out of an object's unknown-props pool: a dynamic property
    /// *write* with an unresolved key (or a native escape) flushed the
    /// value into every read of the object.
    UnknownSmear(AbsObj),
}

impl BlameCause {
    /// Stable machine-readable kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            BlameCause::Base => "base",
            BlameCause::Injected(_) => "injected",
            BlameCause::Shortcut(_) => "shortcut",
            BlameCause::Arguments(_) => "arguments",
            BlameCause::Eval(_) => "eval",
            BlameCause::Native(_) => "native",
            BlameCause::ExcFlow => "exc-flow",
            BlameCause::StarSmear(_) => "star-smear",
            BlameCause::UnknownSmear(_) => "unknown-smear",
        }
    }

    /// The program point the cause names, when it names one.
    pub fn site(&self) -> Option<StmtId> {
        match self {
            BlameCause::Injected(s) | BlameCause::Eval(s) | BlameCause::Native(s) => Some(*s),
            _ => None,
        }
    }

    /// The smeared object, for the ⋆ / unknown-props causes.
    pub fn smeared_obj(&self) -> Option<&AbsObj> {
        match self {
            BlameCause::StarSmear(o) | BlameCause::UnknownSmear(o) => Some(o),
            _ => None,
        }
    }

    /// Deterministic human/export rendering, e.g.
    /// `star-smear(Alloc(StmtId(12)))`.
    pub fn label(&self) -> String {
        match self {
            BlameCause::Base => "base".to_owned(),
            BlameCause::ExcFlow => "exc-flow".to_owned(),
            BlameCause::Injected(s) => format!("injected({s:?})"),
            BlameCause::Shortcut(f) => format!("shortcut({f:?})"),
            BlameCause::Arguments(f) => format!("arguments({f:?})"),
            BlameCause::Eval(s) => format!("eval({s:?})"),
            BlameCause::Native(s) => format!("native({s:?})"),
            BlameCause::StarSmear(o) => format!("star-smear({o:?})"),
            BlameCause::UnknownSmear(o) => format!("unknown-smear({o:?})"),
        }
    }
}

/// The outflow tag of object `obj` leaving a node with blame row `row`
/// and outflow stamp `stamp`: havoc nodes stamp their own cause, ordinary
/// nodes pass the tuple's recorded blame through (defaulting to
/// [`BASE_TAG`], which cannot happen for tuples inserted under an active
/// provenance layer).
#[inline]
pub(crate) fn outflow(row: &FastMap<u32, u32>, stamp: u32, obj: u32) -> u32 {
    if stamp != INHERIT {
        stamp
    } else {
        row.get(&obj).copied().unwrap_or(BASE_TAG)
    }
}

/// The solver's provenance side state: the interned cause table, one
/// blame row per node, and the per-node outflow stamp.
#[derive(Debug, Default)]
pub(crate) struct Provenance {
    /// Interned causes, indexed by tag id.
    pub tags: Vec<BlameCause>,
    tag_ids: FastMap<BlameCause, u32>,
    /// `node → (obj → tag)`, indexed like the solver's set columns.
    pub blame: Vec<FastMap<u32, u32>>,
    /// Per-node outflow stamp ([`INHERIT`] for ordinary nodes).
    pub stamp: Vec<u32>,
}

impl Provenance {
    pub(crate) fn new() -> Self {
        let mut p = Provenance::default();
        let base = p.intern(BlameCause::Base);
        debug_assert_eq!(base, BASE_TAG);
        p
    }

    /// Interns `cause`, returning its stable tag id.
    pub(crate) fn intern(&mut self, cause: BlameCause) -> u32 {
        if let Some(&t) = self.tag_ids.get(&cause) {
            return t;
        }
        let t = self.tags.len() as u32;
        self.tags.push(cause.clone());
        self.tag_ids.insert(cause, t);
        t
    }

    /// Extends the per-node columns for a freshly materialized node.
    pub(crate) fn push_node(&mut self, stamp: u32) {
        self.blame.push(FastMap::default());
        self.stamp.push(stamp);
    }

    /// Records `tag` as the first cause of `(node, obj)`. Insertions are
    /// monotone and each tuple is inserted once, so a recorded cause is
    /// never overwritten (the call is a no-op if one exists).
    #[inline]
    pub(crate) fn record(&mut self, node: u32, obj: u32, tag: u32) {
        self.blame[node as usize].entry(obj).or_insert(tag);
    }
}

/// The finished blame relation carried by a [`crate::PtaResult`].
#[derive(Debug)]
pub struct BlameData {
    pub(crate) tags: Vec<BlameCause>,
    pub(crate) map: Vec<FastMap<u32, u32>>,
}

impl BlameData {
    /// The cause recorded for `(node, obj)`, if any.
    pub(crate) fn cause_of(&self, node: u32, obj: u32) -> Option<&BlameCause> {
        self.map[node as usize]
            .get(&obj)
            .map(|&t| &self.tags[t as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_deduplicated() {
        let mut p = Provenance::new();
        assert_eq!(p.tags[BASE_TAG as usize], BlameCause::Base);
        let a = p.intern(BlameCause::ExcFlow);
        let b = p.intern(BlameCause::StarSmear(AbsObj::Global));
        assert_eq!(p.intern(BlameCause::ExcFlow), a);
        assert_eq!(p.intern(BlameCause::StarSmear(AbsObj::Global)), b);
        assert_ne!(a, b);
        assert_eq!(p.intern(BlameCause::Base), BASE_TAG);
    }

    #[test]
    fn cause_order_prefers_precise_origins() {
        // Reports rank ties by cause order; precise origins must order
        // before havoc smears.
        assert!(BlameCause::Base < BlameCause::StarSmear(AbsObj::Global));
        assert!(BlameCause::Injected(StmtId(0)) < BlameCause::UnknownSmear(AbsObj::Opaque));
        assert!(BlameCause::Eval(StmtId(1)) < BlameCause::ExcFlow);
    }

    #[test]
    fn outflow_stamps_override_inherited_blame() {
        let mut row = FastMap::default();
        row.insert(7u32, 3u32);
        assert_eq!(outflow(&row, INHERIT, 7), 3);
        assert_eq!(outflow(&row, INHERIT, 8), BASE_TAG);
        assert_eq!(outflow(&row, 5, 7), 5);
    }

    #[test]
    fn labels_and_kinds_are_stable() {
        let c = BlameCause::StarSmear(AbsObj::Alloc(StmtId(12)));
        assert_eq!(c.kind(), "star-smear");
        assert_eq!(c.label(), "star-smear(Alloc(StmtId(12)))");
        assert_eq!(c.site(), None);
        assert!(c.smeared_obj().is_some());
        let i = BlameCause::Injected(StmtId(4));
        assert_eq!(i.site(), Some(StmtId(4)));
        assert_eq!(i.label(), "injected(StmtId(4))");
    }
}
