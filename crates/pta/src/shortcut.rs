//! Concrete-execution fast-forward summaries ("dynamic shortcuts").
//!
//! A [`RegionSummary`] is the distilled points-to effect of running one
//! determinate region — a function whose dynamic keys, callees, and
//! branches the determinacy analysis proved determinate in every recorded
//! context — on the sealed concrete interpreter. When the solver's
//! on-the-fly call graph first reaches a summarized function, it applies
//! the summary as a batch of budget-accounted insertions (each carrying a
//! [`BlameCause::Shortcut`][crate::BlameCause::Shortcut] tag) instead of
//! generating and solving the region's constraints.
//!
//! The summary producer lives in the determinacy core (it needs the
//! instrumented runs' heap traces and the fact database); this module
//! only defines the solver-facing shape. Soundness rests on the
//! producer: a summary must cover every heap effect the region's
//! constraints would have produced for the recorded contexts, and
//! regions whose trace cannot witness them (a failed seed, a run cut
//! short, truncation) must simply be left out — the solver then
//! analyzes them ordinarily.

use crate::nodes::{AbsObj, Node};
use mujs_ir::{FuncId, StmtId};
use std::collections::BTreeMap;

/// The distilled effect of one determinate region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionSummary {
    /// Points-to tuples to insert when the region is first reached,
    /// sorted ascending — the application order is part of the
    /// deterministic budget semantics (exact-budget truncation must not
    /// depend on producer iteration order).
    pub tuples: Vec<(Node, AbsObj)>,
    /// Call-graph fragment: `(site, callee)` edges the concrete run
    /// resolved inside the region, sorted ascending. Callees are
    /// enqueued for ordinary constraint generation (a summary covers
    /// only its own region's body).
    pub calls: Vec<(StmtId, FuncId)>,
}

impl RegionSummary {
    /// Whether the summary carries no effect at all.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty() && self.calls.is_empty()
    }
}

/// Every summarized region of one program, keyed by the region's
/// function. Deterministically ordered so exports and budget accounting
/// are reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShortcutSummaries {
    /// Region function → its summary.
    pub regions: BTreeMap<FuncId, RegionSummary>,
}

impl ShortcutSummaries {
    /// Number of summarized regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no region was summarized.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Total points-to tuples across all summaries.
    pub fn tuple_count(&self) -> usize {
        self.regions.values().map(|r| r.tuples.len()).sum()
    }
}
