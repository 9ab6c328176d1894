//! Calling contexts: interned chains of `(call site, occurrence)` pairs.
//!
//! The paper qualifies every determinacy fact "with a complete call stack
//! reaching all the way back to the program's entrypoint" (§2.1), and its
//! `24₀` notation ("the first time execution reaches line 24", §2.2) adds a
//! per-activation occurrence index to each frame. A [`CtxId`] names one
//! such chain; chains are hash-consed in a [`ContextTable`] so they can be
//! compared and stored cheaply, shared between the concrete machine (which
//! records observations for soundness checking) and the instrumented
//! machine (which records facts).

use mujs_ir::hash::FastMap;
use mujs_ir::{Program, StmtId};
use mujs_syntax::span::SourceFile;

/// An interned calling context. [`CtxId::ROOT`] is the program entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub u32);

impl CtxId {
    /// The entrypoint context (empty call string).
    pub const ROOT: CtxId = CtxId(0);
}

#[derive(Debug, Clone, Copy)]
struct CtxNode {
    parent: CtxId,
    site: StmtId,
    occurrence: u32,
}

/// Hash-consing table for calling contexts.
#[derive(Debug, Default)]
pub struct ContextTable {
    nodes: Vec<Option<CtxNode>>,
    intern: FastMap<(CtxId, StmtId, u32), CtxId>,
}

impl ContextTable {
    /// Creates a table containing only the root context.
    pub fn new() -> Self {
        ContextTable {
            nodes: vec![None],
            intern: FastMap::default(),
        }
    }

    /// Interns `parent → (site, occurrence)`.
    pub fn child(&mut self, parent: CtxId, site: StmtId, occurrence: u32) -> CtxId {
        if let Some(&id) = self.intern.get(&(parent, site, occurrence)) {
            return id;
        }
        let id = CtxId(self.nodes.len() as u32);
        self.nodes.push(Some(CtxNode {
            parent,
            site,
            occurrence,
        }));
        self.intern.insert((parent, site, occurrence), id);
        id
    }

    /// The parent context, or `None` for the root.
    pub fn parent(&self, ctx: CtxId) -> Option<CtxId> {
        self.nodes[ctx.0 as usize].map(|n| n.parent)
    }

    /// The frames of `ctx` from the entrypoint outward:
    /// `[(site, occurrence), ...]`.
    pub fn frames(&self, ctx: CtxId) -> Vec<(StmtId, u32)> {
        let mut out = Vec::new();
        let mut cur = ctx;
        while let Some(node) = self.nodes[cur.0 as usize] {
            out.push((node.site, node.occurrence));
            cur = node.parent;
        }
        out.reverse();
        out
    }

    /// Depth of the call string (root = 0).
    pub fn depth(&self, ctx: CtxId) -> usize {
        let mut d = 0;
        let mut cur = ctx;
        while let Some(node) = self.nodes[cur.0 as usize] {
            d += 1;
            cur = node.parent;
        }
        d
    }

    /// Renders `ctx` in the paper's `16→4`-ish notation using source line
    /// numbers; occurrence indices beyond the first are shown as
    /// subscript-style suffixes (`24₀` prints as `24_0` when the same site
    /// recurs).
    pub fn describe(&self, ctx: CtxId, prog: &Program, sf: &SourceFile) -> String {
        let frames = self.frames(ctx);
        if frames.is_empty() {
            return "⊤".to_owned();
        }
        let parts: Vec<String> = frames
            .iter()
            .map(|(site, occ)| {
                let line = sf.line_col(prog.span_of(*site)).line;
                if *occ == 0 {
                    format!("{line}")
                } else {
                    format!("{line}_{occ}")
                }
            })
            .collect();
        parts.join("→")
    }

    /// Number of interned contexts (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Truncates a context to its innermost `k` frames, re-interning the
    /// suffix. Used by the specializer's bounded context sensitivity
    /// ("up to four levels of calling context", §5.1).
    pub fn suffix(&mut self, ctx: CtxId, k: usize) -> CtxId {
        let frames = self.frames(ctx);
        let start = frames.len().saturating_sub(k);
        let mut cur = CtxId::ROOT;
        for (site, occ) in &frames[start..] {
            cur = self.child(cur, *site, *occ);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut t = ContextTable::new();
        let a = t.child(CtxId::ROOT, StmtId(5), 0);
        let b = t.child(CtxId::ROOT, StmtId(5), 0);
        let c = t.child(CtxId::ROOT, StmtId(5), 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn frames_are_outermost_first() {
        let mut t = ContextTable::new();
        let a = t.child(CtxId::ROOT, StmtId(1), 0);
        let b = t.child(a, StmtId(2), 3);
        assert_eq!(t.frames(b), vec![(StmtId(1), 0), (StmtId(2), 3)]);
        assert_eq!(t.depth(b), 2);
        assert_eq!(t.parent(b), Some(a));
        assert_eq!(t.parent(CtxId::ROOT), None);
    }

    #[test]
    fn suffix_truncates_outer_frames() {
        let mut t = ContextTable::new();
        let a = t.child(CtxId::ROOT, StmtId(1), 0);
        let b = t.child(a, StmtId(2), 0);
        let c = t.child(b, StmtId(3), 0);
        let s = t.suffix(c, 2);
        assert_eq!(t.frames(s), vec![(StmtId(2), 0), (StmtId(3), 0)]);
        // Suffix longer than the chain is the chain itself.
        assert_eq!(t.suffix(c, 10), c);
    }
}
