//! Hybrid sparse/dense points-to sets.
//!
//! Small sets are sorted `Vec<u32>`s (cheap to create, cache-friendly to
//! scan: most pointer nodes hold a handful of abstract objects). Past
//! [`SPARSE_MAX`] elements a set promotes to a word-packed bitset, where
//! union/difference/intersection run a word at a time — the representation
//! the ⋆-smearing hot spots of the Table 1 corpus end up in.
//!
//! Iteration is ascending by object id for both representations, so every
//! export built from a [`Pts`] is deterministic without extra sorting
//! passes, and the delta-propagating solver's budget accounting can stop
//! element-exactly mid-union ([`flow_into`]).

/// Elements above which a sparse set promotes to the dense bitset form.
pub const SPARSE_MAX: usize = 48;

#[derive(Debug, Clone)]
enum Repr {
    /// Sorted, deduplicated element vector.
    Sparse(Vec<u32>),
    /// Word-packed bitset with a cached population count.
    Dense { words: Vec<u64>, len: u32 },
}

/// A points-to set over `u32` object ids.
#[derive(Debug, Clone)]
pub struct Pts {
    repr: Repr,
}

impl Default for Pts {
    fn default() -> Self {
        Pts::new()
    }
}

impl Pts {
    /// An empty set.
    pub fn new() -> Self {
        Pts {
            repr: Repr::Sparse(Vec::new()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sparse(v) => v.len(),
            Repr::Dense { len, .. } => *len as usize,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the set uses the dense bitset representation.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense { .. })
    }

    /// Membership test.
    pub fn contains(&self, v: u32) -> bool {
        match &self.repr {
            Repr::Sparse(s) => s.binary_search(&v).is_ok(),
            Repr::Dense { words, .. } => {
                let w = (v / 64) as usize;
                w < words.len() && words[w] & (1u64 << (v % 64)) != 0
            }
        }
    }

    /// Inserts `v`; returns whether it was new.
    pub fn insert(&mut self, v: u32) -> bool {
        match &mut self.repr {
            Repr::Sparse(s) => match s.binary_search(&v) {
                Ok(_) => false,
                Err(pos) => {
                    s.insert(pos, v);
                    if s.len() > SPARSE_MAX {
                        self.promote();
                    }
                    true
                }
            },
            Repr::Dense { words, len } => {
                let w = (v / 64) as usize;
                if w >= words.len() {
                    words.resize(w + 1, 0);
                }
                let bit = 1u64 << (v % 64);
                if words[w] & bit != 0 {
                    false
                } else {
                    words[w] |= bit;
                    *len += 1;
                    true
                }
            }
        }
    }

    /// Moves the set out, leaving an empty one.
    pub fn take(&mut self) -> Pts {
        std::mem::take(self)
    }

    fn promote(&mut self) {
        if let Repr::Sparse(s) = &self.repr {
            let max = s.last().copied().unwrap_or(0);
            let mut words = vec![0u64; (max / 64 + 1) as usize];
            for &v in s {
                words[(v / 64) as usize] |= 1u64 << (v % 64);
            }
            let len = s.len() as u32;
            self.repr = Repr::Dense { words, len };
        }
    }

    /// Ascending-order iterator over the elements.
    pub fn iter(&self) -> PtsIter<'_> {
        match &self.repr {
            Repr::Sparse(s) => PtsIter::Sparse(s.iter()),
            Repr::Dense { words, .. } => PtsIter::Dense {
                words,
                wi: 0,
                cur: words.first().copied().unwrap_or(0),
            },
        }
    }

    /// Unions `other` into `self` (uncounted); returns how many elements
    /// were new.
    pub fn union_with(&mut self, other: &Pts) -> u32 {
        if other.is_empty() {
            return 0;
        }
        if let (Repr::Dense { words, len }, Repr::Dense { words: ow, .. }) =
            (&mut self.repr, &other.repr)
        {
            if words.len() < ow.len() {
                words.resize(ow.len(), 0);
            }
            let mut added = 0u32;
            for (w, o) in words.iter_mut().zip(ow.iter()) {
                let new = o & !*w;
                added += new.count_ones();
                *w |= new;
            }
            *len += added;
            return added;
        }
        let mut added = 0;
        for v in other.iter() {
            added += self.insert(v) as u32;
        }
        added
    }

    /// Keeps only elements also in `other`.
    pub fn intersect_with(&mut self, other: &Pts) {
        match (&mut self.repr, &other.repr) {
            (Repr::Sparse(s), _) => s.retain(|&v| other.contains(v)),
            (Repr::Dense { words, len }, Repr::Dense { words: ow, .. }) => {
                let mut n = 0u32;
                for (i, w) in words.iter_mut().enumerate() {
                    *w &= ow.get(i).copied().unwrap_or(0);
                    n += w.count_ones();
                }
                *len = n;
            }
            (Repr::Dense { words, len }, Repr::Sparse(_)) => {
                let mut n = 0u32;
                for (i, w) in words.iter_mut().enumerate() {
                    let mut keep = 0u64;
                    let mut bits = *w;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        bits &= bits - 1;
                        let v = i as u32 * 64 + b;
                        if other.contains(v) {
                            keep |= 1u64 << b;
                        }
                    }
                    *w = keep;
                    n += keep.count_ones();
                }
                *len = n;
            }
        }
    }

    /// Removes every element also in `other`.
    pub fn subtract(&mut self, other: &Pts) {
        match (&mut self.repr, &other.repr) {
            (Repr::Sparse(s), _) => s.retain(|&v| !other.contains(v)),
            (Repr::Dense { words, len }, Repr::Dense { words: ow, .. }) => {
                let mut n = 0u32;
                for (i, w) in words.iter_mut().enumerate() {
                    *w &= !ow.get(i).copied().unwrap_or(0);
                    n += w.count_ones();
                }
                *len = n;
            }
            (Repr::Dense { words, len }, Repr::Sparse(o)) => {
                for &v in o {
                    let wi = (v / 64) as usize;
                    if wi < words.len() {
                        let bit = 1u64 << (v % 64);
                        if words[wi] & bit != 0 {
                            words[wi] &= !bit;
                            *len -= 1;
                        }
                    }
                }
            }
        }
    }
}

/// Flows `src` into a node split as `dst_old`/`dst_delta`: every element
/// of `src` in neither set is inserted into `dst_delta`, at most `limit`
/// of them. Returns `(added, truncated)` where `truncated` means the
/// limit was reached *and* at least one further new element exists — the
/// solver's exact-budget semantics: a flow that needs exactly `limit`
/// insertions is not a truncation.
pub fn flow_into(src: &Pts, dst_old: &Pts, dst_delta: &mut Pts, limit: u64) -> (u64, bool) {
    if src.is_empty() {
        return (0, false);
    }
    // Word-at-a-time fast path: no truncation possible, all dense.
    if limit >= src.len() as u64 {
        if let (Repr::Dense { words: sw, .. }, Repr::Dense { words: ow, .. }) =
            (&src.repr, &dst_old.repr)
        {
            if dst_delta.is_empty() || dst_delta.is_dense() {
                if !dst_delta.is_dense() {
                    dst_delta.promote();
                }
                if let Repr::Dense { words: dw, len } = &mut dst_delta.repr {
                    if dw.len() < sw.len() {
                        dw.resize(sw.len(), 0);
                    }
                    let mut added = 0u64;
                    for (i, s) in sw.iter().enumerate() {
                        let o = ow.get(i).copied().unwrap_or(0);
                        let new = s & !o & !dw[i];
                        added += u64::from(new.count_ones());
                        dw[i] |= new;
                    }
                    *len += added as u32;
                    return (added, false);
                }
            }
        }
        let mut added = 0u64;
        for v in src.iter() {
            if !dst_old.contains(v) && dst_delta.insert(v) {
                added += 1;
            }
        }
        return (added, false);
    }
    // Budget-limited path: insert ascending, stop element-exactly.
    let mut added = 0u64;
    for v in src.iter() {
        if dst_old.contains(v) || dst_delta.contains(v) {
            continue;
        }
        if added == limit {
            return (added, true);
        }
        dst_delta.insert(v);
        added += 1;
    }
    (added, false)
}

/// One insertion-log record of [`flow_into_limited_logged`]: the bits of
/// 64-element block `word` newly inserted into the target's delta.
#[derive(Debug, Clone, Copy)]
pub struct FlowLogEntry {
    /// 64-element block index (element ids `word*64 ..= word*64+63`).
    pub word: u32,
    /// The newly inserted bits of that block (disjoint from every earlier
    /// entry for the same `word`: inserts are monotone).
    pub bits: u64,
}

/// [`flow_into`]'s limit semantics plus a word-granular insertion log: the
/// provenance-tracking path of the solver, which must stay budget-exact
/// like `flow_into` while still learning exactly which elements it
/// inserted (each recorded in `log`) so blame can be assigned to them.
/// Returns `(added, truncated)` with `flow_into`'s exact-limit contract.
pub fn flow_into_limited_logged(
    src: &Pts,
    dst_old: &Pts,
    dst_delta: &mut Pts,
    limit: u64,
    log: &mut Vec<FlowLogEntry>,
) -> (u64, bool) {
    if src.is_empty() {
        return (0, false);
    }
    // Word-at-a-time fast path (mirrors `flow_into`'s): no truncation
    // possible, all dense.
    if limit >= src.len() as u64 {
        if let (Repr::Dense { words: sw, .. }, Repr::Dense { words: ow, .. }) =
            (&src.repr, &dst_old.repr)
        {
            if dst_delta.is_empty() || dst_delta.is_dense() {
                if !dst_delta.is_dense() {
                    dst_delta.promote();
                }
                if let Repr::Dense { words: dw, len } = &mut dst_delta.repr {
                    if dw.len() < sw.len() {
                        dw.resize(sw.len(), 0);
                    }
                    let mut added = 0u64;
                    for (i, s) in sw.iter().enumerate() {
                        let o = ow.get(i).copied().unwrap_or(0);
                        let new = s & !o & !dw[i];
                        if new != 0 {
                            added += u64::from(new.count_ones());
                            dw[i] |= new;
                            log.push(FlowLogEntry {
                                word: i as u32,
                                bits: new,
                            });
                        }
                    }
                    *len += added as u32;
                    return (added, false);
                }
            }
        }
    }
    // Element path: insert ascending, stop element-exactly (mirrors
    // `flow_into`'s limited path, logging each insertion).
    let mut added = 0u64;
    for v in src.iter() {
        if dst_old.contains(v) || dst_delta.contains(v) {
            continue;
        }
        if added == limit {
            return (added, true);
        }
        dst_delta.insert(v);
        log.push(FlowLogEntry {
            word: v / 64,
            bits: 1u64 << (v % 64),
        });
        added += 1;
    }
    (added, false)
}

/// Ascending iterator over a [`Pts`].
pub enum PtsIter<'a> {
    /// Sparse representation walk.
    Sparse(std::slice::Iter<'a, u32>),
    /// Dense representation walk (word scan).
    Dense {
        /// Backing words.
        words: &'a [u64],
        /// Current word index.
        wi: usize,
        /// Remaining bits of the current word.
        cur: u64,
    },
}

impl Iterator for PtsIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            PtsIter::Sparse(it) => it.next().copied(),
            PtsIter::Dense { words, wi, cur } => {
                while *cur == 0 {
                    *wi += 1;
                    if *wi >= words.len() {
                        return None;
                    }
                    *cur = words[*wi];
                }
                let b = cur.trailing_zeros();
                *cur &= *cur - 1;
                Some(*wi as u32 * 64 + b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collected(p: &Pts) -> Vec<u32> {
        p.iter().collect()
    }

    #[test]
    fn insert_contains_roundtrip_across_promotion() {
        let mut p = Pts::new();
        // Insert enough (out of order) to cross the promotion threshold.
        for v in (0..200u32).rev().step_by(3) {
            assert!(p.insert(v));
            assert!(!p.insert(v), "duplicate insert of {v}");
        }
        assert!(p.is_dense());
        // (0..200).rev().step_by(3) yields 199, 196, …, 1: v ≡ 1 (mod 3).
        for v in 0..200u32 {
            assert_eq!(p.contains(v), v % 3 == 1, "membership of {v}");
        }
        let got = collected(&p);
        let mut want: Vec<u32> = (0..200u32).rev().step_by(3).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(p.len(), want.len());
    }

    #[test]
    fn iteration_is_ascending_in_both_reprs() {
        let mut sparse = Pts::new();
        for v in [9, 3, 77, 0, 12] {
            sparse.insert(v);
        }
        assert!(!sparse.is_dense());
        assert_eq!(collected(&sparse), vec![0, 3, 9, 12, 77]);
        let mut dense = sparse.clone();
        for v in 100..160 {
            dense.insert(v);
        }
        assert!(dense.is_dense());
        let got = collected(&dense);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
    }

    #[test]
    fn union_counts_new_elements_only() {
        let mut a = Pts::new();
        let mut b = Pts::new();
        for v in 0..100 {
            a.insert(v);
        }
        for v in 50..150 {
            b.insert(v);
        }
        assert_eq!(a.union_with(&b), 50);
        assert_eq!(a.len(), 150);
        assert_eq!(a.union_with(&b), 0);
    }

    #[test]
    fn intersect_and_subtract() {
        let mk = |r: std::ops::Range<u32>| {
            let mut p = Pts::new();
            for v in r {
                p.insert(v);
            }
            p
        };
        for (x, y) in [(0..100, 50..150), (0..10, 5..15), (0..100, 90..95)] {
            let mut i = mk(x.clone());
            i.intersect_with(&mk(y.clone()));
            let want: Vec<u32> = x.clone().filter(|v| y.contains(v)).collect();
            assert_eq!(collected(&i), want);
            let mut d = mk(x.clone());
            d.subtract(&mk(y.clone()));
            let want: Vec<u32> = x.clone().filter(|v| !y.contains(v)).collect();
            assert_eq!(collected(&d), want);
        }
    }

    #[test]
    fn flow_respects_exact_limits() {
        let mut src = Pts::new();
        for v in 0..100 {
            src.insert(v);
        }
        let mut old = Pts::new();
        for v in 0..50 {
            old.insert(v);
        }
        // 50 genuinely new elements; a limit of exactly 50 is NOT a
        // truncation.
        let mut delta = Pts::new();
        let (added, truncated) = flow_into(&src, &old, &mut delta, 50);
        assert_eq!((added, truncated), (50, false));
        assert_eq!(delta.len(), 50);
        // One less stops element-exactly and reports truncation.
        let mut delta = Pts::new();
        let (added, truncated) = flow_into(&src, &old, &mut delta, 49);
        assert_eq!((added, truncated), (49, true));
        assert_eq!(collected(&delta), (50..99).collect::<Vec<u32>>());
        // Re-flowing the rest picks up where the budget stopped.
        let (added, truncated) = flow_into(&src, &old, &mut delta, 10);
        assert_eq!((added, truncated), (1, false));
    }

    #[test]
    fn limited_logged_flow_matches_flow_into() {
        for (limit, dense) in [
            (49u64, false),
            (50, false),
            (u64::MAX, false),
            (200, true),
            (30, true),
            (u64::MAX, true),
        ] {
            let mk = |step: usize, n: u32, dense: bool| {
                let mut p = Pts::new();
                let scale = if dense { 1 } else { 7 };
                for v in (0..n).step_by(step) {
                    p.insert(v * scale);
                }
                p
            };
            let src = mk(2, 400, dense);
            let old = mk(3, 400, dense);
            let mut plain = Pts::new();
            let mut logged = Pts::new();
            let mut log = Vec::new();
            let want = flow_into(&src, &old, &mut plain, limit);
            let got = flow_into_limited_logged(&src, &old, &mut logged, limit, &mut log);
            assert_eq!(got, want, "limit={limit} dense={dense}");
            assert_eq!(
                logged.iter().collect::<Vec<u32>>(),
                plain.iter().collect::<Vec<u32>>()
            );
            let log_total: u64 = log.iter().map(|e| u64::from(e.bits.count_ones())).sum();
            assert_eq!(log_total, got.0);
        }
    }

    #[test]
    fn flow_dense_fast_path_matches_slow_path() {
        let mut src = Pts::new();
        for v in (0..400).step_by(2) {
            src.insert(v);
        }
        let mut old = Pts::new();
        for v in (0..400).step_by(3) {
            old.insert(v);
        }
        let mut fast = Pts::new();
        for v in (0..400).step_by(5) {
            fast.insert(v);
        }
        let mut slow_seed: Vec<u32> = fast.iter().collect();
        let (added_fast, _) = flow_into(&src, &old, &mut fast, u64::MAX);
        // Reference computation.
        let mut slow: Vec<u32> = slow_seed.clone();
        for v in src.iter() {
            if !old.contains(v) && !slow_seed.contains(&v) && !slow.contains(&v) {
                slow.push(v);
            }
        }
        slow.sort_unstable();
        slow_seed.sort_unstable();
        assert_eq!(collected(&fast), slow);
        assert_eq!(added_fast as usize, slow.len() - slow_seed.len());
    }
}
