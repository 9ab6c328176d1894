//! Hybrid sparse/dense points-to sets.
//!
//! Small sets are sorted `Vec<u32>`s (cheap to create, cache-friendly to
//! scan: most pointer nodes hold a handful of abstract objects). Past
//! [`SPARSE_MAX`] elements a set promotes to a word-packed bitset — the
//! representation the ⋆-smearing hot spots of the Table 1 corpus end up
//! in. The representation rule: a sparse set stays sparse while it holds
//! at most `SPARSE_MAX` elements, and a dense set never demotes (so a
//! dense set may hold fewer, e.g. a delta that [`flow_into`] built
//! dense).
//!
//! Every transfer out of a dense set runs a word at a time, whatever form
//! the target takes. [`flow_into`] is the one transfer kernel: it computes
//! each word of new elements as `src & !old & !delta`, folding a sparse
//! operand's elements into the word mask, and takes an optional insertion
//! log for provenance. [`Pts::union_with`] ORs a dense set into a sparse
//! one by words once the union outgrows the sparse form. Only sparse
//! sources walk their elements.
//!
//! Iteration is ascending by object id for both representations, so every
//! export built from a [`Pts`] is deterministic without extra sorting
//! passes, and the delta-propagating solver's budget accounting can stop
//! element-exactly mid-transfer: under a limit, the lowest new elements go
//! in.

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
                        self.promote(0);
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

    /// Switches a sparse set to the dense form, with at least `min_words`
    /// words.
    fn promote(&mut self, min_words: usize) {
        if let Repr::Sparse(s) = &self.repr {
            let max = s.last().copied().unwrap_or(0);
            let mut words = vec![0u64; min_words.max((max / 64 + 1) as usize)];
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
    /// were new. A dense `other` is ORed in by words unless `self` is
    /// sparse and the union still fits the sparse form.
    pub fn union_with(&mut self, other: &Pts) -> u32 {
        let ow = match &other.repr {
            Repr::Dense { words, len } if *len > 0 => words,
            _ => return self.insert_all(other),
        };
        if let Repr::Sparse(s) = &self.repr {
            let fits = other.len() <= SPARSE_MAX
                && other.len() + s.iter().filter(|&&v| !other.contains(v)).count() <= SPARSE_MAX;
            if fits {
                return self.insert_all(other);
            }
            self.promote(ow.len());
        }
        let Repr::Dense { words, len } = &mut self.repr else {
            unreachable!("a sparse set was promoted above")
        };
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
        added
    }

    /// Inserts every element of `other`; returns how many were new.
    fn insert_all(&mut self, other: &Pts) -> u32 {
        let mut added = 0;
        for v in other.iter() {
            added += self.insert(v) as u32;
        }
        added
    }
}

/// One insertion-log record of [`flow_into`]: the bits of 64-element block
/// `word` newly inserted into the target's delta.
#[derive(Debug, Clone, Copy)]
pub struct FlowLogEntry {
    /// 64-element block index (element ids `word*64 ..= word*64+63`).
    pub word: u32,
    /// The newly inserted bits of that block (disjoint from every earlier
    /// entry for the same `word`: inserts are monotone).
    pub bits: u64,
}

impl FlowLogEntry {
    /// The record of one inserted element.
    fn element(v: u32) -> Self {
        FlowLogEntry {
            word: v / 64,
            bits: 1u64 << (v % 64),
        }
    }
}

/// Flows `src` into a node split as `dst_old`/`dst_delta`: every element
/// of `src` in neither set is inserted into `dst_delta`, at most `limit`
/// of them, lowest first. Returns `(added, truncated)` where `truncated`
/// means the limit was reached *and* at least one further new element
/// exists — the solver's exact-budget semantics: a flow that needs
/// exactly `limit` insertions is not a truncation. With a `log`, every
/// inserted element is also recorded there, a word at a time (the
/// provenance-tracking solve assigns blame from it).
///
/// A dense `src` moves a word at a time whatever form the target takes;
/// a sparse `src` (at most [`SPARSE_MAX`] elements) walks its elements.
pub fn flow_into(
    src: &Pts,
    dst_old: &Pts,
    dst_delta: &mut Pts,
    limit: u64,
    mut log: Option<&mut Vec<FlowLogEntry>>,
) -> (u64, bool) {
    if src.is_empty() {
        return (0, false);
    }
    let sw = match &src.repr {
        Repr::Sparse(s) => return flow_elements(s, dst_old, dst_delta, limit, log),
        Repr::Dense { words, .. } => words,
    };
    if let Repr::Sparse(d) = &mut dst_delta.repr {
        // An empty delta under a dense `old`, with room for all of `src`,
        // goes dense at once; any other sparse delta stays sparse while
        // the result fits.
        let straight_to_dense = d.is_empty() && dst_old.is_dense() && limit >= src.len() as u64;
        if !straight_to_dense {
            if let Some(r) = gather_into_sparse(sw, dst_old, d, limit, log.as_deref_mut()) {
                return r;
            }
        }
        dst_delta.promote(sw.len());
    }
    let Repr::Dense { words: dw, len } = &mut dst_delta.repr else {
        unreachable!("a sparse delta was promoted above")
    };
    let mut old = Words::of(dst_old);
    let mut added = 0u64;
    let mut truncated = false;
    for (i, &s) in sw.iter().enumerate() {
        if s == 0 {
            continue;
        }
        let mut new = s & !old.word(i) & !dw.get(i).copied().unwrap_or(0);
        if new == 0 {
            continue;
        }
        let room = limit - added;
        if u64::from(new.count_ones()) > room {
            new = lowest_bits(new, room as u32);
            truncated = true;
        }
        if new != 0 {
            if i >= dw.len() {
                dw.resize(i + 1, 0);
            }
            dw[i] |= new;
            added += u64::from(new.count_ones());
            if let Some(log) = log.as_deref_mut() {
                log.push(FlowLogEntry {
                    word: i as u32,
                    bits: new,
                });
            }
        }
        if truncated {
            break;
        }
    }
    *len += added as u32;
    (added, truncated)
}

/// [`flow_into`] for a sparse `src`: inserts ascending, stopping
/// element-exactly at `limit`.
fn flow_elements(
    src: &[u32],
    dst_old: &Pts,
    dst_delta: &mut Pts,
    limit: u64,
    mut log: Option<&mut Vec<FlowLogEntry>>,
) -> (u64, bool) {
    let mut added = 0u64;
    for &v in src {
        if dst_old.contains(v) {
            continue;
        }
        if added == limit {
            if dst_delta.contains(v) {
                continue;
            }
            return (added, true);
        }
        if !dst_delta.insert(v) {
            continue;
        }
        added += 1;
        if let Some(log) = log.as_deref_mut() {
            log.push(FlowLogEntry::element(v));
        }
    }
    (added, false)
}

/// [`flow_into`] for a dense source's words `sw` into a sparse delta `d`
/// that is to stay sparse: gathers the lowest new elements (at most
/// `limit`) and merges them into `d`. Returns `None`, touching nothing,
/// when the result would exceed [`SPARSE_MAX`] elements.
fn gather_into_sparse(
    sw: &[u64],
    dst_old: &Pts,
    d: &mut Vec<u32>,
    limit: u64,
    log: Option<&mut Vec<FlowLogEntry>>,
) -> Option<(u64, bool)> {
    let cap = limit.min((SPARSE_MAX - d.len()) as u64) as usize;
    let mut buf = [0u32; SPARSE_MAX];
    let mut n = 0;
    let mut more = false;
    let mut old = Words::of(dst_old);
    let mut cur = Words::Sparse { elems: d, pos: 0 };
    'scan: for (i, &s) in sw.iter().enumerate() {
        if s == 0 {
            continue;
        }
        let mut new = s & !old.word(i) & !cur.word(i);
        while new != 0 {
            if n == cap {
                more = true;
                break 'scan;
            }
            buf[n] = i as u32 * 64 + new.trailing_zeros();
            new &= new - 1;
            n += 1;
        }
    }
    if more && (cap as u64) < limit {
        return None;
    }
    let gathered = &buf[..n];
    if let Some(log) = log {
        log.extend(gathered.iter().map(|&v| FlowLogEntry::element(v)));
    }
    d.extend_from_slice(gathered);
    d.sort_unstable();
    Some((n as u64, more))
}

/// The lowest `k` set bits of `bits`.
fn lowest_bits(mut bits: u64, k: u32) -> u64 {
    let mut kept = 0;
    for _ in 0..k {
        let b = bits & bits.wrapping_neg();
        kept |= b;
        bits ^= b;
    }
    kept
}

/// A set read one 64-element word at a time, in ascending word order: a
/// dense set's words, or a sparse set's elements folded into each word.
enum Words<'a> {
    Sparse { elems: &'a [u32], pos: usize },
    Dense(&'a [u64]),
}

impl<'a> Words<'a> {
    fn of(p: &'a Pts) -> Self {
        match &p.repr {
            Repr::Sparse(s) => Words::Sparse { elems: s, pos: 0 },
            Repr::Dense { words, .. } => Words::Dense(words),
        }
    }

    /// The bits of word `i`; successive calls must not descend.
    fn word(&mut self, i: usize) -> u64 {
        match self {
            Words::Dense(w) => w.get(i).copied().unwrap_or(0),
            Words::Sparse { elems, pos } => {
                let mut bits = 0u64;
                while let Some(&v) = elems.get(*pos) {
                    let w = (v / 64) as usize;
                    if w > i {
                        break;
                    }
                    if w == i {
                        bits |= 1u64 << (v % 64);
                    }
                    *pos += 1;
                }
                bits
            }
        }
    }
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
    use std::collections::BTreeSet;

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
        let (added, truncated) = flow_into(&src, &old, &mut delta, 50, None);
        assert_eq!((added, truncated), (50, false));
        assert_eq!(delta.len(), 50);
        // One less stops element-exactly and reports truncation.
        let mut delta = Pts::new();
        let (added, truncated) = flow_into(&src, &old, &mut delta, 49, None);
        assert_eq!((added, truncated), (49, true));
        assert_eq!(collected(&delta), (50..99).collect::<Vec<u32>>());
        // Re-flowing the rest picks up where the budget stopped.
        let (added, truncated) = flow_into(&src, &old, &mut delta, 10, None);
        assert_eq!((added, truncated), (1, false));
    }

    #[test]
    fn flow_log_records_exactly_the_inserted_elements() {
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
            let want = flow_into(&src, &old, &mut plain, limit, None);
            let got = flow_into(&src, &old, &mut logged, limit, Some(&mut log));
            assert_eq!(got, want, "limit={limit} dense={dense}");
            assert_eq!(collected(&logged), collected(&plain));
            // The log, expanded, is exactly the inserted elements, each once.
            let mut from_log = Vec::new();
            for e in &log {
                assert_ne!(e.bits, 0);
                let mut bits = e.bits;
                while bits != 0 {
                    from_log.push(e.word * 64 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            from_log.sort_unstable();
            assert!(
                from_log.windows(2).all(|w| w[0] < w[1]),
                "duplicate log bits"
            );
            assert_eq!(from_log, collected(&logged));
            assert_eq!(from_log.len() as u64, got.0);
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
        let (added_fast, _) = flow_into(&src, &old, &mut fast, u64::MAX, None);
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

    /// The forms a set takes in a solve: sparse, dense past
    /// [`SPARSE_MAX`], and a dense form holding at most `SPARSE_MAX`
    /// elements, made by a flow's straight-to-dense delta.
    #[derive(Debug, Clone, Copy)]
    enum Form {
        Sparse,
        Dense,
        FlowMade,
    }

    const FORMS: [Form; 3] = [Form::Sparse, Form::Dense, Form::FlowMade];

    /// Seeded xorshift64: a reproducible element stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    fn from_elems(elems: &BTreeSet<u32>) -> Pts {
        let mut p = Pts::new();
        for &v in elems {
            p.insert(v);
        }
        p
    }

    /// A set of form `form` over random elements below `universe`;
    /// returns it with its model.
    fn make(form: Form, universe: u32, rng: &mut Rng) -> (Pts, BTreeSet<u32>) {
        let size = match form {
            Form::Dense => SPARSE_MAX as u64 + 1 + rng.below(150),
            _ => rng.below(SPARSE_MAX as u64 + 1),
        };
        let size = size.min(u64::from(universe)) as usize;
        let mut elems = BTreeSet::new();
        while elems.len() < size {
            elems.insert(rng.below(u64::from(universe)) as u32);
        }
        // Disjoint filler above the universe, enough to force a dense set.
        let filler: BTreeSet<u32> = (universe + 3..universe + 3 + 2 * SPARSE_MAX as u32).collect();
        let p = match form {
            Form::Sparse | Form::Dense => from_elems(&elems),
            Form::FlowMade => {
                let src = from_elems(&elems.union(&filler).copied().collect());
                let mut delta = Pts::new();
                flow_into(&src, &from_elems(&filler), &mut delta, u64::MAX, None);
                delta
            }
        };
        let want_dense = !matches!(form, Form::Sparse) || size > SPARSE_MAX;
        assert_eq!(p.is_dense(), want_dense, "{form:?} of {size}");
        (p, elems)
    }

    /// `len()` matches iteration, iteration strictly ascends, and the
    /// contents equal `model`.
    fn check_set(p: &Pts, model: &BTreeSet<u32>, what: &str) {
        let got = collected(p);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "{what}: not ascending");
        assert_eq!(p.len(), got.len(), "{what}: len");
        assert_eq!(got, model.iter().copied().collect::<Vec<u32>>(), "{what}");
    }

    #[test]
    fn flow_kernel_matches_a_set_model() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for round in 0..12 {
            let universe = [60, 100, 130, 300, 700][round % 5];
            for sf in FORMS {
                for of in FORMS {
                    for df in FORMS {
                        let (src, ms) = make(sf, universe, &mut rng);
                        let (old, mo) = make(of, universe, &mut rng);
                        let (delta0, md) = make(df, universe, &mut rng);
                        let new: Vec<u32> = ms
                            .iter()
                            .copied()
                            .filter(|v| !mo.contains(v) && !md.contains(v))
                            .collect();
                        let need = new.len() as u64;
                        let mut limits = vec![0, need, u64::MAX];
                        if need > 0 {
                            limits.push(need - 1);
                        }
                        for limit in limits {
                            for logged in [false, true] {
                                let what = format!(
                                    "round {round} src {sf:?} old {of:?} delta {df:?} \
                                     need {need} limit {limit} logged {logged}"
                                );
                                let mut delta = delta0.clone();
                                let mut log = Vec::new();
                                let got = flow_into(
                                    &src,
                                    &old,
                                    &mut delta,
                                    limit,
                                    logged.then_some(&mut log),
                                );
                                let kept = need.min(limit);
                                assert_eq!(got, (kept, limit < need), "{what}");
                                let mut model = md.clone();
                                model.extend(&new[..kept as usize]);
                                check_set(&delta, &model, &what);
                                let straight_to_dense = src.is_dense()
                                    && delta0.is_empty()
                                    && old.is_dense()
                                    && limit >= src.len() as u64;
                                let want_dense = delta0.is_dense()
                                    || model.len() > SPARSE_MAX
                                    || straight_to_dense;
                                assert_eq!(delta.is_dense(), want_dense, "{what}: form");
                                if logged {
                                    let mut from_log = BTreeSet::new();
                                    for e in &log {
                                        let mut bits = e.bits;
                                        while bits != 0 {
                                            let v = e.word * 64 + bits.trailing_zeros();
                                            assert!(from_log.insert(v), "{what}: logged twice");
                                            bits &= bits - 1;
                                        }
                                    }
                                    let inserted: BTreeSet<u32> =
                                        new[..kept as usize].iter().copied().collect();
                                    assert_eq!(from_log, inserted, "{what}: log");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn union_matches_a_set_model() {
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        for round in 0..20 {
            let universe = [60, 100, 130, 300, 700][round % 5];
            for af in FORMS {
                for bf in FORMS {
                    let (mut a, ma) = make(af, universe, &mut rng);
                    let (b, mb) = make(bf, universe, &mut rng);
                    let what = format!("round {round} self {af:?} other {bf:?}");
                    let was_dense = a.is_dense();
                    let added = a.union_with(&b);
                    let model: BTreeSet<u32> = ma.union(&mb).copied().collect();
                    assert_eq!(added as usize, model.len() - ma.len(), "{what}");
                    check_set(&a, &model, &what);
                    let want_dense = was_dense || model.len() > SPARSE_MAX;
                    assert_eq!(a.is_dense(), want_dense, "{what}: form");
                }
            }
        }
    }
}
