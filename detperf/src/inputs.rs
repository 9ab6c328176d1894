//! Seeded inputs: op orders, the generated program pool and the
//! serve-edit request stream. Everything here is a pure function of the
//! benchmark seed, so two runs with one seed see identical inputs.

use mujs_gen::GenConfig;

/// SplitMix64: a small, well-mixed generator for deriving streams.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream, index)`; distinct triples give
    /// independent-looking sequences.
    fn new(seed: u64, stream: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        r.0 ^= r
            .next_u64()
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        r.0 ^= r
            .next_u64()
            .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
        r
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Stream ids, one per consumer, so workloads never share random bits.
mod stream {
    /// Per-cycle op permutations.
    pub(super) const ORDER: u64 = 1;
    /// Generated program seeds.
    pub(super) const PROGRAMS: u64 = 2;
    /// Serve-edit request choices.
    pub(super) const REQUESTS: u64 = 3;
}

/// Shuffles `v` in place (Fisher–Yates).
fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// The op order of one input cycle: a seeded permutation of `0..n`.
pub fn cycle_order(seed: u64, cycle: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    shuffle(&mut v, &mut Rng::new(seed, stream::ORDER, cycle));
    v
}

/// The generator seed of pool program `i`.
pub(crate) fn program_seed(seed: u64, i: usize) -> u64 {
    Rng::new(seed, stream::PROGRAMS, i as u64).next_u64()
}

/// `n` generated programs, in pool order, with the generator's default
/// settings (`GenConfig::default()`, the settings its own tests use).
pub fn program_pool(seed: u64, n: usize) -> Vec<String> {
    let cfg = GenConfig::default();
    (0..n)
        .map(|i| mujs_gen::generate(program_seed(seed, i), &cfg))
        .collect()
}

/// One serve-edit request, on one of the `ws` working-set documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeReq {
    /// Resend document `b`'s current source.
    Repeat(usize),
    /// Document `b`'s source becomes its original with
    /// `var __edit_n = n;` appended; send that.
    Edit(usize, u64),
}

/// Warm resends per source version: the shape of the serve benchmark
/// checked in as BENCH_serve.json (one cold pass, then `warm_passes: 5`).
const REPEATS_PER_SOURCE: usize = 5;

/// Requests per chunk of the serve-edit stream over `ws` documents.
pub(crate) fn serve_chunk_len(ws: usize) -> usize {
    (REPEATS_PER_SOURCE + 1) * ws
}

/// Chunk `c` of the serve-edit stream over `ws` documents: every document
/// is edited once and resent [`REPEATS_PER_SOURCE`] times, in a seeded
/// order, so one request in six is an edit and every chunk holds the same
/// requests. An edit's number is its index in the whole stream.
pub(crate) fn serve_chunk(seed: u64, c: u64, ws: usize) -> Vec<ServeReq> {
    let n = serve_chunk_len(ws);
    let mut slots: Vec<usize> = (0..n).collect();
    shuffle(&mut slots, &mut Rng::new(seed, stream::REQUESTS, c));
    let first = c * n as u64;
    slots
        .into_iter()
        .zip(first..)
        .map(|(slot, k)| {
            if slot < ws {
                ServeReq::Edit(slot, k)
            } else {
                ServeReq::Repeat(slot % ws)
            }
        })
        .collect()
}

/// The source an edit request sends.
pub(crate) fn edited_src(base: &str, n: u64) -> String {
    format!("{base}\nvar __edit_{n} = {n};\n")
}
