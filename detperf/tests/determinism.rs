//! One seed gives one input stream; another seed gives another.

use mujs_perf::expected::Expected;
use mujs_perf::inputs::{cycle_order, program_pool, ServeReq};
use mujs_perf::runner::Workload;
use mujs_perf::trace::Tracer;
use mujs_perf::workloads::gen_fleet::{GenFleet, POOL};
use mujs_perf::workloads::serve_edit::ServeEdit;
use mujs_perf::workloads::table1::Table1;

/// The first `n` op inputs of a workload set up with `seed`.
fn inputs<W: Workload, T>(
    setup: fn(u64, &Expected, &mut Tracer) -> Result<W, String>,
    seed: u64,
    n: u64,
    show: impl Fn(W::In) -> T,
) -> Vec<T> {
    let expected = Expected::load().expect("expected.json parses");
    let mut w = setup(seed, &expected, &mut Tracer::new(false)).expect("set-up succeeds");
    (0..n).map(|k| show(w.input(k))).collect()
}

#[test]
fn op_orders_follow_the_seed() {
    let order = |seed| inputs(Table1::setup, seed, 8 * 6, |c| c.to_string());
    assert_eq!(order(1), order(1));
    assert_ne!(order(1), order(2));
    // Every cycle visits every cell exactly once.
    for cycle in order(3).chunks(8) {
        let mut c = cycle.to_vec();
        c.sort();
        assert_eq!(c, (0..8).map(|i| i.to_string()).collect::<Vec<_>>());
    }
    let mut perm = cycle_order(5, 0, 16);
    perm.sort_unstable();
    assert_eq!(perm, (0..16).collect::<Vec<_>>());
}

#[test]
fn gen_pool_follows_the_seed() {
    assert_eq!(program_pool(1, 16), program_pool(1, 16));
    assert_ne!(program_pool(1, 16), program_pool(2, 16));
    let order = |seed| inputs(GenFleet::setup, seed, POOL as u64 + 8, |i| i.to_string());
    assert_eq!(order(1), order(1));
    assert_ne!(order(1), order(2));
}

#[test]
fn serve_requests_follow_the_seed() {
    // Two chunks of 408 requests over the 68 working-set documents.
    let kinds = |seed| inputs(ServeEdit::setup, seed, 2 * 408, |r| r.kind);
    let bytes = |seed| {
        inputs(ServeEdit::setup, seed, 2 * 408, |r| {
            format!("{:?}|{}", r.kind, r.line)
        })
    };
    let a = bytes(1);
    assert_eq!(a, bytes(1));
    assert_ne!(a, bytes(2));
    // Each chunk edits every document once and resends it five times.
    for chunk in kinds(3).chunks(408) {
        let (mut edits, mut sends) = (vec![0; 68], vec![0; 68]);
        for kind in chunk {
            match *kind {
                ServeReq::Edit(b, _) => edits[b] += 1,
                ServeReq::Repeat(b) => sends[b] += 1,
            }
        }
        assert_eq!(edits, vec![1; 68]);
        assert_eq!(sends, vec![5; 68]);
    }
}
