//! Pins every work counter of the corpus solves that detperf's `pta-modes`
//! workload times: per jQuery-like page, the baseline solve at the
//! comparison budget (2M) and the injected, shortcut and specialized
//! solves at the Table 1 budget (150k), all from one DetDOM analysis.
//!
//! `BENCH_pta.json` pins only work and precision. These counters also
//! pin the solver's bookkeeping: the same edges are added (in the same
//! order, or a budget-truncated solve would stop elsewhere) and the same
//! nodes materialize. A change to the solver's data structures must leave
//! every row as it is.
//!
//! The corpus's copy graphs have no cycles, so a copy-ring program (whose
//! fixpoint `pta_equivalence` checks against the reference solver) pins
//! the same counters on a graph that has them, together with the export
//! of a solve cut one propagation short of the fixpoint.

mod common;

use determinacy::{injectable_facts, shortcut_summaries, AnalysisConfig, DetHarness};
use mujs_pta::hash::FxHasher;
use mujs_pta::{solve, PtaConfig, PtaStats, PtaStatus};
use std::hash::Hasher;
use std::sync::Arc;

/// The solve modes, in row order within a page.
const MODES: [&str; 4] = ["baseline", "injected", "shortcut", "specialized"];

/// `[propagations, nodes, edges, call_edges, shortcut_tuples]` per
/// (page, mode).
const PINNED: [(&str, &str, [u64; 5]); 16] = [
    ("1.0", "baseline", [927979, 12984, 19433, 1836, 0]),
    ("1.0", "injected", [14009, 2636, 1870, 30, 0]),
    ("1.0", "shortcut", [3930, 2935, 2103, 30, 854]),
    ("1.0", "specialized", [11446, 10872, 18209, 53, 0]),
    ("1.1", "baseline", [927979, 13010, 19444, 1836, 0]),
    ("1.1", "injected", [14009, 2662, 1881, 30, 0]),
    ("1.1", "shortcut", [3930, 2960, 2113, 30, 854]),
    ("1.1", "specialized", [11446, 10917, 18239, 57, 0]),
    ("1.2", "baseline", [40, 96, 65, 5, 0]),
    ("1.2", "injected", [40, 96, 62, 4, 0]),
    ("1.2", "shortcut", [44, 46, 10, 2, 20]),
    ("1.2", "specialized", [41, 86, 50, 3, 0]),
    ("1.3", "baseline", [928009, 13024, 19456, 1835, 0]),
    ("1.3", "injected", [14038, 2678, 1898, 30, 0]),
    ("1.3", "shortcut", [3963, 2895, 1558, 30, 1718]),
    ("1.3", "specialized", [150000, 5470, 4976, 395, 0]),
];

fn row(s: &PtaStats) -> [u64; 5] {
    [
        s.propagations,
        s.nodes as u64,
        s.edges,
        s.call_edges as u64,
        s.shortcut_tuples,
    ]
}

#[test]
fn corpus_solve_stats_are_pinned() {
    let budget = |budget| PtaConfig {
        budget,
        ..Default::default()
    };
    let mut actual: Vec<(&str, &str, [u64; 5])> = Vec::new();
    for v in mujs_corpus::jquery_like::all_versions() {
        let mut h = DetHarness::from_src(&v.src).expect("corpus parses");
        let cfg = AnalysisConfig {
            det_dom: true,
            ..Default::default()
        };
        let mut out = h.analyze_dom(cfg.clone(), v.doc.clone(), &v.plan);
        let mut program = h.program;
        let facts = injectable_facts(&out.facts, &mut program);
        let sums = shortcut_summaries(&v.src, &v.doc, &v.plan, &cfg, &out.facts, &mut program);
        let spec = mujs_specialize::specialize(
            &program,
            &out.facts,
            &mut out.ctxs,
            &mujs_specialize::SpecConfig::default(),
        );
        let solves = [
            (&program, budget(2_000_000)),
            (
                &program,
                PtaConfig {
                    facts: Some(facts.clone()),
                    ..budget(150_000)
                },
            ),
            (
                &program,
                PtaConfig {
                    facts: Some(facts),
                    shortcuts: Some(Arc::new(sums.summaries)),
                    ..budget(150_000)
                },
            ),
            (&spec.program, budget(150_000)),
        ];
        for (mode, (prog, cfg)) in MODES.into_iter().zip(&solves) {
            actual.push((v.version, mode, row(&solve(prog, cfg).stats)));
        }
    }
    if actual.as_slice() != PINNED.as_slice() {
        let rows: Vec<String> = actual
            .iter()
            .map(|(v, m, r)| format!("    ({v:?}, {m:?}, {r:?}),"))
            .collect();
        panic!(
            "solve stats moved; the actual rows are:\n{}",
            rows.join("\n")
        );
    }
}

/// `[propagations, edges]` of the copy-ring program's full solve.
const RING_STATS: [u64; 2] = [181_923, 6_926];

/// Digest of the copy-ring program's export one propagation short of the
/// fixpoint.
const RING_TRUNCATED: u64 = 0x07cd_3823_013d_556a;

fn digest(export: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(export.as_bytes());
    h.finish()
}

/// With provenance off and on, the copy ring reaches one fixpoint with the
/// pinned counters, and a solve one propagation short of it stops where it
/// always has. Provenance is a side channel: it moves neither.
#[test]
fn copy_ring_solve_stats_are_pinned() {
    let ast = mujs_syntax::parse(&common::hub_src(40, 48, 6)).expect("parses");
    let prog = mujs_ir::lower_program(&ast);
    let mut fixpoints = Vec::new();
    let mut short_exports = Vec::new();
    for provenance in [false, true] {
        let cfg = |budget| PtaConfig {
            budget,
            provenance,
            ..Default::default()
        };
        let label = format!("provenance={provenance}");
        let full = solve(&prog, &cfg(u64::MAX));
        assert_eq!(full.status, PtaStatus::Completed, "{label}");
        let s = &full.stats;
        assert_eq!([s.propagations, s.edges], RING_STATS, "{label}");
        fixpoints.push(full.export_json());
        let needed = s.propagations;
        let short = solve(&prog, &cfg(needed - 1));
        assert_eq!(short.status, PtaStatus::BudgetExceeded, "{label}");
        assert_eq!(short.stats.propagations, needed - 1, "{label}");
        short_exports.push(short.export_json());
    }
    assert!(
        fixpoints[0] == fixpoints[1],
        "provenance moved the fixpoint"
    );
    assert!(
        short_exports[0] == short_exports[1],
        "provenance moved the truncated export"
    );
    let got = digest(&short_exports[0]);
    assert_eq!(
        got, RING_TRUNCATED,
        "truncated export moved (actual digest {got:#x})"
    );
}
