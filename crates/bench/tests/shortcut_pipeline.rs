//! End-to-end shortcut-mode gates over the Table 1 corpus: at the tight
//! 150k budget, injection+summaries must complete every version
//! (including 1.3, where specialization exhausts) and dominate the
//! injection-only rows on both precision axes. `detbench` records the
//! numbers in the `shortcuts` section of `BENCH_pta.json`; this test is
//! the one place the claims are asserted.

use mujs_bench::pipeline::{run_pta_rows, TABLE1_PTA_BUDGET};
use mujs_jobs::pipeline::PipelineCounters;

#[test]
fn shortcut_mode_completes_and_dominates_on_every_version() {
    for v in mujs_corpus::jquery_like::all_versions() {
        let (_, r) = run_pta_rows(&v, &PipelineCounters::default()).expect("pipeline runs");
        assert!(
            !r.degraded,
            "{}: summaries degraded — the fan-out's traces could not witness the regions",
            r.version
        );
        assert!(
            r.regions > 0,
            "{}: extractor found no determinate regions",
            r.version
        );
        assert!(
            r.shortcut.ok,
            "{}: shortcut mode starved at budget {TABLE1_PTA_BUDGET}",
            r.version
        );
        assert!(
            r.shortcut.poly_sites <= r.injected.poly_sites,
            "{}: shortcut poly sites {} vs injected {}",
            r.version,
            r.shortcut.poly_sites,
            r.injected.poly_sites
        );
        assert!(
            r.shortcut.avg_points_to <= r.injected.avg_points_to + f64::EPSILON,
            "{}: shortcut avg points-to {} vs injected {}",
            r.version,
            r.shortcut.avg_points_to,
            r.injected.avg_points_to
        );
    }
}

#[test]
fn heavy_versions_summarize_the_extend_pattern() {
    // The regions that matter are the dynamic-key copy loops; on the
    // heavy main-script versions they carry hundreds of tuples and the
    // solve does strictly less work than injection-only.
    let v = mujs_corpus::jquery_like::v1_0();
    let (_, r) = run_pta_rows(&v, &PipelineCounters::default()).expect("pipeline runs");
    assert!(r.tuples > 100, "expected a rich summary, got {}", r.tuples);
    assert!(
        r.shortcut.work < r.injected.work,
        "shortcut work {} not below injected {}",
        r.shortcut.work,
        r.injected.work
    );
}
