//! Invariants of the three-way PTA comparison that `BENCH_pta.json`
//! records (baseline vs fact-injected vs specialized at
//! `PTA_COMPARE_BUDGET`). The file pins the numbers; these tests pin the
//! claims the numbers must keep supporting.

use mujs_bench::pipeline::{run_pta_rows, PTA_COMPARE_BUDGET};
use mujs_jobs::pipeline::PipelineCounters;
use std::sync::atomic::Ordering;

#[test]
fn injection_completes_wherever_specialization_does_and_baseline_reaches_fixpoint() {
    let counters = PipelineCounters::default();
    let versions = mujs_corpus::jquery_like::all_versions();
    for v in &versions {
        let (r, _) = run_pta_rows(v, &counters).expect("pipeline runs");
        assert!(
            r.injected.ok || !r.specialized.ok,
            "{}: specialized completes at {PTA_COMPARE_BUDGET} but injected does not",
            r.version
        );
        // The raised budget exists so the baseline measures a real
        // fixpoint on 1.0–1.2 (1.3 may starve).
        if r.version != "1.3" {
            assert!(
                r.baseline.ok,
                "{}: uninjected baseline misses its fixpoint at {PTA_COMPARE_BUDGET}",
                r.version
            );
        }
    }
    // Both detbench sections read one DetDOM fan-out per version.
    assert_eq!(
        counters.analyses.load(Ordering::Relaxed),
        versions.len() as u64
    );
}
