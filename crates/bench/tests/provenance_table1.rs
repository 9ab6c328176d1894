//! Blame must explain the result Table 1 reports. On jQuery 1.0 the
//! uninjected baseline starves at the Table 1 budget; turning provenance
//! on (as `detblame` does) must not change which partial solution the
//! budget leaves behind.

use mujs_bench::pipeline::{blame, fan_out, page_request, with_pipeline, TABLE1_PTA_BUDGET};
use mujs_jobs::pipeline::PipelineCounters;
use mujs_pta::{PtaConfig, PtaStatus};

#[test]
fn provenance_keeps_the_table1_partial_result_on_jquery_1_0() {
    let v = mujs_corpus::jquery_like::v1_0();
    let req = page_request(&v.src, &v.doc, &v.plan, true);
    with_pipeline(&req, &PipelineCounters::default(), |p| {
        fan_out(p).expect("pipeline runs");
        let prog = &p.live().expect("parses").0.program;
        let plain = mujs_pta::solve(
            prog,
            &PtaConfig {
                budget: TABLE1_PTA_BUDGET,
                ..Default::default()
            },
        );
        let (blamed, _) = blame(prog, TABLE1_PTA_BUDGET, 3);
        assert_eq!(plain.status, PtaStatus::BudgetExceeded);
        assert_eq!(blamed.status, PtaStatus::BudgetExceeded);
        assert_eq!(blamed.stats.propagations, plain.stats.propagations);
        let plain_avg = plain.precision(prog).avg_points_to;
        let blamed_avg = blamed.precision(prog).avg_points_to;
        assert_eq!(
            format!("{plain_avg:.2}"),
            "97.48",
            "the plain Table 1 baseline solve moved"
        );
        assert_eq!(
            format!("{blamed_avg:.2}"),
            format!("{plain_avg:.2}"),
            "provenance changed the partial solution it explains"
        );
        assert_eq!(blamed.export_json(), plain.export_json());
    });
}
