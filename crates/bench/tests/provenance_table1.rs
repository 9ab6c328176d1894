//! Blame must explain the result Table 1 reports. On jQuery 1.0 the
//! uninjected baseline starves at the Table 1 budget; turning provenance
//! on (as `detblame` does) must not change which partial solution the
//! budget leaves behind.

use determinacy::AnalysisConfig;
use mujs_bench::pipeline::{analyze_page, TABLE1_PTA_BUDGET};
use mujs_pta::{PtaConfig, PtaStatus};

#[test]
fn provenance_keeps_the_table1_partial_result_on_jquery_1_0() {
    let v = mujs_corpus::jquery_like::v1_0();
    let cfg = AnalysisConfig {
        det_dom: true,
        ..Default::default()
    };
    let (h, _) = analyze_page(&v.src, &v.doc, &v.plan, cfg).expect("pipeline runs");
    let prog = h.program;
    let plain_cfg = PtaConfig {
        budget: TABLE1_PTA_BUDGET,
        ..Default::default()
    };
    let plain = mujs_pta::solve(&prog, &plain_cfg);
    let blamed = mujs_pta::solve(
        &prog,
        &PtaConfig {
            provenance: true,
            ..plain_cfg
        },
    );
    assert_eq!(plain.status, PtaStatus::BudgetExceeded);
    assert_eq!(blamed.status, PtaStatus::BudgetExceeded);
    assert_eq!(blamed.stats.propagations, plain.stats.propagations);
    let plain_avg = plain.precision(&prog).avg_points_to;
    let blamed_avg = blamed.precision(&prog).avg_points_to;
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
}
