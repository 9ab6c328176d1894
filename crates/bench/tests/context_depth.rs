//! §5.1: "up to four levels of calling context are required". Sweeps the
//! specializer's context-depth bound on jQuery-like 1.0 and pins the
//! pointer-analysis work each depth leaves. Depth 0 disables cloning, so
//! it is the unspecialized-context baseline; depth 1 barely helps; depth
//! 2 already reaches the specialized fixpoint, and deeper bounds change
//! nothing.

use determinacy::AnalysisConfig;
use mujs_pta::{PtaConfig, PtaStatus};
use mujs_specialize::SpecConfig;

#[test]
fn context_depth_two_reaches_the_specialized_fixpoint_on_1_0() {
    let v = mujs_corpus::jquery_like::v1_0();
    let pta = PtaConfig {
        budget: 50_000_000,
        ..Default::default()
    };
    for (depth, propagations) in [
        (0usize, 927_979u64),
        (1, 927_984),
        (2, 11_446),
        (3, 11_446),
        (4, 11_446),
        (5, 11_446),
        (6, 11_446),
    ] {
        let mut h = determinacy::DetHarness::from_src(&v.src).expect("parses");
        let mut a = h.analyze_dom(AnalysisConfig::default(), v.doc.clone(), &v.plan);
        let cfg = SpecConfig {
            max_context_depth: depth,
            clone_functions: depth > 0,
            ..Default::default()
        };
        let prog = mujs_specialize::specialize(&h.program, &a.facts, &mut a.ctxs, &cfg).program;
        let r = mujs_pta::solve(&prog, &pta);
        assert_eq!(r.status, PtaStatus::Completed, "depth {depth}");
        assert_eq!(r.stats.propagations, propagations, "depth {depth}");
    }
}
