//! Crash-safety tests under deterministic fault injection (`--features
//! fault-inject`): injected native failures, panics, counterfactual-abort
//! storms, and allocation failures must all be contained by the
//! supervisor, surface with the matching status or failure value, and
//! leave the surviving fact databases sound.

#![cfg(feature = "fault-inject")]

use determinacy::driver::{AnalysisOutcome, DetHarness};
use determinacy::multirun::analyze_many_hooked;
use determinacy::{
    supervised_analyze, AnalysisConfig, AnalysisStatus, FactDb, FaultPlan, RunFailure, RunHooks,
};
use mujs_dom::events::EventPlan;
use mujs_interp::context::ContextTable;
use proptest::prelude::*;

fn combine(outs: &[&AnalysisOutcome]) -> u64 {
    let mut db = FactDb::new(0);
    let mut master = ContextTable::new();
    let mut conflicts = 0;
    for o in outs {
        conflicts += db.absorb_reinterned(&o.facts, &o.ctxs, &mut master);
    }
    conflicts
}

fn run_with(
    src: &str,
    cfg: AnalysisConfig,
    plan: FaultPlan,
) -> Result<AnalysisOutcome, RunFailure> {
    let mut h = DetHarness::from_src(src).expect("test program parses");
    supervised_analyze(&mut h, cfg, &RunHooks::supervised().with_faults(plan))
}

#[test]
fn injected_native_panic_is_caught_and_structured() {
    let src = r#"var a = 1; console.log(a); console.log(a + 1);"#;
    let cfg = AnalysisConfig {
        seed: 7,
        ..Default::default()
    };
    let plan = FaultPlan {
        native_panic_at: Some(2),
        ..Default::default()
    };
    let err = run_with(src, cfg, plan).expect_err("the injected panic must surface as a failure");
    let RunFailure::EnginePanic {
        payload,
        steps,
        seed,
    } = err
    else {
        panic!("expected an engine panic, got {err}");
    };
    assert!(payload.contains("injected native fault"), "{payload}");
    assert_eq!(seed, 7, "the failure must carry the failing seed");
    // The progress counter survives the panic, so the report says how far
    // the run got (the first statement has executed by the second call).
    assert!(
        steps > 0,
        "progress should have been recorded before the panic"
    );
}

#[test]
fn injected_native_error_is_an_exception_not_a_panic() {
    // A native call that *fails* (rather than crashes) becomes a thrown
    // JS error: the run ends with UncaughtException, keeping the facts
    // collected before the failure.
    let src = r#"var before = 1 + 1; console.log(before);"#;
    let plan = FaultPlan {
        native_error_at: Some(1),
        ..Default::default()
    };
    let out = run_with(src, AnalysisConfig::default(), plan)
        .expect("a failing native is handled inside the machine");
    assert_eq!(out.status, AnalysisStatus::UncaughtException);
    assert!(
        !out.facts.is_empty(),
        "prefix facts survive the thrown error"
    );
}

#[test]
fn injected_alloc_failure_stops_with_mem_limit() {
    let src = r#"
var early = 2 + 3;
for (var i = 0; i < 1000; i++) { var o = {}; o.p = i; }
"#;
    let plan = FaultPlan {
        alloc_fail_at: Some(4),
        ..Default::default()
    };
    let out = run_with(src, AnalysisConfig::default(), plan)
        .expect("heap exhaustion is a stop, not a failure");
    assert_eq!(out.status, AnalysisStatus::MemLimit);
    assert!(
        !out.facts.is_empty(),
        "prefix facts survive the allocation failure"
    );
}

/// The acceptance scenario: one seed of a multi-run batch hits a
/// panicking native model. The batch must not abort — the failed seed
/// becomes a structured failure entry and the surviving seeds combine
/// into a conflict-free database.
#[test]
fn multirun_batch_survives_panicking_seed() {
    // With counterfactual execution off, the branch body only runs (and
    // only makes its native calls) on seeds whose coin-flip is true — so
    // a fault keyed on the call count hits exactly those seeds.
    let src = r#"
var r = Math.random();
var stable = 40 + 2;
if (r < 0.5) { console.log("taken"); console.log("deep"); }
"#;
    let cfg = AnalysisConfig {
        counterfactual: false,
        ..Default::default()
    };
    let seeds: Vec<u64> = (0..16).collect();
    let mut h = DetHarness::from_src(src).expect("test program parses");

    // Probe run (no faults): find which seeds take the branch.
    let probe = analyze_many_hooked(
        &mut h,
        &seeds,
        cfg.clone(),
        None,
        &EventPlan::new(),
        &RunHooks::supervised(),
        &|_, _| {},
    );
    assert_eq!(probe.runs.len(), seeds.len());
    assert!(probe.failures.is_empty());
    let taken: Vec<u64> = seeds
        .iter()
        .zip(&probe.runs)
        .filter(|(_, out)| out.output.iter().any(|l| l == "taken"))
        .map(|(s, _)| *s)
        .collect();
    assert!(
        !taken.is_empty() && taken.len() < seeds.len(),
        "need both branch-taking and branch-skipping seeds, got {taken:?}"
    );

    // Faulted run: the third native call (Math.random + two logs) only
    // happens on branch-taking seeds, and it panics.
    let hooks = RunHooks::supervised().with_faults(FaultPlan {
        native_panic_at: Some(3),
        ..Default::default()
    });
    let out = analyze_many_hooked(
        &mut h,
        &seeds,
        cfg,
        None,
        &EventPlan::new(),
        &hooks,
        &|_, _| {},
    );
    assert_eq!(
        out.failures.len(),
        taken.len(),
        "every branch-taking seed fails"
    );
    assert_eq!(
        out.runs.len(),
        seeds.len() - taken.len(),
        "the others complete"
    );
    assert_eq!(out.conflicts, 0, "surviving seeds combine conflict-free");
    assert!(
        !out.facts.is_empty(),
        "surviving seeds still contribute facts"
    );
    for f in &out.failures {
        let RunFailure::EnginePanic { payload, seed, .. } = f else {
            panic!("expected an engine panic, got {f}");
        };
        assert!(taken.contains(seed), "failure for unexpected seed {seed}");
        assert!(payload.contains("injected native fault"), "{payload}");
    }

    // The same program under an already-elapsed deadline: no hang, no
    // panic — a clean Deadline stop with the fact prefix intact.
    let deadline_cfg = AnalysisConfig {
        deadline_ms: Some(0),
        poll_interval: 3,
        counterfactual: false,
        ..Default::default()
    };
    let cut = h.analyze(deadline_cfg);
    assert_eq!(cut.status, AnalysisStatus::Deadline);
    assert!(!cut.facts.is_empty(), "deadline stop keeps the fact prefix");
}

// A program whose indeterminate branches exercise counterfactual
// execution (the arm not taken concretely runs under the undo log).
const CF_SRC: &str = r#"
var r = Math.random();
var x = 0;
var o = {};
if (r < 0.25) { x = 1; o.low = x; } else { x = 2; o.high = x; }
if (r < 0.75) { o.p = x + 1; } else { o.p = x + 2; }
console.log(x);
console.log(o.p);
"#;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Undo-log restoration: forcing every counterfactual to abort
    /// (ĈNTRABORT storm) must not change the concrete execution — same
    /// output, same status — and the fact databases of the stormed and
    /// unstormed runs stay mutually consistent (both are sound, so their
    /// determinate facts cannot disagree).
    #[test]
    fn cf_abort_storm_is_transparent_to_concrete_execution(seed in any::<u64>()) {
        let cfg = AnalysisConfig { seed, ..Default::default() };
        let baseline = run_with(CF_SRC, cfg.clone(), FaultPlan::default())
            .expect("baseline run succeeds");
        let stormed = run_with(
            CF_SRC,
            cfg,
            FaultPlan { cf_abort_storm: true, ..Default::default() },
        )
        .expect("stormed run succeeds");
        prop_assert_eq!(&baseline.output, &stormed.output);
        prop_assert_eq!(&baseline.status, &stormed.status);
        prop_assert!(
            stormed.stats.cf_aborts >= stormed.stats.counterfactuals,
            "the storm must abort every counterfactual"
        );
        prop_assert_eq!(combine(&[&baseline, &stormed]), 0);
    }

    /// Panic isolation: wherever in the run a native panic is injected,
    /// it never escapes the supervisor — the call returns either a clean
    /// outcome (fault point never reached) or a structured failure
    /// carrying the right seed.
    #[test]
    fn injected_panics_never_escape_the_supervisor(
        seed in any::<u64>(),
        at in 1u64..8,
    ) {
        let cfg = AnalysisConfig { seed, ..Default::default() };
        let plan = FaultPlan { native_panic_at: Some(at), ..Default::default() };
        match run_with(CF_SRC, cfg, plan) {
            Ok(out) => prop_assert!(
                out.status == AnalysisStatus::Completed
                    || out.status == AnalysisStatus::UncaughtException,
                "unexpected status {:?}",
                out.status
            ),
            Err(RunFailure::EnginePanic { payload, seed: s, .. }) => {
                prop_assert!(payload.contains("injected native fault"), "{}", payload);
                prop_assert_eq!(s, seed);
            }
            Err(other) => prop_assert!(false, "unexpected failure {}", other),
        }
    }
}
