//! Interning must be invisible in every exported artifact.
//!
//! The symbol-interning / slot-resolution work rewires how the machines
//! represent names, but the fact exports and batch reports are external
//! contracts: their bytes were captured from the pre-interning engine
//! (`tests/golden/`) and must never change. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test intern_determinism` **only** when a
//! change is *supposed* to alter analysis results.
//!
//! Also re-checks the PR 2 scheduling guarantee end-to-end: `detjobs`
//! batch reports are byte-identical for any worker count (the 1-vs-8
//! pattern from `crates/jobs/tests/scheduler.rs`), now across the full
//! built-in corpus.

use determinacy::multirun::export_json;
use determinacy::{AnalysisConfig, DetHarness};
use mujs_jobs::{run_manifest, JobPool, JobSpec, Manifest};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the checked-in golden bytes, or rewrites the
/// golden when `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        expected, actual,
        "{name}: exported bytes changed — interning/slot work must not \
         alter analysis output (regenerate goldens only for intentional \
         analysis changes)"
    );
}

/// One sorted JSON fact export per Table 1 corpus version, byte-compared
/// against the pre-interning capture.
#[test]
fn table1_fact_exports_match_pre_interning_bytes() {
    let mut all = String::new();
    for v in mujs_corpus::jquery_like::all_versions() {
        let mut h = DetHarness::from_src(&v.src).expect("corpus parses");
        let out = determinacy::supervised_analyze_dom(
            &mut h,
            AnalysisConfig::default(),
            v.doc.clone(),
            &v.plan,
            &determinacy::RunHooks::supervised(),
        )
        .expect("corpus analyzes");
        let json = export_json(&out.facts, &h.program, &h.source, &out.ctxs);
        let _ = writeln!(all, "=== jquery-like {} ===\n{json}", v.version);
    }
    assert_golden("table1_exports.txt", &all);
}

/// The other Table 1 analysis cell: Spec+DetDOM fact exports, plus the
/// run statistics of both the Spec and the Spec+DetDOM analysis of every
/// corpus version. Together with `table1_exports.txt` this pins every
/// instrumented run behind Table 1, so a change to the machine's
/// bookkeeping (write log, slot annotations, key interning) must leave
/// the counted work as well as the facts unchanged.
#[test]
fn table1_detdom_exports_and_run_stats_match_golden() {
    let mut all = String::new();
    for v in mujs_corpus::jquery_like::all_versions() {
        for det_dom in [false, true] {
            let mut h = DetHarness::from_src(&v.src).expect("corpus parses");
            let cfg = AnalysisConfig {
                det_dom,
                ..AnalysisConfig::default()
            };
            let out = determinacy::supervised_analyze_dom(
                &mut h,
                cfg,
                v.doc.clone(),
                &v.plan,
                &determinacy::RunHooks::supervised(),
            )
            .expect("corpus analyzes");
            let cell = if det_dom { "Spec+DetDOM" } else { "Spec" };
            let s = &out.stats;
            let _ = writeln!(
                all,
                "=== jquery-like {} {cell} ===\nstatus={:?} steps={} counterfactuals={} \
                 cf_aborts={} heap_flushes={} handlers_fired={}",
                v.version,
                out.status,
                s.steps,
                s.counterfactuals,
                s.cf_aborts,
                s.heap_flushes,
                s.handlers_fired
            );
            if det_dom {
                let json = export_json(&out.facts, &h.program, &h.source, &out.ctxs);
                let _ = writeln!(all, "{json}");
            }
        }
    }
    assert_golden("table1_detdom_exports_and_stats.txt", &all);
}

/// Fact exports over the runnable §5.2 eval suite.
#[test]
fn evalbench_fact_exports_match_pre_interning_bytes() {
    let mut all = String::new();
    for b in mujs_corpus::evalbench::all().iter().filter(|b| b.runnable) {
        let mut h = match DetHarness::from_src(&b.src) {
            Ok(h) => h,
            Err(_) => continue,
        };
        let out = determinacy::supervised_analyze_dom(
            &mut h,
            AnalysisConfig::default(),
            b.doc(),
            &b.plan(),
            &determinacy::RunHooks::supervised(),
        );
        let json = match out {
            Ok(out) => export_json(&out.facts, &h.program, &h.source, &out.ctxs),
            Err(e) => format!("run failed: {e}"),
        };
        let _ = writeln!(all, "=== {} ===\n{json}", b.name);
    }
    assert_golden("evalbench_exports.txt", &all);
}

fn full_corpus_manifest() -> Manifest {
    let mut jobs = Vec::new();
    for (name, src) in mujs_corpus::jquery_like::named_sources() {
        jobs.push(JobSpec::new(name, src));
    }
    for (name, src) in mujs_corpus::evalbench::named_sources() {
        jobs.push(JobSpec::new(name, src));
    }
    jobs.push(JobSpec {
        seeds: Some(vec![1, 2, 3, 4]),
        ..JobSpec::new(
            "coin-multiseed",
            "var coin = Math.random() < 0.5;\n\
             if (coin) { var a = 11; } else { var b = 22; }",
        )
    });
    Manifest::new(jobs)
}

/// The `detjobs` batch report over the full built-in corpus: identical
/// for 1 and 8 workers, and identical to the pre-interning bytes.
#[test]
fn detjobs_full_corpus_report_is_schedule_and_interning_invariant() {
    let m = full_corpus_manifest();
    let sequential = run_manifest(&m, &JobPool::new(1));
    let parallel = run_manifest(&m, &JobPool::new(8));
    let seq_report = sequential.report_json(true);
    assert_eq!(
        seq_report,
        parallel.report_json(true),
        "batch report must not depend on worker count"
    );
    assert_golden("detjobs_full_corpus_report.json", &seq_report);
}
