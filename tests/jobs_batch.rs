//! Cross-crate integration of the job subsystem: the pooled APIs must be
//! drop-in replacements for the sequential ones (same bytes out), and the
//! manifest layer must round-trip through JSON and cover the corpus
//! suites.

use determinacy::multirun::{analyze_many, export_json};
use determinacy::{AnalysisConfig, DetHarness};
use mujs_jobs::{
    analyze_many_pooled, run_manifest, run_manifest_with, BatchOptions, Checkpoint, JobPool,
    JobSpec, Manifest,
};

const BRANCHY: &str = "var coin = Math.random() < 0.5;\n\
                       function pick(v) { var slot = v; return slot; }\n\
                       if (coin) { pick(1); } else { pick(2); }\n\
                       var stable = pick(3);";

#[test]
fn pooled_fanout_is_a_drop_in_for_analyze_many() {
    let seeds: Vec<u64> = (100..110).collect();
    // Without a document both paths run with no DOM at all.
    for src in [BRANCHY, "var t = typeof document;"] {
        let mut h = DetHarness::from_src(src).unwrap();
        let sequential = analyze_many(&mut h, &seeds, AnalysisConfig::default());
        for workers in [1, 4] {
            let pooled = analyze_many_pooled(
                src,
                &seeds,
                AnalysisConfig::default(),
                None,
                &mujs_dom::events::EventPlan::new(),
                &JobPool::new(workers),
            )
            .unwrap();
            assert_eq!(
                export_json(&pooled.facts, &h.program, &h.source, &pooled.ctxs),
                export_json(&sequential.facts, &h.program, &h.source, &sequential.ctxs),
                "{workers} workers must reproduce the sequential export of {src:?}"
            );
        }
    }
}

#[test]
fn manifests_round_trip_through_json() {
    let m = Manifest::new(vec![
        JobSpec {
            seeds: Some(vec![3, 5]),
            deadline_ms: Some(60_000),
            mem_cells: Some(4_000_000),
            ..JobSpec::new("first", BRANCHY)
        },
        JobSpec::new("second", "var x = 1;"),
    ]);
    let json = m.to_json();
    let back = Manifest::from_json(&json).expect("round-trips");
    assert_eq!(back.jobs.len(), 2);
    assert_eq!(back.jobs[0].name, "first");
    assert_eq!(back.jobs[0].effective_seeds(), vec![3, 5]);
    assert_eq!(back.jobs[0].effective_config().deadline_ms, Some(60_000));
    assert_eq!(
        back.jobs[0].effective_config().mem_cell_budget,
        Some(4_000_000)
    );
    // Defaults survive omission.
    assert_eq!(
        back.jobs[1].effective_seeds(),
        vec![AnalysisConfig::default().seed]
    );
}

#[test]
fn corpus_suites_build_valid_manifests() {
    let jq = Manifest::suite("jquery").expect("jquery suite");
    let ev = Manifest::suite("evalbench").expect("evalbench suite");
    let all = Manifest::suite("all").expect("all suite");
    assert_eq!(jq.jobs.len(), 4);
    assert_eq!(ev.jobs.len(), 24);
    assert_eq!(all.jobs.len(), jq.jobs.len() + ev.jobs.len());
    assert!(Manifest::suite("nope").is_none());
}

#[test]
fn small_batches_are_schedule_independent_end_to_end() {
    let mut jobs = vec![
        JobSpec {
            seeds: Some(vec![1, 2, 3]),
            ..JobSpec::new("branchy", BRANCHY)
        },
        JobSpec::new("straight", "var a = 1; var b = a + 1;"),
    ];
    for (name, src) in mujs_corpus::evalbench::named_sources().into_iter().take(2) {
        jobs.push(JobSpec::new(name, src));
    }
    let m = Manifest::new(jobs);
    let base = run_manifest(&m, &JobPool::new(1)).report_json(true);
    for workers in [2, 8] {
        assert_eq!(
            base,
            run_manifest(&m, &JobPool::new(workers)).report_json(true),
            "report must be byte-identical at {workers} workers"
        );
    }
}

/// The campaign-hardened path composes end to end across crates: a
/// checkpointed run over a manifest prefix (an "interrupted" campaign)
/// resumes into the full manifest with byte-identical output, running
/// only the remainder, and stats counters on the side.
#[test]
fn interrupted_campaigns_resume_byte_identically_end_to_end() {
    let mut jobs = vec![
        JobSpec {
            seeds: Some(vec![1, 2]),
            ..JobSpec::new("branchy", BRANCHY)
        },
        JobSpec::new("straight", "var a = 1; var b = a + 1;"),
    ];
    for (name, src) in mujs_corpus::evalbench::named_sources().into_iter().take(2) {
        jobs.push(JobSpec::new(name, src));
    }
    let full = Manifest::new(jobs);
    let baseline = run_manifest(&full, &JobPool::new(2)).report_json(true);

    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("root-resume");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("ck.json");
    let prefix = Manifest::new(full.jobs[..2].to_vec());
    run_manifest_with(
        &prefix,
        &JobPool::new(2),
        &BatchOptions {
            checkpoint_path: Some(ckpt.clone()),
            ..Default::default()
        },
    );
    let resumed = run_manifest_with(
        &full,
        &JobPool::new(2),
        &BatchOptions {
            resume: Some(Checkpoint::load(&ckpt).expect("checkpoint parses")),
            ..Default::default()
        },
    );
    assert_eq!(baseline, resumed.report_json(true));
    assert!(resumed.jobs[..2]
        .iter()
        .all(|j| j.restored.is_some() && j.outcome.is_none()));
    assert!(resumed.jobs[2..]
        .iter()
        .all(|j| j.restored.is_none() && j.outcome.is_some()));
    let stats = resumed.stats_json();
    assert!(stats.contains("\"restored\": 2"), "{stats}");
    std::fs::remove_dir_all(&dir).ok();
}
