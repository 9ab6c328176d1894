//! Cross-crate integration of the job subsystem: the pipeline's seeds run
//! through the core fan-out (same bytes out), and the manifest layer must
//! round-trip through JSON and cover the corpus suites.

use determinacy::multirun::{analyze_many, analyze_many_hooked, export_json, export_value};
use determinacy::{AnalysisConfig, CancelToken, DetHarness, RunHooks};
use mujs_dom::document::DocumentBuilder;
use mujs_dom::events::EventPlan;
use mujs_jobs::pipeline::{Page, Pipeline, PipelineCounters, StageRequest};
use mujs_jobs::{
    run_manifest, run_manifest_with, BatchOptions, Checkpoint, JobEvent, JobPool, JobSpec, Manifest,
};

const BRANCHY: &str = "var coin = Math.random() < 0.5;\n\
                       function pick(v) { var slot = v; return slot; }\n\
                       if (coin) { pick(1); } else { pick(2); }\n\
                       var stable = pick(3);";

#[test]
fn pipeline_fanout_is_a_drop_in_for_analyze_many() {
    let seeds: Vec<u64> = (100..110).collect();
    // Without a document the fan-out runs with no DOM at all.
    let mut h = DetHarness::from_src("var t = typeof document;").unwrap();
    let pageless = analyze_many(&mut h, &seeds, AnalysisConfig::default());
    let rows = export_value(&pageless.facts, &h.program, &h.source, &pageless.ctxs);
    let t = rows
        .as_array()
        .unwrap()
        .iter()
        .find(|r| r["kind"] == "Define" && r["line"] == 1.0)
        .expect("a fact for `t`");
    assert!(
        t["value"] == "\"undefined\"" && t["determinate"] == true,
        "{t:?}"
    );
    // With a page, the pipeline exports what the fan-out exports on it.
    let doc = DocumentBuilder::new().title("drop-in").build();
    for src in [BRANCHY, "var t = typeof document; var d = document.title;"] {
        let mut h = DetHarness::from_src(src).unwrap();
        let direct = analyze_many_hooked(
            &mut h,
            &seeds,
            AnalysisConfig::default(),
            Some(&doc),
            &EventPlan::new(),
            &RunHooks::supervised(),
            &|_, _| {},
        );
        let req = StageRequest {
            src: src.to_owned(),
            cfg: AnalysisConfig::default(),
            seeds: seeds.clone(),
            page: Some(Page {
                doc: doc.clone(),
                plan: EventPlan::new(),
            }),
            pta: None,
        };
        let (cancel, counters) = (CancelToken::new(), PipelineCounters::default());
        let mut p = Pipeline::new(&req, &cancel, &counters, &|_| {});
        let (ph, piped) = p.live().unwrap();
        assert_eq!(
            export_json(&piped.facts, &ph.program, &ph.source, &piped.ctxs),
            export_json(&direct.facts, &h.program, &h.source, &direct.ctxs),
            "the pipeline must reproduce the fan-out's export of {src:?}"
        );
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
    let base = run_manifest(&m, &JobPool::new(1)).report_json();
    for workers in [2, 8] {
        assert_eq!(
            base,
            run_manifest(&m, &JobPool::new(workers)).report_json(),
            "report must be byte-identical at {workers} workers"
        );
    }
}

/// The campaign-hardened path composes end to end across crates: a
/// checkpointed run over a manifest prefix (an "interrupted" campaign)
/// resumes, from the same checkpoint journal, into the full manifest with
/// byte-identical output, running only the remainder, and stats counters
/// on the side.
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
    let baseline = run_manifest(&full, &JobPool::new(2)).report_json();

    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("root-resume");
    // A journal left by an earlier run would be resumed.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("ck.jsonl");
    let opts = || BatchOptions {
        checkpoint: Some(Checkpoint::open(&ckpt).expect("checkpoint opens")),
        ..Default::default()
    };
    let prefix = Manifest::new(full.jobs[..2].to_vec());
    run_manifest_with(&prefix, &JobPool::new(2), &opts());
    let (tx, rx) = std::sync::mpsc::channel();
    let resumed = run_manifest_with(&full, &JobPool::new(2).with_events(tx), &opts());
    assert_eq!(baseline, resumed.report_json());
    assert!(resumed.jobs[..2].iter().all(|j| j.restored));
    assert!(resumed.jobs[2..].iter().all(|j| !j.restored));
    // Only the remainder ran: a restored row is never re-executed.
    let mut started: Vec<String> = rx
        .try_iter()
        .filter_map(|e| match e {
            JobEvent::Started { label, .. } => Some(label),
            _ => None,
        })
        .collect();
    started.sort();
    let mut remainder: Vec<String> = full.jobs[2..].iter().map(|j| j.name.clone()).collect();
    remainder.sort();
    assert_eq!(started, remainder);
    let stats = resumed.stats_json();
    assert!(stats.contains("\"restored\": 2"), "{stats}");
    std::fs::remove_dir_all(&dir).ok();
}
