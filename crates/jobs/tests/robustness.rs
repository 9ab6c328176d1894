//! Campaign robustness: checkpoint/resume byte-identity, admission-driven
//! degradation, fail-fast semantics, listener teardown, and the
//! determinism of the hardened batch path — all without fault injection
//! (the chaos suite layers that on).

use determinacy::AnalysisConfig;
use mujs_jobs::{
    job_key, run_manifest, run_manifest_with, BatchOptions, Checkpoint, JobEvent, JobPool, JobSpec,
    JobStatus, Manifest, PtaMode, PtaStage, StageKeys,
};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::mpsc::channel;

fn small_manifest() -> Manifest {
    Manifest::new(vec![
        JobSpec {
            seeds: Some(vec![1, 2]),
            ..JobSpec::new(
                "coin",
                "var coin = Math.random() < 0.5;\n\
                 if (coin) { var a = 11; } else { var b = 22; }",
            )
        },
        JobSpec::new("plain", "var x = 1 + 2; var y = x * 3;"),
        JobSpec::new("calls", "function f(v) { return v + 1; } var r = f(f(1));"),
        JobSpec::new("strings", "var s = 'a' + 'b'; var t = s + 'c';"),
    ])
}

/// A job's checkpoint key in a batch with this PTA stage and no memory
/// budget.
fn key(spec: &JobSpec, pta: Option<PtaStage>) -> String {
    job_key(&StageKeys::compute(&spec.stage_request(pta)), None)
}

fn baseline(budget: u64) -> Option<PtaStage> {
    Some(PtaStage {
        budget,
        mode: PtaMode::Baseline,
    })
}

/// A row's per-seed run statuses (empty for a job that never ran).
fn runs(row: &Value) -> &[Value] {
    row["run_statuses"].as_array().unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The hardened path with default options is the plain path: same bytes.
#[test]
fn default_options_match_the_plain_batch_path() {
    let m = small_manifest();
    let plain = run_manifest(&m, &JobPool::new(2));
    let hardened = run_manifest_with(&m, &JobPool::new(2), &BatchOptions::default());
    assert_eq!(plain.report_json(), hardened.report_json());
}

/// Campaign options (checkpointing on) do not disturb the worker-count
/// invariance of the report.
#[test]
fn hardened_batches_stay_schedule_independent() {
    let m = small_manifest();
    let dir = tmp_dir("robustness-sched");
    let mk_opts = |ck: PathBuf| BatchOptions {
        checkpoint_path: Some(ck),
        checkpoint_every: 1,
        ..Default::default()
    };
    let one = run_manifest_with(&m, &JobPool::new(1), &mk_opts(dir.join("w1.json")));
    let many = run_manifest_with(&m, &JobPool::new(8), &mk_opts(dir.join("w8.json")));
    assert_eq!(one.report_json(), many.report_json());
    std::fs::remove_dir_all(&dir).ok();
}

/// Interrupt/resume byte-identity (the acceptance criterion): a run over a
/// *prefix* of the manifest — exactly what an interrupted campaign leaves
/// behind — checkpoints its settled rows; resuming the full manifest from
/// that checkpoint reproduces the uninterrupted report byte for byte,
/// without re-executing the completed jobs (they are restored, not run).
#[test]
fn resumed_batches_are_byte_identical_without_reexecution() {
    let full = small_manifest();
    let dir = tmp_dir("robustness-resume");
    let ckpt = dir.join("ck.json");

    let uninterrupted = run_manifest_with(&full, &JobPool::new(2), &BatchOptions::default());
    let baseline = uninterrupted.report_json();

    // "Interrupted" leg: only the first two jobs ran before the kill.
    let prefix = Manifest::new(full.jobs[..2].to_vec());
    run_manifest_with(
        &prefix,
        &JobPool::new(2),
        &BatchOptions {
            checkpoint_path: Some(ckpt.clone()),
            checkpoint_every: 1,
            ..Default::default()
        },
    );

    let ck = Checkpoint::load(&ckpt).expect("checkpoint parses");
    assert_eq!(ck.len(), 2);
    let (tx, rx) = channel();
    let resumed = run_manifest_with(
        &full,
        &JobPool::new(2).with_events(tx),
        &BatchOptions {
            resume: Some(ck.clone()),
            ..Default::default()
        },
    );
    assert_eq!(baseline, resumed.report_json());
    // The first two jobs were spliced, not re-run; the rest ran.
    for j in &resumed.jobs[..2] {
        assert!(j.restored, "{} must be restored", j.name);
    }
    for j in &resumed.jobs[2..] {
        assert!(!j.restored);
        assert!(!runs(&j.row).is_empty(), "{} must actually run", j.name);
    }
    let mut started: Vec<String> = rx
        .try_iter()
        .filter_map(|e| match e {
            JobEvent::Started { label, .. } => Some(label),
            _ => None,
        })
        .collect();
    started.sort();
    assert_eq!(
        started,
        ["calls", "strings"],
        "restored jobs must not re-execute"
    );
    assert!(resumed.stats_json().contains("\"restored\": 2"));

    // Facts-off reports agree too (the splice strips stored fact rows).
    let no_facts = || BatchOptions {
        no_facts: true,
        ..Default::default()
    };
    let resumed = run_manifest_with(
        &full,
        &JobPool::new(2),
        &BatchOptions {
            resume: Some(ck),
            ..no_facts()
        },
    );
    let uninterrupted = run_manifest_with(&full, &JobPool::new(2), &no_facts());
    assert_eq!(uninterrupted.report_json(), resumed.report_json());
    std::fs::remove_dir_all(&dir).ok();
}

/// The job name is not part of the checkpoint key, so it must not reach
/// the analysis either: every job runs against the same fixed document.
/// A job whose facts read `document.title`, checkpointed under one name
/// and resumed under another, reproduces an uninterrupted run of the new
/// name byte for byte, and same-source jobs under different names agree.
#[test]
fn renamed_jobs_resume_to_the_bytes_of_an_uninterrupted_run() {
    let job = |name: &str| JobSpec {
        config: Some(AnalysisConfig {
            det_dom: true,
            ..AnalysisConfig::default()
        }),
        ..JobSpec::new(name, "var o = {}; o[document.title] = 1;")
    };
    let dir = tmp_dir("robustness-rename");
    let ckpt = dir.join("ck.json");
    run_manifest_with(
        &Manifest::new(vec![job("alpha")]),
        &JobPool::new(1),
        &BatchOptions {
            checkpoint_path: Some(ckpt.clone()),
            ..Default::default()
        },
    );
    let renamed = Manifest::new(vec![job("beta")]);
    let resumed = run_manifest_with(
        &renamed,
        &JobPool::new(1),
        &BatchOptions {
            resume: Some(Checkpoint::load(&ckpt).unwrap()),
            ..Default::default()
        },
    );
    assert!(resumed.jobs[0].restored, "same content, same key");
    let uninterrupted = run_manifest(&renamed, &JobPool::new(1)).report_json();
    assert!(
        uninterrupted.contains("PropKey"),
        "the title flows into a property key: {uninterrupted}"
    );
    assert_eq!(uninterrupted, resumed.report_json());

    let twins = run_manifest(
        &Manifest::new(vec![job("alpha"), job("beta")]),
        &JobPool::new(1),
    );
    let facts = &twins.jobs[0].row["fact_rows"];
    assert!(facts.as_array().is_some_and(|rows| !rows.is_empty()));
    assert_eq!(facts, &twins.jobs[1].row["fact_rows"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Content keying: editing a job's source invalidates its checkpoint row
/// (the job reruns), while untouched jobs still splice.
#[test]
fn stale_checkpoint_rows_miss_on_content_change() {
    let m = small_manifest();
    let dir = tmp_dir("robustness-stale");
    let ckpt = dir.join("ck.json");
    run_manifest_with(
        &m,
        &JobPool::new(2),
        &BatchOptions {
            checkpoint_path: Some(ckpt.clone()),
            ..Default::default()
        },
    );
    let mut edited = m.clone();
    edited.jobs[1].src = "var x = 999;".to_owned();
    assert_ne!(key(&m.jobs[1], None), key(&edited.jobs[1], None));
    let resumed = run_manifest_with(
        &edited,
        &JobPool::new(2),
        &BatchOptions {
            resume: Some(Checkpoint::load(&ckpt).unwrap()),
            ..Default::default()
        },
    );
    assert!(resumed.jobs[0].restored);
    assert!(
        !resumed.jobs[1].restored,
        "edited job must not reuse the stale row"
    );
    assert!(
        !runs(&resumed.jobs[1].row).is_empty(),
        "edited job must run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Admission control: a job declaring more cells than the whole batch
/// budget runs degraded (reduced budget) instead of failing, the decision
/// is schedule-independent, and the counters surface it.
#[test]
fn oversized_jobs_degrade_instead_of_failing() {
    let m = Manifest::new(vec![
        JobSpec {
            mem_cells: Some(10_000_000),
            ..JobSpec::new("greedy", "var x = [1, 2, 3]; var y = x.length;")
        },
        JobSpec {
            mem_cells: Some(50_000),
            ..JobSpec::new("modest", "var a = 5;")
        },
        JobSpec::new("undeclared", "var b = 6;"),
    ]);
    let opts = || BatchOptions {
        mem_budget_cells: Some(100_000),
        ..Default::default()
    };
    let (tx, rx) = channel();
    let batch = run_manifest_with(&m, &JobPool::new(2).with_events(tx), &opts());
    assert!(matches!(batch.jobs[0].status, JobStatus::Degraded));
    assert!(matches!(batch.jobs[1].status, JobStatus::Completed));
    assert!(matches!(batch.jobs[2].status, JobStatus::Completed));
    assert!(!batch.has_failures(), "degradation is not a failure");
    assert!(batch.report_json().contains("\"degraded\""));
    assert!(rx.try_iter().any(
        |e| matches!(e, JobEvent::Degraded { granted_cells, .. } if granted_cells == 100_000)
    ));
    let stats = batch.stats_json();
    assert!(stats.contains("\"degraded\": 1"), "{stats}");
    // Schedule independence of the degrade decision.
    let again = run_manifest_with(&m, &JobPool::new(1), &opts());
    assert_eq!(batch.report_json(), again.report_json());
}

/// `fail_fast` cancels the remainder of the batch after a permanent
/// failure (here: a syntax error), and the batch reports a failure.
#[test]
fn fail_fast_stops_the_batch_on_a_permanent_failure() {
    let m = Manifest::new(vec![
        JobSpec::new("bad", "var x = ;"),
        JobSpec::new("after-0", "var a = 1;"),
        JobSpec::new("after-1", "var b = 2;"),
    ]);
    let batch = run_manifest_with(
        &m,
        &JobPool::new(1),
        &BatchOptions {
            fail_fast: true,
            ..Default::default()
        },
    );
    assert!(matches!(batch.jobs[0].status, JobStatus::Syntax(_)));
    assert!(matches!(batch.jobs[1].status, JobStatus::Cancelled));
    assert!(matches!(batch.jobs[2].status, JobStatus::Cancelled));
    assert!(batch.has_failures());
}

/// Satellite: dropping the `JobEvent` receiver mid-batch must not stall
/// the pool or change the report.
#[test]
fn listener_teardown_mid_batch_leaves_the_report_unchanged() {
    let m = small_manifest();
    let baseline = run_manifest(&m, &JobPool::new(2)).report_json();
    let (tx, rx) = channel();
    // Read exactly one event, then drop the receiver while jobs are still
    // emitting.
    let reader = std::thread::spawn(move || {
        let _ = rx.recv();
        drop(rx);
    });
    let batch = run_manifest(&m, &JobPool::new(2).with_events(tx));
    reader.join().unwrap();
    assert_eq!(baseline, batch.report_json());
}

/// Structured failure reasons reach the JSON report (kind + seed +
/// message), not just a failed bit.
#[test]
fn reports_carry_structured_failure_reasons() {
    let m = Manifest::new(vec![JobSpec::new("bad", "var x = ;")]);
    let batch = run_manifest(&m, &JobPool::new(1));
    let report = batch.report_json();
    assert!(report.contains("syntax error"), "{report}");
    // Stats counters exist and count the failure.
    let stats = batch.stats_json();
    assert!(stats.contains("\"syntax_errors\": 1"), "{stats}");
    assert!(stats.contains("\"panicked\": 0"), "{stats}");
}

/// The opt-in PTA stage: enabling it adds a `pta` object to every
/// completed row, the report stays byte-identical across worker counts,
/// and leaving it off reproduces the PTA-less bytes exactly.
#[test]
fn pta_stage_is_deterministic_and_strictly_opt_in() {
    let m = small_manifest();
    let without = run_manifest(&m, &JobPool::new(2)).report_json();
    assert!(
        !without.contains("\"pta\""),
        "a PTA-less report must not mention the stage"
    );

    let opts = BatchOptions {
        pta: baseline(50_000),
        ..Default::default()
    };
    let seq = run_manifest_with(&m, &JobPool::new(1), &opts);
    let par = run_manifest_with(&m, &JobPool::new(4), &opts);
    let seq_report = seq.report_json();
    assert_eq!(
        seq_report,
        par.report_json(),
        "PTA rows must not depend on the worker count"
    );
    assert!(seq_report.contains("\"pta\""), "{seq_report}");
    assert!(seq_report.contains("\"propagations\""), "{seq_report}");

    // Checkpoint keys fold the budget (stale rows miss when it changes).
    let spec = &m.jobs[0];
    assert_ne!(key(spec, baseline(50_000)), key(spec, baseline(60_000)));
    assert_ne!(
        key(spec, baseline(50_000)),
        key(
            spec,
            Some(PtaStage {
                budget: 50_000,
                mode: PtaMode::Spec(2)
            })
        ),
        "the spec-depth bound changes the solved program, so it must move the key"
    );
    assert_eq!(key(spec, None), key(spec, None));
}

/// PTA rows survive the checkpoint/resume splice byte for byte.
#[test]
fn pta_rows_resume_from_checkpoints() {
    let m = small_manifest();
    let dir = tmp_dir("robustness-pta-resume");
    let ckpt = dir.join("ck.json");
    let mk_opts = || BatchOptions {
        pta: baseline(50_000),
        checkpoint_path: Some(ckpt.clone()),
        ..Default::default()
    };
    let first = run_manifest_with(&m, &JobPool::new(2), &mk_opts());
    let resumed = run_manifest_with(
        &m,
        &JobPool::new(2),
        &BatchOptions {
            resume: Some(Checkpoint::load(&ckpt).unwrap()),
            pta: baseline(50_000),
            ..Default::default()
        },
    );
    assert!(resumed.jobs.iter().all(|j| j.restored));
    assert_eq!(first.report_json(), resumed.report_json());
    std::fs::remove_dir_all(&dir).ok();
}

/// `no_facts` only nulls `fact_rows`: every other byte of the report is
/// the facts report's.
#[test]
fn no_facts_reports_null_only_the_fact_rows() {
    let m = small_manifest();
    let with = run_manifest(&m, &JobPool::new(2));
    let without = run_manifest_with(
        &m,
        &JobPool::new(2),
        &BatchOptions {
            no_facts: true,
            ..Default::default()
        },
    );
    let nulled = with
        .jobs
        .iter()
        .map(|j| {
            assert!(j.row["fact_rows"].as_array().is_some(), "{}", j.name);
            let Value::Object(mut fields) = j.row.clone() else {
                panic!("{}: a row is an object", j.name);
            };
            for (k, v) in &mut fields {
                if k == "fact_rows" {
                    *v = Value::Null;
                }
            }
            Value::Object(fields)
        })
        .collect();
    let nulled = Value::Object(vec![("jobs".to_owned(), Value::Array(nulled))]);
    assert_eq!(
        serde_json::to_string_pretty(&nulled).unwrap(),
        without.report_json()
    );
}

/// Checkpoint rows always carry their fact rows, also in a `no_facts`
/// batch: a later resume with facts splices them back.
#[test]
fn no_facts_checkpoints_keep_the_fact_rows() {
    let m = small_manifest();
    let dir = tmp_dir("robustness-no-facts-ckpt");
    let ckpt = dir.join("ck.json");
    let batch = run_manifest_with(
        &m,
        &JobPool::new(2),
        &BatchOptions {
            no_facts: true,
            checkpoint_path: Some(ckpt.clone()),
            ..Default::default()
        },
    );
    assert!(batch.jobs.iter().all(|j| j.row["fact_rows"] == Value::Null));
    let ck = Checkpoint::load(&ckpt).unwrap();
    assert_eq!(ck.len(), m.jobs.len());
    let with = run_manifest(&m, &JobPool::new(2));
    for (spec, j) in m.jobs.iter().zip(&with.jobs) {
        let row = ck.lookup(&key(spec, None)).expect("every job checkpointed");
        assert!(row["fact_rows"].as_array().is_some(), "{}", spec.name);
        assert_eq!(row["fact_rows"], j.row["fact_rows"], "{}", spec.name);
    }
    std::fs::remove_dir_all(&dir).ok();
}
