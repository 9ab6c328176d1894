//! Scheduler determinism and cancellation: the two batch-level guarantees
//! the job subsystem makes on top of the per-run supervisor.
//!
//! * **Determinism** — a mixed-corpus manifest produces a byte-identical
//!   report (merged facts included) with 1 worker and with N workers.
//! * **Cancellation** — cancelling mid-batch keeps every completed job's
//!   outcome, stops the in-flight job cooperatively with its sound fact
//!   prefix (`AnalysisStatus::Cancelled`), and marks queued jobs as never
//!   started.
//!
//! CI runs this suite under `DETJOBS_TEST_WORKERS` ∈ {1, 8}; the
//! determinism tests always compare against a 1-worker baseline, so each
//! matrix leg checks a different schedule against the same bytes.

use determinacy::AnalysisStatus;
use mujs_jobs::{run_manifest, JobEvent, JobPool, JobSpec, JobStatus, Manifest};
use std::sync::mpsc::channel;

/// Worker count for the "parallel" side of determinism comparisons.
fn test_workers() -> usize {
    std::env::var("DETJOBS_TEST_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

/// A mixed corpus: branchy seeded programs, a corpus library version, and
/// eval benchmarks — enough shape diversity that scheduling bugs (wrong
/// combination order, cross-job state) would show up in the merged facts.
fn mixed_manifest() -> Manifest {
    let mut jobs = vec![
        JobSpec {
            seeds: Some(vec![1, 2, 3, 4]),
            ..JobSpec::new(
                "coin",
                "var coin = Math.random() < 0.5;\n\
                 var picked = 0;\n\
                 if (coin) { var a = 11; picked = 1; } else { var b = 22; picked = 2; }",
            )
        },
        JobSpec {
            seeds: Some(vec![7, 8]),
            ..JobSpec::new(
                "calls",
                "function id(v) { var echo = v; return echo; }\n\
                 id(1); id(1); id(2); var r = id(Math.random());",
            )
        },
        JobSpec::new("syntax-error", "var x = ;"),
    ];
    let (name, src) = mujs_corpus::jquery_like::named_sources().swap_remove(0);
    jobs.push(JobSpec::new(name, src));
    for (name, src) in mujs_corpus::evalbench::named_sources().into_iter().take(3) {
        jobs.push(JobSpec::new(name, src));
    }
    Manifest::new(jobs)
}

#[test]
fn one_worker_and_many_workers_produce_identical_reports() {
    let m = mixed_manifest();
    let sequential = run_manifest(&m, &JobPool::new(1));
    let parallel = run_manifest(&m, &JobPool::new(test_workers()));
    // Byte-identical merged fact report — the headline guarantee.
    assert_eq!(
        sequential.report_json(true),
        parallel.report_json(true),
        "batch report must not depend on worker count"
    );
    // And the structured view agrees job by job.
    assert_eq!(sequential.jobs.len(), parallel.jobs.len());
    for (a, b) in sequential.jobs.iter().zip(&parallel.jobs) {
        assert_eq!(a.name, b.name);
        match (&a.outcome, &b.outcome) {
            (Some(x), Some(y)) => {
                assert_eq!(x.multi.facts.len(), y.multi.facts.len(), "{}", a.name);
                assert_eq!(
                    x.multi.facts.det_count(),
                    y.multi.facts.det_count(),
                    "{}",
                    a.name
                );
                assert_eq!(x.export_facts_json(), y.export_facts_json(), "{}", a.name);
            }
            (None, None) => {}
            _ => panic!("{}: outcomes diverge between schedules", a.name),
        }
    }
    // The syntax-error job degrades, it does not poison the batch.
    let bad = &sequential.jobs[2];
    assert!(matches!(bad.status, JobStatus::Syntax(_)));
    assert_eq!(sequential.completed(), m.jobs.len() - 1);
}

/// Cancelling mid-batch: completed jobs keep their outcomes, the
/// in-flight job stops cooperatively with `AnalysisStatus::Cancelled`
/// (sound fact prefix intact), queued jobs never start.
#[test]
fn cancellation_preserves_completed_jobs_and_stops_in_flight_ones() {
    // Job 2 runs a long loop; jobs 0 and 1 are trivial. One worker makes
    // the schedule deterministic: 0 and 1 complete, 2 is in flight when
    // the cancel fires, 3 and 4 are still queued.
    let long_loop = "var i = 0;\n\
                     var sink = 0;\n\
                     while (i < 100000000) { i = i + 1; sink = sink + i; }";
    let m = Manifest::new(vec![
        JobSpec::new("done-0", "var a = 1 + 2;"),
        JobSpec::new("done-1", "var b = 3 * 4;"),
        JobSpec::new("in-flight", long_loop),
        JobSpec::new("queued-0", "var c = 5;"),
        JobSpec::new("queued-1", "var d = 6;"),
    ]);
    let (tx, rx) = channel();
    let pool = JobPool::new(1).with_events(tx);
    let token = pool.cancel_token();
    // Cancel as soon as the long job starts — event-driven, so the test
    // does not depend on timing.
    let watcher = std::thread::spawn(move || {
        for e in rx {
            if matches!(&e, JobEvent::Started { job: 2, .. }) {
                token.cancel();
            }
        }
    });
    let batch = run_manifest(&m, &pool);
    drop(pool);
    watcher.join().unwrap();

    // Completed jobs keep full outcomes.
    for i in [0usize, 1] {
        let j = &batch.jobs[i];
        assert!(matches!(j.status, JobStatus::Completed), "{:?}", j.status);
        let out = j.outcome.as_ref().unwrap();
        assert_eq!(out.multi.runs.len(), 1);
        assert_eq!(out.multi.runs[0].status, AnalysisStatus::Completed);
        assert!(out.multi.facts.det_count() > 0);
    }
    // The in-flight job reports Cancelled either way the race resolves:
    // the supervised run observed the token at a statement poll and
    // stopped with its sound prefix (`AnalysisStatus::Cancelled`), or the
    // token landed before the seed's run began and it short-circuited to
    // `RunFailure::Cancelled`. Both return promptly; neither is a normal
    // completion.
    let inflight = &batch.jobs[2];
    assert!(matches!(inflight.status, JobStatus::Completed));
    let out = inflight.outcome.as_ref().unwrap();
    let stopped_mid_run = out
        .multi
        .runs
        .first()
        .is_some_and(|r| r.status == AnalysisStatus::Cancelled);
    let stopped_before_run = out
        .multi
        .failures
        .iter()
        .any(|f| matches!(f, determinacy::RunFailure::Cancelled { .. }));
    assert!(
        stopped_mid_run || stopped_before_run,
        "in-flight job must report cancellation: {:?} / {:?}",
        out.multi.runs.iter().map(|r| &r.status).collect::<Vec<_>>(),
        out.multi.failures
    );
    // Queued jobs never started.
    for i in [3usize, 4] {
        assert!(
            matches!(batch.jobs[i].status, JobStatus::Cancelled),
            "job {i}: {:?}",
            batch.jobs[i].status
        );
        assert!(batch.jobs[i].outcome.is_none());
    }
}

/// A cancelled batch still renders a deterministic report (statuses and
/// completed facts; no timing data anywhere).
#[test]
fn cancelled_batches_report_cleanly() {
    let m = Manifest::new(vec![
        JobSpec::new("first", "var a = 1;"),
        JobSpec::new("second", "var b = 2;"),
    ]);
    let pool = JobPool::new(1);
    pool.cancel(); // cancel before anything starts
    let batch = run_manifest(&m, &pool);
    assert_eq!(batch.completed(), 0);
    let report = batch.report_json(true);
    assert!(report.contains("\"cancelled\""));
    // Cancellation is not a failure.
    assert!(!batch.has_failures());
}
