//! Scheduler-level chaos: the fault-tolerance headline guarantee.
//!
//! For any seed-deterministic [`SchedulerFaultPlan`] (dropped/delayed
//! events, torn checkpoint appends), the final batch report must be
//! **byte-identical** to the fault-free run — at any worker count. CI
//! runs this suite across a worker-count × fault-seed matrix; on
//! divergence the offending reports are written under
//! `CARGO_TARGET_TMPDIR/chaos-divergence/` for artifact upload.
#![cfg(feature = "fault-inject")]

use mujs_jobs::chaos::SchedulerFaultPlan;
use mujs_jobs::{
    run_manifest_with, BatchOptions, BatchOutcome, Checkpoint, JobPool, JobSpec, Manifest,
};
use std::path::PathBuf;
use std::sync::Arc;

fn chaos_manifest() -> Manifest {
    Manifest::new(vec![
        JobSpec {
            seeds: Some(vec![1, 2, 3]),
            ..JobSpec::new(
                "coin",
                "var coin = Math.random() < 0.5;\n\
                 var picked = 0;\n\
                 if (coin) { var a = 11; picked = 1; } else { var b = 22; picked = 2; }",
            )
        },
        JobSpec {
            seeds: Some(vec![7]),
            ..JobSpec::new(
                "calls",
                "function id(v) { var echo = v; return echo; }\n\
                 id(1); id(2); var r = id(Math.random());",
            )
        },
        JobSpec::new(
            "loop",
            "var i = 0; var acc = 0; while (i < 50) { i = i + 1; acc = acc + i; }",
        ),
        JobSpec::new("plain", "var x = 1 + 2; var y = x * 3;"),
        JobSpec::new("strings", "var s = 'a' + 'b'; var t = s + 'c';"),
    ])
}

fn divergence_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-divergence");
    std::fs::create_dir_all(&dir).expect("create divergence dir");
    dir
}

fn assert_identical(baseline: &str, got: &str, tag: &str) {
    if baseline != got {
        let dir = divergence_dir();
        std::fs::write(dir.join("baseline.json"), baseline).unwrap();
        std::fs::write(dir.join(format!("{tag}.json")), got).unwrap();
        panic!(
            "chaos divergence for {tag}; reports written to {}",
            dir.display()
        );
    }
}

fn run_chaos(
    m: &Manifest,
    workers: usize,
    plan: Option<Arc<SchedulerFaultPlan>>,
    opts_extra: impl FnOnce(&mut BatchOptions),
) -> BatchOutcome {
    let mut pool = JobPool::new(workers);
    if let Some(p) = &plan {
        pool = pool.with_scheduler_faults(p.clone());
    }
    let mut opts = BatchOptions {
        chaos: plan,
        ..Default::default()
    };
    opts_extra(&mut opts);
    run_manifest_with(m, &pool, &opts)
}

/// The acceptance-criteria matrix: fault seeds × worker counts {1, 2, 8},
/// every leg byte-identical to the fault-free single-worker baseline.
#[test]
fn retryable_fault_schedules_leave_the_report_byte_identical() {
    let m = chaos_manifest();
    let baseline = run_chaos(&m, 1, None, |_| {}).report_json();
    // CI widens the seed matrix through the environment.
    let mut fault_seeds = vec![1u64, 2, 3];
    if let Some(extra) = std::env::var("DETJOBS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        if !fault_seeds.contains(&extra) {
            fault_seeds.push(extra);
        }
    }
    for fault_seed in fault_seeds {
        for workers in [1usize, 2, 8] {
            let plan = Arc::new(SchedulerFaultPlan {
                delay_event_ms: 1,
                ..SchedulerFaultPlan::from_seed(fault_seed)
            });
            let batch = run_chaos(&m, workers, Some(plan), |_| {});
            assert_identical(
                &baseline,
                &batch.report_json(),
                &format!("seed{fault_seed}-workers{workers}"),
            );
        }
    }
}

/// Injected torn appends (a crash mid-append) cost only the rows on the
/// torn lines: reopening the same journal restores the rest, and the
/// resumed report reproduces the baseline bytes.
#[test]
fn torn_checkpoint_appends_reopen_and_resume() {
    let m = chaos_manifest();
    let baseline = run_chaos(&m, 2, None, |_| {}).report_json();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-ckpt");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("ck.jsonl");
    let journal = || Some(Checkpoint::open(&ckpt).expect("torn journal reopens"));
    let plan = Arc::new(SchedulerFaultPlan {
        drop_event_pct: 0, // isolate the checkpoint fault
        delay_event_pct: 0,
        truncate_checkpoint_every: Some(2),
        ..SchedulerFaultPlan::from_seed(9)
    });
    let first = run_chaos(&m, 2, Some(plan), |o| o.checkpoint = journal());
    assert_identical(&baseline, &first.report_json(), "ckpt-truncation-run");
    let resumed = run_chaos(&m, 2, None, |o| o.checkpoint = journal());
    assert_identical(&baseline, &resumed.report_json(), "ckpt-truncation-resume");
    let restored = resumed.jobs.iter().filter(|j| j.restored).count();
    assert!(restored > 0, "resume must splice at least one settled row");
    assert!(restored < m.jobs.len(), "torn rows must rerun");
    std::fs::remove_dir_all(&dir).ok();
}
