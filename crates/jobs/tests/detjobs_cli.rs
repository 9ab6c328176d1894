//! End-to-end `detjobs` binary checks: exit codes for CI gating, the
//! checkpoint journal resuming into byte-identical reports, and per-run
//! deadlines that complete a job rather than fail it.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn detjobs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_detjobs"))
}

/// A fresh, empty directory: a journal left by an earlier run would be
/// resumed.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_manifest(dir: &Path, name: &str, body: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

const HEALTHY: &str = r#"{
  "jobs": [
    { "name": "a", "src": "var x = 1 + 2;" },
    { "name": "b", "src": "var y = 3 * 4;", "seeds": [1, 2] }
  ]
}"#;

const WITH_BAD_JOB: &str = r#"{
  "jobs": [
    { "name": "ok", "src": "var x = 1;" },
    { "name": "broken", "src": "var x = ;" }
  ]
}"#;

#[test]
fn healthy_batches_exit_zero() {
    let dir = tmp_dir("cli-ok");
    let manifest = write_manifest(&dir, "m.json", HEALTHY);
    let out = detjobs()
        .args(["--manifest", manifest.to_str().unwrap(), "--quiet"])
        .output()
        .expect("run detjobs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_jobs_make_the_exit_code_nonzero() {
    let dir = tmp_dir("cli-fail");
    let manifest = write_manifest(&dir, "m.json", WITH_BAD_JOB);
    let out = detjobs()
        .args(["--manifest", manifest.to_str().unwrap(), "--quiet"])
        .output()
        .expect("run detjobs");
    assert_eq!(out.status.code(), Some(1));
    // The failure reason reaches the progress stream, not just a bit.
    let with_events = detjobs()
        .args(["--manifest", manifest.to_str().unwrap()])
        .output()
        .expect("run detjobs");
    let stderr = String::from_utf8_lossy(&with_events.stderr);
    assert!(
        stderr.contains("FAILED") && stderr.contains("syntax error"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fail_fast_still_exits_nonzero() {
    let dir = tmp_dir("cli-failfast");
    let manifest = write_manifest(&dir, "m.json", WITH_BAD_JOB);
    let out = detjobs()
        .args([
            "--manifest",
            manifest.to_str().unwrap(),
            "--fail-fast",
            "--workers",
            "1",
            "--quiet",
        ])
        .output()
        .expect("run detjobs");
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_then_resume_reproduces_the_report_bytes() {
    let dir = tmp_dir("cli-resume");
    let manifest = write_manifest(&dir, "m.json", HEALTHY);
    let ckpt = dir.join("ck.jsonl");
    let r1 = dir.join("r1.json");
    let r2 = dir.join("r2.json");
    let stats = dir.join("stats.json");

    let first = detjobs()
        .args([
            "--manifest",
            manifest.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--report",
            r1.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("run detjobs");
    assert!(first.status.success());
    let journal = std::fs::read(&ckpt).unwrap();

    let second = detjobs()
        .args([
            "--manifest",
            manifest.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--report",
            r2.to_str().unwrap(),
            "--stats",
            stats.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("run detjobs");
    assert!(second.status.success());
    assert!(String::from_utf8_lossy(&second.stderr).contains("resuming from"));

    let bytes1 = std::fs::read(&r1).unwrap();
    let bytes2 = std::fs::read(&r2).unwrap();
    assert_eq!(bytes1, bytes2, "resumed report must be byte-identical");

    // Everything was restored: the resumed leg executed no job.
    let stats_text = std::fs::read_to_string(&stats).unwrap();
    assert!(stats_text.contains("\"jobs\": 2"), "{stats_text}");
    assert!(stats_text.contains("\"restored\": 2"), "{stats_text}");
    assert_eq!(std::fs::read(&ckpt).unwrap(), journal, "nothing to append");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--no-facts` leg still checkpoints full rows: resuming it without
/// `--no-facts` reproduces a plain full run's report byte for byte.
#[test]
fn no_facts_checkpoints_resume_into_full_reports() {
    let dir = tmp_dir("cli-no-facts-resume");
    let manifest = write_manifest(&dir, "m.json", HEALTHY);
    let ckpt = dir.join("ck.jsonl");
    let run = |extra: &[&str], report: &Path| {
        let out = detjobs()
            .args(["--manifest", manifest.to_str().unwrap(), "--quiet"])
            .args(extra)
            .args(["--report", report.to_str().unwrap()])
            .output()
            .expect("run detjobs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(report).unwrap()
    };
    let first = run(
        &["--no-facts", "--checkpoint", ckpt.to_str().unwrap()],
        &dir.join("r1.json"),
    );
    assert!(String::from_utf8_lossy(&first).contains("\"fact_rows\": null"));
    let resumed = run(
        &["--checkpoint", ckpt.to_str().unwrap()],
        &dir.join("r2.json"),
    );
    let plain = run(&[], &dir.join("r3.json"));
    assert!(!String::from_utf8_lossy(&plain).contains("\"fact_rows\": null"));
    assert_eq!(resumed, plain, "resumed report must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint that cannot be used stops the batch before any job starts
/// and is left as it was: a version-1 (whole-document) checkpoint, and a
/// path whose directory does not exist.
#[test]
fn unusable_checkpoints_exit_before_any_job_starts() {
    let dir = tmp_dir("cli-bad-ckpt");
    let manifest = write_manifest(&dir, "m.json", HEALTHY);
    let v1 = dir.join("v1.json");
    let v1_bytes = "{\n  \"version\": 1,\n  \"rows\": []\n}";
    std::fs::write(&v1, v1_bytes).unwrap();
    let missing = dir.join("no-such-dir").join("ck.jsonl");
    for ckpt in [&v1, &missing] {
        let out = detjobs()
            .args(["--manifest", manifest.to_str().unwrap()])
            .args(["--checkpoint", ckpt.to_str().unwrap()])
            .output()
            .expect("run detjobs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("error: checkpoint"), "{stderr}");
        assert!(!stderr.contains("started"), "{stderr}");
        assert!(out.stdout.is_empty());
    }
    assert_eq!(std::fs::read_to_string(&v1).unwrap(), v1_bytes);
    assert!(!missing.parent().unwrap().exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// `deadline_ms` bounds each seed run, not the whole job: three seed runs
/// that each stop at a 200ms deadline make a job that completes, with
/// three `Deadline` run statuses, even though it takes over 600ms.
#[test]
fn per_run_deadlines_complete_a_multi_seed_job() {
    let dir = tmp_dir("cli-deadline");
    let manifest = write_manifest(
        &dir,
        "m.json",
        r#"{"jobs": [{"name": "spin", "src": "var i = 0; while (true) { i = i + 1; }",
                      "seeds": [1, 2, 3], "deadline_ms": 200}]}"#,
    );
    let out = detjobs()
        .args([
            "--manifest",
            manifest.to_str().unwrap(),
            "--no-facts",
            "--quiet",
        ])
        .output()
        .expect("run detjobs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: Value = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let job = &report.get("jobs").unwrap().as_array().unwrap()[0];
    assert_eq!(job.get("status").unwrap().as_str(), Some("completed"));
    let statuses: Vec<&str> = job
        .get("run_statuses")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.as_str().unwrap())
        .collect();
    assert_eq!(statuses, ["Deadline", "Deadline", "Deadline"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Jobs run once, with no retry or watchdog knobs, and `--checkpoint` is
/// the one checkpoint flag: the old flags are unknown arguments.
#[test]
fn retry_and_watchdog_flags_are_usage_errors() {
    let dir = tmp_dir("cli-removed-flags");
    let manifest = write_manifest(&dir, "m.json", HEALTHY);
    for (flag, value) in [
        ("--retries", "2"),
        ("--backoff-ms", "5"),
        ("--watchdog-grace", "100"),
        ("--resume", "ck.json"),
        ("--checkpoint-every", "5"),
    ] {
        let out = detjobs()
            .args(["--manifest", manifest.to_str().unwrap(), flag, value])
            .output()
            .expect("run detjobs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown argument"),
            "{flag}"
        );
    }

    // --help documents the exit-code contract.
    let help = detjobs().arg("--help").output().expect("run detjobs");
    assert_eq!(help.status.code(), Some(2));
    let text = String::from_utf8_lossy(&help.stderr);
    assert!(text.contains("exit status:"), "{text}");
    assert!(text.contains("2  usage errors"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
