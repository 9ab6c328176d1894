//! End-to-end `detjobs` binary checks: exit codes for CI gating, the
//! checkpoint/resume flags producing byte-identical reports, and per-run
//! deadlines that complete a job rather than fail it.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn detjobs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_detjobs"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
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
    let ckpt = dir.join("ck.json");
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

    let second = detjobs()
        .args([
            "--manifest",
            manifest.to_str().unwrap(),
            "--resume",
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
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn orphaned_checkpoint_flags_warn_instead_of_silently_ignoring() {
    let dir = tmp_dir("cli-warn");
    let manifest = write_manifest(&dir, "m.json", HEALTHY);

    // --checkpoint-every without --checkpoint: warns, still runs.
    let out = detjobs()
        .args([
            "--manifest",
            manifest.to_str().unwrap(),
            "--checkpoint-every",
            "5",
            "--quiet",
            "--report",
            dir.join("r1.json").to_str().unwrap(),
        ])
        .output()
        .expect("run detjobs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: --checkpoint-every has no effect without --checkpoint"),
        "{stderr}"
    );

    // --resume without --checkpoint: warns that this leg is unprotected.
    let ckpt = dir.join("ck.json");
    let seeded = detjobs()
        .args([
            "--manifest",
            manifest.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--quiet",
            "--report",
            dir.join("r2.json").to_str().unwrap(),
        ])
        .output()
        .expect("run detjobs");
    assert!(seeded.status.success());
    let resumed = detjobs()
        .args([
            "--manifest",
            manifest.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
            "--quiet",
            "--report",
            dir.join("r3.json").to_str().unwrap(),
        ])
        .output()
        .expect("run detjobs");
    assert!(resumed.status.success());
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("warning: --resume without --checkpoint"),
        "{stderr}"
    );

    // The fully-specified spelling stays warning-free.
    let clean = detjobs()
        .args([
            "--manifest",
            manifest.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "5",
            "--resume",
            ckpt.to_str().unwrap(),
            "--quiet",
            "--report",
            dir.join("r4.json").to_str().unwrap(),
        ])
        .output()
        .expect("run detjobs");
    assert!(clean.status.success());
    assert!(
        !String::from_utf8_lossy(&clean.stderr).contains("warning:"),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    // --help documents the exit-code contract.
    let help = detjobs().arg("--help").output().expect("run detjobs");
    assert_eq!(help.status.code(), Some(2));
    let text = String::from_utf8_lossy(&help.stderr);
    assert!(text.contains("exit status:"), "{text}");
    assert!(text.contains("2  usage errors"), "{text}");
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

/// Jobs run once, with no retry or watchdog knobs: the old flags are
/// unknown arguments.
#[test]
fn retry_and_watchdog_flags_are_usage_errors() {
    let dir = tmp_dir("cli-removed-flags");
    let manifest = write_manifest(&dir, "m.json", HEALTHY);
    for (flag, value) in [
        ("--retries", "2"),
        ("--backoff-ms", "5"),
        ("--watchdog-grace", "100"),
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
    std::fs::remove_dir_all(&dir).ok();
}
