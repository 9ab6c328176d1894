//! The `detlint` binary end to end: the built-in corpora lint clean, each
//! `--json` row carries exactly its four fields, and unknown flags or
//! paths with nothing to lint are usage errors.

use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

fn detlint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(args)
        .output()
        .expect("detlint runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(needle),
        "stderr lacks {needle:?}: {out:?}"
    );
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn corpus_all_lints_clean() {
    let out = detlint(&["--corpus", "all"]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(", 0 failed"), "{stderr}");
}

#[test]
fn json_rows_carry_exactly_four_fields() {
    let out = detlint(&["--corpus", "all", "--json"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.is_empty());
    for line in stdout.lines() {
        let Value::Object(fields) = serde_json::from_str::<Value>(line).expect("row parses") else {
            panic!("row is not an object: {line}");
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            ["name", "status", "functions", "violations"],
            "{line}"
        );
    }
}

#[test]
fn unknown_flags_are_usage_errors() {
    for flag in ["--dataflow", "--jsn"] {
        let out = detlint(&["--corpus", "table1", flag]);
        assert_usage_error(&out, &format!("unknown flag `{flag}`"));
    }
}

#[test]
fn a_lone_non_js_file_is_nothing_to_lint() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("detlint-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("notes.md");
    std::fs::write(&path, "# not javascript\n").unwrap();
    let out = detlint(&[path.to_str().unwrap()]);
    assert_usage_error(&out, "nothing to lint");
}
