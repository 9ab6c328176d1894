//! The `analyze` binary end to end: its JSON export is the seed fan-out's
//! export on the CLI's page, removed flags are usage errors, and a source
//! that does not parse is a clean error.

use determinacy::multirun::{analyze_many_hooked, export_json};
use determinacy::{AnalysisConfig, DetHarness, RunHooks};
use mujs_dom::document::DocumentBuilder;
use mujs_dom::events::EventPlan;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .output()
        .expect("analyze runs")
}

fn example_scripts() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/js");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("examples/js exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "js"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no example scripts");
    files
}

#[test]
fn json_output_is_the_fan_out_export_on_the_cli_page() {
    let seeds = [1, 2, 3];
    let doc = DocumentBuilder::new().title("analyze-cli").build();
    for path in example_scripts() {
        let out = analyze(&[path.to_str().unwrap(), "--json", "--seeds", "1,2,3"]);
        assert!(out.status.success(), "{}: {out:?}", path.display());
        let src = std::fs::read_to_string(&path).unwrap();
        let mut h = DetHarness::from_src(&src).expect("example parses");
        let multi = analyze_many_hooked(
            &mut h,
            &seeds,
            AnalysisConfig::default(),
            Some(&doc),
            &EventPlan::new(),
            &RunHooks::supervised(),
            &|_, _| {},
        );
        let expected = export_json(&multi.facts, &h.program, &h.source, &multi.ctxs) + "\n";
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            expected,
            "{}",
            path.display()
        );
    }
}

#[test]
fn workers_is_an_unknown_flag() {
    let path = &example_scripts()[0];
    let out = analyze(&[path.to_str().unwrap(), "--workers", "2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--workers`"));
}

#[test]
fn a_syntax_error_exits_1() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("analyze-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.js");
    std::fs::write(&path, "var x = ;").unwrap();
    let out = analyze(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("syntax error:"));
    assert!(out.stdout.is_empty());
}
