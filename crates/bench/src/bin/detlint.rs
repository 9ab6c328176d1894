//! `detlint` — the IR structural linter as a command-line tool.
//!
//! Parses and lowers JavaScript sources, runs the `mujs-analysis`
//! validator over the lowered program, and reports every invariant
//! violation (exit 1 if any source fails to parse or validate). An
//! unknown flag, or paths that hold no `.js` file, is a usage error
//! (exit 2).
//!
//! With `--json`, results stream as machine-readable line-JSON on
//! stdout — one object per linted source, carrying the status
//! (`ok` / `parse-error` / `violations`) and the violation descriptions
//! — so CI and editor integrations can consume the linter without
//! scraping its prose.
//!
//! ```console
//! $ cargo run -p mujs-bench --bin detlint -- examples/js
//! $ cargo run -p mujs-bench --bin detlint -- --corpus all
//! $ cargo run -p mujs-bench --bin detlint -- --corpus table1 --json
//! ```

#![forbid(unsafe_code)]

use mujs_analysis::validate_program;
use serde_json::Value;
use std::path::{Path, PathBuf};

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: detlint [--corpus table1|evalbench|all] [--json] [PATH ...]\n\
         \x20  PATH: a .js file or a directory scanned for .js files\n\
         \x20  --json: one JSON object per source on stdout (line-JSON)"
    );
    std::process::exit(2);
}

fn js_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .unwrap_or_else(|e| usage(&format!("cannot read {}: {e}", path.display())))
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for e in entries {
            js_files(&e, out);
        }
    } else if path.extension().is_some_and(|x| x == "js") {
        out.push(path.to_owned());
    }
}

struct Report {
    checked: usize,
    failed: usize,
    json: bool,
}

/// Emits one line-JSON record for a linted source. Field order is fixed
/// so the stream is byte-deterministic for a given input set.
fn json_line(
    name: &str,
    status: &str,
    functions: usize,
    error: Option<&str>,
    violations: &[String],
) {
    let mut fields = vec![
        ("name".to_owned(), Value::Str(name.to_owned())),
        ("status".to_owned(), Value::Str(status.to_owned())),
        ("functions".to_owned(), Value::Num(functions as f64)),
    ];
    if let Some(e) = error {
        fields.push(("error".to_owned(), Value::Str(e.to_owned())));
    }
    fields.push((
        "violations".to_owned(),
        Value::Array(violations.iter().map(|v| Value::Str(v.clone())).collect()),
    ));
    let line = serde_json::to_string(&Value::Object(fields)).expect("lint row serializes");
    println!("{line}");
}

fn lint(name: &str, src: &str, report: &mut Report) {
    report.checked += 1;
    let lowered = mujs_syntax::parse_with(src, mujs_ir::lower_program);
    let prog = match lowered {
        Ok(p) => p,
        Err(e) => {
            if report.json {
                json_line(name, "parse-error", 0, Some(&e.to_string()), &[]);
            } else {
                eprintln!("{name}: parse error: {e}");
            }
            report.failed += 1;
            return;
        }
    };
    let violations = validate_program(&prog);
    let described: Vec<String> = violations.iter().map(|v| v.describe(&prog)).collect();
    if report.json {
        let status = if described.is_empty() {
            "ok"
        } else {
            "violations"
        };
        json_line(name, status, prog.funcs.len(), None, &described);
        report.failed += usize::from(!described.is_empty());
        return;
    }
    if described.is_empty() {
        println!("{name}: ok — {} functions", prog.funcs.len());
    } else {
        report.failed += 1;
        eprintln!("{name}: {} violation(s)", described.len());
        for v in &described {
            eprintln!("  {v}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut corpus: Option<String> = None;
    let mut json = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--corpus" => {
                i += 1;
                corpus = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--corpus needs a value")),
                );
            }
            "--json" => json = true,
            "--help" | "-h" => usage(""),
            flag if flag.starts_with("--") => usage(&format!("unknown flag `{flag}`")),
            p => paths.push(PathBuf::from(p)),
        }
        i += 1;
    }
    if corpus.is_none() && paths.is_empty() {
        usage("nothing to lint");
    }
    let mut files = Vec::new();
    for p in &paths {
        if !p.exists() {
            usage(&format!("no such path: {}", p.display()));
        }
        js_files(p, &mut files);
    }
    if !paths.is_empty() && files.is_empty() {
        usage("nothing to lint: no .js file under the given paths");
    }

    let mut report = Report {
        checked: 0,
        failed: 0,
        json,
    };
    match corpus.as_deref() {
        None => {}
        Some(which @ ("table1" | "all")) => {
            for v in mujs_corpus::jquery_like::all_versions() {
                lint(&format!("table1/{}", v.version), &v.src, &mut report);
            }
            if which == "all" {
                for b in mujs_corpus::evalbench::all() {
                    lint(&format!("evalbench/{}", b.name), &b.src, &mut report);
                }
            }
        }
        Some("evalbench") => {
            for b in mujs_corpus::evalbench::all() {
                lint(&format!("evalbench/{}", b.name), &b.src, &mut report);
            }
        }
        Some(other) => usage(&format!("unknown corpus `{other}`")),
    }
    for f in files {
        let src = std::fs::read_to_string(&f)
            .unwrap_or_else(|e| usage(&format!("cannot read {}: {e}", f.display())));
        lint(&f.display().to_string(), &src, &mut report);
    }

    eprintln!(
        "detlint: {} checked, {} failed",
        report.checked, report.failed
    );
    if report.failed > 0 {
        std::process::exit(1);
    }
}
