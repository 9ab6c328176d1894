//! `detblame` — imprecision root-cause triage over the Table 1 corpus.
//!
//! For each jQuery-like corpus version, runs the DetDOM dynamic analysis,
//! solves the uninjected baseline pointer analysis with provenance
//! tracking, and prints the ranked root-cause report distilled by
//! `mujs_analysis::blame_report`: which ⋆-smears, eval chunks, unmodeled
//! natives, and havoc edges the surviving points-to tuples are blamed on,
//! with the concrete fact-injection sites that would remove them. Each
//! suggestion is cross-referenced against the pipeline's injectable facts
//! — the facts the dynamic run can already prove — so the report
//! separates *actionable today* (`injectable`) from *needs more
//! determinacy* (`unproven`).
//!
//! ```console
//! $ cargo run --release -p mujs-bench --bin detblame
//! $ cargo run --release -p mujs-bench --bin detblame -- --version 1.0 --json
//! $ cargo run --release -p mujs-bench --bin detblame -- --budget 150000 --top 5 --out blame.json
//! ```
//!
//! Exit status: `0` on success, `1` when any version that misses its
//! budgeted fixpoint yields an *empty* ranked cause list (the provenance
//! layer failed to explain the starvation — a bug, not a corpus
//! property), `2` for usage errors.

#![forbid(unsafe_code)]

use mujs_analysis::blame::func_name;
use mujs_analysis::{BlameReport, FixKind};
use mujs_bench::pipeline::{
    blame, fan_out, page_request, with_pipeline, PipelineError, TABLE1_PTA_BUDGET,
};
use mujs_ir::Program;
use mujs_jobs::pipeline::PipelineCounters;
use mujs_pta::{InjectedFacts, PtaStatus};
use serde_json::Value;

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: detblame [--version V[,V...]] [--budget N] [--top K] [--json] [--out FILE]\n\
         \n\
         \x20 --version V   corpus versions to triage (default: all Table 1 versions)\n\
         \x20 --budget N    PTA propagation budget (default {TABLE1_PTA_BUDGET}, Table 1's)\n\
         \x20 --top K       ranked causes per version (default 10)\n\
         \x20 --json        machine-readable output (one JSON document)\n\
         \x20 --out FILE    write the report there instead of stdout\n\
         \n\
         exit status: 0 ok; 1 a budget-starved version has no ranked causes;\n\
         \x20             2 usage errors"
    );
    std::process::exit(2);
}

struct Options {
    versions: Vec<String>,
    budget: u64,
    top: usize,
    json: bool,
    out: Option<String>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Options {
        versions: Vec::new(),
        budget: TABLE1_PTA_BUDGET,
        top: 10,
        json: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let need = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            args.get(*i)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match args[i].as_str() {
            "--version" => o
                .versions
                .extend(need(&mut i, "--version").split(',').map(str::to_owned)),
            "--budget" => {
                o.budget = need(&mut i, "--budget")
                    .parse()
                    .unwrap_or_else(|_| usage("--budget wants an integer"));
            }
            "--top" => {
                o.top = need(&mut i, "--top")
                    .parse()
                    .unwrap_or_else(|_| usage("--top wants an integer"));
            }
            "--json" => o.json = true,
            "--out" => o.out = Some(need(&mut i, "--out")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    o
}

/// Whether the dynamic run already proves the fact a suggestion asks for.
fn injectable(facts: &InjectedFacts, fix: FixKind, site: mujs_ir::StmtId) -> bool {
    match fix {
        FixKind::PropKey => facts.prop_keys.contains_key(&site),
        FixKind::Callee => facts.callees.contains_key(&site),
    }
}

/// One triaged version, everything the two renderers need.
struct Triage {
    version: String,
    status: PtaStatus,
    propagations: u64,
    injectable_sites: usize,
    report: BlameReport,
    prog: Program,
    facts: InjectedFacts,
}

fn render_text(t: &Triage, budget: u64) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let status = match t.status {
        PtaStatus::Completed => "fixpoint",
        PtaStatus::BudgetExceeded => "budget exceeded",
    };
    let _ = writeln!(
        s,
        "{}: {status} at budget {budget} ({} propagations, {} injectable sites)",
        t.version, t.propagations, t.injectable_sites
    );
    let r = &t.report;
    let _ = writeln!(
        s,
        "  {} tuples: {} precise, {} injected, {} from {} imprecision cause(s)",
        r.total_tuples,
        r.precise_tuples,
        r.injected_tuples,
        r.total_tuples - r.precise_tuples - r.injected_tuples,
        r.distinct_causes
    );
    for (i, c) in r.causes.iter().enumerate() {
        let anchor = match (c.site, c.func) {
            (Some(site), Some(f)) => format!(" at {site} in {}", func_name(&t.prog, f)),
            (None, Some(f)) => format!(" in {}", func_name(&t.prog, f)),
            _ => String::new(),
        };
        let _ = writeln!(
            s,
            "  {:>3}. {:>8} tuples  {}{}",
            i + 1,
            c.tuples,
            c.cause.label(),
            anchor
        );
        for sg in &c.suggestions {
            let mark = if injectable(&t.facts, sg.fix, sg.site) {
                "injectable"
            } else {
                "unproven"
            };
            let _ = writeln!(
                s,
                "         fix: inject {} fact at {} in {} [{mark}]",
                sg.fix.as_str(),
                sg.site,
                func_name(&t.prog, sg.func)
            );
        }
    }
    s
}

fn render_json(t: &Triage, budget: u64) -> Value {
    let num = |n: u64| Value::Num(n as f64);
    let r = &t.report;
    let causes: Vec<Value> = r
        .causes
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("label".to_owned(), Value::Str(c.cause.label())),
                ("kind".to_owned(), Value::Str(c.cause.kind().to_owned())),
                ("tuples".to_owned(), num(c.tuples)),
            ];
            if let Some(site) = c.site {
                fields.push(("site".to_owned(), num(u64::from(site.0))));
            }
            if let Some(f) = c.func {
                fields.push(("func".to_owned(), Value::Str(func_name(&t.prog, f))));
            }
            let suggest: Vec<Value> = c
                .suggestions
                .iter()
                .map(|sg| {
                    Value::Object(vec![
                        ("fix".to_owned(), Value::Str(sg.fix.as_str().to_owned())),
                        ("site".to_owned(), num(u64::from(sg.site.0))),
                        ("func".to_owned(), Value::Str(func_name(&t.prog, sg.func))),
                        (
                            "injectable".to_owned(),
                            Value::Bool(injectable(&t.facts, sg.fix, sg.site)),
                        ),
                    ])
                })
                .collect();
            fields.push(("suggest".to_owned(), Value::Array(suggest)));
            Value::Object(fields)
        })
        .collect();
    Value::Object(vec![
        ("version".to_owned(), Value::Str(t.version.clone())),
        ("budget".to_owned(), num(budget)),
        (
            "status".to_owned(),
            Value::Str(
                match t.status {
                    PtaStatus::Completed => "completed",
                    PtaStatus::BudgetExceeded => "budget exceeded",
                }
                .to_owned(),
            ),
        ),
        ("propagations".to_owned(), num(t.propagations)),
        (
            "injectable_sites".to_owned(),
            num(t.injectable_sites as u64),
        ),
        ("total_tuples".to_owned(), num(r.total_tuples)),
        ("precise_tuples".to_owned(), num(r.precise_tuples)),
        ("injected_tuples".to_owned(), num(r.injected_tuples)),
        ("distinct_causes".to_owned(), num(r.distinct_causes as u64)),
        ("causes".to_owned(), Value::Array(causes)),
    ])
}

fn main() {
    let o = parse_args();
    let all = mujs_corpus::jquery_like::all_versions();
    let versions: Vec<_> = if o.versions.is_empty() {
        all
    } else {
        for want in &o.versions {
            if !all.iter().any(|v| v.version == want.as_str()) {
                usage(&format!("unknown corpus version `{want}`"));
            }
        }
        all.into_iter()
            .filter(|v| o.versions.iter().any(|w| w.as_str() == v.version))
            .collect()
    };

    let mut failed = false;
    let mut text = String::new();
    let mut rows = Vec::new();
    let counters = PipelineCounters::default();
    for v in &versions {
        let req = page_request(&v.src, &v.doc, &v.plan, true);
        let triaged = with_pipeline(&req, &counters, |p| {
            fan_out(p)?;
            let facts = p.facts()?;
            let facts = p.injected(Some(&facts))?;
            let prog = &p.live()?.0.program;
            let (r, report) = blame(prog, o.budget, o.top);
            Ok::<_, PipelineError>(Triage {
                version: v.version.to_owned(),
                status: r.status,
                propagations: r.stats.propagations,
                injectable_sites: facts.len(),
                report,
                prog: prog.clone(),
                facts,
            })
        });
        let t = match triaged {
            Ok(t) => t,
            Err(e) => {
                eprintln!("detblame {}: {e}", v.version);
                std::process::exit(1);
            }
        };
        if t.status == PtaStatus::BudgetExceeded && t.report.causes.is_empty() {
            eprintln!(
                "detblame {}: budget-starved solve has NO ranked root causes — \
                 the provenance layer failed to explain the starvation",
                v.version
            );
            failed = true;
        }
        if o.json {
            rows.push(render_json(&t, o.budget));
        } else {
            text.push_str(&render_text(&t, o.budget));
        }
    }

    let rendered = if o.json {
        let doc = Value::Object(vec![
            ("budget".to_owned(), Value::Num(o.budget as f64)),
            ("rows".to_owned(), Value::Array(rows)),
        ]);
        format!(
            "{}\n",
            serde_json::to_string_pretty(&doc).expect("report serializes")
        )
    } else {
        text
    };
    match &o.out {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &rendered) {
                eprintln!("detblame: cannot write {p}: {e}");
                std::process::exit(1);
            }
            eprintln!("detblame: report written to {p}");
        }
        None => print!("{rendered}"),
    }
    if failed {
        std::process::exit(1);
    }
}
