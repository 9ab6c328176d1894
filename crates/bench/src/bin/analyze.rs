//! Command-line front door: run the dynamic determinacy analysis on a
//! JavaScript file and print its facts (human-readable or JSON).
//!
//! ```console
//! $ cargo run -p mujs-bench --bin analyze -- path/to/file.js
//! $ cargo run -p mujs-bench --bin analyze -- file.js --json
//! $ cargo run -p mujs-bench --bin analyze -- file.js --det-dom --seeds 1,2,3
//! $ cargo run -p mujs-bench --bin analyze -- file.js --spec   # + specializer report
//! $ cargo run -p mujs-bench --bin analyze -- file.js --deadline-ms 5000 --mem-cells 2000000
//! ```
//!
//! The file runs through the shared [`Pipeline`] on its own page, a
//! document titled "analyze-cli" with no events after `load`, so its
//! seeds run through the same fan-out as every other front end. Unknown
//! flags are rejected with a usage error rather than silently ignored.

#![forbid(unsafe_code)]

use determinacy::multirun::export_json;
use determinacy::{AnalysisConfig, CancelToken};
use mujs_dom::document::DocumentBuilder;
use mujs_dom::events::EventPlan;
use mujs_jobs::pipeline::{Page, Pipeline, PipelineCounters, StageRequest};
use mujs_specialize::SpecConfig;

struct Options {
    path: String,
    json: bool,
    det_dom: bool,
    spec: bool,
    seeds: Vec<u64>,
    deadline_ms: Option<u64>,
    mem_cells: Option<u64>,
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: analyze <file.js> [--json] [--det-dom] [--spec] [--seeds a,b,c]\n\
         \x20              [--deadline-ms N] [--mem-cells N]\n\
         \n\
         \x20 --json           print the sorted JSON fact export instead of the summary\n\
         \x20 --det-dom        enable the deterministic-DOM analysis mode\n\
         \x20 --spec           also run the specializer and print its report\n\
         \x20 --seeds a,b,c    comma-separated seed list for the multi-run analysis\n\
         \x20 --deadline-ms N  per-run wall-clock budget (AnalysisStatus::Deadline on expiry)\n\
         \x20 --mem-cells N    per-run heap-cell budget (AnalysisStatus::MemLimit on expiry)"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Options {
        path: String::new(),
        json: false,
        det_dom: false,
        spec: false,
        seeds: vec![AnalysisConfig::default().seed],
        deadline_ms: None,
        mem_cells: None,
    };
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        match args.get(*i) {
            Some(v) => v.clone(),
            None => usage(&format!("{flag} needs a value")),
        }
    };
    let number = |args: &[String], i: &mut usize, flag: &str| -> u64 {
        let v = value(args, i, flag);
        match v.parse() {
            Ok(n) => n,
            Err(_) => usage(&format!("{flag} wants an integer, got `{v}`")),
        }
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => o.json = true,
            "--det-dom" => o.det_dom = true,
            "--spec" => o.spec = true,
            "--seeds" => {
                let v = value(&args, &mut i, "--seeds");
                o.seeds = v
                    .split(',')
                    .map(|x| match x.trim().parse() {
                        Ok(n) => n,
                        Err(_) => usage(&format!("--seeds has a non-integer entry `{x}`")),
                    })
                    .collect();
                if o.seeds.is_empty() {
                    usage("--seeds needs at least one seed");
                }
            }
            "--deadline-ms" => o.deadline_ms = Some(number(&args, &mut i, "--deadline-ms")),
            "--mem-cells" => o.mem_cells = Some(number(&args, &mut i, "--mem-cells")),
            "--help" | "-h" => usage(""),
            flag if flag.starts_with("--") => usage(&format!("unknown flag `{flag}`")),
            positional => {
                if !o.path.is_empty() {
                    usage(&format!("unexpected extra argument `{positional}`"));
                }
                o.path = positional.to_owned();
            }
        }
        i += 1;
    }
    if o.path.is_empty() {
        usage("a <file.js> argument is required");
    }
    o
}

fn main() {
    let o = parse_args();
    let src = match std::fs::read_to_string(&o.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", o.path);
            std::process::exit(1);
        }
    };
    let cfg = AnalysisConfig {
        det_dom: o.det_dom,
        deadline_ms: o.deadline_ms,
        mem_cell_budget: o.mem_cells,
        ..Default::default()
    };
    let req = StageRequest {
        src,
        cfg,
        seeds: o.seeds,
        page: Some(Page {
            doc: DocumentBuilder::new().title("analyze-cli").build(),
            plan: EventPlan::new(),
        }),
        pta: None,
    };
    let (cancel, counters) = (CancelToken::new(), PipelineCounters::default());
    let mut pipeline = Pipeline::new(&req, &cancel, &counters, &|_| {});
    let (h, combined) = match pipeline.live() {
        Ok(live) => live,
        Err(e) => {
            eprintln!("syntax error: {e}");
            std::process::exit(1);
        }
    };

    if o.json {
        println!(
            "{}",
            export_json(&combined.facts, &h.program, &h.source, &combined.ctxs)
        );
    } else {
        eprintln!(
            "runs: {} | facts: {} ({} determinate) | conflicts: {}",
            combined.runs.len(),
            combined.facts.len(),
            combined.facts.det_count(),
            combined.conflicts
        );
        for run in &combined.runs {
            eprintln!(
                "  run: status={:?} flushes={} counterfactuals={} steps={}",
                run.status, run.stats.heap_flushes, run.stats.counterfactuals, run.stats.steps
            );
        }
        for f in &combined.failures {
            eprintln!("  run failed: {f}");
        }
        let mut lines: Vec<String> = combined
            .facts
            .iter()
            .filter_map(|(k, p, c, _)| {
                combined
                    .facts
                    .describe(k, p, c, &h.program, &h.source, &combined.ctxs)
                    .map(|d| format!("{k:?}\t{d}"))
            })
            .collect();
        lines.sort();
        lines.dedup();
        for l in lines {
            println!("{l}");
        }
    }

    if o.spec {
        let s = mujs_jobs::pipeline::specialize(
            &h.program,
            combined,
            SpecConfig::default().max_context_depth,
        );
        eprintln!(
            "specializer: clones={} branchesPruned={} keysStatic={} loopsUnrolled={} evalsEliminated={} evalsRemaining={} redirects={}",
            s.report.clones,
            s.report.branches_pruned,
            s.report.keys_staticized,
            s.report.loops_unrolled,
            s.report.evals_eliminated,
            s.report.evals_remaining,
            s.report.calls_redirected
        );
    }
}
