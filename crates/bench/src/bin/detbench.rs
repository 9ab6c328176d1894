//! `detbench` — writes `BENCH_pta.json`, the pointer-analysis mode
//! comparison over the Table 1 corpus:
//!
//! * `after` — baseline vs fact-injected vs specialized solves at
//!   `PTA_COMPARE_BUDGET`, where the uninjected baseline reaches a real
//!   fixpoint, with the baseline's ranked imprecision root causes;
//! * `shortcuts` — injection-only vs injection+shortcut solves at the
//!   tight Table 1 budget.
//!
//! Every field is a deterministic work, precision or provenance count,
//! so a fresh run must equal the checked-in file byte for byte:
//!
//! ```console
//! $ cargo run --release -p mujs-bench --bin detbench -- --out bench-pta.json
//! $ diff BENCH_pta.json bench-pta.json
//! ```
//!
//! The claims those counts support are asserted by
//! `crates/bench/tests/pta_compare.rs` and `shortcut_pipeline.rs`;
//! wall-clock timing belongs to the `detperf` benchmark.

#![forbid(unsafe_code)]

use mujs_bench::pipeline::{
    run_pta_rows, PtaCompareRow, ShortcutCompareRow, PTA_COMPARE_BUDGET, TABLE1_PTA_BUDGET,
};
use mujs_jobs::pipeline::PipelineCounters;
use serde::Serialize;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--out needs a value")),
                );
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    let json = serde_json::to_string_pretty(&measure()).expect("pta measurement serializes");
    match out_path {
        Some(p) => {
            std::fs::write(&p, format!("{json}\n")).expect("write pta bench output");
            eprintln!("wrote {p}");
        }
        None => println!("{json}"),
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!("usage: detbench [--out FILE]");
    std::process::exit(2);
}

#[derive(Debug, Serialize)]
struct PtaCompareRows {
    rows: Vec<PtaCompareRow>,
}

#[derive(Debug, Serialize)]
struct ShortcutSection {
    /// The tight Table 1 budget the comparison runs at — the point of
    /// shortcuts is completing where injection-only starves.
    budget: u64,
    rows: Vec<ShortcutCompareRow>,
}

#[derive(Debug, Serialize)]
struct PtaMeasurement {
    budget: u64,
    /// Baseline vs injected vs specialized at `budget`.
    after: PtaCompareRows,
    /// Shortcut comparison: injection-only vs injection+summaries at the
    /// Table 1 budget.
    shortcuts: ShortcutSection,
}

fn measure() -> PtaMeasurement {
    let counters = PipelineCounters::default();
    let (after, shortcuts) = mujs_corpus::jquery_like::all_versions()
        .iter()
        .map(|v| run_pta_rows(v, &counters).expect("pta comparison runs"))
        .unzip();
    PtaMeasurement {
        budget: PTA_COMPARE_BUDGET,
        after: PtaCompareRows { rows: after },
        shortcuts: ShortcutSection {
            budget: TABLE1_PTA_BUDGET,
            rows: shortcuts,
        },
    }
}
