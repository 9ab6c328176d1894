//! Regenerates Table 1: pointer-analysis scalability on the jQuery-like
//! corpus under Baseline / Spec / Spec+DetDOM, with heap-flush counts.
//!
//! Run with `cargo run -p mujs-bench --bin table1 --release`. Pass
//! `--workers N` to run the corpus versions as parallel jobs; the table
//! is printed in version order either way and contains no timing data,
//! so the output is identical for any worker count. A positional integer
//! overrides the PTA propagation budget.

#![forbid(unsafe_code)]

use mujs_bench::pipeline::{run_pooled, run_table1, Table1Row, TABLE1_PTA_BUDGET};
use mujs_jobs::pipeline::PipelineCounters;
use mujs_jobs::JobVerdict;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut budget = TABLE1_PTA_BUDGET;
    let mut workers = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                i += 1;
                workers = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("usage: table1 [PTA_BUDGET] [--workers N]");
                        std::process::exit(2);
                    }
                };
            }
            other => match other.parse() {
                Ok(b) => budget = b,
                Err(_) => {
                    eprintln!("usage: table1 [PTA_BUDGET] [--workers N]");
                    std::process::exit(2);
                }
            },
        }
        i += 1;
    }

    println!("Table 1 reproduction — PTA budget {budget} propagations");
    println!("(✓ = completes within budget, ✗ = budget exceeded; parentheses: heap flushes of the dynamic analysis)");
    println!();
    println!(
        "{:<16} {:<12} {:<16} {:<16}   [PTA work: baseline / spec / detdom]",
        "jQuery-like", "Baseline", "Spec", "Spec+DetDOM"
    );
    let versions = mujs_corpus::jquery_like::all_versions();
    let labels: Vec<&'static str> = versions.iter().map(|v| v.version).collect();
    // A failing version (engine panic, parse error) degrades to one
    // reported row instead of aborting the whole table.
    let counters = PipelineCounters::default();
    let rows = run_pooled(versions, workers, |v| run_table1(v, budget, &counters));
    let mut failed = false;
    for (label, row) in labels.iter().zip(rows) {
        let row = match row {
            JobVerdict::Done(Ok(row)) => row,
            JobVerdict::Done(Err(e)) => {
                println!("{label:<16} {e}");
                failed = true;
                continue;
            }
            JobVerdict::Panicked(p) => {
                println!("{label:<16} panicked: {p}");
                failed = true;
                continue;
            }
            JobVerdict::Cancelled => unreachable!("nothing cancels the table's pool"),
        };
        println!(
            "{:<16} {:<12} {:<16} {:<16}   [{} / {} / {}]",
            row.version,
            Table1Row::cell(row.baseline.ok, None),
            Table1Row::cell(row.spec.ok, Some(row.spec_flushes)),
            Table1Row::cell(row.detdom.ok, Some(row.detdom_flushes)),
            row.baseline.work,
            row.spec.work,
            row.detdom.work,
        );
    }
    println!();
    println!("Paper's Table 1 for reference:");
    println!("  1.0   ✗   ✓ (82)      ✓ (2)");
    println!("  1.1   ✗   ✗ (107)     ✓ (4)");
    println!("  1.2   ✓   ✓ (>1000)   ✓ (0)");
    println!("  1.3   ✗   ✗ (>1000)   ✗ (>1000)");
    if failed {
        std::process::exit(1);
    }
}
