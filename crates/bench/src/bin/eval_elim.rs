//! Regenerates the §5.2 eval-elimination study over the 24 runnable
//! benchmarks: how many programs have *all* their `eval` uses specialized
//! away, under the plain analysis and under DetDOM, with the failure
//! breakdown.
//!
//! Run with `cargo run -p mujs-bench --bin eval_elim --release`. Pass
//! `--workers N` to run the benchmarks as parallel jobs; rows print in
//! benchmark order either way.

#![forbid(unsafe_code)]

use mujs_bench::pipeline::{run_eval_elim, run_pooled, EvalElimRow};
use mujs_corpus::evalbench::{all, Expected};
use mujs_jobs::pipeline::PipelineCounters;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers = match args.as_slice() {
        [] => 1usize,
        [flag, n] if flag == "--workers" => match n.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("usage: eval_elim [--workers N]");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: eval_elim [--workers N]");
            std::process::exit(2);
        }
    };

    let suite = all();
    let runnable: Vec<_> = suite.iter().filter(|b| b.runnable).collect();
    println!(
        "§5.2 eval elimination — {} benchmarks, {} runnable ({} excluded as in the paper)",
        suite.len(),
        runnable.len(),
        suite.len() - runnable.len()
    );
    println!();
    println!(
        "{:<24} {:<10} {:<10} {:<22} expected(DetDOM)",
        "benchmark", "plain", "DetDOM", "expected(plain)"
    );
    let counters = PipelineCounters::default();
    let owned: Vec<_> = runnable.iter().map(|b| (*b).clone()).collect();
    let rows: Vec<EvalElimRow> = run_pooled(owned, workers, |b| run_eval_elim(b, &counters))
        .into_iter()
        .map(|verdict| {
            verdict
                .into_done()
                .expect("an eval-study job does not panic")
        })
        .collect();
    let mut plain_ok = 0;
    let mut detdom_ok = 0;
    let mut mismatches = 0;
    for (b, row) in runnable.iter().zip(&rows) {
        if row.plain_ok {
            plain_ok += 1;
        }
        if row.detdom_ok {
            detdom_ok += 1;
        }
        let exp_p = b.expected == Expected::Eliminated;
        let exp_d = b.expected_detdom == Expected::Eliminated;
        let marker = if row.plain_ok == exp_p && row.detdom_ok == exp_d {
            ""
        } else {
            "  <-- MISMATCH"
        };
        if !marker.is_empty() {
            mismatches += 1;
        }
        println!(
            "{:<24} {:<10} {:<10} {:<22} {:?}{}",
            b.name,
            if row.plain_ok { "handled" } else { "fails" },
            if row.detdom_ok { "handled" } else { "fails" },
            format!("{:?}", b.expected),
            b.expected_detdom,
            marker
        );
    }
    println!();
    println!(
        "plain analysis handles {plain_ok}/{} (paper: 14/24)",
        runnable.len()
    );
    println!(
        "DetDOM handles        {detdom_ok}/{} (paper: 20/24)",
        runnable.len()
    );
    if mismatches > 0 {
        println!("WARNING: {mismatches} benchmarks deviate from their expected outcome");
        std::process::exit(1);
    }
}
