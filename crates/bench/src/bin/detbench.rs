//! `detbench` — the repo's interpreter-performance harness.
//!
//! Measures two layers and emits one JSON document (`BENCH_interp.json`
//! feedstock):
//!
//! * **micro** — the concrete interpreter (S1) over the synthetic
//!   `mujs_corpus::workload` programs, reported as steps/sec;
//! * **corpus** — the instrumented analysis (S2) over the Table 1
//!   jQuery-like corpus and the §5.2 eval suite, reported as wall time
//!   and corpus-level steps/sec.
//!
//! ```console
//! $ cargo run --release -p mujs-bench --bin detbench -- --out bench.json
//! $ cargo run --release -p mujs-bench --bin detbench -- --check BENCH_interp.json
//! ```
//!
//! `--check` reruns the corpus measurements and fails (exit 1) if the
//! Table 1 analysis wall time regresses more than `--max-regress`
//! (default 0.25 = 25%) against the baseline file's `after` section —
//! the CI smoke gate.
//!
//! With `--pta` the harness instead runs the pointer-analysis precision
//! workload (`BENCH_pta.json` feedstock): baseline vs fact-injected vs
//! specialized solves over the Table 1 corpus (`after`) at a budget
//! (`PTA_COMPARE_BUDGET`) where the uninjected baseline reaches a real
//! fixpoint, plus injection-only vs injection+shortcut solves at the
//! tight Table 1 budget (`shortcuts`). The precision metrics it gates are
//! deterministic (propagation work, call-graph shape), so `--pta --check`
//! gates exactly — injected must complete wherever specialized does, the
//! baseline must keep reaching its fixpoint, its precision must stay
//! within `--max-regress` of specialized, and its work must not regress
//! against the checked-in baseline. Wall time is reported per row
//! (`wall_ms`, `work_per_sec`) but not gated:
//!
//! ```console
//! $ cargo run --release -p mujs-bench --bin detbench -- --pta --out BENCH_pta.json
//! $ cargo run --release -p mujs-bench --bin detbench -- --pta --check BENCH_pta.json --max-regress 0.1
//! ```

use determinacy::{AnalysisConfig, DetHarness, RunHooks};
use mujs_corpus::{evalbench, jquery_like, workload};
use mujs_interp::driver::Harness;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct MicroResult {
    name: String,
    wall_ms: f64,
    steps: u64,
    steps_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct CorpusResult {
    wall_ms: f64,
    steps: u64,
    steps_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct Measurement {
    label: String,
    mode: &'static str,
    micro: Vec<MicroResult>,
    table1_analysis: CorpusResult,
    eval_elim_analysis: CorpusResult,
    table1_full_wall_ms: f64,
}

const MODE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut label = String::from("current");
    let mut max_regress = 0.25f64;
    let mut iters = 3usize;
    let mut pta = false;
    let mut spec_depth: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        let need = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .cloned()
                .unwrap_or_else(|| usage("flag needs a value"))
        };
        match args[i].as_str() {
            "--out" => out_path = Some(need(&mut i)),
            "--check" => check_path = Some(need(&mut i)),
            "--label" => label = need(&mut i),
            "--iters" => {
                iters = need(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--iters wants an integer"))
            }
            "--max-regress" => {
                max_regress = need(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--max-regress wants a float"))
            }
            "--pta" => pta = true,
            "--spec-depth" => {
                spec_depth = Some(
                    need(&mut i)
                        .parse()
                        .unwrap_or_else(|_| usage("--spec-depth wants an integer")),
                )
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    if pta {
        run_pta(
            &label,
            out_path.as_deref(),
            check_path.as_deref(),
            max_regress,
            spec_depth,
        );
        return;
    }

    let m = measure(&label, iters, spec_depth);
    let json = serde_json::to_string_pretty(&m).expect("measurement serializes");
    match &out_path {
        Some(p) => {
            std::fs::write(p, format!("{json}\n")).expect("write bench output");
            eprintln!("wrote {p}");
        }
        None => println!("{json}"),
    }
    report(&m);

    if let Some(p) = check_path {
        let base = std::fs::read_to_string(&p).expect("read baseline");
        let base: serde_json::Value = serde_json::from_str(&base).expect("baseline parses");
        // Accept either a bare measurement or the checked-in
        // {before, after} document; gate against `after`.
        let after = if base.get("after").is_some() {
            &base["after"]
        } else {
            &base
        };
        let base_wall = after["table1_analysis"]["wall_ms"]
            .as_f64()
            .expect("baseline table1_analysis.wall_ms");
        let cur = m.table1_analysis.wall_ms;
        let limit = base_wall * (1.0 + max_regress);
        eprintln!(
            "check: table1 analysis wall {cur:.1}ms vs baseline {base_wall:.1}ms \
             (limit {limit:.1}ms)"
        );
        if MODE == "debug" {
            eprintln!("check: debug build — wall-time gate is advisory only");
        } else if cur > limit {
            eprintln!(
                "FAIL: corpus wall time regressed more than {:.0}%",
                max_regress * 100.0
            );
            std::process::exit(1);
        }
        eprintln!("check: ok");
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: detbench [--pta] [--spec-depth N] [--out FILE]\n\
         \x20               [--label L] [--iters N] [--check BASELINE.json]\n\
         \x20               [--max-regress F]\n\
         \n\
         \x20 --spec-depth N  specializer context-depth bound (default 4). This\n\
         \x20                 changes results, so baselines produced at\n\
         \x20                 different depths are not comparable"
    );
    std::process::exit(2);
}

#[derive(Debug, Serialize)]
struct PtaCompareRows {
    rows: Vec<mujs_bench::pipeline::PtaCompareRow>,
}

#[derive(Debug, Serialize)]
struct ShortcutSection {
    /// The tight Table 1 budget the comparison runs at — the point of
    /// shortcuts is completing where injection-only starves.
    budget: u64,
    rows: Vec<mujs_bench::pipeline::ShortcutCompareRow>,
}

#[derive(Debug, Serialize)]
struct PtaMeasurement {
    label: String,
    mode: &'static str,
    budget: u64,
    /// Baseline vs injected vs specialized at `budget`.
    after: PtaCompareRows,
    /// Shortcut comparison: injection-only vs injection+summaries at the
    /// Table 1 budget.
    shortcuts: ShortcutSection,
}

/// The `--pta` workload: three-way solver comparison over the Table 1
/// corpus plus the shortcut comparison, with a deterministic `--check`
/// gate.
fn run_pta(
    label: &str,
    out_path: Option<&str>,
    check_path: Option<&str>,
    max_regress: f64,
    spec_depth: Option<usize>,
) {
    let budget = mujs_bench::pipeline::PTA_COMPARE_BUDGET;
    let after = PtaCompareRows {
        rows: mujs_corpus::jquery_like::all_versions()
            .iter()
            .map(|v| {
                mujs_bench::pipeline::run_pta_compare_with(v, budget, spec_depth)
                    .expect("pta compare runs")
            })
            .collect(),
    };

    // Shortcut comparison at the tight Table 1 budget.
    let shortcut_budget = mujs_bench::pipeline::TABLE1_PTA_BUDGET;
    let shortcuts = ShortcutSection {
        budget: shortcut_budget,
        rows: mujs_corpus::jquery_like::all_versions()
            .iter()
            .map(|v| {
                mujs_bench::pipeline::run_shortcut_compare(v, shortcut_budget)
                    .expect("shortcut compare runs")
            })
            .collect(),
    };

    let m = PtaMeasurement {
        label: label.to_owned(),
        mode: MODE,
        budget,
        after,
        shortcuts,
    };
    let json = serde_json::to_string_pretty(&m).expect("pta measurement serializes");
    match out_path {
        Some(p) => {
            std::fs::write(p, format!("{json}\n")).expect("write pta bench output");
            eprintln!("wrote {p}");
        }
        None => println!("{json}"),
    }
    let mut failed = false;
    for r in &m.after.rows {
        eprintln!(
            "  pta {:<6} sites={:<4} base: ok={} work={} poly={} {:>6.1}ms {:>5.1}M/s \
             inj: ok={} work={}  spec: ok={} work={}",
            r.version,
            r.injected_sites,
            r.baseline.ok,
            r.baseline.work,
            r.baseline.poly_sites,
            r.baseline.wall_ms,
            r.baseline.work_per_sec / 1e6,
            r.injected.ok,
            r.injected.work,
            r.specialized.ok,
            r.specialized.work,
        );
        for (rank, c) in r.root_causes.iter().enumerate() {
            eprintln!(
                "        cause #{:<2} {:<14} {:>8} tuples  {} suggestion(s)  {}",
                rank + 1,
                c.kind,
                c.tuples,
                c.suggestions,
                c.label,
            );
        }
        // Hard invariant, baseline file or not: injection must reach a
        // fixpoint wherever source rewriting does.
        if r.specialized.ok && !r.injected.ok {
            eprintln!(
                "FAIL: {} — specialized completes but injected does not",
                r.version
            );
            failed = true;
        }
        // The raised comparison budget exists so the baseline measures a
        // real fixpoint on jQuery 1.0–1.2 (1.3 is allowed to starve).
        if r.version != "1.3" && !r.baseline.ok {
            eprintln!(
                "FAIL: {} — uninjected baseline no longer reaches fixpoint at budget {budget}",
                r.version
            );
            failed = true;
        }
    }
    for r in &m.shortcuts.rows {
        eprintln!(
            "  pta-shortcut {:<6} regions={:<3} tuples={:<5} inj: ok={} work={} poly={} avg={:.3}  \
             sc: ok={} work={} poly={} avg={:.3}",
            r.version,
            r.regions,
            r.tuples,
            r.injected.ok,
            r.injected.work,
            r.injected.poly_sites,
            r.injected.avg_points_to,
            r.shortcut.ok,
            r.shortcut.work,
            r.shortcut.poly_sites,
            r.shortcut.avg_points_to,
        );
        // The headline claim, gated baseline file or not: shortcut mode
        // completes every version at the tight budget and dominates the
        // injection-only rows on both precision axes.
        if !r.shortcut.ok {
            eprintln!(
                "FAIL: {} — shortcut mode does not complete at budget {}",
                r.version, m.shortcuts.budget
            );
            failed = true;
        }
        if r.shortcut.poly_sites > r.injected.poly_sites {
            eprintln!(
                "FAIL: {} — shortcut poly sites {} worse than injected {}",
                r.version, r.shortcut.poly_sites, r.injected.poly_sites
            );
            failed = true;
        }
        if r.shortcut.avg_points_to > r.injected.avg_points_to + f64::EPSILON {
            eprintln!(
                "FAIL: {} — shortcut avg points-to {:.3} worse than injected {:.3}",
                r.version, r.shortcut.avg_points_to, r.injected.avg_points_to
            );
            failed = true;
        }
    }
    if let Some(p) = check_path {
        let base = std::fs::read_to_string(p).expect("read pta baseline");
        let base: serde_json::Value = serde_json::from_str(&base).expect("pta baseline parses");
        let slack = 1.0 + max_regress;
        // Accept both the {before, after} document (gate against `after`)
        // and the flat legacy {rows} layout.
        let base_rows = if base.get("after").is_some() {
            &base["after"]["rows"]
        } else {
            &base["rows"]
        };
        for r in &m.after.rows {
            let Some(b) = base_rows
                .as_array()
                .and_then(|rs| rs.iter().find(|b| b["version"] == r.version.as_str()))
            else {
                eprintln!("FAIL: baseline has no row for version {}", r.version);
                failed = true;
                continue;
            };
            // Work and precision are deterministic: gate them directly.
            let base_work = b["injected"]["work"].as_f64().unwrap_or(0.0);
            if (r.injected.work as f64) > base_work * slack {
                eprintln!(
                    "FAIL: {} injected work {} regressed past baseline {} (slack {:.0}%)",
                    r.version,
                    r.injected.work,
                    base_work,
                    max_regress * 100.0
                );
                failed = true;
            }
            // Injection must stay within `max_regress` of the specialized
            // run's call-graph precision on the current measurement.
            // (`avg_points_to` is NOT comparable across the two programs —
            // specialization multiplies variable nodes via clone temps,
            // diluting the average — so it is gated same-mode against the
            // baseline file instead.)
            let spec_poly = r.specialized.poly_sites as f64;
            if r.injected.poly_sites as f64 > spec_poly * slack + 1.0 {
                eprintln!(
                    "FAIL: {} injected poly sites {} vs specialized {}",
                    r.version, r.injected.poly_sites, r.specialized.poly_sites
                );
                failed = true;
            }
            let spec_reach = r.specialized.reachable_funcs as f64;
            if r.injected.reachable_funcs as f64 > spec_reach * slack + 1.0 {
                eprintln!(
                    "FAIL: {} injected reachable funcs {} vs specialized {}",
                    r.version, r.injected.reachable_funcs, r.specialized.reachable_funcs
                );
                failed = true;
            }
            let base_avg = b["injected"]["avg_points_to"].as_f64().unwrap_or(0.0);
            if r.injected.avg_points_to > base_avg * slack + f64::EPSILON {
                eprintln!(
                    "FAIL: {} injected avg points-to {:.3} regressed past baseline {:.3}",
                    r.version, r.injected.avg_points_to, base_avg
                );
                failed = true;
            }
        }
        if !failed {
            eprintln!("check: ok");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn measure(label: &str, iters: usize, spec_depth: Option<usize>) -> Measurement {
    let micro_cases: Vec<(&str, String)> = vec![
        ("arith_chain_4k", workload::arithmetic_chain(4000)),
        ("object_graph_1500", workload::object_graph(1500)),
        ("call_tree_fib18", workload::call_tree(18)),
        ("string_workload_800", workload::string_workload(800)),
    ];
    let micro = micro_cases
        .into_iter()
        .map(|(name, src)| {
            let mut h = Harness::from_src(&src).expect("workload parses");
            // Warm-up run (also populates eval-lowered functions, if any).
            h.run(Default::default()).expect_ok();
            let mut best = f64::INFINITY;
            let mut steps = 0;
            for _ in 0..iters.max(1) {
                let t0 = Instant::now();
                let out = h.run(Default::default());
                let dt = t0.elapsed().as_secs_f64() * 1e3;
                out.expect_ok();
                steps = out.steps;
                if dt < best {
                    best = dt;
                }
            }
            MicroResult {
                name: name.to_owned(),
                wall_ms: best,
                steps,
                steps_per_sec: steps as f64 / (best / 1e3),
            }
        })
        .collect();

    // Corpus-level: instrumented analysis over the Table 1 corpus (the
    // headline number) and the eval suite, best-of-iters.
    let table1_analysis = best_of(iters, || {
        let mut steps = 0u64;
        let t0 = Instant::now();
        for v in jquery_like::all_versions() {
            let (_, out) = mujs_bench::pipeline::analyze_page(
                &v.src,
                &v.doc,
                &v.plan,
                AnalysisConfig::default(),
            )
            .expect("table1 version analyzes");
            steps += out.stats.steps;
        }
        (t0.elapsed().as_secs_f64() * 1e3, steps)
    });

    let eval_elim_analysis = best_of(iters, || {
        let mut steps = 0u64;
        let t0 = Instant::now();
        for b in evalbench::all().iter().filter(|b| b.runnable) {
            let mut h = match DetHarness::from_src(&b.src) {
                Ok(h) => h,
                Err(_) => continue,
            };
            let out = determinacy::supervised_analyze_dom(
                &mut h,
                AnalysisConfig::default(),
                b.doc(),
                &b.plan(),
                &RunHooks::supervised(),
            );
            if let Ok(out) = out {
                steps += out.stats.steps;
            }
        }
        (t0.elapsed().as_secs_f64() * 1e3, steps)
    });

    // Full Table 1 (analysis + specializer + PTA), single shot: tracked
    // for context, not gated.
    let t0 = Instant::now();
    for v in jquery_like::all_versions() {
        let _ = mujs_bench::pipeline::run_table1_at_depth(
            &v,
            mujs_bench::pipeline::TABLE1_PTA_BUDGET,
            spec_depth,
        );
    }
    let table1_full_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    Measurement {
        label: label.to_owned(),
        mode: MODE,
        micro,
        table1_analysis,
        eval_elim_analysis,
        table1_full_wall_ms,
    }
}

fn best_of(iters: usize, mut f: impl FnMut() -> (f64, u64)) -> CorpusResult {
    let mut best = f64::INFINITY;
    let mut steps = 0;
    for _ in 0..iters.max(1) {
        let (wall, s) = f();
        steps = s;
        if wall < best {
            best = wall;
        }
    }
    CorpusResult {
        wall_ms: best,
        steps,
        steps_per_sec: steps as f64 / (best / 1e3),
    }
}

fn report(m: &Measurement) {
    eprintln!("detbench [{}] mode={}", m.label, m.mode);
    for r in &m.micro {
        eprintln!(
            "  micro {:<22} {:>9.2} ms  {:>12.0} steps/s",
            r.name, r.wall_ms, r.steps_per_sec
        );
    }
    eprintln!(
        "  table1 analysis        {:>9.2} ms  {:>12.0} steps/s",
        m.table1_analysis.wall_ms, m.table1_analysis.steps_per_sec
    );
    eprintln!(
        "  eval-elim analysis     {:>9.2} ms  {:>12.0} steps/s",
        m.eval_elim_analysis.wall_ms, m.eval_elim_analysis.steps_per_sec
    );
    eprintln!("  table1 full pipeline   {:>9.2} ms", m.table1_full_wall_ms);
}
