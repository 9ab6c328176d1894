//! Batch-analysis front door: run a manifest (or a directory of `.js`
//! files, or a built-in corpus suite) through the job pool, streaming
//! progress lines to stderr and writing a deterministic JSON report.
//!
//! ```console
//! $ detjobs --manifest batch.json --workers 8 --report out.json
//! $ detjobs --dir examples/js --workers 4
//! $ detjobs --suite all --workers 8 --no-facts --report corpus.json
//! $ detjobs --manifest batch.json --checkpoint ck.json --fail-fast
//! $ detjobs --manifest batch.json --resume ck.json --report out.json
//! ```
//!
//! The report bytes depend only on the manifest and the analysis
//! semantics — `--workers 1` and `--workers 8` produce identical output,
//! as do a degraded run and an interrupted run resumed with `--resume`.
//! Each job runs once: an analysis is a pure function of its inputs, so
//! a rerun would only reproduce a failure.
//!
//! Exit status: `0` when every job completed cleanly, `1` when any job
//! failed (or on I/O errors), `2` for usage errors.

#![forbid(unsafe_code)]

use mujs_jobs::{
    run_manifest_with, BatchOptions, Checkpoint, JobEvent, JobPool, Manifest, PtaMode, PtaStage,
};
use std::sync::mpsc::channel;

struct Options {
    manifest: Option<String>,
    dir: Option<String>,
    suite: Option<String>,
    workers: usize,
    report: Option<String>,
    no_facts: bool,
    quiet: bool,
    lint: bool,
    fail_fast: bool,
    checkpoint: Option<String>,
    checkpoint_every: u64,
    checkpoint_every_set: bool,
    resume: Option<String>,
    mem_budget: Option<u64>,
    stats: Option<String>,
    pta_budget: Option<u64>,
    spec_depth: Option<usize>,
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: detjobs (--manifest FILE | --dir DIR | --suite jquery|evalbench|all)\n\
         \x20              [--workers N] [--report FILE] [--no-facts] [--quiet]\n\
         \x20              [--fail-fast] [--mem-budget CELLS]\n\
         \x20              [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]\n\
         \x20              [--stats FILE] [--pta-budget N] [--spec-depth N]\n\
         \n\
         \x20 --manifest FILE    JSON job manifest (see DESIGN.md §5c for the format)\n\
         \x20 --dir DIR          one default job per *.js file, sorted by name\n\
         \x20 --suite NAME       built-in corpus suite manifest\n\
         \x20 --workers N        worker threads (default: available parallelism)\n\
         \x20 --report FILE      write the JSON report there (default: stdout)\n\
         \x20 --no-facts         omit per-job fact rows from the report\n\
         \x20 --quiet            suppress progress lines on stderr\n\
         \x20 --lint             validate each job's lowered IR before running\n\
         \x20 --fail-fast        cancel the batch on the first failed job\n\
         \x20 --mem-budget CELLS batch-wide declared-memory admission budget\n\
         \x20 --checkpoint FILE  stream settled rows to an atomic checkpoint\n\
         \x20 --checkpoint-every N  flush the checkpoint every N rows (default 1)\n\
         \x20 --resume FILE      splice completed rows from a checkpoint and\n\
         \x20                    run only the remainder (report stays byte-identical)\n\
         \x20 --stats FILE       write restored/degraded/failure counters as JSON\n\
         \x20 --pta-budget N     additionally run a budgeted pointer-analysis\n\
         \x20                    solve per job; each report row gains a `pta`\n\
         \x20                    object (off by default; report bytes are\n\
         \x20                    unchanged when off)\n\
         \x20 --spec-depth N     specialize each job's program (against its own\n\
         \x20                    dynamic facts, context depth bound N) before the\n\
         \x20                    PTA stage. This changes results, so it is\n\
         \x20                    folded into checkpoint keys;\n\
         \x20                    requires --pta-budget\n\
         \n\
         exit status:\n\
         \x20 0  every job completed cleanly\n\
         \x20 1  any job failed or panicked; lint violations; I/O errors\n\
         \x20 2  usage errors (bad flags or flag combinations)"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Options {
        manifest: None,
        dir: None,
        suite: None,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        report: None,
        no_facts: false,
        quiet: false,
        lint: false,
        fail_fast: false,
        checkpoint: None,
        checkpoint_every: 1,
        checkpoint_every_set: false,
        resume: None,
        mem_budget: None,
        stats: None,
        pta_budget: None,
        spec_depth: None,
    };
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        match args.get(*i) {
            Some(v) => v.clone(),
            None => usage(&format!("{flag} needs a value")),
        }
    };
    fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> T {
        match v.parse() {
            Ok(n) => n,
            Err(_) => usage(&format!("{flag} wants a non-negative integer, got `{v}`")),
        }
    }
    while i < args.len() {
        match args[i].as_str() {
            "--manifest" => o.manifest = Some(value(&args, &mut i, "--manifest")),
            "--dir" => o.dir = Some(value(&args, &mut i, "--dir")),
            "--suite" => o.suite = Some(value(&args, &mut i, "--suite")),
            "--workers" => {
                let v = value(&args, &mut i, "--workers");
                o.workers = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => usage(&format!("--workers wants a positive integer, got `{v}`")),
                };
            }
            "--report" => o.report = Some(value(&args, &mut i, "--report")),
            "--no-facts" => o.no_facts = true,
            "--quiet" => o.quiet = true,
            "--lint" => o.lint = true,
            "--fail-fast" => o.fail_fast = true,
            "--mem-budget" => {
                let v = value(&args, &mut i, "--mem-budget");
                o.mem_budget = Some(parse_num(&v, "--mem-budget"));
            }
            "--checkpoint" => o.checkpoint = Some(value(&args, &mut i, "--checkpoint")),
            "--checkpoint-every" => {
                let v = value(&args, &mut i, "--checkpoint-every");
                o.checkpoint_every = parse_num(&v, "--checkpoint-every");
                o.checkpoint_every_set = true;
            }
            "--resume" => o.resume = Some(value(&args, &mut i, "--resume")),
            "--stats" => o.stats = Some(value(&args, &mut i, "--stats")),
            "--pta-budget" => {
                let v = value(&args, &mut i, "--pta-budget");
                o.pta_budget = Some(parse_num(&v, "--pta-budget"));
            }
            "--spec-depth" => {
                let v = value(&args, &mut i, "--spec-depth");
                o.spec_depth = Some(parse_num(&v, "--spec-depth"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if [&o.manifest, &o.dir, &o.suite]
        .iter()
        .filter(|s| s.is_some())
        .count()
        != 1
    {
        usage("exactly one of --manifest, --dir, --suite is required");
    }
    if o.spec_depth.is_some() && o.pta_budget.is_none() {
        usage("--spec-depth only affects the PTA stage; it requires --pta-budget");
    }
    if o.checkpoint.is_none() {
        if o.checkpoint_every_set {
            eprintln!("detjobs: warning: --checkpoint-every has no effect without --checkpoint");
        }
        if o.resume.is_some() {
            eprintln!(
                "detjobs: warning: --resume without --checkpoint: rows settled in this \
                 run will not be checkpointed, so a second interruption reruns them"
            );
        }
    }
    o
}

fn load_manifest(o: &Options) -> Manifest {
    let loaded = if let Some(path) = &o.manifest {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|s| Manifest::from_json(&s))
    } else if let Some(dir) = &o.dir {
        Manifest::from_dir(std::path::Path::new(dir))
    } else {
        let suite = o.suite.as_deref().unwrap_or_default();
        Manifest::suite(suite)
            .ok_or_else(|| format!("unknown suite `{suite}` (jquery, evalbench, all)"))
    };
    match loaded {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Pre-flight IR validation of every job source; exits 1 on any
/// violation so a bad batch fails before burning worker time.
fn lint_manifest(manifest: &Manifest) {
    let mut bad = 0usize;
    for job in &manifest.jobs {
        let lowered = mujs_syntax::parse_with(&job.src, mujs_ir::lower_program);
        match lowered {
            Err(e) => {
                eprintln!("lint {}: parse error: {e}", job.name);
                bad += 1;
            }
            Ok(prog) => {
                let violations = mujs_analysis::validate_program(&prog);
                if !violations.is_empty() {
                    eprintln!("lint {}: {} violation(s)", job.name, violations.len());
                    for v in &violations {
                        eprintln!("  {}", v.describe(&prog));
                    }
                    bad += 1;
                }
            }
        }
    }
    if bad > 0 {
        eprintln!("detjobs: lint failed for {bad} job(s)");
        std::process::exit(1);
    }
    eprintln!("detjobs: lint ok ({} jobs)", manifest.jobs.len());
}

fn main() {
    let o = parse_args();
    let manifest = load_manifest(&o);
    let total = manifest.jobs.len();
    if o.lint {
        lint_manifest(&manifest);
    }
    eprintln!("detjobs: {total} jobs on {} workers", o.workers);

    let resume = o
        .resume
        .as_ref()
        .map(|path| match Checkpoint::load(std::path::Path::new(path)) {
            Ok(ck) => {
                eprintln!("detjobs: resuming from {path} ({} settled rows)", ck.len());
                ck
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        });

    let (tx, rx) = channel();
    let pool = JobPool::new(o.workers).with_events(tx);
    let quiet = o.quiet;
    // Stream progress lines until the pool drops its sender at batch end.
    let printer = std::thread::spawn(move || {
        for e in rx {
            if quiet {
                continue;
            }
            match e {
                JobEvent::Started { job, label, worker } => {
                    eprintln!(
                        "[{:>3}/{total}] started   {label} (worker {worker})",
                        job + 1
                    );
                }
                JobEvent::Progress { job, detail } => {
                    eprintln!("[{:>3}/{total}] progress  {detail}", job + 1);
                }
                JobEvent::Finished { job, label } => {
                    eprintln!("[{:>3}/{total}] finished  {label}", job + 1);
                }
                JobEvent::Failed { job, label, error } => {
                    eprintln!("[{:>3}/{total}] FAILED    {label}: {error}", job + 1);
                }
                JobEvent::Degraded {
                    job,
                    label,
                    granted_cells,
                } => {
                    eprintln!(
                        "[{:>3}/{total}] degraded  {label} (granted {granted_cells} cells)",
                        job + 1
                    );
                }
                JobEvent::Cancelled { job, label } => {
                    eprintln!("[{:>3}/{total}] cancelled {label}", job + 1);
                }
            }
        }
    });

    let opts = BatchOptions {
        fail_fast: o.fail_fast,
        no_facts: o.no_facts,
        checkpoint_path: o.checkpoint.as_ref().map(std::path::PathBuf::from),
        checkpoint_every: o.checkpoint_every,
        resume,
        mem_budget_cells: o.mem_budget,
        pta: o.pta_budget.map(|budget| PtaStage {
            budget,
            mode: o.spec_depth.map_or(PtaMode::Baseline, PtaMode::Spec),
        }),
        #[cfg(feature = "fault-inject")]
        chaos: None,
    };
    let batch = run_manifest_with(&manifest, &pool, &opts);
    drop(pool); // closes the event channel so the printer drains and exits
    let _ = printer.join();

    eprintln!(
        "detjobs: {}/{} jobs completed{}",
        batch.completed(),
        total,
        if batch.has_failures() {
            " (with failures)"
        } else {
            ""
        }
    );

    if let Some(path) = &o.stats {
        if let Err(e) = std::fs::write(path, batch.stats_json()) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("detjobs: stats written to {path}");
    }

    let report = batch.report_json();
    match &o.report {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("detjobs: report written to {path}");
        }
        None => println!("{report}"),
    }
    if batch.has_failures() {
        std::process::exit(1);
    }
}
