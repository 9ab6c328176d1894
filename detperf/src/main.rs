//! `detperf` — the seeded end-to-end and per-layer benchmark.
//!
//! ```text
//! detperf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!         [--spans FILE] [--out FILE]
//! detperf sweep [--seeds 1,2,...] [--seconds S] [--trace 0|1] [--out FILE]
//! detperf compare A.jsonl B.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! A run prints comment lines (`#`: sample counts, the host probe, the
//! unscaled timings), one `name value unit` line per metric and, last, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. `--out`
//! appends that object, tagged with workload and seed, to a results file
//! that `compare` reads. `sweep` runs every workload for every seed, each
//! in its own child process, so no run inherits another's heap.
//!
//! Exit codes: 0 when every op's output checked out; 1 on a failed op, a
//! failed set-up or an I/O error; 2 on usage errors.

use mujs_perf::runner::{RunOpts, RunOutcome};
use mujs_perf::workloads::{run_named, NAMES};
use serde_json::Value;
use std::io::Write;
use std::process::{Command, ExitCode};

/// Default measurement window, matching `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "detperf: {msg}\n\
         usage: detperf --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                [--spans FILE] [--out FILE]\n\
         \x20      detperf sweep [--seeds 1,2,...] [--seconds S] [--trace 0|1] [--out FILE]\n\
         \x20      detperf compare A.jsonl B.jsonl [--bench BENCHMARK.json]\n\
         workloads: {}",
        NAMES.join(", ")
    );
    ExitCode::from(2)
}

/// Parsed `--flag value` pairs; every flag takes exactly one value.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !allowed.contains(&a.as_str()) {
                return Err(format!("unknown argument `{a}`"));
            }
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            out.push((a.clone(), v.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.get(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        })
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("--trace").unwrap_or("0") {
            "0" => Ok(false),
            "1" => Ok(true),
            v => Err(format!("--trace: expected 0 or 1, got `{v}`")),
        }
    }
}

fn result_json(r: &RunOutcome) -> Value {
    let metrics = r
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_owned(),
                Value::Object(vec![
                    ("value".to_owned(), Value::Num(value)),
                    ("unit".to_owned(), Value::Str(unit.to_owned())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".to_owned(), Value::Bool(r.failed == 0)),
        ("attempted".to_owned(), Value::Num(r.attempted as f64)),
        ("failed".to_owned(), Value::Num(r.failed as f64)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ])
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--spans",
            "--out",
        ],
    )?;
    let workload = flags.get("--workload").ok_or("--workload is required")?;
    let opts = RunOpts {
        seed: flags.num("--seed", 1)?,
        seconds: flags.num("--seconds", DEFAULT_SECONDS)?,
        trace: flags.trace()?,
    };
    if !NAMES.contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(report(workload, &opts, &flags).unwrap_or_else(|e| {
        eprintln!("detperf: {workload}: {e}");
        ExitCode::from(1)
    }))
}

/// Runs one workload and prints (and optionally records) its metrics.
fn report(workload: &str, opts: &RunOpts, flags: &Flags) -> Result<ExitCode, String> {
    let r = run_named(workload, opts).map_err(|e| format!("set-up failed: {e}"))?;
    println!(
        "# {workload} seed={} trace={}: {} ops attempted, {} failed",
        opts.seed,
        u8::from(opts.trace),
        r.attempted,
        r.failed,
    );
    for note in &r.notes {
        println!("# {note}");
    }
    for e in &r.errors {
        println!("# failed: {e}");
    }
    for (name, value, unit) in &r.metrics {
        println!("{workload:<11} {name:<32} {value:>16.6} {unit}");
    }
    if let Some(path) = flags.get("--spans") {
        let mut f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        r.tracer
            .write_spans(&mut f)
            .and_then(|()| f.flush())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let result = result_json(&r);
    if let Some(path) = flags.get("--out") {
        let record = Value::Object(vec![
            ("workload".to_owned(), Value::Str(workload.to_owned())),
            ("seed".to_owned(), Value::Num(opts.seed as f64)),
            ("trace".to_owned(), Value::Bool(opts.trace)),
            ("result".to_owned(), result.clone()),
        ]);
        append_line(path, &serde_json::to_string(&record).expect("serializes"))?;
    }
    println!("{}", serde_json::to_string(&result).expect("serializes"));
    Ok(if r.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn sweep(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--seeds", "--seconds", "--trace", "--out"])?;
    let seeds: Vec<u64> = flags
        .get("--seeds")
        .unwrap_or("1")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("--seeds: bad seed `{s}`"))
        })
        .collect::<Result<_, String>>()?;
    let seconds: f64 = flags.num("--seconds", DEFAULT_SECONDS)?;
    let trace = u8::from(flags.trace()?);
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("detperf sweep: cannot locate its own executable");
        return Ok(ExitCode::from(1));
    };
    let mut ok = true;
    for seed in &seeds {
        for w in NAMES {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ]);
            if let Some(out) = flags.get("--out") {
                cmd.args(["--out", out]);
            }
            ok &= match cmd.status() {
                Ok(status) => status.success(),
                Err(e) => {
                    eprintln!("detperf sweep: spawning {w}: {e}");
                    false
                }
            };
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let (files, rest) = args.split_at(args.len().min(2));
    if files.len() != 2 {
        return Err("compare needs two results files".to_owned());
    }
    let flags = Flags::parse(rest, &["--bench"])?;
    let bench = flags.get("--bench").unwrap_or("BENCHMARK.json");
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let table = read(&files[0]).and_then(|a| {
        let b = read(&files[1])?;
        mujs_perf::compare::compare(&a, &b, &read(bench)?)
    });
    Ok(match table {
        Ok(t) => {
            print!("{t}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("detperf compare: {e}");
            ExitCode::from(1)
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sweep") => sweep(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run_one(&args),
    };
    result.unwrap_or_else(|e| usage(&e))
}
