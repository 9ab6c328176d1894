//! `detload` — load generator and cold/warm benchmark client for
//! `detserved`.
//!
//! ```text
//! detload --connect HOST:PORT [--suite jquery|smoke | --script FILE]
//!         [--warm N] [--pta-budget B] [--label NAME] [--out FILE]
//!         [--shutdown]
//! ```
//!
//! Drives one request set against a running daemon twice over: a **cold**
//! pass (first sight of every request — the daemon computes) and `N`
//! **warm** passes (byte-identical requests — the daemon must serve pure
//! cache hits). Around each pass it snapshots the daemon's `stats`
//! counters, so the report separates the two regimes exactly:
//!
//! * `counters.cold` / `counters.warm` — per-pass deltas of every
//!   numeric counter the daemon exposes (cache hits/misses, parses,
//!   analyses, PTA solves and propagations). A healthy warm pass shows
//!   `pipeline.pta_propagations = 0` and only `*_hits` moving.
//! * `timing` — requests/sec and p50/p99 latency per regime, plus the
//!   `warm_over_cold` throughput ratio.
//!
//! Timing numbers vary with the machine; the counter deltas are
//! deterministic for a given request set, which is what CI asserts on.
//!
//! Exit codes: 0 on success, 1 on connection/protocol failures or any
//! request settling with an `error` frame, 2 on usage errors.

#![forbid(unsafe_code)]

use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: detload --connect HOST:PORT [options]\n\
         \n\
         request set (pick one):\n\
         \x20 --suite NAME      built-in set: `jquery` (the jQuery-like 1.0/1.1\n\
         \x20                   pair with fact-injected PTA; the ROADMAP benchmark)\n\
         \x20                   or `smoke` (three tiny programs; CI-sized). The\n\
         \x20                   default is `jquery`.\n\
         \x20 --script FILE     replay raw request lines (one JSON object per line)\n\
         \n\
         options:\n\
         \x20 --warm N          warm passes over the set (default 3)\n\
         \x20 --pta-budget B    PTA propagation budget for suite requests\n\
         \x20                   (default 2000000; 0 skips the PTA stage)\n\
         \x20 --label NAME      label recorded in the report (default: the suite)\n\
         \x20 --out FILE        write the JSON report here (default: stdout)\n\
         \x20 --shutdown        send a shutdown request when done\n\
         \n\
         exit codes: 0 success; 1 connection/protocol/request failure; 2 usage"
    );
    ExitCode::from(2)
}

/// A line-JSON client over one TCP connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request lines must leave immediately or Nagle + delayed ACK
        // inflate every round-trip by tens of milliseconds.
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads frames until the terminal frame
    /// (`result`/`error`/`stats`/`pong`/`bye`), which it returns.
    fn round_trip(&mut self, line: &str) -> Result<Value, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))?;
        loop {
            let mut frame = String::new();
            let n = self
                .reader
                .read_line(&mut frame)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_owned());
            }
            let v: Value =
                serde_json::from_str(frame.trim_end()).map_err(|e| format!("frame: {e:?}"))?;
            match v.get("ev").and_then(Value::as_str) {
                Some("result" | "error" | "stats" | "pong" | "bye") => return Ok(v),
                _ => continue, // progress frame
            }
        }
    }

    fn stats(&mut self) -> Result<Value, String> {
        let frame = self.round_trip(r#"{"op":"stats","id":"detload-stats"}"#)?;
        frame
            .get("stats")
            .cloned()
            .ok_or_else(|| "stats frame missing counters".to_owned())
    }
}

/// Flattens nested counter objects to dotted numeric leaves.
fn flatten(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Num(n) => out.push((prefix.to_owned(), *n)),
        Value::Object(fields) => {
            for (k, v) in fields {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&key, v, out);
            }
        }
        _ => {}
    }
}

/// The per-pass counter delta (`after - before`) over every numeric leaf.
fn counter_delta(before: &Value, after: &Value) -> Value {
    let (mut b, mut a) = (Vec::new(), Vec::new());
    flatten("", before, &mut b);
    flatten("", after, &mut a);
    let fields = a
        .into_iter()
        .map(|(k, av)| {
            let bv = b
                .iter()
                .find(|(bk, _)| *bk == k)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            (k, Value::Num(av - bv))
        })
        .collect();
    Value::Object(fields)
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

/// One measured pass over the request set.
struct Pass {
    latencies_ms: Vec<f64>,
    secs: f64,
}

fn run_pass(client: &mut Client, requests: &[String]) -> Result<Pass, String> {
    let mut latencies_ms = Vec::with_capacity(requests.len());
    let start = Instant::now();
    for line in requests {
        let t0 = Instant::now();
        let frame = client.round_trip(line)?;
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
        if frame.get("ev").and_then(Value::as_str) == Some("error") {
            let msg = frame
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("unknown");
            return Err(format!("request failed: {msg}"));
        }
    }
    Ok(Pass {
        latencies_ms,
        secs: start.elapsed().as_secs_f64(),
    })
}

fn analyze_line(name: &str, src: &str, pta_budget: u64) -> String {
    let mut fields = vec![
        ("op".to_owned(), Value::Str("analyze".to_owned())),
        ("id".to_owned(), Value::Str(name.to_owned())),
        ("name".to_owned(), Value::Str(name.to_owned())),
        ("src".to_owned(), Value::Str(src.to_owned())),
        ("include_facts".to_owned(), Value::Bool(false)),
    ];
    if pta_budget > 0 {
        fields.push(("pta_budget".to_owned(), Value::Num(pta_budget as f64)));
        fields.push(("inject".to_owned(), Value::Bool(true)));
    }
    serde_json::to_string(&Value::Object(fields)).expect("request serializes")
}

fn suite_requests(suite: &str, pta_budget: u64) -> Option<Vec<String>> {
    match suite {
        "jquery" => {
            let v10 = mujs_corpus::jquery_like::v1_0();
            let v11 = mujs_corpus::jquery_like::v1_1();
            Some(vec![
                analyze_line("jquery-like-1.0", &v10.src, pta_budget),
                analyze_line("jquery-like-1.1", &v11.src, pta_budget),
            ])
        }
        "smoke" => Some(vec![
            analyze_line(
                "smoke-det",
                "var x = { f: 23 }; var y = x.f + 1;",
                pta_budget,
            ),
            analyze_line(
                "smoke-call",
                "function f(a) { return a + 1; } var r = f(41);",
                pta_budget,
            ),
            analyze_line(
                "smoke-dyn",
                "var o = { k: 7 }; var n = 'k'; var v = o[n];",
                pta_budget,
            ),
        ]),
        _ => None,
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut connect = None;
    let mut suite = "jquery".to_owned();
    let mut script: Option<String> = None;
    let mut warm = 3u32;
    let mut pta_budget = 2_000_000u64;
    let mut label: Option<String> = None;
    let mut out: Option<String> = None;
    let mut shutdown = false;

    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--connect" => connect = Some(value("--connect")?),
                "--suite" => suite = value("--suite")?,
                "--script" => script = Some(value("--script")?),
                "--warm" => {
                    warm = value("--warm")?
                        .parse()
                        .map_err(|e| format!("--warm: {e}"))?
                }
                "--pta-budget" => {
                    pta_budget = value("--pta-budget")?
                        .parse()
                        .map_err(|e| format!("--pta-budget: {e}"))?;
                }
                "--label" => label = Some(value("--label")?),
                "--out" => out = Some(value("--out")?),
                "--shutdown" => shutdown = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("detload: {e}");
            return usage();
        }
    }
    let Some(addr) = connect else {
        eprintln!("detload: --connect is required");
        return usage();
    };

    let requests = match &script {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(str::to_owned)
                .collect(),
            Err(e) => {
                eprintln!("detload: read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match suite_requests(&suite, pta_budget) {
            Some(r) => r,
            None => {
                eprintln!("detload: unknown suite `{suite}` (try jquery or smoke)");
                return usage();
            }
        },
    };
    let label = label.unwrap_or_else(|| {
        script
            .as_deref()
            .map(|p| format!("script:{p}"))
            .unwrap_or_else(|| suite.clone())
    });

    match run_benchmark(&addr, &label, &requests, warm, shutdown) {
        Ok(report) => {
            let text = serde_json::to_string_pretty(&report).expect("report serializes");
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, text + "\n") {
                        eprintln!("detload: write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("detload: report written to {path}");
                }
                None => println!("{text}"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("detload: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_benchmark(
    addr: &str,
    label: &str,
    requests: &[String],
    warm: u32,
    shutdown: bool,
) -> Result<Value, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;

    let before_cold = client.stats()?;
    let cold = run_pass(&mut client, requests)?;
    let after_cold = client.stats()?;

    let mut warm_pass = Pass {
        latencies_ms: Vec::new(),
        secs: 0.0,
    };
    for _ in 0..warm {
        let p = run_pass(&mut client, requests)?;
        warm_pass.latencies_ms.extend(p.latencies_ms);
        warm_pass.secs += p.secs;
    }
    let after_warm = client.stats()?;

    if shutdown {
        client.round_trip(r#"{"op":"shutdown","id":"detload-bye"}"#)?;
    }

    let rps = |p: &Pass| {
        if p.secs > 0.0 {
            p.latencies_ms.len() as f64 / p.secs
        } else {
            0.0
        }
    };
    let (cold_rps, warm_rps) = (rps(&cold), rps(&warm_pass));
    let mut cold_sorted = cold.latencies_ms.clone();
    cold_sorted.sort_by(f64::total_cmp);
    let mut warm_sorted = warm_pass.latencies_ms.clone();
    warm_sorted.sort_by(f64::total_cmp);

    let num = Value::Num;
    Ok(Value::Object(vec![
        ("label".to_owned(), Value::Str(label.to_owned())),
        ("requests_per_pass".to_owned(), num(requests.len() as f64)),
        ("warm_passes".to_owned(), num(f64::from(warm))),
        (
            "counters".to_owned(),
            Value::Object(vec![
                ("cold".to_owned(), counter_delta(&before_cold, &after_cold)),
                ("warm".to_owned(), counter_delta(&after_cold, &after_warm)),
            ]),
        ),
        (
            "timing".to_owned(),
            Value::Object(vec![
                ("cold_rps".to_owned(), num(cold_rps)),
                ("warm_rps".to_owned(), num(warm_rps)),
                (
                    "cold_p50_ms".to_owned(),
                    num(percentile(&cold_sorted, 0.50)),
                ),
                (
                    "cold_p99_ms".to_owned(),
                    num(percentile(&cold_sorted, 0.99)),
                ),
                (
                    "warm_p50_ms".to_owned(),
                    num(percentile(&warm_sorted, 0.50)),
                ),
                (
                    "warm_p99_ms".to_owned(),
                    num(percentile(&warm_sorted, 0.99)),
                ),
                (
                    "warm_over_cold".to_owned(),
                    num(if cold_rps > 0.0 {
                        warm_rps / cold_rps
                    } else {
                        0.0
                    }),
                ),
            ]),
        ),
    ]))
}
