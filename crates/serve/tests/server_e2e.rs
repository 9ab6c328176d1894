//! End-to-end protocol tests: the stdin-pipe session, the TCP accept
//! loop, and the shipped binaries.

use mujs_serve::{ServeOptions, Server};
use serde_json::Value;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{TcpListener, TcpStream};

fn frames(output: &[u8]) -> Vec<Value> {
    String::from_utf8_lossy(output)
        .lines()
        .map(|l| serde_json::from_str(l).expect("every output line is a JSON frame"))
        .collect()
}

fn ev(frame: &Value) -> &str {
    frame.get("ev").and_then(Value::as_str).unwrap_or("?")
}

#[test]
fn pipe_session_serves_cold_then_warm() {
    let server = Server::new(ServeOptions::default());
    let script = concat!(
        r#"{"op":"ping","id":1}"#,
        "\n",
        r#"{"op":"analyze","id":2,"name":"page","src":"var x = { f: 1 }; var y = x.f;"}"#,
        "\n",
        r#"{"op":"analyze","id":3,"name":"page","src":"var x = { f: 1 }; var y = x.f;"}"#,
        "\n",
        r#"{"op":"stats","id":4}"#,
        "\n",
    );
    let mut out = Vec::new();
    let shutdown = server
        .handle_stream(Cursor::new(script), &mut out)
        .expect("pipe session runs");
    assert!(!shutdown, "EOF is not a shutdown request");

    let fr = frames(&out);
    assert_eq!(ev(&fr[0]), "pong");

    let results: Vec<&Value> = fr.iter().filter(|f| ev(f) == "result").collect();
    assert_eq!(results.len(), 2);
    let (cold, warm) = (results[0], results[1]);
    assert_eq!(cold.get("id").unwrap(), &2.0);
    assert_eq!(warm.get("id").unwrap(), &3.0);
    assert_eq!(
        cold.get("cached").unwrap().get("facts").unwrap(),
        &Value::Bool(false)
    );
    assert_eq!(
        warm.get("cached").unwrap().get("facts").unwrap(),
        &Value::Bool(true)
    );
    // Identical request → identical report subtree.
    assert_eq!(
        serde_json::to_string(cold.get("report").unwrap()).unwrap(),
        serde_json::to_string(warm.get("report").unwrap()).unwrap()
    );
    let report = cold.get("report").unwrap();
    assert_eq!(report.get("status").unwrap(), &"completed");
    assert_eq!(report.get("name").unwrap(), &"page");

    let stats = fr.last().unwrap();
    assert_eq!(ev(stats), "stats");
    let pipeline = stats.get("stats").unwrap().get("pipeline").unwrap();
    assert_eq!(
        pipeline.get("parses").unwrap(),
        &1.0,
        "the warm request must not re-parse"
    );
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("facts_hits").unwrap(), &1.0);
    assert_eq!(cache.get("facts_misses").unwrap(), &1.0);
}

/// `deadline_ms` bounds each seed run: three runs that each stop at a
/// 200ms deadline answer with a `result` frame, not an error, and the
/// event frames carry no attempt counter.
#[test]
fn per_run_deadlines_answer_with_a_result_frame() {
    let server = Server::new(ServeOptions::default());
    let script = concat!(
        r#"{"op":"analyze","id":1,"name":"spin","src":"var i = 0; while (true) { i = i + 1; }","seeds":[1,2,3],"deadline_ms":200}"#,
        "\n",
    );
    let mut out = Vec::new();
    server
        .handle_stream(Cursor::new(script), &mut out)
        .expect("pipe session runs");
    let fr = frames(&out);
    let started = fr.iter().find(|f| ev(f) == "started").unwrap();
    assert!(started.get("attempt").is_none(), "{started:?}");
    let last = fr.last().unwrap();
    assert_eq!(ev(last), "result", "{fr:?}");
    let report = last.get("report").unwrap();
    assert_eq!(report.get("status").unwrap(), &"completed");
    let statuses: Vec<&str> = report
        .get("run_statuses")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.as_str().unwrap())
        .collect();
    assert_eq!(statuses, ["Deadline", "Deadline", "Deadline"]);
}

#[test]
fn protocol_errors_answer_in_band_and_do_not_kill_the_session() {
    let server = Server::new(ServeOptions::default());
    let script = concat!(
        "{ not json\n",
        r#"{"op":"warp","id":1}"#,
        "\n",
        r#"{"op":"analyze","id":2,"name":"bad","src":"var = ;"}"#,
        "\n",
        r#"{"op":"ping","id":3}"#,
        "\n",
    );
    let mut out = Vec::new();
    server
        .handle_stream(Cursor::new(script), &mut out)
        .expect("session survives bad input");
    let fr = frames(&out);
    assert_eq!(ev(&fr[0]), "error");
    assert_eq!(ev(&fr[1]), "error");
    // A syntax error is a *successful* analysis of a bad program: a result
    // frame whose report row carries the error status.
    let result = fr.iter().find(|f| ev(f) == "result").unwrap();
    let status = result
        .get("report")
        .unwrap()
        .get("status")
        .unwrap()
        .as_str()
        .unwrap();
    assert!(status.starts_with("syntax error:"), "got {status}");
    assert_eq!(ev(fr.last().unwrap()), "pong");
}

/// A megabyte of `[` is an error frame, not a stack overflow, and the
/// session goes on.
#[test]
fn deeply_nested_json_is_an_error_frame() {
    let server = Server::new(ServeOptions::default());
    let mut script = "[".repeat(1 << 20);
    script.push('\n');
    script.push_str(r#"{"op":"ping","id":1}"#);
    script.push('\n');
    let mut out = Vec::new();
    server
        .handle_stream(Cursor::new(script), &mut out)
        .expect("session survives deep nesting");
    let fr = frames(&out);
    assert_eq!(fr.len(), 2, "{fr:?}");
    assert_eq!(ev(&fr[0]), "error");
    let message = fr[0].get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("nesting deeper than"), "{message}");
    assert_eq!(ev(&fr[1]), "pong");
}

/// Unbounded JS recursion ends in a `RangeError`, not a stack overflow of
/// the daemon: the request is answered and the session goes on.
#[test]
fn unbounded_recursion_is_answered_and_the_session_goes_on() {
    use std::process::{Command, Stdio};
    let script = concat!(
        r#"{"op":"analyze","id":1,"name":"r","src":"function f(n) { return f(n + 1); } f(0);"}"#,
        "\n",
        r#"{"op":"ping","id":2}"#,
        "\n",
    );
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_detserved"))
        .arg("--stdin")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("detserved runs");
    daemon
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = daemon.wait_with_output().expect("detserved exits");
    assert!(out.status.success(), "exit: {:?}", out.status);
    let fr = frames(&out.stdout);
    let answered = fr
        .iter()
        .position(|f| matches!(ev(f), "result" | "error"))
        .unwrap_or_else(|| panic!("no answer: {fr:?}"));
    let report = fr[answered].get("report").unwrap();
    assert_eq!(
        report.get("run_statuses").unwrap(),
        &Value::Array(vec![Value::Str("UncaughtException".to_owned())])
    );
    assert_eq!(ev(&fr[answered + 1]), "pong");
}

/// Each frame's line together with the pipeline counters at the moment
/// its newline was written.
struct Timeline<'a> {
    server: &'a Server,
    bytes: Vec<u8>,
    at_newline: Vec<(u64, u64)>,
}

impl Write for Timeline<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        use std::sync::atomic::Ordering::Relaxed;
        let c = self.server.counters();
        let now = (c.analyses.load(Relaxed), c.pta_solves.load(Relaxed));
        self.bytes.extend_from_slice(buf);
        let newlines = buf.iter().filter(|&&b| b == b'\n').count();
        self.at_newline.extend(std::iter::repeat_n(now, newlines));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A cold request runs on the connection's thread, yet its progress
/// frames reach the writer while the stage they announce runs, not after
/// the job.
#[test]
fn progress_frames_are_written_while_the_job_runs() {
    let server = Server::new(ServeOptions::default());
    let script = concat!(
        r#"{"op":"analyze","id":1,"name":"p","src":"var x = { f: 1 }; var y = x.f;","pta_budget":50000,"inject":true}"#,
        "\n",
    );
    let mut out = Timeline {
        server: &server,
        bytes: Vec::new(),
        at_newline: Vec::new(),
    };
    server.handle_stream(Cursor::new(script), &mut out).unwrap();
    let fr = frames(&out.bytes);
    let when = |detail: &str| {
        let i = fr
            .iter()
            .position(|f| f.get("detail").and_then(Value::as_str) == Some(detail))
            .unwrap_or_else(|| panic!("no `{detail}` frame: {fr:?}"));
        out.at_newline[i]
    };
    // (analyses, pta_solves) when each frame was written.
    assert_eq!(when("running determinacy analysis"), (0, 0));
    assert_eq!(when("solving pointer analysis"), (1, 0));
    assert_eq!(ev(fr.last().unwrap()), "result");
    assert_eq!(*out.at_newline.last().unwrap(), (1, 1));
}

#[test]
fn degraded_admission_is_reported_and_keyed_separately() {
    let server = Server::new(ServeOptions {
        mem_budget_cells: Some(50_000),
        ..ServeOptions::default()
    });
    // Declares more than the server-wide budget: admitted degraded.
    let script = concat!(
        r#"{"op":"analyze","id":1,"name":"big","src":"var x = 1;","mem_cells":100000}"#,
        "\n",
        r#"{"op":"analyze","id":2,"name":"small","src":"var x = 1;","mem_cells":10000}"#,
        "\n",
    );
    let mut out = Vec::new();
    server.handle_stream(Cursor::new(script), &mut out).unwrap();
    let fr = frames(&out);
    let degraded = fr.iter().find(|f| ev(f) == "degraded").unwrap();
    assert_eq!(degraded.get("granted_cells").unwrap(), &50_000.0);
    let results: Vec<&Value> = fr.iter().filter(|f| ev(f) == "result").collect();
    assert_eq!(
        results[0].get("report").unwrap().get("status").unwrap(),
        &"degraded"
    );
    assert_eq!(
        results[1].get("report").unwrap().get("status").unwrap(),
        &"completed"
    );
    // Different effective budgets → different facts keys → no false
    // sharing between the degraded and full-budget rows.
    let key = |r: &Value| {
        r.get("report")
            .unwrap()
            .get("stage_keys")
            .unwrap()
            .get("facts")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned()
    };
    assert_ne!(key(results[0]), key(results[1]));
    assert!(
        !results[1]
            .get("cached")
            .unwrap()
            .get("facts")
            .unwrap()
            .as_bool()
            .unwrap(),
        "the full-budget request must not hit the degraded entry"
    );
}

#[test]
fn tcp_server_serves_concurrent_clients_until_shutdown() {
    let server = Server::new(ServeOptions::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve(listener));

        let round_trip = |lines: &str| -> Vec<Value> {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(lines.as_bytes()).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut out = Vec::new();
            for line in BufReader::new(stream).lines() {
                out.push(serde_json::from_str(&line.unwrap()).unwrap());
            }
            out
        };

        let a = round_trip(concat!(
            r#"{"op":"analyze","id":"a","name":"p","src":"var x = 40 + 2;"}"#,
            "\n"
        ));
        assert!(a.iter().any(|f| ev(f) == "result"));

        // Second connection sees the first connection's cache.
        let b = round_trip(concat!(
            r#"{"op":"analyze","id":"b","name":"p","src":"var x = 40 + 2;"}"#,
            "\n"
        ));
        let result = b.iter().find(|f| ev(f) == "result").unwrap();
        assert_eq!(
            result.get("cached").unwrap().get("facts").unwrap(),
            &Value::Bool(true),
            "the cache is shared across connections"
        );

        let bye = round_trip(concat!(r#"{"op":"shutdown","id":"z"}"#, "\n"));
        assert_eq!(ev(bye.last().unwrap()), "bye");
        handle.join().unwrap().unwrap();
    });
    assert!(server.is_shutting_down());
}

#[test]
fn detserved_and_detload_binaries_run_a_full_benchmark() {
    use std::process::{Command, Stdio};
    let tmp = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-bin-e2e");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let bench_path = tmp.join("BENCH_serve.json");

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_detserved"))
        .args(["--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("daemon starts");
    let mut banner = String::new();
    BufReader::new(daemon.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("detserved: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_owned();

    let status = Command::new(env!("CARGO_BIN_EXE_detload"))
        .args([
            "--connect",
            &addr,
            "--suite",
            "smoke",
            "--warm",
            "2",
            "--pta-budget",
            "50000",
            "--out",
            bench_path.to_str().unwrap(),
            "--shutdown",
        ])
        .status()
        .expect("loadgen runs");
    assert!(status.success(), "detload exit: {status:?}");

    let daemon_status = daemon.wait().expect("daemon exits after shutdown");
    assert!(daemon_status.success(), "daemon exit: {daemon_status:?}");

    let report: Value =
        serde_json::from_str(&std::fs::read_to_string(&bench_path).unwrap()).unwrap();
    let warm = report.get("counters").unwrap().get("warm").unwrap();
    assert_eq!(
        warm.get("pipeline.pta_propagations").unwrap(),
        &0.0,
        "warm passes must not propagate"
    );
    assert_eq!(warm.get("pipeline.parses").unwrap(), &0.0);
    assert_eq!(warm.get("pipeline.analyses").unwrap(), &0.0);
    // 3 smoke requests × 2 warm passes, 3 stages each: all hits.
    assert_eq!(warm.get("cache.parse_hits").unwrap(), &6.0);
    assert_eq!(warm.get("cache.facts_hits").unwrap(), &6.0);
    assert_eq!(warm.get("cache.pta_hits").unwrap(), &6.0);
    assert_eq!(warm.get("cache.parse_misses").unwrap(), &0.0);
    let cold = report.get("counters").unwrap().get("cold").unwrap();
    assert_eq!(cold.get("pipeline.parses").unwrap(), &3.0);
    assert!(
        cold.get("pipeline.pta_propagations")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    std::fs::remove_dir_all(&tmp).ok();
}

/// Clients choose the PTA mode per request; the daemon has no server-wide
/// mode flags, so passing one is a usage error.
#[test]
fn mode_flags_are_usage_errors() {
    use std::process::{Command, Stdio};
    for args in [
        &["--stdin", "--shortcuts"][..],
        &["--stdin", "--spec-depth", "2"][..],
        // Requests run once, with no watchdog above their own deadline.
        &["--stdin", "--watchdog-grace", "100"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_detserved"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("detserved runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown argument"),
            "{args:?}"
        );
    }
}
