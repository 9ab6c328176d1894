//! The server answers a request whose every stage is in memory by
//! rendering the cached artifacts, and everything else through the
//! stage-by-stage path. Both must give the same frames, reports and
//! counters as running every request through `execute`, the
//! stage-by-stage path's body.

use determinacy::CancelToken;
use mujs_serve::proto::{parse_request, Request};
use mujs_serve::stage::execute;
use mujs_serve::{CacheConfig, PipelineCounters, ServeOptions, Server, StageCache, StageRequest};
use serde_json::Value;
use std::io::Cursor;

const SRC_A: &str = "function get(o, k) { return o[k]; }\\n\
                     var obj = { f: 23, g: 42 };\\n\
                     var x = get(obj, 'f');";
const SRC_B: &str = "var o = {}; function g() { return 1; } o.p = g; var h = o.p();";

fn analyze(id: u64, src: &str, budget: u64, extra: &str) -> String {
    format!(
        r#"{{"op":"analyze","id":{id},"name":"doc","src":"{src}","pta_budget":{budget},"inject":true{extra}}}"#
    )
}

/// Sends one line and returns its frames.
fn send(server: &Server, line: &str) -> Vec<Value> {
    let mut out = Vec::new();
    server
        .handle_stream(Cursor::new(format!("{line}\n")), &mut out)
        .expect("session runs");
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("frame parses"))
        .collect()
}

fn ev(frame: &Value) -> &str {
    frame.get("ev").and_then(Value::as_str).unwrap_or("?")
}

fn text(v: &Value) -> String {
    serde_json::to_string(v).unwrap()
}

fn all_cached(result: &Value) -> bool {
    let cached = result.get("cached").and_then(Value::as_object).unwrap();
    cached.iter().all(|(_, f)| f != &Value::Bool(false))
}

/// The per-request reference: the server's stage request for `line`, run
/// through `execute` on a separate cache and counters.
struct Reference {
    cache: StageCache,
    counters: PipelineCounters,
}

impl Reference {
    fn new(cfg: CacheConfig) -> Self {
        Reference {
            cache: StageCache::new(cfg),
            counters: PipelineCounters::default(),
        }
    }

    fn run(&self, line: &str) -> Value {
        let Ok(Request::Analyze(req)) = parse_request(line) else {
            panic!("not an analyze request: {line}");
        };
        let stage_req = StageRequest {
            src: req.src.clone(),
            cfg: req.effective_config(),
            seeds: req.effective_seeds(),
            page: None,
            pta: req.pta,
        };
        let executed = execute(
            &stage_req,
            "completed",
            req.include_facts,
            &req.name,
            &self.cache,
            &self.counters,
            &CancelToken::new(),
            &|_| {},
        );
        executed.report
    }
}

/// Drives `lines` through a server and the reference and checks every
/// report, then the cache and pipeline counters. Returns how many
/// requests were full hits and how many partial hits.
fn assert_matches_reference(
    cfg: CacheConfig,
    ref_cfg: CacheConfig,
    lines: &[String],
) -> (usize, usize) {
    let server = Server::new(ServeOptions {
        cache: cfg,
        mem_budget_cells: None,
    });
    let reference = Reference::new(ref_cfg);
    let (mut full_hits, mut partial_hits) = (0, 0);
    for line in lines {
        let frames = send(&server, line);
        let result = frames.last().unwrap();
        assert_eq!(ev(result), "result", "{frames:?}");
        if all_cached(result) {
            full_hits += 1;
        } else if result["cached"]
            .as_object()
            .unwrap()
            .iter()
            .any(|(_, f)| f == &true)
        {
            partial_hits += 1;
        }
        assert_eq!(
            text(result.get("report").unwrap()),
            text(&reference.run(line)),
            "{line}"
        );
    }
    assert_eq!(
        text(&server.cache().stats()),
        text(&reference.cache.stats())
    );
    assert_eq!(
        text(&server.counters().to_value()),
        text(&reference.counters.to_value())
    );
    (full_hits, partial_hits)
}

#[test]
fn a_full_hit_streams_the_cold_frames_without_progress() {
    for (budget, degraded) in [(None, false), (Some(50_000), true)] {
        let server = Server::new(ServeOptions {
            cache: CacheConfig::default(),
            mem_budget_cells: budget,
        });
        let line = analyze(7, SRC_A, 50_000, r#","mem_cells":100000,"shortcuts":true"#);
        let cold = send(&server, &line);
        let warm = send(&server, &line);
        assert_eq!(send(&server, &line), warm, "full hits repeat exactly");
        let evs = |f: &[Value]| f.iter().map(ev).map(str::to_owned).collect::<Vec<_>>();
        let mut expected = vec!["started", "finished", "result"];
        if degraded {
            expected.insert(0, "degraded");
        }
        assert_eq!(evs(&warm), expected);
        assert!(evs(&cold).iter().any(|e| e == "progress"));
        // Drop the cold run's progress frames: the rest matches frame for
        // frame, the cache flags aside.
        let cold: Vec<&Value> = cold.iter().filter(|f| ev(f) != "progress").collect();
        assert_eq!(cold.len(), warm.len());
        for (c, w) in cold.iter().zip(&warm) {
            let strip = |f: &Value| {
                let fields = f.as_object().unwrap().iter();
                let kept = fields.filter(|(k, _)| k != "cached").cloned().collect();
                text(&Value::Object(kept))
            };
            assert_eq!(strip(c), strip(w));
        }
        let result = warm.last().unwrap();
        assert!(all_cached(result));
        let status = if degraded { "degraded" } else { "completed" };
        assert_eq!(result["report"]["status"], status);
    }
}

#[test]
fn a_full_hit_moves_only_hit_counters() {
    let server = Server::new(ServeOptions::default());
    let line = analyze(1, SRC_A, 50_000, r#","shortcuts":true"#);
    send(&server, &line);
    let before = server.cache().stats();
    let pipeline = text(&server.counters().to_value());
    let frames = send(&server, &line);
    assert!(all_cached(frames.last().unwrap()));
    let after = server.cache().stats();
    for ((name, b), (_, a)) in before
        .as_object()
        .unwrap()
        .iter()
        .zip(after.as_object().unwrap())
    {
        let moved = a.as_f64().unwrap() - b.as_f64().unwrap();
        let expected = if name.ends_with("_hits") && !name.ends_with("_disk_hits") {
            1.0
        } else {
            0.0
        };
        assert_eq!(moved, expected, "{name}");
    }
    assert_eq!(text(&server.counters().to_value()), pipeline);
}

#[test]
fn partial_hits_count_as_the_stage_by_stage_path_does() {
    // Four entries hold one shortcut request's stages; any second
    // document or budget evicts some of them, so requests alternate
    // between full hits, partial hits and cold runs.
    let cfg = CacheConfig {
        capacity: 4,
        disk_dir: None,
    };
    let mut lines = Vec::new();
    for round in 0..3 {
        lines.push(analyze(round, SRC_A, 50_000, r#","shortcuts":true"#));
        lines.push(analyze(round, SRC_A, 50_000, r#","shortcuts":true"#));
        lines.push(analyze(round, SRC_A, 50_000, ""));
        lines.push(analyze(round, SRC_B, 50_000, ""));
        lines.push(analyze(round, SRC_B, 50_000, ""));
        lines.push(analyze(round, SRC_A, 60_000, ""));
        lines.push(analyze(round, SRC_A, 50_000, r#","shortcuts":true"#));
    }
    let (full, partial) = assert_matches_reference(cfg.clone(), cfg, &lines);
    assert!(full >= 3, "{full} full hits");
    assert!(partial >= 3, "{partial} partial hits");
}

#[test]
fn a_full_hit_refreshes_recency_as_the_stage_by_stage_path_does() {
    // Six entries: A's three stages, then B's two. A's full hit makes
    // A's entries the newest, so C's two inserts evict B's parse entry
    // and A's third request is a full hit again.
    let cfg = CacheConfig {
        capacity: 6,
        disk_dir: None,
    };
    let no_pta = |id: u64, src: &str| format!(r#"{{"op":"analyze","id":{id},"src":"{src}"}}"#);
    let lines = [
        analyze(1, SRC_A, 50_000, ""),
        no_pta(2, SRC_B),
        analyze(3, SRC_A, 50_000, ""),
        no_pta(4, "var c = 3;"),
        analyze(5, SRC_A, 50_000, ""),
    ];
    let (full, partial) = assert_matches_reference(cfg.clone(), cfg, &lines);
    assert_eq!((full, partial), (2, 0));
}

#[test]
fn disk_restored_entries_count_as_the_stage_by_stage_path_does() {
    let dir = std::env::temp_dir().join(format!("detserved-warm-path-{}", std::process::id()));
    let ref_dir = dir.with_extension("ref");
    for d in [&dir, &ref_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let cfg = |d: &std::path::Path| CacheConfig {
        capacity: 64,
        disk_dir: Some(d.to_path_buf()),
    };
    let lines = [
        analyze(1, SRC_A, 50_000, r#","shortcuts":true"#),
        analyze(2, SRC_B, 50_000, ""),
    ];
    // Populate both directories, then restart: the first pass over a
    // fresh memory cache restores from disk, the second hits memory.
    assert_matches_reference(cfg(&dir), cfg(&ref_dir), &lines);
    let twice: Vec<String> = lines.iter().chain(&lines).cloned().collect();
    let (full, _) = assert_matches_reference(cfg(&dir), cfg(&ref_dir), &twice);
    assert_eq!(full, twice.len(), "restored entries report cached");
    for d in [&dir, &ref_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}
