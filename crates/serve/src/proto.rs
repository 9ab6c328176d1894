//! The wire protocol: line-delimited JSON requests and responses.
//!
//! Every request is one JSON object on one line, tagged by `op`; every
//! response frame is one JSON object on one line, tagged by `ev`. A
//! client may pipeline requests — the daemon processes each connection's
//! lines in order and serializes that connection's frames, so a request's
//! frames never interleave with another request's *on the same
//! connection* (connections are independent).
//!
//! Requests:
//!
//! ```text
//! {"op":"analyze","id":1,"name":"page","src":"var x = 1;",
//!  "seeds":[1,2],"config":{…},"deadline_ms":5000,"mem_cells":100000,
//!  "pta_budget":2000000,"inject":true,"include_facts":false}
//! {"op":"stats","id":2}
//! {"op":"ping","id":3}
//! {"op":"shutdown","id":4}
//! ```
//!
//! Everything but `op` and (for analyze) `src` is optional; `id` is an
//! arbitrary JSON value echoed verbatim on every frame the request
//! produces, so pipelined clients can demultiplex. Unknown fields are
//! ignored (forward compatibility); unknown ops produce an `error`
//! frame.
//!
//! Response frames: progress events re-encode the jobs layer's
//! [`JobEvent`] stream (`started` / `progress` / `degraded` / `failed` /
//! `finished` / `cancelled`), and each request
//! settles with exactly one terminal frame — `result` (carrying the
//! report row and per-stage cache flags), `pong`, `stats`, `bye`, or
//! `error`.

use crate::stage::CachedFlags;
use determinacy::AnalysisConfig;
use mujs_jobs::{JobEvent, PtaMode, PtaStage};
use serde::Deserialize;
use serde_json::Value;

/// One analysis request, as parsed off the wire (admission and seed
/// defaulting happen later, in the server).
#[derive(Debug, Clone)]
pub struct AnalyzeRequest {
    /// Echo id for demultiplexing (Null when the client sent none).
    pub id: Value,
    /// Label for the report row; never part of any cache key.
    pub name: String,
    /// The JavaScript source.
    pub src: String,
    /// Explicit seed fan-out; empty means the config default.
    pub seeds: Vec<u64>,
    /// Full analysis configuration (`None` = default).
    pub config: Option<AnalysisConfig>,
    /// Wall-clock budget override (milliseconds).
    pub deadline_ms: Option<u64>,
    /// Declared heap-cell budget (also the admission declaration).
    pub mem_cells: Option<u64>,
    /// The PTA stage (`None` without `pta_budget`), its mode named by
    /// the wire fields `inject`, `shortcuts` and `spec_depth`.
    pub pta: Option<PtaStage>,
    /// Whether the report row embeds the full fact export.
    pub include_facts: bool,
}

impl AnalyzeRequest {
    /// The effective analysis configuration (config defaulted, budget
    /// shorthands applied — same precedence as a `detjobs` manifest).
    pub fn effective_config(&self) -> AnalysisConfig {
        let mut c = self.config.clone().unwrap_or_default();
        if self.deadline_ms.is_some() {
            c.deadline_ms = self.deadline_ms;
        }
        if self.mem_cells.is_some() {
            c.mem_cell_budget = self.mem_cells;
        }
        c
    }

    /// The effective seed fan-out (never empty).
    pub fn effective_seeds(&self) -> Vec<u64> {
        if self.seeds.is_empty() {
            vec![self.effective_config().seed]
        } else {
            self.seeds.clone()
        }
    }
}

/// A parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Run (or serve from cache) one analysis.
    Analyze(Box<AnalyzeRequest>),
    /// Report server/cache/pipeline counters.
    Stats(Value),
    /// Liveness probe.
    Ping(Value),
    /// Drain and stop the daemon.
    Shutdown(Value),
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message for malformed JSON, a missing/unknown `op`,
/// or a missing `src` — rendered back to the client in an `error` frame.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("request JSON: {e:?}"))?;
    let id = v.get("id").cloned().unwrap_or(Value::Null);
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("request missing `op`")?;
    match op {
        "ping" => Ok(Request::Ping(id)),
        "stats" => Ok(Request::Stats(id)),
        "shutdown" => Ok(Request::Shutdown(id)),
        "analyze" => {
            let src = v
                .get("src")
                .and_then(Value::as_str)
                .ok_or("analyze request missing `src`")?
                .to_owned();
            let name = v
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("request")
                .to_owned();
            let seeds = v
                .get("seeds")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|s| s.as_f64())
                        .map(|f| f as u64)
                        .collect()
                })
                .unwrap_or_default();
            let config = match v.get("config") {
                Some(c) if !matches!(c, Value::Null) => Some(
                    AnalysisConfig::from_value(c).map_err(|e| format!("analyze config: {e:?}"))?,
                ),
                _ => None,
            };
            let as_u64 = |field: &str| v.get(field).and_then(Value::as_f64).map(|f| f as u64);
            let flag = |field: &str| v.get(field).and_then(Value::as_bool).unwrap_or(false);
            let mode = pta_mode(
                flag("inject"),
                as_u64("spec_depth").map(|d| d as usize),
                flag("shortcuts"),
            )?;
            Ok(Request::Analyze(Box::new(AnalyzeRequest {
                id,
                name,
                src,
                seeds,
                config,
                deadline_ms: as_u64("deadline_ms"),
                mem_cells: as_u64("mem_cells"),
                pta: as_u64("pta_budget").map(|budget| PtaStage { budget, mode }),
                include_facts: v
                    .get("include_facts")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
            })))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Maps the wire fields onto the one PTA mode: `spec_depth` specializes,
/// `shortcuts` injects and applies shortcut summaries (summaries are
/// distilled from the same facts injection consumes), `inject` alone
/// injects, and none of them solves the baseline.
///
/// # Errors
///
/// `spec_depth` together with `inject` or `shortcuts`.
fn pta_mode(inject: bool, spec_depth: Option<usize>, shortcuts: bool) -> Result<PtaMode, String> {
    match (spec_depth, inject, shortcuts) {
        (Some(_), true, _) => Err(
            "analyze request sets both `inject` and `spec_depth`: a solve consumes \
             the determinacy facts either by injection or by specialization, not both"
                .to_owned(),
        ),
        (Some(_), _, true) => Err(
            "analyze request sets both `shortcuts` and `spec_depth`: shortcut \
             summaries name functions of the unspecialized program"
                .to_owned(),
        ),
        (Some(depth), false, false) => Ok(PtaMode::Spec(depth)),
        (None, _, true) => Ok(PtaMode::InjectShortcuts),
        (None, true, false) => Ok(PtaMode::Inject),
        (None, false, false) => Ok(PtaMode::Baseline),
    }
}

fn frame(ev: &str, id: &Value, extra: Vec<(String, Value)>) -> String {
    let mut fields = vec![
        ("ev".to_owned(), Value::Str(ev.to_owned())),
        ("id".to_owned(), id.clone()),
    ];
    fields.extend(extra);
    serde_json::to_string(&Value::Object(fields)).expect("frame serializes")
}

/// Renders a [`JobEvent`] as a progress frame.
pub fn event_line(ev: &JobEvent, id: &Value) -> String {
    let s = |s: &str| Value::Str(s.to_owned());
    let num = |n: u64| Value::Num(n as f64);
    match ev {
        JobEvent::Started { .. } => frame("started", id, Vec::new()),
        JobEvent::Progress { detail, .. } => {
            frame("progress", id, vec![("detail".to_owned(), s(detail))])
        }
        JobEvent::Finished { .. } => frame("finished", id, Vec::new()),
        JobEvent::Failed { error, .. } => frame("failed", id, vec![("error".to_owned(), s(error))]),
        JobEvent::Degraded { granted_cells, .. } => frame(
            "degraded",
            id,
            vec![("granted_cells".to_owned(), num(*granted_cells))],
        ),
        JobEvent::Cancelled { .. } => frame("cancelled", id, Vec::new()),
    }
}

/// Renders the terminal frame of a successful analyze request.
pub fn result_line(id: &Value, cached: &CachedFlags, report: Value) -> String {
    frame(
        "result",
        id,
        vec![
            ("cached".to_owned(), cached.to_value()),
            ("report".to_owned(), report),
        ],
    )
}

/// Renders an error frame (protocol errors and failed jobs).
pub fn error_line(id: &Value, message: &str) -> String {
    frame(
        "error",
        id,
        vec![("message".to_owned(), Value::Str(message.to_owned()))],
    )
}

/// Renders a stats frame around the server's counter snapshot.
pub fn stats_line(id: &Value, stats: &Value) -> String {
    frame("stats", id, vec![("stats".to_owned(), stats.clone())])
}

/// Renders a pong frame.
pub fn pong_line(id: &Value) -> String {
    frame("pong", id, Vec::new())
}

/// Renders the shutdown acknowledgement frame.
pub fn bye_line(id: &Value) -> String {
    frame("bye", id, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_requests_parse_with_defaults() {
        let r = parse_request(r#"{"op":"analyze","src":"var x = 1;"}"#).unwrap();
        let Request::Analyze(a) = r else {
            panic!("expected analyze")
        };
        assert_eq!(a.id, Value::Null);
        assert_eq!(a.name, "request");
        assert!(!a.include_facts);
        assert_eq!(a.effective_seeds(), vec![AnalysisConfig::default().seed]);
        assert_eq!(a.pta, None);
    }

    #[test]
    fn analyze_requests_honor_overrides() {
        let r = parse_request(
            r#"{"op":"analyze","id":7,"name":"p","src":"f();","seeds":[3,4],
                "deadline_ms":5000,"mem_cells":1000,"pta_budget":99,
                "inject":true,"include_facts":true,"future_field":1}"#,
        )
        .unwrap();
        let Request::Analyze(a) = r else {
            panic!("expected analyze")
        };
        assert_eq!(a.id, Value::Num(7.0));
        assert_eq!(a.effective_seeds(), vec![3, 4]);
        let cfg = a.effective_config();
        assert_eq!(cfg.deadline_ms, Some(5000));
        assert_eq!(cfg.mem_cell_budget, Some(1000));
        assert_eq!(
            a.pta,
            Some(PtaStage {
                budget: 99,
                mode: PtaMode::Inject
            })
        );
        assert!(a.include_facts);
    }

    #[test]
    fn spec_depth_parses_and_excludes_inject() {
        let mode = |flags: &str| -> Result<Option<PtaMode>, String> {
            let line = format!(r#"{{"op":"analyze","src":"f();","pta_budget":99{flags}}}"#);
            match parse_request(&line)? {
                Request::Analyze(a) => Ok(a.pta.map(|s| s.mode)),
                other => panic!("expected analyze, got {other:?}"),
            }
        };
        // The three wire fields name one mode.
        assert_eq!(mode(""), Ok(Some(PtaMode::Baseline)));
        assert_eq!(mode(r#","inject":true"#), Ok(Some(PtaMode::Inject)));
        assert_eq!(
            mode(r#","inject":true,"shortcuts":true"#),
            Ok(Some(PtaMode::InjectShortcuts))
        );
        assert_eq!(
            mode(r#","shortcuts":true"#),
            Ok(Some(PtaMode::InjectShortcuts)),
            "shortcut summaries come with the injected facts"
        );
        assert_eq!(mode(r#","spec_depth":3"#), Ok(Some(PtaMode::Spec(3))));
        // Without a budget there is no PTA stage, whatever the flags.
        let r = parse_request(r#"{"op":"analyze","src":"f();","inject":true}"#).unwrap();
        let Request::Analyze(a) = r else {
            panic!("expected analyze")
        };
        assert_eq!(a.pta, None);
        // Specialization excludes both other ways of consuming the facts.
        for (flags, message) in [
            (
                r#","inject":true,"spec_depth":3"#,
                "analyze request sets both `inject` and `spec_depth`: a solve consumes \
                 the determinacy facts either by injection or by specialization, not both",
            ),
            (
                r#","shortcuts":true,"spec_depth":3"#,
                "analyze request sets both `shortcuts` and `spec_depth`: shortcut \
                 summaries name functions of the unspecialized program",
            ),
        ] {
            assert_eq!(mode(flags), Err(message.to_owned()), "flags {flags}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_messages() {
        assert!(parse_request("{ nope").unwrap_err().contains("JSON"));
        assert!(parse_request(r#"{"id":1}"#).unwrap_err().contains("op"));
        assert!(parse_request(r#"{"op":"analyze"}"#)
            .unwrap_err()
            .contains("src"));
        assert!(parse_request(r#"{"op":"warp"}"#)
            .unwrap_err()
            .contains("unknown op"));
    }

    #[test]
    fn frames_echo_the_request_id() {
        let id = Value::Str("req-9".to_owned());
        for line in [
            pong_line(&id),
            error_line(&id, "boom"),
            stats_line(&id, &Value::Object(Vec::new())),
            result_line(&id, &CachedFlags::default(), Value::Null),
        ] {
            let v: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v.get("id").unwrap(), &id, "in {line}");
            assert!(v.get("ev").is_some());
            assert!(!line.contains('\n'), "frames are single lines");
        }
    }
}
