//! `serve-edit`: a synthetic request stream of resends and edits against
//! one in-process `Server` (default options, so a 256-entry stage cache).
//!
//! The working set is 68 documents: the four jQuery-like pages, each with
//! and without shortcut summaries, plus 60 generated programs. The stream
//! comes in chunks of 408 requests, in each of which every document is
//! edited once and resent five times, in a seeded order. An edit makes the
//! document its original source with a fresh `var __edit_N = N;`
//! appended, which misses every stage and inserts new entries; a resend
//! sends the document's current source. So every source version is sent
//! once cold and about five times warm, the cold-then-five-warm shape of
//! the repository's checked-in serve benchmark (BENCH_serve.json), and
//! every chunk holds the same requests. The mix is an assumption, not
//! measured editor traffic. The inserts drive LRU
//! evictions, so some resends go cold too. This is the only workload with
//! cache hits, mixed with inserts and evictions, so a change that speeds
//! up hits at the cost of misses shows.

use crate::expected::Expected;
use crate::inputs::{edited_src, program_pool, serve_chunk, serve_chunk_len, ServeReq};
use crate::runner::{Exact, ExactSums, Workload};
use crate::stats::percentile;
use crate::trace::Tracer;
use mujs_corpus::jquery_like::all_versions;
use mujs_serve::{ServeOptions, Server};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// Generated programs in the working set.
const GEN_PROGRAMS: usize = 60;

/// Generator seed of the working set. The working set is fixed, so the
/// exact metrics do not vary with `--seed`, which picks the request
/// stream; gen-fleet is the workload whose programs follow the seed.
const WORKING_SET_SEED: u64 = 0;

/// Cache stages, in the order of the stats counters.
const STAGES: [&str; 4] = ["parse", "facts", "summary", "pta"];

/// One working-set document.
struct Doc {
    /// The original source, which edits append to.
    src: String,
    shortcuts: bool,
    /// The request line (newline included) of the current version.
    line: String,
    /// The report of the current version's cold request; `None` while an
    /// edit's response is unchecked or after it failed its check.
    report: Option<String>,
}

/// Server counters read after each request: pipeline work (parses,
/// analyses, summary replays, PTA solves, propagations), then per-stage
/// cache hits and misses, insertions and evictions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counters {
    pipeline: [u64; 5],
    hits: [u64; 4],
    misses: [u64; 4],
    insertions: u64,
    evictions: u64,
}

impl Counters {
    fn read(server: &Server) -> Self {
        let p = server.counters();
        let stats = server.cache().stats();
        let stat = |k: &str| stats.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        Counters {
            pipeline: [
                &p.parses,
                &p.analyses,
                &p.summary_replays,
                &p.pta_solves,
                &p.pta_propagations,
            ]
            .map(|a| a.load(Ordering::Relaxed)),
            hits: STAGES.map(|s| stat(&format!("{s}_hits"))),
            misses: STAGES.map(|s| stat(&format!("{s}_misses"))),
            insertions: stat("insertions"),
            evictions: stat("evictions"),
        }
    }

    /// `self ∘ other` field by field.
    fn zip(&self, other: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            pipeline: std::array::from_fn(|i| f(self.pipeline[i], other.pipeline[i])),
            hits: std::array::from_fn(|i| f(self.hits[i], other.hits[i])),
            misses: std::array::from_fn(|i| f(self.misses[i], other.misses[i])),
            insertions: f(self.insertions, other.insertions),
            evictions: f(self.evictions, other.evictions),
        }
    }
}

/// Per-request tallies of the traced cycles.
#[derive(Debug, Default)]
struct Traced {
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    totals: Counters,
    request_bytes: usize,
    response_bytes: usize,
}

/// The serve-edit workload.
pub struct ServeEdit {
    seed: u64,
    server: Server,
    docs: Vec<Doc>,
    budget: u64,
    max_warm_delta: u64,
    /// The current chunk's number and requests.
    order: (u64, Vec<ServeReq>),
    last: Counters,
    traced: Traced,
    exact: ExactSums,
}

/// One request as sent.
pub struct Request {
    /// What the request is.
    pub kind: ServeReq,
    /// The bytes sent.
    pub line: String,
}

/// One response, handed to the check.
pub struct Response {
    kind: ServeReq,
    request_bytes: usize,
    frames: Result<Vec<u8>, String>,
}

/// The request line of an analyze request, newline included.
fn request_line(name: &str, src: &str, budget: u64, shortcuts: bool) -> String {
    let v = Value::Object(vec![
        ("op".to_owned(), Value::Str("analyze".to_owned())),
        ("name".to_owned(), Value::Str(name.to_owned())),
        ("src".to_owned(), Value::Str(src.to_owned())),
        ("pta_budget".to_owned(), Value::Num(budget as f64)),
        ("inject".to_owned(), Value::Bool(true)),
        ("shortcuts".to_owned(), Value::Bool(shortcuts)),
    ]);
    let mut line = serde_json::to_string(&v).expect("request serializes");
    line.push('\n');
    line
}

/// Splits a response into its terminal frame and that frame's report
/// bytes (the report is the frame's last field).
fn result_frame(frames: &[u8]) -> Result<(Value, &str), String> {
    let text = std::str::from_utf8(frames).map_err(|e| format!("response: {e}"))?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty response")?;
    let frame: Value = serde_json::from_str(last).map_err(|e| format!("frame: {e}"))?;
    if frame.get("ev").and_then(Value::as_str) != Some("result") {
        return Err(format!("terminal frame is not a result: {last}"));
    }
    let at = last.find("\"report\":").ok_or("result without report")?;
    let report = last[at + "\"report\":".len()..]
        .strip_suffix('}')
        .ok_or("unterminated result frame")?;
    Ok((frame, report))
}

/// The working set as `(name, source, shortcuts)`, in order.
fn working_set() -> Vec<(String, String, bool)> {
    let mut out = Vec::new();
    for v in all_versions() {
        for shortcuts in [false, true] {
            let name = format!(
                "jquery-{}-{}",
                v.version,
                if shortcuts { "sc" } else { "inj" }
            );
            out.push((name, v.src.clone(), shortcuts));
        }
    }
    for (i, src) in program_pool(WORKING_SET_SEED, GEN_PROGRAMS)
        .into_iter()
        .enumerate()
    {
        out.push((format!("gen-{i}"), src, false));
    }
    out
}

impl ServeEdit {
    /// Starts a server and warms it with one cold request per
    /// working-set document, keeping each report as the reference.
    ///
    /// # Errors
    ///
    /// A working-set request that does not produce a result.
    pub fn setup(seed: u64, expected: &Expected, tr: &mut Tracer) -> Result<Self, String> {
        let budget = expected.table1_budget;
        let server = Server::new(ServeOptions::default());
        let mut docs = Vec::new();
        let mut exact = ExactSums::default();
        for (name, src, shortcuts) in working_set() {
            let line = request_line(&name, &src, budget, shortcuts);
            let mut frames = Vec::new();
            tr.span("serve", |_| {
                server.handle_stream(line.as_bytes(), &mut frames)
            })
            .map_err(|e| format!("{name}: {e}"))?;
            let (_, report) = result_frame(&frames).map_err(|e| format!("{name}: {e}"))?;
            let r: Value = serde_json::from_str(report).map_err(|e| format!("{name}: {e}"))?;
            let pta = r.get("pta").ok_or_else(|| format!("{name}: no pta"))?;
            exact.solve(
                pta.get("status").and_then(Value::as_str) == Some("completed"),
                pta.get("avg_points_to")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
            );
            exact.analysis(r.get("determinate").and_then(Value::as_f64).unwrap_or(0.0) as usize);
            docs.push(Doc {
                report: Some(report.to_owned()),
                src,
                shortcuts,
                line,
            });
        }
        let last = Counters::read(&server);
        Ok(ServeEdit {
            seed,
            server,
            docs,
            budget,
            max_warm_delta: expected.warm_pipeline_delta,
            order: (u64::MAX, Vec::new()),
            last,
            traced: Traced::default(),
            exact,
        })
    }
}

impl Workload for ServeEdit {
    type In = Request;
    type Out = Response;

    fn input(&mut self, k: u64) -> Request {
        let n = self.cycle_len() as u64;
        let c = k / n;
        if self.order.0 != c {
            self.order = (c, serve_chunk(self.seed, c, self.docs.len()));
        }
        let kind = self.order.1[(k % n) as usize];
        let line = match kind {
            ServeReq::Repeat(b) => self.docs[b].line.clone(),
            ServeReq::Edit(b, n) => {
                let doc = &mut self.docs[b];
                let src = edited_src(&doc.src, n);
                doc.line = request_line(&format!("edit-{n}"), &src, self.budget, doc.shortcuts);
                doc.report = None;
                doc.line.clone()
            }
        };
        Request { kind, line }
    }

    fn cycle_len(&self) -> usize {
        serve_chunk_len(self.docs.len())
    }

    /// Warm requests, which only look up and render cached artifacts,
    /// slow down more than the probe; cold ones, most of the op time, as
    /// much. Chosen over two sets of ten pinned runs as the exponents that
    /// minimized their spread: one for both (1.11, the per-second slope)
    /// left the warm `op_p50_ms` spread up to twice as wide.
    fn host_elasticity(&self, class: u64) -> f64 {
        if class & 1 == 1 {
            1.4
        } else {
            1.0
        }
    }

    fn frontend_inputs(&self) -> Vec<&str> {
        Vec::new()
    }

    fn op(&self, req: Request, tr: &mut Tracer) -> Response {
        let mut frames = Vec::with_capacity(4096);
        let r = tr.span("serve", |_| {
            self.server.handle_stream(req.line.as_bytes(), &mut frames)
        });
        Response {
            kind: req.kind,
            request_bytes: req.line.len(),
            frames: r.map(|_| frames).map_err(|e| e.to_string()),
        }
    }

    /// The class of a request is its document, whether it is an edit, and
    /// whether it hit every stage (bit 0, set when warm): a resend goes
    /// cold when its entries were evicted.
    fn check(&mut self, _k: u64, out: Response, ms: f64, tr: &mut Tracer) -> Result<u64, String> {
        let now = Counters::read(&self.server);
        let delta = now.zip(&self.last, |a, b| a - b);
        self.last = now;
        let frames = out.frames?;
        let (frame, report) = result_frame(&frames)?;
        let cached = frame.get("cached").ok_or("result without cache flags")?;
        let warm = STAGES
            .iter()
            .filter_map(|s| cached.get(s))
            .all(|f| f.as_bool() == Some(true));
        if tr.is_on() {
            let t = &mut self.traced;
            if warm { &mut t.warm_ms } else { &mut t.cold_ms }.push(ms);
            t.totals = t.totals.zip(&delta, |a, b| a + b);
            t.request_bytes += out.request_bytes;
            t.response_bytes += frames.len();
        }
        if warm && delta.pipeline.iter().any(|&d| d > self.max_warm_delta) {
            return Err(format!(
                "warm request moved pipeline counters {:?}",
                delta.pipeline
            ));
        }
        let doc = match out.kind {
            ServeReq::Repeat(b) => {
                if self.docs[b].report.as_deref() != Some(report) {
                    return Err(format!(
                        "report of document {b} differs from its cold report"
                    ));
                }
                2 * b
            }
            ServeReq::Edit(b, _) => {
                let r: Value = serde_json::from_str(report).map_err(|e| format!("report: {e}"))?;
                if r.get("status").and_then(Value::as_str) != Some("completed")
                    || r.get("pta").and_then(|p| p.get("status")).is_none()
                {
                    return Err(format!("edit request did not complete: {report}"));
                }
                self.docs[b].report = Some(report.to_owned());
                2 * b + 1
            }
        };
        Ok(2 * doc as u64 + u64::from(warm))
    }

    fn exact(&self) -> Exact {
        self.exact.exact()
    }

    fn layer_metrics(&self, m: &mut BTreeMap<&'static str, f64>) {
        let t = &self.traced;
        let n = (t.warm_ms.len() + t.cold_ms.len()) as f64;
        if n == 0.0 {
            return;
        }
        let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
        m.insert("serve.request_ms.hit", p(&t.warm_ms, 50.0));
        m.insert("serve.request_ms.miss", p(&t.cold_ms, 50.0));
        m.insert("serve.request_p99_ms.hit", p(&t.warm_ms, 99.0));
        m.insert("serve.request_p90_ms.miss", p(&t.cold_ms, 90.0));
        m.insert("serve.warm_frac", t.warm_ms.len() as f64 / n);
        for (i, name) in [
            "serve.parse_hit_frac",
            "serve.facts_hit_frac",
            "serve.summary_hit_frac",
            "serve.pta_hit_frac",
        ]
        .into_iter()
        .enumerate()
        {
            let probes = (t.totals.hits[i] + t.totals.misses[i]) as f64;
            if probes > 0.0 {
                m.insert(name, t.totals.hits[i] as f64 / probes);
            }
        }
        m.insert("serve.insertions", t.totals.insertions as f64 / n);
        m.insert("serve.evictions", t.totals.evictions as f64 / n);
        for (i, name) in [
            "serve.parses",
            "serve.analyses",
            "serve.summary_replays",
            "serve.pta_solves",
            "serve.pta_propagations",
        ]
        .into_iter()
        .enumerate()
        {
            m.insert(name, t.totals.pipeline[i] as f64 / n);
        }
        m.insert("serve.request_bytes", t.request_bytes as f64 / n);
        m.insert("serve.response_bytes", t.response_bytes as f64 / n);
    }
}
