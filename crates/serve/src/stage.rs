//! The stage cache around the shared pipeline.
//!
//! The pipeline itself — canonical request, stage keys, stage bodies and
//! row rendering — lives in [`mujs_jobs::pipeline`], which `detjobs` runs
//! live. This module only decides, per stage, whether the artifact comes
//! from the [`StageCache`] or from running the stage body, and keeps what
//! a cold body produced when its bytes are a pure function of its key.
//!
//! Artifacts are plain JSON values: the in-memory `Program`/`FactDb`
//! graphs are `Rc`-threaded and thread-bound, so nothing of them crosses
//! the cache boundary. A deeper stage that misses while its upstream hit
//! *rehydrates*: it re-parses the byte-identical source (guaranteed by
//! the parse key) and re-interns the cached pairs or summaries, and a
//! stage that needs the live fact graphs (summaries, specialization)
//! re-runs the fan-out.
//!
//! The report row returned to clients is rendered **only from
//! artifacts**, on both the cold and warm paths, which is what makes a
//! warm response byte-identical to the cold run that populated it. A
//! request whose every artifact is in memory resolves through [`probe`]
//! and [`Warm::render`] without building a [`Pipeline`] at all; the
//! render step is the one [`execute`] ends with. Both run on the caller's
//! thread (the server's connection thread); nothing here spawns.

use crate::cache::{Stage, StageCache};
use determinacy::CancelToken;
use mujs_jobs::pipeline::{
    is_clean, render_row, summary_row, Pipeline, PipelineCounters, StageKeys, StageRequest,
};
use serde_json::Value;
use std::sync::Arc;

/// Which stages of a request were served from cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CachedFlags {
    /// Parse artifact came from cache.
    pub parse: bool,
    /// Facts artifact came from cache.
    pub facts: bool,
    /// Summary artifact came from cache (`None` = shortcut mode off).
    pub summary: Option<bool>,
    /// PTA artifact came from cache (`None` = stage not requested).
    pub pta: Option<bool>,
}

impl CachedFlags {
    /// The flags as a JSON object for the response frame. The `summary`
    /// entry appears only in shortcut mode, so clients that treat a
    /// request as warm when every present flag is true need no mode
    /// logic.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("parse".to_owned(), Value::Bool(self.parse)),
            ("facts".to_owned(), Value::Bool(self.facts)),
        ];
        if let Some(b) = self.summary {
            fields.push(("summary".to_owned(), Value::Bool(b)));
        }
        fields.push(("pta".to_owned(), self.pta.map_or(Value::Null, Value::Bool)));
        Value::Object(fields)
    }
}

/// A request driven through the pipeline: the rendered report row plus
/// which stages hit.
#[derive(Debug)]
pub struct Executed {
    /// The report row (shape-compatible with `detjobs` batch rows, plus
    /// `pta` and `stage_keys` fields).
    pub report: Value,
    /// Per-stage cache disposition.
    pub cached: CachedFlags,
    /// The stage keys the request resolved to.
    pub keys: StageKeys,
}

/// Drives one request through parse → facts → summary → pta, consulting
/// `cache` at every stage boundary and filling it on misses.
/// `status_label` is the batch-level status the caller determined
/// ("completed" or "degraded" — admission is the caller's concern);
/// `cancel` threads the service's cancellation into the supervised runs;
/// `notify` receives human-readable progress lines.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    req: &StageRequest,
    status_label: &str,
    include_facts: bool,
    name: &str,
    cache: &StageCache,
    counters: &PipelineCounters,
    cancel: &CancelToken,
    notify: &dyn Fn(&str),
) -> Executed {
    let keys = StageKeys::compute(req);
    let mut cached = CachedFlags::default();
    let mut p = Pipeline::new(req, cancel, counters, notify);
    let artifacts = run_stages(&mut p, req, &keys, cache, &mut cached);
    render(name, status_label, include_facts, artifacts, keys, cached)
}

/// Every artifact of a request whose stages all hit the in-memory cache.
#[derive(Debug)]
pub struct Warm {
    keys: StageKeys,
    /// Parse, facts, then summary and PTA when the request has them.
    artifacts: Vec<Arc<Value>>,
}

/// Probes the in-memory cache for every stage of `req`, in pipeline
/// order, under one lock ([`StageCache::get_all`]). On a full hit the
/// request needs no pipeline and no live state: [`Warm::render`] builds
/// its row. Otherwise nothing was counted, and the request takes
/// [`execute`]'s stage-by-stage path (a partial hit, a disk-only entry).
pub fn probe(cache: &StageCache, req: &StageRequest) -> Option<Warm> {
    let keys = StageKeys::compute(req);
    let mut wants = vec![
        (Stage::Parse, keys.parse.as_str()),
        (Stage::Facts, keys.facts.as_str()),
    ];
    wants.extend(keys.summary.as_deref().map(|k| (Stage::Summary, k)));
    wants.extend(keys.pta.as_deref().map(|k| (Stage::Pta, k)));
    let artifacts = cache.get_all(&wants)?;
    Some(Warm { keys, artifacts })
}

impl Warm {
    /// Renders the row exactly as [`execute`] would from the same
    /// artifacts, every stage flagged cached.
    pub fn render(self, name: &str, status_label: &str, include_facts: bool) -> Executed {
        let keys = self.keys;
        let cached = CachedFlags {
            parse: true,
            facts: true,
            summary: keys.summary.as_ref().map(|_| true),
            pta: keys.pta.as_ref().map(|_| true),
        };
        let mut it = self.artifacts.into_iter();
        let parse = it.next().expect("parse artifact");
        let facts = it.next().expect("facts artifact");
        let summary = keys.summary.as_ref().and_then(|_| it.next());
        let pta = keys.pta.as_ref().and_then(|_| it.next());
        let artifacts = parsed(&parse).map(|()| (facts, summary, pta));
        render(name, status_label, include_facts, artifacts, keys, cached)
    }
}

/// The report row of a resolved request: the facts fields, the summary
/// counts and PTA row, then the stage keys; or the syntax error status.
fn render(
    name: &str,
    status_label: &str,
    include_facts: bool,
    artifacts: Result<Artifacts, String>,
    keys: StageKeys,
    cached: CachedFlags,
) -> Executed {
    let (status, facts, mut tail) = match artifacts {
        Ok((facts, summary, pta)) => {
            let mut tail = Vec::new();
            if let Some(s) = summary {
                tail.push(("summary".to_owned(), summary_row(&s)));
            }
            let pta = pta.map_or(Value::Null, |a| (*a).clone());
            tail.push(("pta".to_owned(), pta));
            (status_label.to_owned(), Some(facts), tail)
        }
        Err(error) => (
            format!("syntax error: {error}"),
            None,
            vec![("pta".to_owned(), Value::Null)],
        ),
    };
    tail.push(("stage_keys".to_owned(), keys.to_value()));
    let report = render_row(name, &status, facts.as_deref(), include_facts, tail);
    Executed {
        report,
        cached,
        keys,
    }
}

/// The facts, summary and PTA artifacts of one request.
type Artifacts = (Arc<Value>, Option<Arc<Value>>, Option<Arc<Value>>);

/// Whether a parse artifact is a program; its syntax error otherwise.
fn parsed(parse: &Value) -> Result<(), String> {
    if parse.get("ok") == Some(&Value::Bool(true)) {
        return Ok(());
    }
    let error = parse.get("error").and_then(Value::as_str);
    Err(error.unwrap_or("unknown parse failure").to_owned())
}

/// Resolves every stage the request has, in pipeline order. Errors are
/// the source's syntax error (a cached one included).
fn run_stages(
    p: &mut Pipeline<'_>,
    req: &StageRequest,
    keys: &StageKeys,
    cache: &StageCache,
    cached: &mut CachedFlags,
) -> Result<Artifacts, String> {
    let parse = through(cache, Stage::Parse, &keys.parse, &mut cached.parse, || {
        Ok((p.parse(), true))
    })?;
    parsed(&parse)?;
    let facts = through(cache, Stage::Facts, &keys.facts, &mut cached.facts, || {
        p.facts().map(with_purity)
    })?;
    let summary = match &keys.summary {
        Some(key) => Some(through(
            cache,
            Stage::Summary,
            key,
            cached.summary.insert(false),
            || p.summary().map(with_purity),
        )?),
        None => None,
    };
    let pta = match (&keys.pta, req.pta) {
        (Some(key), Some(stage)) => Some(through(
            cache,
            Stage::Pta,
            key,
            cached.pta.insert(false),
            || p.pta(stage, Some(&facts), summary.as_deref()),
        )?),
        _ => None,
    };
    Ok((facts, summary, pta))
}

/// An artifact with its `clean` flag as its purity.
fn with_purity(artifact: Value) -> (Value, bool) {
    let pure = is_clean(Some(&artifact));
    (artifact, pure)
}

/// One stage boundary: the cached artifact under `key` (setting `hit`),
/// or the cold body's artifact, cached only when pure (its bytes are a
/// function of the key; a deadline stop or external cancellation
/// reflects wall-clock, not content).
fn through(
    cache: &StageCache,
    stage: Stage,
    key: &str,
    hit: &mut bool,
    cold: impl FnOnce() -> Result<(Value, bool), mujs_syntax::SyntaxError>,
) -> Result<Arc<Value>, String> {
    if let Some(v) = cache.get(stage, key) {
        *hit = true;
        return Ok(v);
    }
    let (artifact, pure) = cold().map_err(|e| e.to_string())?;
    Ok(if pure {
        cache.put(stage, key, artifact)
    } else {
        Arc::new(artifact)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use determinacy::AnalysisConfig;
    use mujs_jobs::{PtaMode, PtaStage};
    use std::sync::atomic::Ordering;

    fn req(src: &str, budget: u64, mode: PtaMode) -> StageRequest {
        StageRequest {
            src: src.to_owned(),
            cfg: AnalysisConfig::default(),
            seeds: vec![AnalysisConfig::default().seed],
            page: None,
            pta: Some(PtaStage { budget, mode }),
        }
    }

    #[test]
    fn spec_pta_requests_execute_and_cache() {
        let cache = StageCache::new(crate::cache::CacheConfig::default());
        let counters = PipelineCounters::default();
        let cancel = CancelToken::new();
        let r = req(
            "function f(o) { return o.p; } f({ p: 1 });",
            100_000,
            PtaMode::Spec(2),
        );
        let run = |name: &str| {
            execute(
                &r,
                "completed",
                false,
                name,
                &cache,
                &counters,
                &cancel,
                &|_| {},
            )
        };
        let e1 = run("spec-cold");
        let pta = e1.report.get("pta").expect("pta row");
        assert_eq!(pta.get("spec_depth"), Some(&Value::Num(2.0)));
        assert_eq!(pta.get("inject"), Some(&Value::Bool(false)));
        assert_eq!(e1.cached.pta, Some(false));
        // Warm rerun: byte-identical row, no new solves or analyses.
        let solves = counters.pta_solves.load(Ordering::Relaxed);
        let analyses = counters.analyses.load(Ordering::Relaxed);
        let e2 = run("spec-cold");
        assert_eq!(e2.cached.pta, Some(true));
        assert!(e2.cached.facts);
        assert_eq!(
            serde_json::to_string(&e1.report).unwrap(),
            serde_json::to_string(&e2.report).unwrap()
        );
        assert_eq!(counters.pta_solves.load(Ordering::Relaxed), solves);
        assert_eq!(counters.analyses.load(Ordering::Relaxed), analyses);
    }

    #[test]
    fn shortcut_requests_execute_and_cache() {
        let cache = StageCache::new(crate::cache::CacheConfig::default());
        let counters = PipelineCounters::default();
        let cancel = CancelToken::new();
        let r = req(
            "function mk(v) { var o = {}; o.x = v; return o; }\n\
             var a = mk({}); var b = mk({});",
            100_000,
            PtaMode::InjectShortcuts,
        );
        let run = |name: &str| {
            execute(
                &r,
                "completed",
                false,
                name,
                &cache,
                &counters,
                &cancel,
                &|_| {},
            )
        };
        let e1 = run("shortcut-cold");
        assert_eq!(e1.cached.summary, Some(false));
        assert_eq!(e1.cached.pta, Some(false));
        let summary = e1.report.get("summary").expect("summary row");
        assert_eq!(summary.get("degraded"), Some(&Value::Bool(false)));
        assert!(summary.get("regions").and_then(Value::as_f64).unwrap() >= 1.0);
        let pta = e1.report.get("pta").expect("pta row");
        assert!(
            pta.get("shortcut_regions").and_then(Value::as_f64).unwrap() >= 1.0,
            "the solver consumed the summaries"
        );
        assert!(pta.get("shortcut_tuples").and_then(Value::as_f64).unwrap() >= 1.0);
        // Warm rerun: byte-identical row, no new replays/solves/analyses.
        let replays = counters.summary_replays.load(Ordering::Relaxed);
        let solves = counters.pta_solves.load(Ordering::Relaxed);
        let analyses = counters.analyses.load(Ordering::Relaxed);
        assert_eq!(replays, 1);
        let e2 = run("shortcut-cold");
        assert_eq!(e2.cached.summary, Some(true));
        assert_eq!(e2.cached.pta, Some(true));
        assert!(e2.cached.facts);
        assert_eq!(
            serde_json::to_string(&e1.report).unwrap(),
            serde_json::to_string(&e2.report).unwrap()
        );
        assert_eq!(counters.summary_replays.load(Ordering::Relaxed), replays);
        assert_eq!(counters.pta_solves.load(Ordering::Relaxed), solves);
        assert_eq!(counters.analyses.load(Ordering::Relaxed), analyses);
    }

    #[test]
    fn syntax_errors_are_reported_and_cached() {
        let cache = StageCache::new(crate::cache::CacheConfig::default());
        let counters = PipelineCounters::default();
        let cancel = CancelToken::new();
        let bad = StageRequest {
            pta: None,
            ..req("var = ;", 0, PtaMode::Baseline)
        };
        let e1 = execute(
            &bad,
            "completed",
            false,
            "bad",
            &cache,
            &counters,
            &cancel,
            &|_| {},
        );
        let status = e1.report.get("status").and_then(Value::as_str).unwrap();
        assert!(status.starts_with("syntax error:"), "got {status}");
        assert!(!e1.cached.parse);
        // Second request hits the cached (negative) parse artifact.
        let e2 = execute(
            &bad,
            "completed",
            false,
            "bad",
            &cache,
            &counters,
            &cancel,
            &|_| {},
        );
        assert!(e2.cached.parse);
        assert_eq!(
            serde_json::to_string(&e1.report).unwrap(),
            serde_json::to_string(&e2.report).unwrap()
        );
        assert_eq!(counters.parses.load(Ordering::Relaxed), 1);
    }
}
