//! The content-addressed pipeline: stage keys, stage artifacts, and the
//! cold-path execution that fills them.
//!
//! A request names source text plus analysis parameters; the pipeline
//! splits it into three stages, each keyed by a digest of *everything*
//! that determines its output and nothing else:
//!
//! * **parse** — `H(LOWERING_VERSION ∥ src)`. Parsing and lowering are
//!   deterministic (pinned by the workspace's golden byte-identity
//!   tests), so the key of the *inputs* is a faithful content address of
//!   the lowered program too; the artifact records only the parse
//!   outcome (shape counts, or the syntax error — errors are
//!   deterministic and cache just as well as successes).
//! * **facts** — `H("facts" ∥ parse-key ∥ effective-config-json ∥
//!   seeds…)`. The seed fan-out of the dynamic determinacy analysis,
//!   combined in seed order; the artifact carries the full sorted fact
//!   export plus the portable [`InjectablePairs`]. Runs whose outcome
//!   depended on wall-clock (deadline stops) or external cancellation
//!   are **never cached** — their bytes are not a function of the key.
//! * **summary** (shortcut mode only) — `H("shortcut" ∥ facts-key)`.
//!   The concrete-replay region summaries; the replay consumes exactly
//!   the facts stage's inputs, so the key chains the facts key alone.
//!   Computed only when a request asks for shortcut mode — requests
//!   without it carry the exact key set of earlier service versions.
//! * **pta** — `H("pta" ∥ upstream-key ∥ budget ∥ inject [∥ "spec" ∥
//!   depth] [∥ "shortcut" ∥ summary-key])`, where the upstream key is
//!   the facts key when the solve consumes the determinacy facts
//!   (injection, specialization, or shortcut summaries) and the parse
//!   key otherwise (a baseline solve does not depend on the analysis
//!   config, and keying it by the parse stage lets a config change keep
//!   the baseline artifact warm). The spec-depth and shortcut folds are
//!   appended only when requested, so baseline and injecting keys are
//!   unchanged from earlier service versions.
//!
//! Artifacts are plain JSON values: the in-memory `Program`/`FactDb`
//! graphs are `Rc`-threaded and thread-bound, so nothing of them crosses
//! the cache boundary. A deeper stage that misses while its upstream hit
//! *rehydrates* — re-parses the byte-identical source (guaranteed by the
//! parse key) and re-interns the cached pairs — rather than keeping live
//! graphs around.
//!
//! The report row returned to clients is rendered **only from
//! artifacts**, on both the cold and warm paths, which is what makes a
//! warm response byte-identical to the cold run that populated it.

use crate::cache::{Stage, StageCache};
use determinacy::multirun::{export_json, MultiRunOutcome};
use determinacy::{
    injectable_facts, supervised_analyze_dom, AnalysisConfig, AnalysisOutcome, CancelToken,
    DetHarness, InjectablePairs, RunFailure, RunHooks,
};
use mujs_dom::document::DocumentBuilder;
use mujs_dom::events::EventPlan;
use mujs_pta::{PtaConfig, PtaStatus};
use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version stamp folded into every parse key. Lowering is deterministic
/// within one version of the compiler; bump this when a lowering change
/// ships so stale parse-keyed artifacts miss instead of lying.
pub const LOWERING_VERSION: &str = "lower-v1";

/// The document every service analysis runs against. Fixed — *not* the
/// request name — so artifacts are pure functions of their keys: the DOM
/// model reads `document.title`, and letting a client-chosen name leak
/// into the analyzed document would make two same-source requests
/// produce different facts.
const SERVICE_DOC_TITLE: &str = "detserved";

/// One analysis request, reduced to exactly the inputs the pipeline keys
/// by (the client-facing `name` deliberately absent).
#[derive(Debug, Clone)]
pub struct StageRequest {
    /// The JavaScript source.
    pub src: String,
    /// The *effective* analysis configuration — after any admission
    /// degradation, since a degraded memory budget changes the facts.
    pub cfg: AnalysisConfig,
    /// Seeds to fan out over (already defaulted; never empty).
    pub seeds: Vec<u64>,
    /// Pointer-analysis propagation budget; `None` skips the PTA stage.
    pub pta_budget: Option<u64>,
    /// Whether the PTA stage consumes the determinacy facts.
    pub inject: bool,
    /// When set, the PTA stage solves the program *specialized* against
    /// the determinacy facts with this context-depth bound, instead of
    /// the lowered baseline. Changes results, so it is part of the PTA
    /// stage key; mutually exclusive with `inject`
    /// (enforced at the protocol layer).
    pub spec_depth: Option<usize>,
    /// When true, a summary stage replays the determinate regions on the
    /// concrete interpreter and the PTA stage consumes the distilled
    /// shortcut summaries alongside any injected facts. Changes results,
    /// so it is part of the PTA stage key (via the summary key fold);
    /// mutually exclusive with `spec_depth` (summaries name functions of
    /// the *unspecialized* program; enforced at the protocol layer).
    pub shortcuts: bool,
}

/// The content keys of one request's stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKeys {
    /// Parse/lower stage key (doubles as the program content address).
    pub parse: String,
    /// Determinacy-facts stage key.
    pub facts: String,
    /// Shortcut-summary stage key (`None` unless the request asked for
    /// shortcut mode — absent, not empty, so shortcut-less requests keep
    /// their historical key set byte-for-byte).
    pub summary: Option<String>,
    /// Pointer-analysis stage key (`None` when the request skips PTA).
    pub pta: Option<String>,
}

impl StageKeys {
    /// Computes the chained stage keys for a request.
    pub fn compute(req: &StageRequest) -> StageKeys {
        use determinacy::cachekey::KeyHasher;
        let cfg_json = serde_json::to_string(&req.cfg).expect("config serializes");
        let parse = KeyHasher::new()
            .str(LOWERING_VERSION)
            .str(&req.src)
            .finish();
        let mut fh = KeyHasher::new().str("facts").str(&parse).str(&cfg_json);
        for &seed in &req.seeds {
            fh = fh.u64(seed);
        }
        let facts = fh.finish();
        // The summary stage consumes exactly the facts stage's inputs
        // (region selection reads the fact graphs; the replay re-runs the
        // byte-identical source), so its key chains the facts key alone.
        // Computed only in shortcut mode — there is no "shortcuts off"
        // fold anywhere, which is what keeps every pre-shortcut key
        // byte-identical when the flag is absent.
        let summary = (req.shortcuts && req.pta_budget.is_some())
            .then(|| KeyHasher::new().str("shortcut").str(&facts).finish());
        let pta = req.pta_budget.map(|budget| {
            // Specialization and shortcut summaries consume the
            // determinacy facts (like injection does), so those solves
            // chain the facts key; the depth/shortcut folds are appended
            // only when set, keeping depth-less shortcut-less keys
            // byte-identical to earlier service versions.
            let upstream = if req.inject || req.spec_depth.is_some() || req.shortcuts {
                &facts
            } else {
                &parse
            };
            let mut h = KeyHasher::new()
                .str("pta")
                .str(upstream)
                .u64(budget)
                .u64(u64::from(req.inject));
            if let Some(depth) = req.spec_depth {
                h = h.str("spec").u64(depth as u64);
            }
            if let Some(skey) = &summary {
                h = h.str("shortcut").str(skey);
            }
            h.finish()
        });
        StageKeys {
            parse,
            facts,
            summary,
            pta,
        }
    }

    /// The keys as a JSON object (embedded in report rows so clients can
    /// correlate and pre-warm).
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("parse".to_owned(), Value::Str(self.parse.clone())),
            ("facts".to_owned(), Value::Str(self.facts.clone())),
        ];
        // Present only in shortcut mode, so shortcut-less report rows
        // keep their historical bytes.
        if let Some(k) = &self.summary {
            fields.push(("summary".to_owned(), Value::Str(k.clone())));
        }
        fields.push((
            "pta".to_owned(),
            match &self.pta {
                Some(k) => Value::Str(k.clone()),
                None => Value::Null,
            },
        ));
        Value::Object(fields)
    }
}

/// Monotone cold-work counters. The service's central guarantee — a warm
/// request recomputes *nothing* — is asserted against these: a fully
/// warm request must leave every one of them unchanged (in particular
/// `pta_propagations`).
#[derive(Debug, Default)]
pub struct PipelineCounters {
    /// Sources parsed + lowered (including rehydration re-parses).
    pub parses: AtomicU64,
    /// Supervised per-seed analysis runs executed.
    pub analyses: AtomicU64,
    /// Concrete shortcut-summary replays executed.
    pub summary_replays: AtomicU64,
    /// Pointer-analysis solves executed.
    pub pta_solves: AtomicU64,
    /// Points-to propagations performed across all solves.
    pub pta_propagations: AtomicU64,
}

impl PipelineCounters {
    /// A deterministic JSON snapshot.
    pub fn to_value(&self) -> Value {
        let num = |a: &AtomicU64| Value::Num(a.load(Ordering::Relaxed) as f64);
        Value::Object(vec![
            ("parses".to_owned(), num(&self.parses)),
            ("analyses".to_owned(), num(&self.analyses)),
            ("summary_replays".to_owned(), num(&self.summary_replays)),
            ("pta_solves".to_owned(), num(&self.pta_solves)),
            ("pta_propagations".to_owned(), num(&self.pta_propagations)),
        ])
    }
}

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
    /// entry appears only in shortcut mode, so shortcut-less frames keep
    /// their historical bytes.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("parse".to_owned(), Value::Bool(self.parse)),
            ("facts".to_owned(), Value::Bool(self.facts)),
        ];
        if let Some(b) = self.summary {
            fields.push(("summary".to_owned(), Value::Bool(b)));
        }
        fields.push((
            "pta".to_owned(),
            match self.pta {
                Some(b) => Value::Bool(b),
                None => Value::Null,
            },
        ));
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

/// Drives one request through parse → facts → pta, consulting `cache` at
/// every stage boundary and filling it on misses. `status_label` is the
/// batch-level status the caller determined ("completed" or "degraded" —
/// admission is the caller's concern); `cancel` threads the service's
/// cancellation into the supervised runs; `notify` receives
/// human-readable progress lines.
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
    // The live program, when this request happened to build one. Lazy:
    // a fully warm request never parses.
    let mut harness: Option<DetHarness> = None;
    // The live seed fan-out outcome, when the facts stage ran cold in
    // this request. A spec-PTA stage specializes against it; the facts
    // *artifact* cannot carry it (the FactDb/ContextTable graphs are
    // Rc-threaded and never cross the cache boundary).
    let mut live_multi: Option<MultiRunOutcome> = None;

    // --- parse ---
    let parse_art = match cache.get(Stage::Parse, &keys.parse) {
        Some(v) => {
            cached.parse = true;
            v
        }
        None => {
            notify("parsing");
            let art = match build_harness(req, counters) {
                Ok(h) => {
                    let art = parse_artifact_ok(&h);
                    harness = Some(h);
                    art
                }
                Err(e) => parse_artifact_err(&e),
            };
            cache.put(Stage::Parse, &keys.parse, art)
        }
    };
    if parse_art.get("ok") != Some(&Value::Bool(true)) {
        let error = parse_art
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unknown parse failure");
        let report = render_report(
            name,
            &format!("syntax error: {error}"),
            None,
            None,
            None,
            include_facts,
            &keys,
        );
        return Executed {
            report,
            cached,
            keys,
        };
    }

    // --- facts ---
    let facts_art = match cache.get(Stage::Facts, &keys.facts) {
        Some(v) => {
            cached.facts = true;
            v
        }
        None => {
            notify("running determinacy analysis");
            let h = match ensure_harness(&mut harness, req, counters) {
                Ok(h) => h,
                Err(e) => {
                    // Unreachable after a successful parse artifact, but a
                    // poisoned cache must degrade to an error, not a panic.
                    let report = render_report(
                        name,
                        &format!("syntax error: {e}"),
                        None,
                        None,
                        None,
                        include_facts,
                        &keys,
                    );
                    return Executed {
                        report,
                        cached,
                        keys,
                    };
                }
            };
            let (art, multi) = run_facts_stage(req, h, counters, cancel, notify);
            live_multi = Some(multi);
            // Only artifacts whose bytes are a pure function of the key are
            // cacheable: a deadline stop or external cancellation reflects
            // wall-clock, not content.
            if art.get("clean") == Some(&Value::Bool(true)) {
                cache.put(Stage::Facts, &keys.facts, art)
            } else {
                Arc::new(art)
            }
        }
    };

    // --- summary (shortcut mode only) ---
    let is_clean = |a: &Value| a.get("clean") == Some(&Value::Bool(true));
    // Whether the summary artifact's bytes are a pure function of its
    // key; a cached hit is clean by construction (only clean artifacts
    // are ever cached).
    let mut summary_clean = true;
    let summary_art = match &keys.summary {
        None => None,
        Some(skey) => match cache.get(Stage::Summary, skey) {
            Some(v) => {
                cached.summary = Some(true);
                Some(v)
            }
            None => {
                cached.summary = Some(false);
                match ensure_harness(&mut harness, req, counters) {
                    Ok(h) => {
                        // The summarizer needs the live fact graphs. If
                        // the facts stage was warm they no longer exist,
                        // so the fan-out reruns here (same discipline as
                        // the spec-PTA path: counted cold work, but the
                        // artifact stays a pure function of its key).
                        let (multi, clean) = match live_multi.take() {
                            Some(m) => (m, is_clean(&facts_art)),
                            None => {
                                notify("re-running determinacy analysis for summaries");
                                let (a, m) = run_facts_stage(req, h, counters, cancel, notify);
                                let clean = is_clean(&a);
                                (m, clean)
                            }
                        };
                        notify("replaying determinate regions");
                        let art = run_summary_stage(req, &multi, h, counters);
                        summary_clean = clean;
                        if clean {
                            Some(cache.put(Stage::Summary, skey, art))
                        } else {
                            Some(Arc::new(art))
                        }
                    }
                    Err(e) => {
                        summary_clean = false;
                        Some(Arc::new(Value::Object(vec![(
                            "error".to_owned(),
                            Value::Str(e.to_string()),
                        )])))
                    }
                }
            }
        },
    };

    // --- pta ---
    let pta_art = match &keys.pta {
        None => None,
        Some(pkey) => match cache.get(Stage::Pta, pkey) {
            Some(v) => {
                cached.pta = Some(true);
                Some(v)
            }
            None => {
                notify("solving pointer analysis");
                cached.pta = Some(false);
                match ensure_harness(&mut harness, req, counters) {
                    Ok(h) => {
                        let (art, clean) = if let Some(depth) = req.spec_depth {
                            // Specialization needs the live fact graphs.
                            // If the facts stage was warm they no longer
                            // exist, so the fan-out reruns here — counted
                            // cold work, but the artifact stays a pure
                            // function of its key (the rerun is the same
                            // deterministic computation the facts key
                            // already addresses).
                            let (multi, clean) = match live_multi.take() {
                                Some(m) => (m, is_clean(&facts_art)),
                                None => {
                                    notify("re-running determinacy analysis for specialization");
                                    let (a, m) = run_facts_stage(req, h, counters, cancel, notify);
                                    let clean = is_clean(&a);
                                    (m, clean)
                                }
                            };
                            (run_spec_pta_stage(req, depth, multi, h, counters), clean)
                        } else {
                            // An injecting or shortcut solve inherits its
                            // upstream artifacts' purity; a baseline
                            // solve is always pure.
                            let clean = (!req.inject || is_clean(&facts_art)) && summary_clean;
                            (
                                run_pta_stage(req, &facts_art, summary_art.as_deref(), h, counters),
                                clean,
                            )
                        };
                        if clean {
                            Some(cache.put(Stage::Pta, pkey, art))
                        } else {
                            Some(Arc::new(art))
                        }
                    }
                    Err(e) => Some(Arc::new(Value::Object(vec![(
                        "error".to_owned(),
                        Value::Str(e.to_string()),
                    )]))),
                }
            }
        },
    };

    let report = render_report(
        name,
        status_label,
        Some(&facts_art),
        summary_art.as_deref(),
        pta_art.as_deref(),
        include_facts,
        &keys,
    );
    Executed {
        report,
        cached,
        keys,
    }
}

fn build_harness(
    req: &StageRequest,
    counters: &PipelineCounters,
) -> Result<DetHarness, mujs_syntax::SyntaxError> {
    counters.parses.fetch_add(1, Ordering::Relaxed);
    DetHarness::from_src(&req.src)
}

fn ensure_harness<'a>(
    harness: &'a mut Option<DetHarness>,
    req: &StageRequest,
    counters: &PipelineCounters,
) -> Result<&'a mut DetHarness, mujs_syntax::SyntaxError> {
    if harness.is_none() {
        *harness = Some(build_harness(req, counters)?);
    }
    Ok(harness.as_mut().expect("just filled"))
}

fn parse_artifact_ok(h: &DetHarness) -> Value {
    let num = |n: usize| Value::Num(n as f64);
    Value::Object(vec![
        ("ok".to_owned(), Value::Bool(true)),
        ("funcs".to_owned(), num(h.program.funcs.len())),
    ])
}

fn parse_artifact_err(e: &mujs_syntax::SyntaxError) -> Value {
    Value::Object(vec![
        ("ok".to_owned(), Value::Bool(false)),
        ("error".to_owned(), Value::Str(e.to_string())),
    ])
}

/// Runs the seed fan-out and distills the combined outcome into the facts
/// artifact, returning the live outcome alongside (a spec-PTA stage in
/// the same request specializes against it). Mirrors the `detjobs` batch
/// row fields so clients see one report dialect across both tools.
fn run_facts_stage(
    req: &StageRequest,
    harness: &mut DetHarness,
    counters: &PipelineCounters,
    cancel: &CancelToken,
    notify: &dyn Fn(&str),
) -> (Value, MultiRunOutcome) {
    let doc = DocumentBuilder::new().title(SERVICE_DOC_TITLE).build();
    let plan = EventPlan::new();
    let hooks = RunHooks::with_cancel(cancel.clone());
    let n = req.seeds.len();
    let results: Vec<Result<AnalysisOutcome, RunFailure>> = req
        .seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            if cancel.is_cancelled() {
                return Err(RunFailure::Cancelled { seed });
            }
            counters.analyses.fetch_add(1, Ordering::Relaxed);
            let cfg = AnalysisConfig {
                seed,
                ..req.cfg.clone()
            };
            let r = supervised_analyze_dom(harness, cfg, doc.clone(), &plan, &hooks);
            notify(&format!("seed {}/{n} done", i + 1));
            r
        })
        .collect();
    let multi = MultiRunOutcome::combine(results, req.cfg.max_facts);

    let num = |n: u64| Value::Num(n as f64);
    let run_statuses: Vec<Value> = multi
        .runs
        .iter()
        .map(|r| Value::Str(format!("{:?}", r.status)))
        .collect();
    // Wall-clock-dependent or externally-cancelled outcomes poison
    // cacheability (see module docs).
    let impure = multi.runs.iter().any(|r| {
        matches!(
            r.status,
            determinacy::AnalysisStatus::Deadline | determinacy::AnalysisStatus::Cancelled
        )
    });
    let clean = multi.failures.is_empty() && !impure;
    let failures: Vec<Value> = multi
        .failures
        .iter()
        .map(|f| {
            Value::Object(vec![
                ("kind".to_owned(), Value::Str(f.kind().to_owned())),
                ("seed".to_owned(), num(f.seed())),
                ("message".to_owned(), Value::Str(f.to_string())),
            ])
        })
        .collect();
    let fact_rows: Value = serde_json::from_str(&export_json(
        &multi.facts,
        &harness.program,
        &harness.source,
        &multi.ctxs,
    ))
    .expect("fact export re-parses");
    let injected = injectable_facts(&multi.facts, &mut harness.program);
    let pairs = InjectablePairs::from_facts(&injected, &harness.program);

    let art = Value::Object(vec![
        ("clean".to_owned(), Value::Bool(clean)),
        (
            "seeds".to_owned(),
            Value::Array(req.seeds.iter().map(|&s| num(s)).collect()),
        ),
        ("run_statuses".to_owned(), Value::Array(run_statuses)),
        ("failures".to_owned(), Value::Array(failures)),
        ("facts".to_owned(), num(multi.facts.len() as u64)),
        (
            "determinate".to_owned(),
            num(multi.facts.det_count() as u64),
        ),
        ("conflicts".to_owned(), num(multi.conflicts)),
        ("fact_rows".to_owned(), fact_rows),
        ("pairs".to_owned(), pairs_to_value(&pairs)),
    ]);
    (art, multi)
}

fn pairs_to_value(pairs: &InjectablePairs) -> Value {
    Value::Object(vec![
        (
            "prop_keys".to_owned(),
            Value::Array(
                pairs
                    .prop_keys
                    .iter()
                    .map(|(site, key)| {
                        Value::Array(vec![Value::Num(f64::from(*site)), Value::Str(key.clone())])
                    })
                    .collect(),
            ),
        ),
        (
            "callees".to_owned(),
            Value::Array(
                pairs
                    .callees
                    .iter()
                    .map(|(site, func)| {
                        Value::Array(vec![
                            Value::Num(f64::from(*site)),
                            Value::Num(f64::from(*func)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn pairs_from_value(v: &Value) -> InjectablePairs {
    let tuples = |field: &str| -> Vec<(u32, Value)> {
        v.get(field)
            .and_then(Value::as_array)
            .map(|rows| {
                rows.iter()
                    .filter_map(|row| {
                        let row = row.as_array()?;
                        let site = row.first()?.as_f64()? as u32;
                        Some((site, row.get(1)?.clone()))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    InjectablePairs {
        prop_keys: tuples("prop_keys")
            .into_iter()
            .filter_map(|(site, v)| Some((site, v.as_str()?.to_owned())))
            .collect(),
        callees: tuples("callees")
            .into_iter()
            .filter_map(|(site, v)| Some((site, v.as_f64()? as u32)))
            .collect(),
    }
}

/// Replays the determinate regions on the concrete interpreter and
/// distills the portable shortcut summaries into the summary artifact.
/// The replay is deterministic (panic-isolated, step-budgeted, no wall
/// clock), so the artifact is a pure function of the facts inputs its
/// key chains.
fn run_summary_stage(
    req: &StageRequest,
    multi: &MultiRunOutcome,
    harness: &mut DetHarness,
    counters: &PipelineCounters,
) -> Value {
    let doc = DocumentBuilder::new().title(SERVICE_DOC_TITLE).build();
    let plan = EventPlan::new();
    // The replay seed is immaterial for determinate regions (that is
    // what determinacy means), but pin the fan-out's first seed so the
    // stage is a closed function of its key inputs.
    let cfg = AnalysisConfig {
        seed: req.seeds.first().copied().unwrap_or_default(),
        ..req.cfg.clone()
    };
    counters.summary_replays.fetch_add(1, Ordering::Relaxed);
    let out = determinacy::shortcut_summaries(
        &req.src,
        &doc,
        &plan,
        &cfg,
        &multi.facts,
        &mut harness.program,
    );
    let portable = determinacy::PortableSummaries::from_summaries(&out.summaries, &harness.program);
    let num = |n: usize| Value::Num(n as f64);
    Value::Object(vec![
        ("candidates".to_owned(), num(out.candidates)),
        ("regions".to_owned(), num(portable.len())),
        ("tuples".to_owned(), num(portable.tuple_count())),
        ("degraded".to_owned(), Value::Bool(out.degraded)),
        ("summaries".to_owned(), portable.to_value()),
    ])
}

/// Solves pointer analysis over the (already-parsed) program, optionally
/// rehydrating the cached injectable pairs and shortcut summaries into
/// solver inputs.
fn run_pta_stage(
    req: &StageRequest,
    facts_art: &Value,
    summary_art: Option<&Value>,
    harness: &mut DetHarness,
    counters: &PipelineCounters,
) -> Value {
    let budget = req.pta_budget.expect("pta stage only runs when requested");
    let facts = if req.inject {
        let pairs = facts_art
            .get("pairs")
            .map(pairs_from_value)
            .unwrap_or_default();
        Some(pairs.into_facts(&mut harness.program))
    } else {
        None
    };
    let injected_count = facts.as_ref().map_or(0, mujs_pta::InjectedFacts::len);
    // A degraded or malformed summary artifact decodes to no regions:
    // the solver then analyzes every region ordinarily, which is the
    // sound fallback by construction.
    let shortcuts = summary_art
        .and_then(|a| a.get("summaries"))
        .and_then(determinacy::PortableSummaries::from_value)
        .map(|p| Arc::new(p.into_summaries(&mut harness.program)));
    let cfg = PtaConfig {
        budget,
        facts,
        shortcuts,
        ..PtaConfig::default()
    };
    counters.pta_solves.fetch_add(1, Ordering::Relaxed);
    let result = mujs_pta::solve(&harness.program, &cfg);
    counters
        .pta_propagations
        .fetch_add(result.stats.propagations, Ordering::Relaxed);
    pta_artifact(
        &result,
        &harness.program,
        budget,
        req.inject,
        injected_count,
        None,
        req.shortcuts,
    )
}

/// Specializes the program against the live fact graphs (context depth
/// bound `depth`) and solves pointer analysis over the residual program.
fn run_spec_pta_stage(
    req: &StageRequest,
    depth: usize,
    mut multi: MultiRunOutcome,
    harness: &mut DetHarness,
    counters: &PipelineCounters,
) -> Value {
    let budget = req.pta_budget.expect("pta stage only runs when requested");
    let spec_cfg = mujs_specialize::SpecConfig {
        max_context_depth: depth,
        ..Default::default()
    };
    let s = mujs_specialize::specialize(&harness.program, &multi.facts, &mut multi.ctxs, &spec_cfg);
    let cfg = PtaConfig {
        budget,
        ..PtaConfig::default()
    };
    counters.pta_solves.fetch_add(1, Ordering::Relaxed);
    let result = mujs_pta::solve(&s.program, &cfg);
    counters
        .pta_propagations
        .fetch_add(result.stats.propagations, Ordering::Relaxed);
    pta_artifact(&result, &s.program, budget, false, 0, Some(depth), false)
}

/// Renders the PTA artifact shared by the baseline/injecting and the
/// specializing stage bodies. The `spec_depth` and shortcut fields
/// appear only when set, so depth-less shortcut-less artifacts keep
/// their historical bytes.
#[allow(clippy::too_many_arguments)]
fn pta_artifact(
    result: &mujs_pta::PtaResult,
    program: &mujs_ir::Program,
    budget: u64,
    inject: bool,
    injected_count: usize,
    spec_depth: Option<usize>,
    shortcuts: bool,
) -> Value {
    let p = result.precision(program);
    let num = |n: f64| Value::Num(n);
    let mut fields = vec![
        (
            "status".to_owned(),
            Value::Str(
                match result.status {
                    PtaStatus::Completed => "completed",
                    PtaStatus::BudgetExceeded => "budget exceeded",
                }
                .to_owned(),
            ),
        ),
        ("budget".to_owned(), num(budget as f64)),
        ("inject".to_owned(), Value::Bool(inject)),
        ("injected".to_owned(), num(injected_count as f64)),
        (
            "propagations".to_owned(),
            num(result.stats.propagations as f64),
        ),
        ("call_sites".to_owned(), num(p.call_sites as f64)),
        ("poly_sites".to_owned(), num(p.poly_sites as f64)),
        ("avg_targets".to_owned(), num(p.avg_targets)),
        ("avg_points_to".to_owned(), num(p.avg_points_to)),
        ("max_points_to".to_owned(), num(p.max_points_to as f64)),
        ("reachable_funcs".to_owned(), num(p.reachable_funcs as f64)),
    ];
    if let Some(depth) = spec_depth {
        fields.push(("spec_depth".to_owned(), num(depth as f64)));
    }
    if shortcuts {
        fields.push((
            "shortcut_regions".to_owned(),
            num(result.stats.shortcut_regions as f64),
        ));
        fields.push((
            "shortcut_tuples".to_owned(),
            num(result.stats.shortcut_tuples as f64),
        ));
    }
    Value::Object(fields)
}

/// Renders the client-facing report row from artifacts alone. Cold and
/// warm paths both come through here with byte-equal artifacts, which is
/// what makes their responses byte-identical.
#[allow(clippy::too_many_arguments)]
fn render_report(
    name: &str,
    status: &str,
    facts_art: Option<&Value>,
    summary_art: Option<&Value>,
    pta_art: Option<&Value>,
    include_facts: bool,
    keys: &StageKeys,
) -> Value {
    let pick = |field: &str, empty: Value| -> Value {
        facts_art
            .and_then(|a| a.get(field))
            .cloned()
            .unwrap_or(empty)
    };
    let fact_rows = if include_facts {
        pick("fact_rows", Value::Null)
    } else {
        Value::Null
    };
    let mut fields = vec![
        ("name".to_owned(), Value::Str(name.to_owned())),
        ("status".to_owned(), Value::Str(status.to_owned())),
        ("seeds".to_owned(), pick("seeds", Value::Array(Vec::new()))),
        (
            "run_statuses".to_owned(),
            pick("run_statuses", Value::Array(Vec::new())),
        ),
        (
            "failures".to_owned(),
            pick("failures", Value::Array(Vec::new())),
        ),
        ("facts".to_owned(), pick("facts", Value::Num(0.0))),
        (
            "determinate".to_owned(),
            pick("determinate", Value::Num(0.0)),
        ),
        ("conflicts".to_owned(), pick("conflicts", Value::Num(0.0))),
        ("fact_rows".to_owned(), fact_rows),
    ];
    // Shortcut mode surfaces the summary counts (but not the — possibly
    // large — summary tuples themselves); absent otherwise, keeping
    // shortcut-less rows byte-identical to earlier service versions.
    if let Some(s) = summary_art {
        let count = |field: &str| s.get(field).cloned().unwrap_or(Value::Num(0.0));
        fields.push((
            "summary".to_owned(),
            Value::Object(vec![
                ("candidates".to_owned(), count("candidates")),
                ("regions".to_owned(), count("regions")),
                ("tuples".to_owned(), count("tuples")),
                (
                    "degraded".to_owned(),
                    s.get("degraded").cloned().unwrap_or(Value::Bool(false)),
                ),
            ]),
        ));
    }
    fields.push(("pta".to_owned(), pta_art.cloned().unwrap_or(Value::Null)));
    fields.push(("stage_keys".to_owned(), keys.to_value()));
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(src: &str) -> StageRequest {
        StageRequest {
            src: src.to_owned(),
            cfg: AnalysisConfig::default(),
            seeds: vec![AnalysisConfig::default().seed],
            pta_budget: None,
            inject: false,
            spec_depth: None,
            shortcuts: false,
        }
    }

    #[test]
    fn keys_chain_upstream_stages() {
        let base = req("var x = 1;");
        let k = StageKeys::compute(&base);
        // Source change moves every key.
        let k2 = StageKeys::compute(&req("var x = 2;"));
        assert_ne!(k.parse, k2.parse);
        assert_ne!(k.facts, k2.facts);
        // Config change moves facts but not parse.
        let mut cfg_change = base.clone();
        cfg_change.cfg.max_facts = 123;
        let k3 = StageKeys::compute(&cfg_change);
        assert_eq!(k.parse, k3.parse);
        assert_ne!(k.facts, k3.facts);
        // Seed change moves facts.
        let mut seed_change = base.clone();
        seed_change.seeds = vec![99];
        assert_ne!(k.facts, StageKeys::compute(&seed_change).facts);
    }

    #[test]
    fn baseline_pta_key_survives_config_changes() {
        let mut a = req("f();");
        a.pta_budget = Some(1000);
        let mut b = a.clone();
        b.cfg.max_facts = 123;
        let (ka, kb) = (StageKeys::compute(&a), StageKeys::compute(&b));
        assert_eq!(ka.pta, kb.pta, "baseline solve ignores analysis config");
        // Injecting solves chain the facts key, so the config matters.
        let mut ia = a.clone();
        ia.inject = true;
        let mut ib = b.clone();
        ib.inject = true;
        assert_ne!(StageKeys::compute(&ia).pta, StageKeys::compute(&ib).pta);
        assert_ne!(StageKeys::compute(&ia).pta, ka.pta);
        // Budget changes always matter.
        let mut bud = a.clone();
        bud.pta_budget = Some(2000);
        assert_ne!(StageKeys::compute(&bud).pta, ka.pta);
    }

    #[test]
    fn spec_depth_chains_the_facts_key_and_moves_the_pta_key() {
        let mut base = req("f();");
        base.pta_budget = Some(1000);
        let kb = StageKeys::compute(&base);
        let mut spec = base.clone();
        spec.spec_depth = Some(4);
        let ks = StageKeys::compute(&spec);
        // The depth fold moves the PTA key but no upstream key.
        assert_eq!(kb.parse, ks.parse);
        assert_eq!(kb.facts, ks.facts);
        assert_ne!(kb.pta, ks.pta);
        // Different depths are different artifacts.
        let mut deeper = spec.clone();
        deeper.spec_depth = Some(5);
        assert_ne!(ks.pta, StageKeys::compute(&deeper).pta);
        // A specialized solve consumes the facts, so (unlike the
        // baseline) a config change must move its key.
        let mut cfg_change = spec.clone();
        cfg_change.cfg.max_facts = 123;
        assert_ne!(ks.pta, StageKeys::compute(&cfg_change).pta);
    }

    #[test]
    fn spec_pta_requests_execute_and_cache() {
        let cache = StageCache::new(crate::cache::CacheConfig::default());
        let counters = PipelineCounters::default();
        let cancel = CancelToken::new();
        let mut r = req("function f(o) { return o.p; } f({ p: 1 });");
        r.pta_budget = Some(100_000);
        r.spec_depth = Some(2);
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
    fn shortcutless_keys_match_the_pre_shortcut_scheme() {
        use determinacy::cachekey::KeyHasher;
        // A literal replica of the keying scheme as it stood before the
        // shortcut layer landed. Any byte drift for shortcut-less
        // requests would cold-start every deployed cache, so the scheme
        // is pinned here independently of `StageKeys::compute`.
        let legacy = |r: &StageRequest| {
            let cfg_json = serde_json::to_string(&r.cfg).unwrap();
            let parse = KeyHasher::new().str(LOWERING_VERSION).str(&r.src).finish();
            let mut fh = KeyHasher::new().str("facts").str(&parse).str(&cfg_json);
            for &s in &r.seeds {
                fh = fh.u64(s);
            }
            let facts = fh.finish();
            let pta = r.pta_budget.map(|b| {
                let upstream = if r.inject || r.spec_depth.is_some() {
                    &facts
                } else {
                    &parse
                };
                let mut h = KeyHasher::new()
                    .str("pta")
                    .str(upstream)
                    .u64(b)
                    .u64(u64::from(r.inject));
                if let Some(d) = r.spec_depth {
                    h = h.str("spec").u64(d as u64);
                }
                h.finish()
            });
            (parse, facts, pta)
        };
        let mut baseline = req("f();");
        baseline.pta_budget = Some(1000);
        let mut inject = baseline.clone();
        inject.inject = true;
        let mut spec = baseline.clone();
        spec.spec_depth = Some(3);
        let facts_only = req("f();");
        for r in [&baseline, &inject, &spec, &facts_only] {
            let k = StageKeys::compute(r);
            let (parse, facts, pta) = legacy(r);
            assert_eq!(k.parse, parse);
            assert_eq!(k.facts, facts);
            assert_eq!(k.pta, pta);
            assert_eq!(k.summary, None, "no summary key without shortcut mode");
        }
    }

    #[test]
    fn shortcut_mode_adds_a_summary_key_and_moves_only_the_pta_key() {
        use determinacy::cachekey::KeyHasher;
        let mut base = req("f();");
        base.pta_budget = Some(1000);
        base.inject = true;
        let kb = StageKeys::compute(&base);
        assert!(kb.summary.is_none());
        let mut sc = base.clone();
        sc.shortcuts = true;
        let ks = StageKeys::compute(&sc);
        assert_eq!(kb.parse, ks.parse);
        assert_eq!(kb.facts, ks.facts);
        assert_ne!(kb.pta, ks.pta, "summaries change the solve's inputs");
        let skey = ks.summary.clone().expect("shortcut mode has a summary key");
        assert_eq!(
            skey,
            KeyHasher::new().str("shortcut").str(&ks.facts).finish(),
            "summary key chains the facts key alone"
        );
        // Shortcut mode makes even a non-injecting solve consume the
        // facts, so its pta key must move with the analysis config.
        let mut pure = sc.clone();
        pure.inject = false;
        let kp = StageKeys::compute(&pure);
        let mut pure_cfg = pure.clone();
        pure_cfg.cfg.max_facts = 123;
        assert_ne!(kp.pta, StageKeys::compute(&pure_cfg).pta);
        // No PTA stage, nothing to shortcut: no summary key either.
        let mut no_pta = sc.clone();
        no_pta.pta_budget = None;
        assert!(StageKeys::compute(&no_pta).summary.is_none());
        // The report's stage_keys object grows a `summary` entry only in
        // shortcut mode; shortcut-less rows keep their historical bytes.
        assert!(kb.to_value().get("summary").is_none());
        assert_eq!(ks.to_value().get("summary"), Some(&Value::Str(skey)));
    }

    #[test]
    fn shortcut_requests_execute_and_cache() {
        let cache = StageCache::new(crate::cache::CacheConfig::default());
        let counters = PipelineCounters::default();
        let cancel = CancelToken::new();
        let mut r = req("function mk(v) { var o = {}; o.x = v; return o; }\n\
                         var a = mk({}); var b = mk({});");
        r.pta_budget = Some(100_000);
        r.inject = true;
        r.shortcuts = true;
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
    fn pairs_round_trip_through_json() {
        let pairs = InjectablePairs {
            prop_keys: vec![(3, "length".to_owned()), (9, "f".to_owned())],
            callees: vec![(4, 1), (7, 0)],
        };
        let back = pairs_from_value(&pairs_to_value(&pairs));
        assert_eq!(pairs, back);
        assert_eq!(pairs_from_value(&Value::Null), InjectablePairs::default());
    }

    #[test]
    fn syntax_errors_are_reported_and_cached() {
        let cache = StageCache::new(crate::cache::CacheConfig::default());
        let counters = PipelineCounters::default();
        let cancel = CancelToken::new();
        let bad = req("var = ;");
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
