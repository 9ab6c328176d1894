//! The analysis pipeline every front end runs: one canonical request, one
//! content-key scheme, and one body per stage.
//!
//! `detjobs` runs a [`Pipeline`] live inside a worker; `detserved` runs
//! the same stage bodies behind its stage cache; the `mujs-bench`
//! experiment binaries run it live over corpus pages, several PTA stages
//! per fan-out, and the `analyze` CLI over its own page. So every tool
//! runs the same stage code, and the same seed fan-out
//! ([`analyze_many_hooked`]).
//!
//! A request ([`StageRequest`]) is source text, the *effective*
//! [`AnalysisConfig`], the seed fan-out, the [`Page`] to analyze against
//! (`None` is [`Page::service`]) and an optional PTA stage ([`PtaStage`]).
//! It splits into up to four stages, each keyed by a digest of everything
//! that determines its output and nothing else. Every key folds
//! [`KEY_SCHEME`], the stage name, the upstream key and the stage's full
//! canonical config, always in that order:
//!
//! ```text
//! parse   = H(KEY_SCHEME ∥ "parse" ∥ src)
//! facts   = H(KEY_SCHEME ∥ "facts" ∥ parse ∥ config-json ∥ #seeds ∥ seeds… [∥ page])
//! summary = H(KEY_SCHEME ∥ "summary" ∥ facts)              (inject+shortcuts only)
//! pta     = H(KEY_SCHEME ∥ "pta" ∥ upstream ∥ budget ∥ mode ∥ depth)
//! ```
//!
//! The service page folds nothing, so service requests keep their keys;
//! any other page folds its full content, so two different pages never
//! share a facts key. The PTA upstream is the artifact the mode consumes:
//! the parse key for a baseline solve (it ignores the analysis config and
//! the page, so a change to either keeps it warm), the facts key for
//! injection and specialization, and the summary key (which chains the
//! facts key) in shortcut mode. The `detjobs` checkpoint key
//! ([`crate::checkpoint::job_key`]) is these keys plus the batch memory
//! budget.
//!
//! Runs whose outcome depended on wall-clock (deadline stops) or external
//! cancellation are *impure*: their bytes are not a function of the key,
//! so artifacts record it (`clean`) and a cache must not keep them.

use determinacy::cachekey::KeyHasher;
use determinacy::multirun::{analyze_many_hooked, export_value, MultiRunOutcome};
use determinacy::{
    injectable_facts, AnalysisConfig, AnalysisStatus, CancelToken, DetHarness, InjectablePairs,
    PortableSummaries, RunHooks,
};
use mujs_dom::document::{Document, DocumentBuilder, NodeId};
use mujs_dom::events::{EventPlan, EventTargetSel};
use mujs_ir::Program;
use mujs_pta::{InjectedFacts, PtaConfig, PtaStatus};
use mujs_specialize::{SpecConfig, Specialized};
use mujs_syntax::SyntaxError;
use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version of the content-key scheme, folded first into every stage key
/// and, through them, every checkpoint key. Bump it whenever lowering, a
/// stage body, an artifact layout or the fold itself changes, so stale
/// cache entries and checkpoint rows miss instead of lying. The pinned
/// digest tests below fail on any change to the fold that leaves this
/// constant alone.
pub const KEY_SCHEME: &str = "detkeys-v2";

/// The title of the service page's document, which every request without
/// a page of its own analyzes against. Fixed, *not* the job or request
/// name, so results are pure functions of their keys: the DOM model reads
/// `document.title`, and a name leaking into the analyzed document would
/// make two same-source jobs produce different facts.
pub const SERVICE_DOC_TITLE: &str = "detserved";

/// How a PTA stage consumes the determinacy facts (paper §5, plus the
/// dynamic-shortcut mode of *Accelerating JavaScript Static Analysis via
/// Dynamic Shortcuts*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtaMode {
    /// Solve the lowered program without the facts.
    Baseline,
    /// Inject the determinate property keys and callees into the solve.
    Inject,
    /// Inject, and replace determinate regions by concrete-replay
    /// shortcut summaries.
    InjectShortcuts,
    /// Solve the program specialized against the facts, with this
    /// context-depth bound.
    Spec(usize),
}

impl PtaMode {
    /// Whether the solve consumes injected facts.
    pub fn injects(self) -> bool {
        matches!(self, PtaMode::Inject | PtaMode::InjectShortcuts)
    }

    /// The mode's canonical name and specializer depth (0 outside
    /// specialization): the mode's part of the PTA key.
    fn canonical(self) -> (&'static str, u64) {
        match self {
            PtaMode::Baseline => ("baseline", 0),
            PtaMode::Inject => ("inject", 0),
            PtaMode::InjectShortcuts => ("inject+shortcuts", 0),
            PtaMode::Spec(depth) => ("spec", depth as u64),
        }
    }
}

/// An optional pipeline stage: one budgeted points-to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtaStage {
    /// Propagation budget.
    pub budget: u64,
    /// How the solve consumes the determinacy facts.
    pub mode: PtaMode,
}

/// The page a program runs in: the document the DOM model exposes and the
/// events dispatched after `load`.
#[derive(Debug, Clone)]
pub struct Page {
    /// The document.
    pub doc: Document,
    /// The post-load event sequence.
    pub plan: EventPlan,
}

impl Page {
    /// The service page: a fixed document titled [`SERVICE_DOC_TITLE`] and
    /// no events after `load`.
    pub fn service() -> Page {
        Page {
            doc: DocumentBuilder::new().title(SERVICE_DOC_TITLE).build(),
            plan: EventPlan::new(),
        }
    }

    /// Folds the page's full content into `h`: the title, every node in
    /// creation order (tag, text, parent, whether the id index resolves
    /// its id to it, sorted attributes, children), then every event step.
    /// The root, head and body need no fold: `Document::new` fixes them.
    fn fold(&self, h: KeyHasher) -> KeyHasher {
        let doc = &self.doc;
        let mut h = h.str(&doc.title).u64(doc.node_count() as u64);
        for n in (0..doc.node_count() as u32).map(NodeId) {
            let node = doc.node(n);
            let mut attrs: Vec<_> = node.attrs.iter().collect();
            attrs.sort();
            let indexed = node.attrs.get("id").and_then(|v| doc.get_element_by_id(v)) == Some(n);
            h = h.str(&node.tag).str(&node.text);
            h = h.opt_u64(node.parent.map(|p| p.0.into()));
            h = h.u64(indexed.into()).u64(attrs.len() as u64);
            for (k, v) in attrs {
                h = h.str(k).str(v);
            }
            h = h.u64(node.children.len() as u64);
            for c in &node.children {
                h = h.u64(c.0.into());
            }
        }
        h = h.u64(self.plan.steps().len() as u64);
        for step in self.plan.steps() {
            h = match &step.target {
                EventTargetSel::Window => h.str("window"),
                EventTargetSel::Document => h.str("document"),
                EventTargetSel::ById(el) => h.str("id").str(el),
            };
            h = h.str(&step.event_type);
        }
        h
    }
}

/// One analysis request, reduced to exactly the inputs the pipeline keys
/// by (the job or request name deliberately absent).
#[derive(Debug, Clone)]
pub struct StageRequest {
    /// The JavaScript source.
    pub src: String,
    /// The *effective* analysis configuration: after any admission
    /// degradation, since a degraded memory budget changes the facts.
    pub cfg: AnalysisConfig,
    /// Seeds to fan out over (already defaulted; never empty).
    pub seeds: Vec<u64>,
    /// The page to analyze against; `None` is [`Page::service`], carried
    /// as nothing so a request served from cache builds no document.
    pub page: Option<Page>,
    /// The PTA stage; `None` skips it.
    pub pta: Option<PtaStage>,
}

/// The content keys of one request's stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKeys {
    /// Parse/lower stage key (doubles as the program content address).
    pub parse: String,
    /// Determinacy-facts stage key.
    pub facts: String,
    /// Shortcut-summary stage key (`None` unless the PTA stage runs in
    /// shortcut mode, the only consumer of summaries).
    pub summary: Option<String>,
    /// Pointer-analysis stage key (`None` when the request skips PTA).
    pub pta: Option<String>,
}

pub(crate) fn stage_hasher(stage: &str, upstream: &str) -> KeyHasher {
    KeyHasher::new().str(KEY_SCHEME).str(stage).str(upstream)
}

impl StageKeys {
    /// Computes the chained stage keys for a request (see the module docs
    /// for the scheme).
    pub fn compute(req: &StageRequest) -> StageKeys {
        let cfg_json = serde_json::to_string(&req.cfg).expect("config serializes");
        let parse = stage_hasher("parse", &req.src).finish();
        let facts = req.seeds.iter().fold(
            stage_hasher("facts", &parse)
                .str(&cfg_json)
                .u64(req.seeds.len() as u64),
            |h, &seed| h.u64(seed),
        );
        let facts = match &req.page {
            Some(page) => page.fold(facts.str("page")),
            None => facts,
        }
        .finish();
        let summary = req
            .pta
            .filter(|s| s.mode == PtaMode::InjectShortcuts)
            .map(|_| stage_hasher("summary", &facts).finish());
        let pta = req.pta.map(|stage| {
            let upstream = match stage.mode {
                PtaMode::Baseline => &parse,
                PtaMode::Inject | PtaMode::Spec(_) => &facts,
                PtaMode::InjectShortcuts => summary.as_ref().expect("shortcut mode has a summary"),
            };
            let (mode, depth) = stage.mode.canonical();
            stage_hasher("pta", upstream)
                .u64(stage.budget)
                .str(mode)
                .u64(depth)
                .finish()
        });
        StageKeys {
            parse,
            facts,
            summary,
            pta,
        }
    }

    /// The keys as a JSON object (embedded in service report rows so
    /// clients can correlate and pre-warm). `summary` appears only when
    /// the request has that stage.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("parse".to_owned(), Value::Str(self.parse.clone())),
            ("facts".to_owned(), Value::Str(self.facts.clone())),
        ];
        if let Some(k) = &self.summary {
            fields.push(("summary".to_owned(), Value::Str(k.clone())));
        }
        fields.push((
            "pta".to_owned(),
            self.pta.clone().map_or(Value::Null, Value::Str),
        ));
        Value::Object(fields)
    }
}

/// Monotone cold-work counters. A cache's central guarantee (a warm
/// request recomputes *nothing*) is asserted against these: a fully warm
/// request must leave every one of them unchanged.
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

/// Whether an artifact's bytes are a pure function of its key (its
/// `clean` flag; absent counts as impure).
pub fn is_clean(artifact: Option<&Value>) -> bool {
    artifact.and_then(|a| a.get("clean")) == Some(&Value::Bool(true))
}

/// Whether a fan-out outcome is pure: no per-seed failure, and no run
/// stopped by a deadline or an external cancellation.
fn fan_out_is_clean(multi: &MultiRunOutcome) -> bool {
    multi.failures.is_empty()
        && !multi.runs.iter().any(|r| {
            matches!(
                r.status,
                AnalysisStatus::Deadline | AnalysisStatus::Cancelled
            )
        })
}

/// The facts part of a report row, from a live fan-out outcome: `seeds`,
/// `run_statuses`, `failures`, the fact counts and (with `include_facts`)
/// the sorted fact export as `fact_rows`.
pub fn facts_fields(
    seeds: &[u64],
    multi: &MultiRunOutcome,
    program: &mujs_ir::Program,
    source: &mujs_syntax::SourceFile,
    include_facts: bool,
) -> Vec<(String, Value)> {
    let num = |n: u64| Value::Num(n as f64);
    let failures = multi
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
    let fact_rows = if include_facts {
        export_value(&multi.facts, program, source, &multi.ctxs)
    } else {
        Value::Null
    };
    vec![
        (
            "seeds".to_owned(),
            Value::Array(seeds.iter().map(|&s| num(s)).collect()),
        ),
        (
            "run_statuses".to_owned(),
            Value::Array(
                multi
                    .runs
                    .iter()
                    .map(|r| Value::Str(format!("{:?}", r.status)))
                    .collect(),
            ),
        ),
        ("failures".to_owned(), Value::Array(failures)),
        ("facts".to_owned(), num(multi.facts.len() as u64)),
        (
            "determinate".to_owned(),
            num(multi.facts.det_count() as u64),
        ),
        ("conflicts".to_owned(), num(multi.conflicts)),
        ("fact_rows".to_owned(), fact_rows),
    ]
}

/// The facts fields of a report row, in row order.
const FACT_FIELDS: [&str; 7] = [
    "seeds",
    "run_statuses",
    "failures",
    "facts",
    "determinate",
    "conflicts",
    "fact_rows",
];

/// Renders one report row: name and status, the facts fields picked from
/// `facts` (an object carrying [`facts_fields`]; empty defaults when
/// absent, and `fact_rows` null unless `include_facts`), then `tail`.
pub fn render_row(
    name: &str,
    status: &str,
    facts: Option<&Value>,
    include_facts: bool,
    tail: Vec<(String, Value)>,
) -> Value {
    let mut fields = vec![
        ("name".to_owned(), Value::Str(name.to_owned())),
        ("status".to_owned(), Value::Str(status.to_owned())),
    ];
    for field in FACT_FIELDS {
        let picked = facts
            .and_then(|a| a.get(field))
            .filter(|_| include_facts || field != "fact_rows");
        let value = match (picked, field) {
            (Some(v), _) => v.clone(),
            (None, "seeds" | "run_statuses" | "failures") => Value::Array(Vec::new()),
            (None, "fact_rows") => Value::Null,
            (None, _) => Value::Num(0.0),
        };
        fields.push((field.to_owned(), value));
    }
    fields.extend(tail);
    Value::Object(fields)
}

/// The summary counts a report row shows for a summary artifact (not the
/// possibly large summary tuples themselves).
pub fn summary_row(summary: &Value) -> Value {
    let count = |field: &str| summary.get(field).cloned().unwrap_or(Value::Num(0.0));
    Value::Object(vec![
        ("candidates".to_owned(), count("candidates")),
        ("regions".to_owned(), count("regions")),
        ("tuples".to_owned(), count("tuples")),
        (
            "degraded".to_owned(),
            summary
                .get("degraded")
                .cloned()
                .unwrap_or(Value::Bool(false)),
        ),
    ])
}

/// One request's cold path: the stage bodies over lazily built live state
/// (the lowered program, and the seed fan-out outcome while this process
/// holds it). A cache in front of the stages only decides which bodies
/// run; whichever run, their artifacts are byte-identical.
pub struct Pipeline<'a> {
    req: &'a StageRequest,
    cancel: &'a CancelToken,
    counters: &'a PipelineCounters,
    notify: &'a dyn Fn(&str),
    harness: Option<DetHarness>,
    live: Option<MultiRunOutcome>,
}

impl<'a> Pipeline<'a> {
    /// A pipeline for `req` that threads `cancel` into every supervised
    /// run, counts its cold work in `counters` and reports progress
    /// through `notify`. Nothing runs until a stage asks.
    pub fn new(
        req: &'a StageRequest,
        cancel: &'a CancelToken,
        counters: &'a PipelineCounters,
        notify: &'a dyn Fn(&str),
    ) -> Self {
        Pipeline {
            req,
            cancel,
            counters,
            notify,
            harness: None,
            live: None,
        }
    }

    /// The lowered program, parsing on first use.
    fn harness(&mut self) -> Result<&mut DetHarness, SyntaxError> {
        if self.harness.is_none() {
            self.counters.parses.fetch_add(1, Ordering::Relaxed);
            self.harness = Some(DetHarness::from_src(&self.req.src)?);
        }
        Ok(self.harness.as_mut().expect("just filled"))
    }

    /// The parse artifact: the program's shape, or the syntax error
    /// (errors are deterministic and cache as well as successes).
    pub fn parse(&mut self) -> Value {
        match self.harness() {
            Ok(h) => Value::Object(vec![
                ("ok".to_owned(), Value::Bool(true)),
                ("funcs".to_owned(), Value::Num(h.program.funcs.len() as f64)),
            ]),
            Err(e) => Value::Object(vec![
                ("ok".to_owned(), Value::Bool(false)),
                ("error".to_owned(), Value::Str(e.to_string())),
            ]),
        }
    }

    /// The program and the live fan-out outcome. The fan-out
    /// ([`analyze_many_hooked`] on the request's page, under this
    /// pipeline's cancel token) runs the first time something needs the
    /// live fact graphs, including when a cache served the facts stage:
    /// cached artifacts never carry the graphs, so the same
    /// deterministic computation the facts key addresses re-runs.
    ///
    /// # Errors
    ///
    /// The source's syntax error.
    pub fn live(&mut self) -> Result<(&mut DetHarness, &mut MultiRunOutcome), SyntaxError> {
        self.harness()?;
        if self.live.is_none() {
            (self.notify)("running determinacy analysis");
            let page = self.req.page.clone().unwrap_or_else(Page::service);
            let harness = self.harness.as_mut().expect("built above");
            self.live = Some(analyze_many_hooked(
                harness,
                &self.req.seeds,
                self.req.cfg.clone(),
                Some(&page.doc),
                &page.plan,
                &RunHooks::with_cancel(self.cancel.clone()),
                &|i, n| {
                    self.counters.analyses.fetch_add(1, Ordering::Relaxed);
                    (self.notify)(&format!("seed {i}/{n} done"));
                },
            ));
        }
        let harness = self.harness.as_mut().expect("built above");
        Ok((harness, self.live.as_mut().expect("just filled")))
    }

    /// Hands back the program and the fan-out outcome, if either was
    /// built.
    pub fn into_live(self) -> (Option<DetHarness>, Option<MultiRunOutcome>) {
        (self.harness, self.live)
    }

    /// The facts artifact: the facts fields with the full fact export,
    /// the portable injectable pairs, and `clean`.
    ///
    /// # Errors
    ///
    /// The source's syntax error.
    pub fn facts(&mut self) -> Result<Value, SyntaxError> {
        let req = self.req;
        let (h, multi) = self.live()?;
        let mut fields = vec![("clean".to_owned(), Value::Bool(fan_out_is_clean(multi)))];
        fields.extend(facts_fields(&req.seeds, multi, &h.program, &h.source, true));
        let injected = injectable_facts(&multi.facts, &mut h.program);
        let pairs = InjectablePairs::from_facts(&injected, &h.program);
        fields.push(("pairs".to_owned(), pairs_to_value(&pairs)));
        Ok(Value::Object(fields))
    }

    /// The injectable facts of a `facts` artifact, interned into the
    /// program.
    ///
    /// # Errors
    ///
    /// The source's syntax error.
    pub fn injected(&mut self, facts: Option<&Value>) -> Result<InjectedFacts, SyntaxError> {
        let pairs = facts.and_then(|a| a.get("pairs"));
        let program = &mut self.harness()?.program;
        Ok(pairs
            .map(pairs_from_value)
            .unwrap_or_default()
            .into_facts(program))
    }

    /// The summary artifact: replays the determinate regions on the
    /// concrete interpreter and distills portable shortcut summaries. The
    /// replay is deterministic (panic-isolated, step-budgeted, no wall
    /// clock), so the artifact is as clean as the fan-out it reads.
    ///
    /// # Errors
    ///
    /// The source's syntax error.
    pub fn summary(&mut self) -> Result<Value, SyntaxError> {
        let req = self.req;
        let counters = self.counters;
        let notify = self.notify;
        let page = req.page.clone().unwrap_or_else(Page::service);
        let (h, multi) = self.live()?;
        notify("replaying determinate regions");
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
            &page.doc,
            &page.plan,
            &cfg,
            &multi.facts,
            &mut h.program,
        );
        let portable = PortableSummaries::from_summaries(&out.summaries, &h.program);
        let num = |n: usize| Value::Num(n as f64);
        Ok(Value::Object(vec![
            ("clean".to_owned(), Value::Bool(fan_out_is_clean(multi))),
            ("candidates".to_owned(), num(out.candidates)),
            ("regions".to_owned(), num(portable.len())),
            ("tuples".to_owned(), num(portable.tuple_count())),
            ("degraded".to_owned(), Value::Bool(out.degraded)),
            ("summaries".to_owned(), portable.to_value()),
        ]))
    }

    /// One PTA stage: solves per `stage`'s [`PtaMode`] and renders the
    /// PTA row, which has the same fields in every mode. Injection reads
    /// the `pairs` of the `facts` artifact, shortcut mode the `summary`
    /// artifact (a degraded or malformed one decodes to no regions, so
    /// the solver analyzes every region ordinarily, the sound fallback),
    /// and specialization the live fact graphs. Returns the row and
    /// whether it is pure: a solve inherits the purity of what it
    /// consumed.
    ///
    /// # Errors
    ///
    /// The source's syntax error.
    pub fn pta(
        &mut self,
        stage: PtaStage,
        facts: Option<&Value>,
        summary: Option<&Value>,
    ) -> Result<(Value, bool), SyntaxError> {
        let counters = self.counters;
        let mut spec = None;
        let (facts_in, shortcuts, pure) = match stage.mode {
            PtaMode::Spec(depth) => {
                let notify = self.notify;
                let (h, multi) = self.live()?;
                notify(&format!("specializing at depth {depth}"));
                spec = Some(specialize(&h.program, multi, depth));
                (None, None, fan_out_is_clean(multi))
            }
            mode => {
                let facts_in = mode.injects().then(|| self.injected(facts)).transpose()?;
                let program = &mut self.harness()?.program;
                let shortcuts = summary
                    .filter(|_| mode == PtaMode::InjectShortcuts)
                    .and_then(|a| a.get("summaries"))
                    .and_then(PortableSummaries::from_value)
                    .map(|p| Arc::new(p.into_summaries(program)));
                let pure = match mode {
                    PtaMode::Baseline => true,
                    PtaMode::Inject => is_clean(facts),
                    _ => is_clean(facts) && is_clean(summary),
                };
                (facts_in, shortcuts, pure)
            }
        };
        let program = match &spec {
            Some(spec) => &spec.program,
            None => &self.harness.as_ref().expect("parsed above").program,
        };
        (self.notify)("solving pointer analysis");
        let injected = facts_in.as_ref().map_or(0, InjectedFacts::len);
        let cfg = PtaConfig {
            budget: stage.budget,
            facts: facts_in,
            shortcuts,
            ..PtaConfig::default()
        };
        counters.pta_solves.fetch_add(1, Ordering::Relaxed);
        let result = mujs_pta::solve(program, &cfg);
        counters
            .pta_propagations
            .fetch_add(result.stats.propagations, Ordering::Relaxed);
        Ok((pta_row(&result, program, stage, injected), pure))
    }
}

/// The one specialization step: specializes `program` against a fan-out's
/// facts at context depth `depth`, every other specializer setting at its
/// default. The `Spec` PTA mode, `eval_elim` and the `analyze` CLI's
/// `--spec` run it.
pub fn specialize(program: &Program, multi: &mut MultiRunOutcome, depth: usize) -> Specialized {
    let cfg = SpecConfig {
        max_context_depth: depth,
        ..SpecConfig::default()
    };
    mujs_specialize::specialize(program, &multi.facts, &mut multi.ctxs, &cfg)
}

/// The PTA row. Every mode renders every field: `spec_depth` is null
/// outside specialization, and the shortcut counts are 0 outside shortcut
/// mode.
fn pta_row(
    result: &mujs_pta::PtaResult,
    program: &mujs_ir::Program,
    stage: PtaStage,
    injected: usize,
) -> Value {
    let p = result.precision(program);
    let num = |n: f64| Value::Num(n);
    let status = match result.status {
        PtaStatus::Completed => "completed",
        PtaStatus::BudgetExceeded => "budget exceeded",
    };
    let spec_depth = match stage.mode {
        PtaMode::Spec(depth) => num(depth as f64),
        _ => Value::Null,
    };
    Value::Object(vec![
        ("status".to_owned(), Value::Str(status.to_owned())),
        ("budget".to_owned(), num(stage.budget as f64)),
        ("inject".to_owned(), Value::Bool(stage.mode.injects())),
        ("injected".to_owned(), num(injected as f64)),
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
        ("spec_depth".to_owned(), spec_depth),
        (
            "shortcut_regions".to_owned(),
            num(result.stats.shortcut_regions as f64),
        ),
        (
            "shortcut_tuples".to_owned(),
            num(result.stats.shortcut_tuples as f64),
        ),
    ])
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::job_key;

    fn req(src: &str) -> StageRequest {
        StageRequest {
            src: src.to_owned(),
            cfg: AnalysisConfig::default(),
            seeds: vec![AnalysisConfig::default().seed],
            page: None,
            pta: None,
        }
    }

    fn with_pta(src: &str, budget: u64, mode: PtaMode) -> StageRequest {
        StageRequest {
            pta: Some(PtaStage { budget, mode }),
            ..req(src)
        }
    }

    const MODES: [PtaMode; 4] = [
        PtaMode::Baseline,
        PtaMode::Inject,
        PtaMode::InjectShortcuts,
        PtaMode::Spec(3),
    ];

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
        // No PTA stage: no PTA or summary key.
        assert_eq!((k.summary, k.pta), (None, None));
    }

    #[test]
    fn baseline_pta_key_survives_config_changes() {
        let a = with_pta("f();", 1000, PtaMode::Baseline);
        let mut b = a.clone();
        b.cfg.max_facts = 123;
        let (ka, kb) = (StageKeys::compute(&a), StageKeys::compute(&b));
        assert_eq!(ka.pta, kb.pta, "baseline solve ignores analysis config");
        // Every other mode consumes the facts, so the config matters.
        for mode in &MODES[1..] {
            let (mut ma, mut mb) = (a.clone(), b.clone());
            ma.pta = Some(PtaStage {
                budget: 1000,
                mode: *mode,
            });
            mb.pta = ma.pta;
            let km = StageKeys::compute(&ma);
            assert_ne!(km.pta, StageKeys::compute(&mb).pta, "{mode:?}");
            assert_ne!(km.pta, ka.pta, "{mode:?}");
        }
        // Budget changes always matter.
        let bud = with_pta("f();", 2000, PtaMode::Baseline);
        assert_ne!(StageKeys::compute(&bud).pta, ka.pta);
    }

    #[test]
    fn modes_move_only_the_pta_key_and_add_a_summary_only_for_shortcuts() {
        let none = StageKeys::compute(&req("f();"));
        let mut pta_keys = Vec::new();
        for mode in MODES {
            let k = StageKeys::compute(&with_pta("f();", 1000, mode));
            assert_eq!((&k.parse, &k.facts), (&none.parse, &none.facts), "{mode:?}");
            assert_eq!(
                k.summary.is_some(),
                mode == PtaMode::InjectShortcuts,
                "{mode:?}"
            );
            assert_eq!(
                k.to_value().get("summary").is_some(),
                k.summary.is_some(),
                "the report's stage_keys carry the summary key exactly when it exists"
            );
            pta_keys.push(k.pta.expect("a PTA stage has a key"));
        }
        pta_keys.sort();
        pta_keys.dedup();
        assert_eq!(pta_keys.len(), MODES.len(), "every mode has its own key");
        // Different depths are different artifacts.
        assert_ne!(
            StageKeys::compute(&with_pta("f();", 1000, PtaMode::Spec(3))).pta,
            StageKeys::compute(&with_pta("f();", 1000, PtaMode::Spec(4))).pta
        );
    }

    /// The exact keys of one fixed request in every PTA mode, and its
    /// checkpoint keys. Any change to the fold must also bump
    /// [`KEY_SCHEME`] (and then these digests), so persisted cache entries
    /// and checkpoint rows written under the old fold miss instead of
    /// being misread.
    #[test]
    fn stage_and_job_keys_are_pinned() {
        let src = "var o = {}; o[document.title] = 1;";
        let facts_only = StageKeys::compute(&req(src));
        assert_eq!(facts_only.parse, "a439ca858392f636");
        assert_eq!(facts_only.facts, "8b274683ee5527ed");
        let pinned = [
            (PtaMode::Baseline, None, "56714ea09c825894"),
            (PtaMode::Inject, None, "7b18dee654e8a77d"),
            (
                PtaMode::InjectShortcuts,
                Some("60cb1d09b8bd5554"),
                "e1a64c9372e3d201",
            ),
            (PtaMode::Spec(3), None, "bce2bb9bb6c5dbba"),
        ];
        for (mode, summary, pta) in pinned {
            let k = StageKeys::compute(&with_pta(src, 150_000, mode));
            assert_eq!(k.parse, facts_only.parse, "{mode:?}");
            assert_eq!(k.facts, facts_only.facts, "{mode:?}");
            assert_eq!(k.summary.as_deref(), summary, "{mode:?}");
            assert_eq!(k.pta.as_deref(), Some(pta), "{mode:?}");
        }
        assert_eq!(job_key(&facts_only, None), "56f6d877c963e817");
        let spec = StageKeys::compute(&with_pta(src, 150_000, PtaMode::Spec(3)));
        assert_eq!(job_key(&spec, Some(100_000)), "b1e9a9fb5658b1c9");
    }

    #[test]
    fn a_page_moves_the_facts_key_but_not_the_parse_or_baseline_pta_key() {
        let v = mujs_corpus::jquery_like::v1_0();
        let service = with_pta(&v.src, 150_000, PtaMode::Baseline);
        let on_page = |doc: Document, plan: EventPlan| StageRequest {
            page: Some(Page { doc, plan }),
            ..service.clone()
        };
        let ks = StageKeys::compute(&service);
        let kc = StageKeys::compute(&on_page(v.doc.clone(), v.plan.clone()));
        assert_eq!(kc.parse, ks.parse);
        assert_ne!(kc.facts, ks.facts);
        assert_eq!(kc.pta, ks.pta, "a baseline solve ignores the page");
        // Every mode that consumes the facts follows them.
        for mode in &MODES[1..] {
            let mut a = service.clone();
            a.pta = Some(PtaStage {
                budget: 150_000,
                mode: *mode,
            });
            let b = StageRequest {
                page: Some(Page {
                    doc: v.doc.clone(),
                    plan: v.plan.clone(),
                }),
                ..a.clone()
            };
            assert_ne!(
                StageKeys::compute(&a).pta,
                StageKeys::compute(&b).pta,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn different_pages_never_share_a_facts_key() {
        let v = mujs_corpus::jquery_like::v1_0();
        let base = req("var t = document.title;");
        let mut titled = v.doc.clone();
        titled.title.push('!');
        let mut attr = v.doc.clone();
        let body = attr.body();
        attr.set_attribute(body, "class", "x");
        let mut detached = v.doc.clone();
        detached.create_element("div");
        let pages = [
            Page::service(),
            Page {
                doc: v.doc.clone(),
                plan: v.plan.clone(),
            },
            Page {
                doc: v.doc.clone(),
                plan: v.plan.clone().click("more"),
            },
            Page {
                doc: v.doc.clone(),
                plan: v.plan.clone().event(EventTargetSel::Document, "more"),
            },
            Page {
                doc: v.doc.clone(),
                plan: EventPlan::new().event(EventTargetSel::Window, "resize"),
            },
            Page {
                doc: v.doc.clone(),
                plan: EventPlan::new().event(EventTargetSel::ById("window".into()), "resize"),
            },
            Page {
                doc: titled,
                plan: v.plan.clone(),
            },
            Page {
                doc: attr,
                plan: v.plan.clone(),
            },
            Page {
                doc: detached,
                plan: v.plan.clone(),
            },
        ];
        let mut keys: Vec<String> = pages
            .into_iter()
            .map(|page| {
                StageKeys::compute(&StageRequest {
                    page: Some(page),
                    ..base.clone()
                })
                .facts
            })
            .collect();
        keys.push(StageKeys::compute(&base).facts);
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "every page has its own facts key");
    }

    #[test]
    fn the_fan_out_runs_on_the_requested_page() {
        let title = |page: Option<Page>| {
            let mut r = StageRequest {
                page,
                ..req("var t = document.title;")
            };
            r.cfg.det_dom = true;
            let (cancel, counters) = (CancelToken::new(), PipelineCounters::default());
            let mut p = Pipeline::new(&r, &cancel, &counters, &|_| {});
            let facts = p.facts().expect("parses");
            serde_json::to_string(facts.get("fact_rows").expect("facts export")).unwrap()
        };
        let service = title(None);
        assert!(service.contains(SERVICE_DOC_TITLE), "{service}");
        assert_eq!(title(Some(Page::service())), service);
        let page = Page {
            doc: DocumentBuilder::new().title("corpus page").build(),
            plan: EventPlan::new(),
        };
        assert!(title(Some(page)).contains("corpus page"));
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
}
