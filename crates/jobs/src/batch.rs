//! Running manifests through the pool, and the deterministic batch
//! report.
//!
//! Each job runs entirely inside one worker thread: parse + lower (on the
//! worker's big stack), one supervised analysis run per seed with the
//! batch [`CancelToken`][determinacy::CancelToken] threaded into the run
//! hooks, per-seed combination via [`MultiRunOutcome::combine`] in seed
//! order. The finished graph (program, source, combined outcome)
//! transfers back through the pool's ordered result slots, so
//! [`BatchOutcome::jobs`] is always in manifest order and
//! [`BatchOutcome::report_json`] is **byte-identical for any worker
//! count**.
//!
//! [`run_manifest_with`] layers the campaign-robustness machinery on top
//! without disturbing that invariant:
//!
//! * transient run failures (engine panics, injected allocation faults)
//!   are classified [`Disposition::Retry`] and rerun under the batch
//!   [`RetryPolicy`]; deterministic stops (deadline, memory budget,
//!   syntax errors) are final;
//! * jobs with a wall-clock deadline arm the pool watchdog at
//!   `deadline_ms + grace`, so a job whose cooperative deadline
//!   enforcement fails resolves as [`JobStatus::Wedged`] instead of
//!   wedging a worker forever;
//! * settled rows stream into an atomic [`Checkpoint`] keyed by job
//!   content, and a resumed batch splices those rows back **byte for
//!   byte** while scheduling only the remainder;
//! * a batch-wide declared-memory budget admits oversized jobs at reduced
//!   budget ([`JobStatus::Degraded`]) instead of failing them.
//!
//! Attempt counters deliberately live on [`JobRecord`] and in
//! [`BatchOutcome::stats_json`], **not** in the canonical report: a batch
//! that retried its way to success must produce the same report bytes as
//! one that succeeded immediately.

use crate::admission::{Admission, AdmissionController};
use crate::checkpoint::{job_key, Checkpoint};
use crate::pool::{IsolatedGraph, JobCtx, JobEvent, JobPool, JobVerdict};
use crate::retry::{Disposition, RetryPolicy};
use crate::spec::{JobSpec, Manifest};
use determinacy::multirun::{export_json, MultiRunOutcome};
use determinacy::{
    supervised_analyze_dom, AnalysisConfig, AnalysisOutcome, DetHarness, RunFailure, RunHooks,
};
use mujs_dom::document::{Document, DocumentBuilder};
use mujs_dom::events::EventPlan;
use serde_json::Value;
use std::path::PathBuf;
use std::sync::Mutex;

/// Everything a completed job hands back: the combined multi-run outcome
/// plus the program/source needed to render or export its facts.
#[derive(Debug)]
pub struct JobOutcome {
    /// The seeds the job fanned out over, in fan-out (= combination)
    /// order.
    pub seeds: Vec<u64>,
    /// The per-seed runs combined in seed order.
    pub multi: MultiRunOutcome,
    /// The lowered program (for fact rendering/export).
    pub program: mujs_ir::Program,
    /// The source file (for fact rendering/export).
    pub source: mujs_syntax::SourceFile,
    /// The rendered PTA row, when the batch ran its opt-in PTA stage.
    /// `None` (the default) leaves the report bytes exactly as a
    /// PTA-less batch produces them.
    pub pta: Option<Value>,
}

impl JobOutcome {
    /// The job's combined facts as the canonical sorted JSON export.
    pub fn export_facts_json(&self) -> String {
        export_json(
            &self.multi.facts,
            &self.program,
            &self.source,
            &self.multi.ctxs,
        )
    }
}

/// How a job resolved at the batch level.
#[derive(Debug)]
pub enum JobStatus {
    /// The job ran; its runs may still record per-seed stops (deadline,
    /// mem limit, mid-flight cancellation) in the outcome.
    Completed,
    /// The job ran to completion, but under a reduced memory budget
    /// granted by the admission controller (its declared `mem_cells`
    /// exceeded the batch-wide budget).
    Degraded,
    /// Batch cancellation struck before the job started.
    Cancelled,
    /// The source did not parse.
    Syntax(String),
    /// The job panicked outside any supervised run (on every attempt the
    /// retry policy allowed).
    Panicked(String),
    /// The job exceeded its watchdog budget — cooperative deadline
    /// enforcement demonstrably failed — and was cancelled by the
    /// monitor.
    Wedged,
}

/// One manifest entry's result.
#[derive(Debug)]
pub struct JobRecord {
    /// Manifest index.
    pub index: usize,
    /// Job name.
    pub name: String,
    /// How the job resolved.
    pub status: JobStatus,
    /// The outcome, when the job ran to completion in this process.
    pub outcome: Option<JobOutcome>,
    /// Attempts the pool used (0 for jobs restored from a checkpoint or
    /// cancelled before they started).
    pub attempts: u32,
    /// The pre-rendered report row, when the job was restored from a
    /// checkpoint instead of executed.
    pub restored: Option<Value>,
}

/// Campaign-level options for [`run_manifest_with`].
#[derive(Debug, Default)]
pub struct BatchOptions {
    /// Retry budget and backoff for transient failures.
    pub retry: RetryPolicy,
    /// When set, every job with a wall-clock deadline arms the pool
    /// watchdog at `deadline_ms + grace`: exceeding it marks the job
    /// [`JobStatus::Wedged`]. `None` disables the watchdog.
    pub watchdog_grace_ms: Option<u64>,
    /// When set, settled rows are checkpointed here (atomically, via
    /// temp-file + rename) as the batch runs.
    pub checkpoint_path: Option<PathBuf>,
    /// Flush the checkpoint every this many settled rows (clamped to at
    /// least 1; the default 0 means 1 — every row).
    pub checkpoint_every: u64,
    /// Rows restored from a previous run: manifest jobs whose content key
    /// matches are spliced from here and not executed.
    pub resume: Option<Checkpoint>,
    /// Batch-wide declared-memory budget (heap cells) for the admission
    /// controller; `None` disables admission control.
    pub mem_budget_cells: Option<u64>,
    /// When set, every completed job additionally runs a budgeted
    /// baseline pointer-analysis solve over its lowered program and the
    /// report row gains a `pta` object. `None` (the default) skips the
    /// stage entirely and leaves report bytes unchanged.
    pub pta_budget: Option<u64>,
    /// When set (and a PTA stage runs), each job's program is specialized
    /// first — against its own combined dynamic facts, with this
    /// context-depth bound — and the PTA solves the *specialized*
    /// program. This changes results, so it is part
    /// of the job key and the `pta` row records it. Ignored without
    /// [`BatchOptions::pta_budget`].
    pub spec_depth: Option<usize>,
    /// Deterministic scheduler chaos (checkpoint truncation); the pool
    /// carries its own copy for kills and event faults.
    #[cfg(feature = "fault-inject")]
    pub chaos: Option<std::sync::Arc<crate::chaos::SchedulerFaultPlan>>,
}

/// The aggregated batch result, in manifest order.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One record per manifest job.
    pub jobs: Vec<JobRecord>,
}

impl BatchOutcome {
    /// Number of jobs that ran to a completed (or degraded, or restored)
    /// record.
    pub fn completed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.status, JobStatus::Completed | JobStatus::Degraded))
            .count()
    }

    /// Whether any job failed outright (syntax error, unsupervised panic,
    /// wedge) or recorded per-run failures. Cancelled jobs are not
    /// failures.
    pub fn has_failures(&self) -> bool {
        self.jobs.iter().any(|j| {
            matches!(
                j.status,
                JobStatus::Syntax(_) | JobStatus::Panicked(_) | JobStatus::Wedged
            ) || j
                .outcome
                .as_ref()
                .is_some_and(|o| !o.multi.failures.is_empty())
                || j.restored.as_ref().is_some_and(|r| {
                    r.get("failures")
                        .and_then(Value::as_array)
                        .is_some_and(|a| !a.is_empty())
                })
        })
    }

    /// The batch report as pretty JSON, in manifest order. Contains no
    /// timing, worker, or attempt information, so the bytes depend only
    /// on the manifest and the analysis semantics — not on scheduling,
    /// retries, or resume splicing. With `include_facts` each completed
    /// job embeds its full sorted fact export.
    pub fn report_json(&self, include_facts: bool) -> String {
        let rows = self
            .jobs
            .iter()
            .map(|j| match &j.restored {
                Some(row) => {
                    // Restored rows were rendered (with facts) by the run
                    // that completed them; re-anchor the name to this
                    // manifest and honor this report's facts flag.
                    let mut row = row.clone();
                    set_field(&mut row, "name", Value::Str(j.name.clone()));
                    if !include_facts {
                        set_field(&mut row, "fact_rows", Value::Null);
                    }
                    row
                }
                None => render_row(&j.name, &j.status, j.outcome.as_ref(), include_facts),
            })
            .collect();
        let report = Value::Object(vec![("jobs".to_owned(), Value::Array(rows))]);
        serde_json::to_string_pretty(&report).expect("report serializes")
    }

    /// Campaign-robustness counters as pretty JSON. Kept **out** of the
    /// canonical report on purpose: attempts and restore counts vary
    /// across fault schedules and resumes while the report bytes must
    /// not.
    pub fn stats_json(&self) -> String {
        let mut degraded = 0u64;
        let mut restored = 0u64;
        let mut retried = 0u64;
        let mut total_attempts = 0u64;
        let mut panicked = 0u64;
        let mut wedged = 0u64;
        let mut cancelled = 0u64;
        let mut syntax = 0u64;
        let mut run_failures = 0u64;
        for j in &self.jobs {
            match j.status {
                JobStatus::Degraded => degraded += 1,
                JobStatus::Panicked(_) => panicked += 1,
                JobStatus::Wedged => wedged += 1,
                JobStatus::Cancelled => cancelled += 1,
                JobStatus::Syntax(_) => syntax += 1,
                JobStatus::Completed => {}
            }
            if j.restored.is_some() {
                restored += 1;
            }
            if j.attempts > 1 {
                retried += 1;
            }
            total_attempts += u64::from(j.attempts);
            if let Some(o) = &j.outcome {
                run_failures += o.multi.failures.len() as u64;
            }
        }
        let num = |n: u64| Value::Num(n as f64);
        let stats = Value::Object(vec![
            ("jobs".to_owned(), num(self.jobs.len() as u64)),
            ("completed".to_owned(), num(self.completed() as u64)),
            ("degraded".to_owned(), num(degraded)),
            ("restored".to_owned(), num(restored)),
            ("retried_jobs".to_owned(), num(retried)),
            ("total_attempts".to_owned(), num(total_attempts)),
            ("panicked".to_owned(), num(panicked)),
            ("wedged".to_owned(), num(wedged)),
            ("cancelled".to_owned(), num(cancelled)),
            ("syntax_errors".to_owned(), num(syntax)),
            ("run_failures".to_owned(), num(run_failures)),
        ]);
        serde_json::to_string_pretty(&stats).expect("stats serialize")
    }
}

/// The report's status string for a record.
fn status_str(status: &JobStatus) -> String {
    match status {
        JobStatus::Completed => "completed".to_owned(),
        JobStatus::Degraded => "degraded".to_owned(),
        JobStatus::Cancelled => "cancelled".to_owned(),
        JobStatus::Syntax(e) => format!("syntax error: {e}"),
        JobStatus::Panicked(e) => format!("panicked: {e}"),
        JobStatus::Wedged => "wedged: exceeded watchdog budget".to_owned(),
    }
}

/// Renders one report row. This single function serves the live report,
/// the checkpoint writer, and (transitively) the resume splice, which is
/// what makes interrupted-then-resumed reports byte-identical to
/// uninterrupted ones.
fn render_row(
    name: &str,
    status: &JobStatus,
    outcome: Option<&JobOutcome>,
    include_facts: bool,
) -> Value {
    let num = |n: u64| Value::Num(n as f64);
    let (seeds, run_statuses, failures, facts, determinate, conflicts) = match outcome {
        Some(o) => (
            o.seeds.iter().map(|&s| num(s)).collect(),
            o.multi
                .runs
                .iter()
                .map(|r| Value::Str(format!("{:?}", r.status)))
                .collect(),
            o.multi
                .failures
                .iter()
                .map(|f| {
                    Value::Object(vec![
                        ("kind".to_owned(), Value::Str(f.kind().to_owned())),
                        ("seed".to_owned(), num(f.seed())),
                        ("message".to_owned(), Value::Str(f.to_string())),
                    ])
                })
                .collect(),
            o.multi.facts.len() as u64,
            o.multi.facts.det_count() as u64,
            o.multi.conflicts,
        ),
        None => (Vec::new(), Vec::new(), Vec::new(), 0, 0, 0),
    };
    let fact_rows = match (outcome, include_facts) {
        (Some(o), true) => {
            serde_json::from_str(&o.export_facts_json()).expect("fact export re-parses")
        }
        _ => Value::Null,
    };
    let mut fields = vec![
        ("name".to_owned(), Value::Str(name.to_owned())),
        ("status".to_owned(), Value::Str(status_str(status))),
        ("seeds".to_owned(), Value::Array(seeds)),
        ("run_statuses".to_owned(), Value::Array(run_statuses)),
        ("failures".to_owned(), Value::Array(failures)),
        ("facts".to_owned(), num(facts)),
        ("determinate".to_owned(), num(determinate)),
        ("conflicts".to_owned(), num(conflicts)),
        ("fact_rows".to_owned(), fact_rows),
    ];
    // The `pta` field exists only when the batch ran the opt-in PTA
    // stage, keeping PTA-less reports byte-identical to earlier versions.
    if let Some(pta) = outcome.and_then(|o| o.pta.as_ref()) {
        fields.push(("pta".to_owned(), pta.clone()));
    }
    Value::Object(fields)
}

/// Replaces (or appends) an object field in place.
fn set_field(row: &mut Value, key: &str, value: Value) {
    if let Value::Object(fields) = row {
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.to_owned(), value));
        }
    }
}

/// The worker-side result of one manifest job, including the identity the
/// classifier needs to checkpoint it.
struct SpecRun {
    key: String,
    name: String,
    status: JobStatus,
    outcome: Option<JobOutcome>,
}

/// The streaming checkpoint writer: accumulates settled rows and
/// periodically publishes them atomically. Save errors are swallowed — a
/// checkpoint is an optimization, and a full disk must not fail the
/// campaign it is trying to protect.
struct CkptWriter {
    ck: Checkpoint,
    path: PathBuf,
    every: u64,
    inserts: u64,
    writes: u64,
    #[cfg(feature = "fault-inject")]
    chaos: Option<std::sync::Arc<crate::chaos::SchedulerFaultPlan>>,
}

impl CkptWriter {
    fn record(&mut self, key: String, row: Value) {
        self.ck.insert(key, row);
        self.inserts += 1;
        if self.inserts.is_multiple_of(self.every) {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.writes += 1;
        #[cfg(feature = "fault-inject")]
        let truncate = self
            .chaos
            .as_ref()
            .is_some_and(|p| p.truncate_checkpoint(self.writes));
        #[cfg(not(feature = "fault-inject"))]
        let truncate = false;
        let _ = self.ck.save(&self.path, truncate);
    }
}

/// Runs every manifest job through the pool with default campaign options
/// (single attempt, no watchdog, no checkpointing) and aggregates the
/// results in manifest order.
pub fn run_manifest(manifest: &Manifest, pool: &JobPool) -> BatchOutcome {
    run_manifest_with(manifest, pool, &BatchOptions::default())
}

/// Runs a manifest as a fault-tolerant campaign: retries, watchdog,
/// checkpoint/resume, and admission control per `opts` (see the module
/// docs). The report stays byte-identical for any worker count, any
/// retryable fault schedule, and any interrupt/resume split.
pub fn run_manifest_with(manifest: &Manifest, pool: &JobPool, opts: &BatchOptions) -> BatchOutcome {
    let n = manifest.jobs.len();
    let keys: Vec<String> = manifest
        .jobs
        .iter()
        .map(|s| job_key(s, opts.mem_budget_cells, opts.pta_budget, opts.spec_depth))
        .collect();
    let mut records: Vec<Option<JobRecord>> = (0..n).map(|_| None).collect();
    let mut scheduled: Vec<usize> = Vec::new();
    for (i, spec) in manifest.jobs.iter().enumerate() {
        match opts.resume.as_ref().and_then(|ck| ck.lookup(&keys[i])) {
            Some(row) => {
                let status = match row.get("status").and_then(Value::as_str) {
                    Some("degraded") => JobStatus::Degraded,
                    _ => JobStatus::Completed,
                };
                records[i] = Some(JobRecord {
                    index: i,
                    name: spec.name.clone(),
                    status,
                    outcome: None,
                    attempts: 0,
                    restored: Some(row.clone()),
                });
            }
            None => scheduled.push(i),
        }
    }

    let admission = opts.mem_budget_cells.map(AdmissionController::new);
    let writer: Option<Mutex<CkptWriter>> = opts.checkpoint_path.as_ref().map(|p| {
        Mutex::new(CkptWriter {
            // Seed the writer with the resumed rows so the final
            // checkpoint covers the whole campaign, not just this leg.
            ck: opts.resume.clone().unwrap_or_default(),
            path: p.clone(),
            every: opts.checkpoint_every.max(1),
            inserts: 0,
            writes: 0,
            #[cfg(feature = "fault-inject")]
            chaos: opts.chaos.clone(),
        })
    });

    let jobs: Vec<(String, _)> = scheduled
        .iter()
        .map(|&i| {
            let spec = manifest.jobs[i].clone();
            let key = keys[i].clone();
            let admission = &admission;
            let grace = opts.watchdog_grace_ms;
            let pta = opts.pta_budget.map(|b| (b, opts.spec_depth));
            let job = move |ctx: &JobCtx| -> IsolatedGraph<SpecRun> {
                let adm = match admission {
                    Some(c) => c.admit(spec.effective_config().mem_cell_budget),
                    None => Admission {
                        reserved: 0,
                        granted: None,
                        degraded: false,
                    },
                };
                if adm.degraded {
                    ctx.emit(JobEvent::Degraded {
                        job: ctx.job,
                        label: spec.name.clone(),
                        granted_cells: adm.granted.unwrap_or_default(),
                    });
                }
                let (status, outcome) = run_spec(&spec, ctx, &adm, grace, pta);
                if let Some(c) = admission {
                    c.release(adm);
                }
                IsolatedGraph::new(SpecRun {
                    key: key.clone(),
                    name: spec.name.clone(),
                    status,
                    outcome,
                })
            };
            (manifest.jobs[i].name.clone(), job)
        })
        .collect();

    let classify = |iso: &IsolatedGraph<SpecRun>| -> Disposition {
        let run = iso.get();
        match &run.status {
            JobStatus::Syntax(e) => Disposition::Fatal(format!("syntax error: {e}")),
            JobStatus::Completed | JobStatus::Degraded => {
                let outcome = run.outcome.as_ref();
                if let Some(f) =
                    outcome.and_then(|o| o.multi.failures.iter().find(|f| f.is_transient()))
                {
                    // Transient per-run failure (engine panic / injected
                    // alloc fault): rerunning can recover the row.
                    return Disposition::Retry(f.to_string());
                }
                if outcome.is_some_and(|o| o.multi.failures.is_empty()) {
                    // The row is settled — its bytes are final — so it is
                    // safe to checkpoint. Rows carrying failures are left
                    // out: a resume should rerun them.
                    if let Some(w) = &writer {
                        let row = render_row(&run.name, &run.status, outcome, true);
                        w.lock().unwrap().record(run.key.clone(), row);
                    }
                }
                Disposition::Keep
            }
            // Cancellation is a deliberate external decision, never
            // retried; Panicked/Wedged never reach the classifier (the
            // pool resolves them directly).
            _ => Disposition::Keep,
        }
    };

    let runs = pool.run_classified(jobs, &opts.retry, classify);
    for (&slot, run) in scheduled.iter().zip(runs) {
        let name = manifest.jobs[slot].name.clone();
        let attempts = run.attempts;
        let (status, outcome) = match run.verdict {
            JobVerdict::Done(iso) => {
                let sr = iso.into_inner();
                (sr.status, sr.outcome)
            }
            JobVerdict::Panicked(p) => (JobStatus::Panicked(p), None),
            JobVerdict::Cancelled => (JobStatus::Cancelled, None),
            JobVerdict::Wedged => (JobStatus::Wedged, None),
        };
        records[slot] = Some(JobRecord {
            index: slot,
            name,
            status,
            outcome,
            attempts,
            restored: None,
        });
    }
    if let Some(w) = &writer {
        w.lock().unwrap().flush();
    }
    BatchOutcome {
        jobs: records
            .into_iter()
            .map(|r| r.expect("every manifest job resolved"))
            .collect(),
    }
}

/// The worker-side body of one manifest job. Everything `Rc`-threaded is
/// built here, inside the worker, and transferred back wholesale (see
/// [`IsolatedGraph`]).
fn run_spec(
    spec: &JobSpec,
    ctx: &JobCtx,
    adm: &Admission,
    watchdog_grace_ms: Option<u64>,
    pta: Option<(u64, Option<usize>)>,
) -> (JobStatus, Option<JobOutcome>) {
    let harness = match DetHarness::from_src(&spec.src) {
        Ok(h) => h,
        Err(e) => return (JobStatus::Syntax(e.to_string()), None),
    };
    let mut cfg = spec.effective_config();
    if adm.degraded {
        cfg.mem_cell_budget = adm.granted;
    }
    if let (Some(grace), Some(deadline)) = (watchdog_grace_ms, cfg.deadline_ms) {
        ctx.arm_watchdog(deadline.saturating_add(grace));
    }
    let seeds = spec.effective_seeds();
    let doc = DocumentBuilder::new().title(&spec.name).build();
    let plan = EventPlan::new();
    let mut outcome = analyze_seeds(harness, &seeds, cfg, &doc, &plan, ctx);
    if let Some((budget, spec_depth)) = pta {
        let row = match spec_depth {
            // The worker still holds the live fact database and context
            // table, so specialization is a local transform here — no
            // re-analysis, no serialization round-trip.
            Some(depth) => {
                ctx.progress(format!("specializing at depth {depth}"));
                let spec_cfg = mujs_specialize::SpecConfig {
                    max_context_depth: depth,
                    ..Default::default()
                };
                let s = mujs_specialize::specialize(
                    &outcome.program,
                    &outcome.multi.facts,
                    &mut outcome.multi.ctxs,
                    &spec_cfg,
                );
                ctx.progress("solving pointer analysis".to_owned());
                let mut row = solve_pta_row(&s.program, budget);
                // Recorded only when set, so depth-less reports keep
                // their historical bytes.
                set_field(&mut row, "spec_depth", Value::Num(depth as f64));
                row
            }
            None => {
                ctx.progress("solving pointer analysis".to_owned());
                solve_pta_row(&outcome.program, budget)
            }
        };
        outcome.pta = Some(row);
    }
    let status = if adm.degraded {
        JobStatus::Degraded
    } else {
        JobStatus::Completed
    };
    (status, Some(outcome))
}

/// Runs the opt-in baseline PTA stage over a job's lowered program and
/// renders its report object. Everything in the row is deterministic —
/// budget-bounded work, canonical call-graph/precision counts — so batch
/// reports stay byte-identical for any `--workers` count.
fn solve_pta_row(program: &mujs_ir::Program, budget: u64) -> Value {
    let cfg = mujs_pta::PtaConfig {
        budget,
        ..mujs_pta::PtaConfig::default()
    };
    let r = mujs_pta::solve(program, &cfg);
    let p = r.precision(program);
    let num = |n: f64| Value::Num(n);
    Value::Object(vec![
        (
            "status".to_owned(),
            Value::Str(
                match r.status {
                    mujs_pta::PtaStatus::Completed => "completed",
                    mujs_pta::PtaStatus::BudgetExceeded => "budget exceeded",
                }
                .to_owned(),
            ),
        ),
        ("budget".to_owned(), num(budget as f64)),
        ("propagations".to_owned(), num(r.stats.propagations as f64)),
        ("call_sites".to_owned(), num(p.call_sites as f64)),
        ("poly_sites".to_owned(), num(p.poly_sites as f64)),
        ("avg_points_to".to_owned(), num(p.avg_points_to)),
        ("reachable_funcs".to_owned(), num(p.reachable_funcs as f64)),
    ])
}

/// Runs one seed fan-out sequentially on the current (worker) thread,
/// short-circuiting remaining seeds to [`RunFailure::Cancelled`] once the
/// batch token fires, and combining in seed order.
fn analyze_seeds(
    mut harness: DetHarness,
    seeds: &[u64],
    base_cfg: AnalysisConfig,
    doc: &Document,
    plan: &EventPlan,
    ctx: &JobCtx,
) -> JobOutcome {
    let hooks = RunHooks::with_cancel(ctx.cancel.clone());
    let n = seeds.len();
    let results: Vec<Result<AnalysisOutcome, RunFailure>> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            if ctx.is_cancelled() {
                return Err(RunFailure::Cancelled { seed });
            }
            let cfg = AnalysisConfig {
                seed,
                ..base_cfg.clone()
            };
            let r = supervised_analyze_dom(&mut harness, cfg, doc.clone(), plan, &hooks);
            ctx.progress(format!("seed {}/{n} done", i + 1));
            r
        })
        .collect();
    let multi = MultiRunOutcome::combine(results, base_cfg.max_facts);
    JobOutcome {
        seeds: seeds.to_vec(),
        multi,
        program: harness.program,
        source: harness.source,
        pta: None,
    }
}

/// The pool-backed variant of
/// [`analyze_many_hooked`][determinacy::multirun::analyze_many_hooked]:
/// fans the seed list out over the pool's workers (each worker re-parses
/// the source on its own thread, so no `Rc` is shared across threads) and
/// combines the per-seed outcomes **in seed order**, making the merged
/// facts identical to the sequential path for any worker count.
///
/// # Errors
///
/// A [`mujs_syntax::SyntaxError`] when `src` does not parse (checked up
/// front, before any job is scheduled).
pub fn analyze_many_pooled(
    src: &str,
    seeds: &[u64],
    base_cfg: AnalysisConfig,
    doc: Option<&Document>,
    plan: &EventPlan,
    pool: &JobPool,
) -> Result<MultiRunOutcome, mujs_syntax::SyntaxError> {
    // Surface parse errors eagerly and identically to the sequential API.
    mujs_syntax::parse_spawned(src)?;
    let jobs: Vec<(String, _)> = seeds
        .iter()
        .map(|&seed| {
            let label = format!("seed-{seed}");
            let cfg = AnalysisConfig {
                seed,
                ..base_cfg.clone()
            };
            let job = move |ctx: &JobCtx| -> IsolatedGraph<Result<AnalysisOutcome, RunFailure>> {
                let r = match DetHarness::from_src(src) {
                    Ok(mut h) => {
                        let hooks = RunHooks::with_cancel(ctx.cancel.clone());
                        let d = doc.cloned().unwrap_or_else(|| {
                            DocumentBuilder::new().title("analyze-pooled").build()
                        });
                        supervised_analyze_dom(&mut h, cfg.clone(), d, plan, &hooks)
                    }
                    Err(e) => {
                        // Unreachable after the eager parse; keep the seed
                        // isolated rather than poisoning the batch.
                        Err(RunFailure::EnginePanic {
                            payload: format!("late parse failure: {e}"),
                            steps: 0,
                            seed,
                        })
                    }
                };
                IsolatedGraph::new(r)
            };
            (label, job)
        })
        .collect();
    let verdicts = pool.run(jobs);
    let results = verdicts
        .into_iter()
        .zip(seeds)
        .map(|(v, &seed)| match v {
            JobVerdict::Done(iso) => iso.into_inner(),
            JobVerdict::Panicked(payload) => Err(RunFailure::EnginePanic {
                payload,
                steps: 0,
                seed,
            }),
            JobVerdict::Cancelled => Err(RunFailure::Cancelled { seed }),
            // These seed fan-out jobs never arm the watchdog, but keep the
            // arm total: treat a wedge like a panic-shaped loss.
            JobVerdict::Wedged => Err(RunFailure::EnginePanic {
                payload: "seed run wedged past watchdog budget".to_owned(),
                steps: 0,
                seed,
            }),
        })
        .collect::<Vec<_>>();
    Ok(MultiRunOutcome::combine(results, base_cfg.max_facts))
}
