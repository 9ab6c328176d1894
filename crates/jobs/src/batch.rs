//! Running manifests through the pool, and the deterministic batch
//! report.
//!
//! Each job runs the shared [`Pipeline`] entirely inside one worker
//! thread: parse + lower (on the worker's big stack), one supervised
//! analysis run per seed with the batch
//! [`CancelToken`][determinacy::CancelToken] threaded into the run hooks,
//! per-seed combination in seed order
//! ([`analyze_many_hooked`][determinacy::multirun::analyze_many_hooked]),
//! then the optional PTA stage. The finished graph (program, source,
//! combined outcome) transfers back through the pool's ordered result
//! slots, so [`BatchOutcome::jobs`] is always in manifest order and
//! [`BatchOutcome::report_json`] is **byte-identical for any worker
//! count**.
//!
//! [`run_manifest_with`] layers the campaign-robustness machinery on top
//! without disturbing that invariant:
//!
//! * each job runs once: a syntax error or an engine panic in any seed
//!   run is a permanent failure (a rerun of the same pure job would
//!   reproduce it), streamed as [`JobEvent::Failed`] and, under
//!   [`BatchOptions::fail_fast`], cancelling the rest of the batch;
//! * settled rows stream into an atomic [`Checkpoint`] keyed by job
//!   content, and a resumed batch splices those rows back **byte for
//!   byte** while scheduling only the remainder;
//! * a batch-wide declared-memory budget admits oversized jobs at reduced
//!   budget ([`JobStatus::Degraded`]) instead of failing them.
//!
//! Restore counts deliberately live on [`JobRecord`] and in
//! [`BatchOutcome::stats_json`], **not** in the canonical report: a
//! resumed batch must produce the same report bytes as an uninterrupted
//! one.

use crate::admission::{Admission, AdmissionController};
use crate::checkpoint::{job_key, Checkpoint};
use crate::pipeline::{
    facts_fields, render_row as render_pipeline_row, Pipeline, PipelineCounters, PtaMode, PtaStage,
    StageKeys,
};
use crate::pool::{IsolatedGraph, JobCtx, JobEvent, JobPool, JobVerdict};
use crate::spec::{JobSpec, Manifest};
use determinacy::multirun::{export_json, MultiRunOutcome};
use determinacy::RunFailure;
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
    /// The job panicked outside any supervised run.
    Panicked(String),
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
    /// The pre-rendered report row, when the job was restored from a
    /// checkpoint instead of executed.
    pub restored: Option<Value>,
}

/// Campaign-level options for [`run_manifest_with`].
#[derive(Debug, Default)]
pub struct BatchOptions {
    /// Cancel the rest of the batch on the first permanent failure (a
    /// syntax error, a panicked job, or an engine panic in a seed run).
    pub fail_fast: bool,
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
    /// When set, every completed job additionally runs this budgeted
    /// pointer-analysis stage and the report row gains a `pta` object.
    /// `None` (the default) skips the stage and leaves report bytes
    /// unchanged.
    pub pta: Option<PtaStage>,
    /// Deterministic scheduler chaos (checkpoint truncation); the pool
    /// carries its own copy for event faults.
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

    /// Whether any job failed outright (syntax error, unsupervised panic)
    /// or recorded per-run failures. Cancelled jobs are not failures.
    pub fn has_failures(&self) -> bool {
        self.jobs.iter().any(|j| {
            matches!(j.status, JobStatus::Syntax(_) | JobStatus::Panicked(_))
                || j.outcome
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
    /// timing or worker information, so the bytes depend only on the
    /// manifest and the analysis semantics — not on scheduling or resume
    /// splicing. With `include_facts` each completed
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
    /// canonical report on purpose: restore counts vary across resumes
    /// while the report bytes must not.
    pub fn stats_json(&self) -> String {
        let mut degraded = 0u64;
        let mut restored = 0u64;
        let mut panicked = 0u64;
        let mut cancelled = 0u64;
        let mut syntax = 0u64;
        let mut run_failures = 0u64;
        for j in &self.jobs {
            match j.status {
                JobStatus::Degraded => degraded += 1,
                JobStatus::Panicked(_) => panicked += 1,
                JobStatus::Cancelled => cancelled += 1,
                JobStatus::Syntax(_) => syntax += 1,
                JobStatus::Completed => {}
            }
            if j.restored.is_some() {
                restored += 1;
            }
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
            ("panicked".to_owned(), num(panicked)),
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
    }
}

/// Renders one report row. This single function serves the live report,
/// the checkpoint writer, and (transitively) the resume splice, which is
/// what makes interrupted-then-resumed reports byte-identical to
/// uninterrupted ones. The `pta` field exists only when the batch ran the
/// PTA stage.
fn render_row(
    name: &str,
    status: &JobStatus,
    outcome: Option<&JobOutcome>,
    include_facts: bool,
) -> Value {
    let facts = outcome.map(|o| {
        Value::Object(facts_fields(
            &o.seeds,
            &o.multi,
            &o.program,
            &o.source,
            include_facts,
        ))
    });
    let pta = outcome.and_then(|o| o.pta.clone());
    render_pipeline_row(
        name,
        &status_str(status),
        facts.as_ref(),
        include_facts,
        pta.map(|row| ("pta".to_owned(), row)).into_iter().collect(),
    )
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
/// (no checkpointing, no admission control) and aggregates the results in
/// manifest order.
pub fn run_manifest(manifest: &Manifest, pool: &JobPool) -> BatchOutcome {
    run_manifest_with(manifest, pool, &BatchOptions::default())
}

/// Runs a manifest as a fault-tolerant campaign: fail-fast,
/// checkpoint/resume, and admission control per `opts` (see the module
/// docs). The report stays byte-identical for any worker count, any
/// scheduler fault schedule, and any interrupt/resume split.
pub fn run_manifest_with(manifest: &Manifest, pool: &JobPool, opts: &BatchOptions) -> BatchOutcome {
    let n = manifest.jobs.len();
    let keys: Vec<String> = manifest
        .jobs
        .iter()
        .map(|s| {
            job_key(
                &StageKeys::compute(&s.stage_request(opts.pta)),
                opts.mem_budget_cells,
            )
        })
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
            let writer = &writer;
            let fail_fast = opts.fail_fast;
            let pta = opts.pta;
            let job = move |ctx: &JobCtx| -> IsolatedGraph<(JobStatus, Option<JobOutcome>)> {
                if fail_fast {
                    ctx.fail_fast();
                }
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
                let (status, outcome) = run_spec(&spec, ctx, &adm, pta);
                if let Some(c) = admission {
                    c.release(adm);
                }
                let failure = match (&status, &outcome) {
                    (JobStatus::Syntax(e), _) => Some(format!("syntax error: {e}")),
                    (_, Some(o)) => o
                        .multi
                        .failures
                        .iter()
                        .find(|f| matches!(f, RunFailure::EnginePanic { .. }))
                        .map(ToString::to_string),
                    _ => None,
                };
                if let Some(error) = failure {
                    ctx.fail(error);
                } else if let (Some(w), Some(o)) = (writer, &outcome) {
                    // The row is settled — its bytes are final — so it is
                    // safe to checkpoint. Rows carrying failures are left
                    // out: a resume should rerun them.
                    if o.multi.failures.is_empty() {
                        let row = render_row(&spec.name, &status, Some(o), true);
                        w.lock().unwrap().record(key.clone(), row);
                    }
                }
                IsolatedGraph::new((status, outcome))
            };
            (manifest.jobs[i].name.clone(), job)
        })
        .collect();

    for (&slot, verdict) in scheduled.iter().zip(pool.run(jobs)) {
        let (status, outcome) = match verdict {
            JobVerdict::Done(iso) => iso.into_inner(),
            JobVerdict::Panicked(p) => (JobStatus::Panicked(p), None),
            JobVerdict::Cancelled => (JobStatus::Cancelled, None),
        };
        records[slot] = Some(JobRecord {
            index: slot,
            name: manifest.jobs[slot].name.clone(),
            status,
            outcome,
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

/// The worker-side body of one manifest job: the shared [`Pipeline`],
/// run live. Everything `Rc`-threaded is built here, inside the worker,
/// and transferred back wholesale (see [`IsolatedGraph`]).
fn run_spec(
    spec: &JobSpec,
    ctx: &JobCtx,
    adm: &Admission,
    pta: Option<PtaStage>,
) -> (JobStatus, Option<JobOutcome>) {
    let mut req = spec.stage_request(pta);
    if adm.degraded {
        req.cfg.mem_cell_budget = adm.granted;
    }
    let counters = PipelineCounters::default();
    let notify = |detail: &str| ctx.progress(detail);
    let mut p = Pipeline::new(&req, &ctx.cancel, &counters, &notify);
    let pta_row = match live_pta_row(&mut p, pta) {
        Ok(row) => row,
        Err(e) => return (JobStatus::Syntax(e.to_string()), None),
    };
    let (Some(harness), Some(multi)) = p.into_live() else {
        unreachable!("the fan-out ran");
    };
    let status = if adm.degraded {
        JobStatus::Degraded
    } else {
        JobStatus::Completed
    };
    let outcome = JobOutcome {
        seeds: req.seeds,
        multi,
        program: harness.program,
        source: harness.source,
        pta: pta_row,
    };
    (status, Some(outcome))
}

/// Runs the fan-out, then the PTA stage (if any) from the live outcome,
/// building the upstream artifacts its mode consumes.
fn live_pta_row(
    p: &mut Pipeline<'_>,
    pta: Option<PtaStage>,
) -> Result<Option<Value>, mujs_syntax::SyntaxError> {
    p.live()?;
    let Some(stage) = pta else {
        return Ok(None);
    };
    let facts = stage.mode.injects().then(|| p.facts()).transpose()?;
    let summary = (stage.mode == PtaMode::InjectShortcuts)
        .then(|| p.summary())
        .transpose()?;
    let (row, _) = p.pta(stage, facts.as_ref(), summary.as_ref())?;
    Ok(Some(row))
}
