//! Running manifests through the pool, and the deterministic batch
//! report.
//!
//! Each job runs the shared [`Pipeline`] entirely inside one worker
//! thread: parse + lower (on the worker's big stack), one supervised
//! analysis run per seed with the batch
//! [`CancelToken`][determinacy::CancelToken] threaded into the run hooks,
//! per-seed combination in seed order
//! ([`analyze_many_hooked`][determinacy::multirun::analyze_many_hooked]),
//! then the optional PTA stage. The worker renders the job's report row
//! there and hands back only that row, an owned JSON value; the program
//! and fact graphs never leave the worker. Rows land in the pool's
//! ordered result slots, so [`BatchOutcome::jobs`] is always in manifest
//! order and [`BatchOutcome::report_json`] is **byte-identical for any
//! worker count**.
//!
//! [`run_manifest_with`] layers the campaign-robustness machinery on top
//! without disturbing that invariant:
//!
//! * each job runs once: a syntax error or an engine panic in any seed
//!   run is a permanent failure (a rerun of the same pure job would
//!   reproduce it), streamed as [`JobEvent::Failed`] and, under
//!   [`BatchOptions::fail_fast`], cancelling the rest of the batch;
//! * a [`Checkpoint`] journal keyed by job content is both the resume
//!   source and the append target: rows it already holds are spliced back
//!   **byte for byte** and only the remainder is scheduled, and each row
//!   this batch settles is appended by its worker as one line. An executed
//!   row and a restored one take the same path into the report;
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
    facts_fields, render_row, Pipeline, PipelineCounters, PtaMode, PtaStage, StageKeys,
};
use crate::pool::{JobCtx, JobEvent, JobPool, JobVerdict};
use crate::spec::{JobSpec, Manifest};
use determinacy::multirun::export_value;
use serde_json::Value;

/// How a job resolved at the batch level.
#[derive(Debug)]
pub enum JobStatus {
    /// The job ran; its runs may still record per-seed stops (deadline,
    /// mem limit, mid-flight cancellation) in its row.
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
    /// The job's report row, exactly as [`BatchOutcome::report_json`]
    /// prints it.
    pub row: Value,
    /// Whether the row was restored from a checkpoint instead of
    /// executed in this process.
    pub restored: bool,
}

/// Campaign-level options for [`run_manifest_with`].
#[derive(Debug, Default)]
pub struct BatchOptions {
    /// Cancel the rest of the batch on the first permanent failure (a
    /// syntax error, a panicked job, or an engine panic in a seed run).
    pub fail_fast: bool,
    /// Leave the full sorted fact export out of the report: every row's
    /// `fact_rows` is null. Jobs then render no fact rows at all, unless
    /// the batch checkpoints (checkpoint rows always carry them).
    pub no_facts: bool,
    /// An open checkpoint journal: manifest jobs whose content key it
    /// holds are spliced from it and not executed, and every row this
    /// batch settles is appended to it.
    pub checkpoint: Option<Checkpoint>,
    /// Batch-wide declared-memory budget (heap cells) for the admission
    /// controller; `None` disables admission control.
    pub mem_budget_cells: Option<u64>,
    /// When set, every completed job additionally runs this budgeted
    /// pointer-analysis stage and the report row gains a `pta` object.
    /// `None` (the default) skips the stage and leaves report bytes
    /// unchanged.
    pub pta: Option<PtaStage>,
    /// Deterministic scheduler chaos (torn checkpoint appends); the pool
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
                || !failures(&j.row).is_empty()
        })
    }

    /// The batch report as pretty JSON: every job's row, in manifest
    /// order. Contains no timing or worker information, so the bytes
    /// depend only on the manifest, [`BatchOptions::no_facts`] and the
    /// analysis semantics — not on scheduling or resume splicing.
    pub fn report_json(&self) -> String {
        let rows = self.jobs.iter().map(|j| j.row.clone()).collect();
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
            restored += u64::from(j.restored);
            run_failures += failures(&j.row).len() as u64;
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

/// The status a row records: the inverse of [`status_str`].
fn status_of(row: &Value) -> JobStatus {
    let status = row.get("status").and_then(Value::as_str).unwrap_or("");
    if let Some(e) = status.strip_prefix("syntax error: ") {
        return JobStatus::Syntax(e.to_owned());
    }
    if let Some(e) = status.strip_prefix("panicked: ") {
        return JobStatus::Panicked(e.to_owned());
    }
    match status {
        "degraded" => JobStatus::Degraded,
        "cancelled" => JobStatus::Cancelled,
        _ => JobStatus::Completed,
    }
}

/// The row of a job that has no facts: a syntax error, or a job that
/// panicked or never started.
fn bare_row(name: &str, status: &JobStatus) -> Value {
    render_row(name, &status_str(status), None, false, Vec::new())
}

/// A row's per-run failures.
fn failures(row: &Value) -> &[Value] {
    row.get("failures").and_then(Value::as_array).unwrap_or(&[])
}

/// The permanent failure a job's row records, if any: its syntax error,
/// or the first engine panic among its runs.
fn permanent_failure(row: &Value) -> Option<String> {
    if let JobStatus::Syntax(e) = status_of(row) {
        return Some(format!("syntax error: {e}"));
    }
    failures(row)
        .iter()
        .find(|f| f.get("kind").and_then(Value::as_str) == Some("EnginePanic"))
        .and_then(|f| f.get("message")?.as_str())
        .map(ToOwned::to_owned)
}

/// Files a row under its manifest job. Every row, executed or restored,
/// takes this one path, which is what makes interrupted-then-resumed
/// reports byte-identical to uninterrupted ones: the name is re-anchored
/// to this manifest (a restored row carries the name it settled under),
/// and `fact_rows` is nulled when the report omits facts (a row rendered
/// for the checkpoint carries them).
fn record(index: usize, name: &str, mut row: Value, restored: bool, no_facts: bool) -> JobRecord {
    set_field(&mut row, "name", Value::Str(name.to_owned()));
    if no_facts {
        set_field(&mut row, "fact_rows", Value::Null);
    }
    JobRecord {
        index,
        name: name.to_owned(),
        status: status_of(&row),
        row,
        restored,
    }
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
    let checkpoint = opts.checkpoint.as_ref();
    let mut records: Vec<Option<JobRecord>> = (0..n).map(|_| None).collect();
    let mut scheduled: Vec<usize> = Vec::new();
    for (i, spec) in manifest.jobs.iter().enumerate() {
        match checkpoint.and_then(|ck| ck.lookup(&keys[i])) {
            Some(row) => {
                records[i] = Some(record(i, &spec.name, row.clone(), true, opts.no_facts));
            }
            None => scheduled.push(i),
        }
    }

    let admission = opts.mem_budget_cells.map(AdmissionController::new);
    // Fact rows are rendered only where something keeps them: the report,
    // or the checkpoint (whose rows always carry them).
    let include_facts = !opts.no_facts || checkpoint.is_some();
    #[cfg(feature = "fault-inject")]
    let appends = std::sync::atomic::AtomicU64::new(0);

    let jobs: Vec<(String, _)> = scheduled
        .iter()
        .map(|&i| {
            let spec = manifest.jobs[i].clone();
            let key = &keys[i];
            let admission = &admission;
            #[cfg(feature = "fault-inject")]
            let appends = &appends;
            let fail_fast = opts.fail_fast;
            let pta = opts.pta;
            let job = move |ctx: &JobCtx| -> Value {
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
                let row = run_spec(&spec, ctx, &adm, pta, include_facts);
                if let Some(c) = admission {
                    c.release(adm);
                }
                if let Some(error) = permanent_failure(&row) {
                    ctx.fail(error);
                } else if let Some(ck) = checkpoint {
                    // The row is settled — its bytes are final — so it is
                    // safe to checkpoint. Rows carrying failures are left
                    // out: a resume should rerun them.
                    if failures(&row).is_empty() {
                        #[cfg(feature = "fault-inject")]
                        let torn = opts.chaos.as_ref().is_some_and(|p| {
                            let nth = appends.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            p.truncate_checkpoint(nth + 1)
                        });
                        #[cfg(not(feature = "fault-inject"))]
                        let torn = false;
                        ck.append(key, &row, torn);
                    }
                }
                row
            };
            (manifest.jobs[i].name.clone(), job)
        })
        .collect();

    for (&slot, verdict) in scheduled.iter().zip(pool.run(jobs)) {
        let name = &manifest.jobs[slot].name;
        let row = match verdict {
            JobVerdict::Done(row) => row,
            JobVerdict::Panicked(p) => bare_row(name, &JobStatus::Panicked(p)),
            JobVerdict::Cancelled => bare_row(name, &JobStatus::Cancelled),
        };
        records[slot] = Some(record(slot, name, row, false, opts.no_facts));
    }
    BatchOutcome {
        jobs: records
            .into_iter()
            .map(|r| r.expect("every manifest job resolved"))
            .collect(),
    }
}

/// The worker-side body of one manifest job: the shared [`Pipeline`],
/// run live, then the job's report row. Everything `Rc`-threaded is
/// built and dropped here, inside the worker; only the row leaves it.
fn run_spec(
    spec: &JobSpec,
    ctx: &JobCtx,
    adm: &Admission,
    pta: Option<PtaStage>,
    include_facts: bool,
) -> Value {
    let mut req = spec.stage_request(pta);
    if adm.degraded {
        req.cfg.mem_cell_budget = adm.granted;
    }
    let counters = PipelineCounters::default();
    let notify = |detail: &str| ctx.progress(detail);
    let mut p = Pipeline::new(&req, &ctx.cancel, &counters, &notify);
    let status = if adm.degraded {
        JobStatus::Degraded
    } else {
        JobStatus::Completed
    };
    live_row(&mut p, &spec.name, &status, &req.seeds, pta, include_facts)
        .unwrap_or_else(|e| bare_row(&spec.name, &JobStatus::Syntax(e.to_string())))
}

/// Runs the fan-out, then the PTA stage (if any) from the live outcome,
/// building the upstream artifacts its mode consumes, and renders the
/// row: the facts fields, rendered after the PTA stage (whose
/// specialization interns contexts the export names), then the PTA row
/// as `pta`.
fn live_row(
    p: &mut Pipeline<'_>,
    name: &str,
    status: &JobStatus,
    seeds: &[u64],
    pta: Option<PtaStage>,
    include_facts: bool,
) -> Result<Value, mujs_syntax::SyntaxError> {
    p.live()?;
    let mut tail = Vec::new();
    if let Some(stage) = pta {
        let facts = stage.mode.injects().then(|| p.facts()).transpose()?;
        let summary = (stage.mode == PtaMode::InjectShortcuts)
            .then(|| p.summary())
            .transpose()?;
        let (row, _) = p.pta(stage, facts.as_ref(), summary.as_ref())?;
        tail.push(("pta".to_owned(), row));
    }
    let (h, multi) = p.live()?;
    let facts = Value::Object(facts_fields(seeds, multi, &h.program, &h.source, false));
    let mut row = render_row(name, &status_str(status), Some(&facts), false, tail);
    // The fact rows, most of a row's bytes, are moved in: `render_row`
    // would copy them out of `facts`.
    if include_facts {
        let rows = export_value(&multi.facts, &h.program, &h.source, &multi.ctxs);
        set_field(&mut row, "fact_rows", rows);
    }
    Ok(row)
}
