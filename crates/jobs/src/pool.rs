//! The worker pool: a fixed set of `std::thread` workers draining a shared
//! injector queue of jobs, with batch-wide cooperative cancellation and a
//! streaming progress-event channel.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Results are stored into a slot vector indexed by
//!    submission order, so the caller always sees jobs in the order it
//!    submitted them — completion order (and therefore worker count) is
//!    invisible to everything downstream.
//! 2. **Isolation.** Every job runs once under `catch_unwind`; a panicking
//!    job becomes [`JobVerdict::Panicked`] and the pool keeps draining.
//!    Jobs are not retried: an analysis is a pure function of its
//!    inputs, so a rerun would reproduce the failure.
//! 3. **Cancellation.** The pool shares one [`CancelToken`] with every
//!    job: cancelling it stops in-flight runs at their next poll and
//!    resolves queued jobs as [`JobVerdict::Cancelled`].
//!
//! Workers are spawned with [`mujs_syntax::PARSER_STACK_BYTES`] of stack,
//! the headroom of a parser thread, for the recursive execution a job
//! does (calls, counterfactual execution). Parsing and lowering go through
//! [`mujs_syntax::parse_with`], and `eval` code through the inline
//! nesting guard, so neither depends on that size.

use determinacy::CancelToken;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};

/// A progress event streamed while a batch runs. Events arrive in real
/// (completion) order; only the final result vector is ordered by
/// submission index.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// A worker picked the job up.
    Started {
        /// Submission index of the job.
        job: usize,
        /// Human-readable job label.
        label: String,
        /// Index of the worker running it.
        worker: usize,
    },
    /// The job reported intermediate progress (e.g. "seed 3/8 done").
    Progress {
        /// Submission index of the job.
        job: usize,
        /// What happened.
        detail: String,
    },
    /// The job ran to completion (its *outcome* may still record per-run
    /// stops such as `Deadline` or mid-flight `Cancelled`).
    Finished {
        /// Submission index of the job.
        job: usize,
        /// Human-readable job label.
        label: String,
    },
    /// The job failed permanently: it panicked, or the batch layer found
    /// a permanent failure (such as a syntax error) in its result. The
    /// reason is always carried so campaign-scale triage never sees a
    /// bare failed bit.
    Failed {
        /// Submission index of the job.
        job: usize,
        /// Human-readable job label.
        label: String,
        /// The panic payload or failure classification.
        error: String,
    },
    /// The admission controller granted the job a reduced memory budget
    /// instead of rejecting it.
    Degraded {
        /// Submission index of the job.
        job: usize,
        /// Human-readable job label.
        label: String,
        /// The reduced heap-cell budget the job runs under.
        granted_cells: u64,
    },
    /// Batch cancellation struck before the job started; it never ran.
    Cancelled {
        /// Submission index of the job.
        job: usize,
        /// Human-readable job label.
        label: String,
    },
}

/// How one job ended, in the pool's eyes.
#[derive(Debug)]
pub enum JobVerdict<T> {
    /// The job function returned.
    Done(T),
    /// The job function panicked; the payload survives for the report.
    Panicked(String),
    /// The batch was cancelled before this job started.
    Cancelled,
}

impl<T> JobVerdict<T> {
    /// The result, if the job completed.
    pub fn into_done(self) -> Option<T> {
        match self {
            JobVerdict::Done(t) => Some(t),
            _ => None,
        }
    }
}

/// The event funnel shared by workers. Send errors are deliberately
/// ignored: a dropped listener must never stall or fail the batch (pinned
/// by the receiver-teardown test).
#[derive(Debug)]
struct EventSink {
    tx: Option<Sender<JobEvent>>,
    #[cfg(feature = "fault-inject")]
    faults: Option<Arc<crate::chaos::SchedulerFaultPlan>>,
    #[cfg(feature = "fault-inject")]
    seq: std::sync::atomic::AtomicU64,
}

impl EventSink {
    fn emit(&self, e: JobEvent) {
        #[cfg(feature = "fault-inject")]
        if let Some(f) = &self.faults {
            use crate::chaos::EventFate;
            let n = self.seq.fetch_add(1, Ordering::Relaxed);
            match f.event_fate(n) {
                EventFate::Drop => return,
                EventFate::Delay(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
                EventFate::Deliver => {}
            }
        }
        if let Some(tx) = &self.tx {
            let _ = tx.send(e);
        }
    }
}

/// Context handed to a running job: its identity, the batch cancel token,
/// and a handle for streaming progress events.
#[derive(Debug)]
pub struct JobCtx {
    /// Submission index of this job.
    pub job: usize,
    /// Index of the worker running it.
    pub worker: usize,
    /// The batch-wide cancellation token. Jobs should thread it into
    /// their run supervision hooks (`RunHooks::with_cancel`) so mid-flight
    /// runs stop at the next poll.
    pub cancel: CancelToken,
    label: String,
    events: Arc<EventSink>,
    /// Set by [`JobCtx::fail`]; the pool then streams no `Finished`.
    failed: AtomicBool,
    /// Set by [`JobCtx::fail_fast`]: a failure of this job cancels the
    /// batch.
    fail_fast: AtomicBool,
}

impl JobCtx {
    /// Whether batch cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Streams a [`JobEvent::Progress`] line (no-op without a listener).
    pub fn progress(&self, detail: impl Into<String>) {
        self.events.emit(JobEvent::Progress {
            job: self.job,
            detail: detail.into(),
        });
    }

    /// Streams an arbitrary event (batch layer only — e.g. admission
    /// degradation notices).
    pub(crate) fn emit(&self, e: JobEvent) {
        self.events.emit(e);
    }

    /// Makes a failure of this job — a [`JobCtx::fail`] call or a panic —
    /// cancel the whole batch (batch layer only).
    pub(crate) fn fail_fast(&self) {
        self.fail_fast.store(true, Ordering::Relaxed);
    }

    /// Records a permanent failure: streams [`JobEvent::Failed`] in place
    /// of `Finished`, and cancels the batch under [`JobCtx::fail_fast`].
    pub(crate) fn fail(&self, error: String) {
        self.failed.store(true, Ordering::Relaxed);
        self.events.emit(JobEvent::Failed {
            job: self.job,
            label: self.label.clone(),
            error,
        });
        if self.fail_fast.load(Ordering::Relaxed) {
            self.cancel.cancel();
        }
    }
}

/// A batch-analysis worker pool.
///
/// # Examples
///
/// ```
/// use mujs_jobs::JobPool;
/// let pool = JobPool::new(4);
/// let jobs = (0..10)
///     .map(|i| (format!("square-{i}"), move |_ctx: &mujs_jobs::JobCtx| i * i))
///     .collect();
/// let results = pool.run(jobs);
/// // Submission order, whatever the completion order was:
/// assert_eq!(results.len(), 10);
/// assert!(matches!(results[3], mujs_jobs::JobVerdict::Done(9)));
/// ```
#[derive(Debug)]
pub struct JobPool {
    workers: usize,
    cancel: CancelToken,
    events: Option<Sender<JobEvent>>,
    #[cfg(feature = "fault-inject")]
    faults: Option<Arc<crate::chaos::SchedulerFaultPlan>>,
}

impl JobPool {
    /// A pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        JobPool {
            workers: workers.max(1),
            cancel: CancelToken::new(),
            events: None,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }

    /// Shares an external cancellation token (e.g. one also wired to a
    /// Ctrl-C handler) instead of the pool's own.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Streams [`JobEvent`]s to `tx` while batches run.
    pub fn with_events(mut self, tx: Sender<JobEvent>) -> Self {
        self.events = Some(tx);
        self
    }

    /// Installs a deterministic scheduler-level fault plan (chaos testing
    /// only): drops/delays events and truncates checkpoints according to
    /// the plan's seed.
    #[cfg(feature = "fault-inject")]
    pub fn with_scheduler_faults(mut self, plan: Arc<crate::chaos::SchedulerFaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A clone of the batch cancellation token; cancelling it stops the
    /// whole batch (in-flight runs at their next poll, queued jobs before
    /// they start).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Requests whole-batch cancellation.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Runs every `(label, job)` pair once to a verdict and returns the
    /// verdicts **in submission order**. Blocks until all jobs are
    /// resolved.
    pub fn run<T, F>(&self, jobs: Vec<(String, F)>) -> Vec<JobVerdict<T>>
    where
        T: Send,
        F: Fn(&JobCtx) -> T + Send,
    {
        let n = jobs.len();
        let queue: Mutex<VecDeque<(usize, String, F)>> = Mutex::new(
            jobs.into_iter()
                .enumerate()
                .map(|(i, (label, f))| (i, label, f))
                .collect(),
        );
        let results: Mutex<Vec<Option<JobVerdict<T>>>> = Mutex::new((0..n).map(|_| None).collect());
        let events = self.sink();
        std::thread::scope(|s| {
            for worker in 0..self.workers.min(n.max(1)) {
                let queue = &queue;
                let results = &results;
                let cancel = &self.cancel;
                let events = &events;
                std::thread::Builder::new()
                    .name(format!("mujs-job-{worker}"))
                    // Jobs execute recursively; give them a parser
                    // thread's headroom.
                    .stack_size(mujs_syntax::PARSER_STACK_BYTES)
                    .spawn_scoped(s, move || loop {
                        let Some((job, label, f)) = queue.lock().unwrap().pop_front() else {
                            return;
                        };
                        let verdict = run_job(job, label, &f, worker, cancel, events);
                        results.lock().unwrap()[job] = Some(verdict);
                    })
                    .expect("spawn pool worker");
            }
        });
        results
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|v| v.expect("every job resolved"))
            .collect()
    }

    /// Runs one job on the calling thread with exactly the events and
    /// verdict a one-job [`JobPool::run`] batch would give it, without a
    /// worker thread: `detserved` runs every request this way. The job
    /// gets the caller's stack, not a worker's, so a caller running
    /// analyses needs [`mujs_syntax::PARSER_STACK_BYTES`] of it. Events go
    /// to the pool's channel as they happen; a caller that writes them out
    /// drains the receiver from inside the job (on progress) and after it.
    pub fn run_here<T, F>(&self, label: String, job: F) -> JobVerdict<T>
    where
        F: FnOnce(&JobCtx) -> T,
    {
        run_job(0, label, job, 0, &self.cancel, &self.sink())
    }

    fn sink(&self) -> Arc<EventSink> {
        Arc::new(EventSink {
            tx: self.events.clone(),
            #[cfg(feature = "fault-inject")]
            faults: self.faults.clone(),
            #[cfg(feature = "fault-inject")]
            seq: std::sync::atomic::AtomicU64::new(0),
        })
    }
}

/// Runs one job once, under `catch_unwind`, and resolves its verdict.
fn run_job<T, F>(
    job: usize,
    label: String,
    f: F,
    worker: usize,
    cancel: &CancelToken,
    events: &Arc<EventSink>,
) -> JobVerdict<T>
where
    F: FnOnce(&JobCtx) -> T,
{
    if cancel.is_cancelled() {
        events.emit(JobEvent::Cancelled { job, label });
        return JobVerdict::Cancelled;
    }
    events.emit(JobEvent::Started {
        job,
        label: label.clone(),
        worker,
    });
    let ctx = JobCtx {
        job,
        worker,
        cancel: cancel.clone(),
        label,
        events: events.clone(),
        failed: AtomicBool::new(false),
        fail_fast: AtomicBool::new(false),
    };
    match catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
        Ok(t) => {
            if !ctx.failed.load(Ordering::Relaxed) {
                events.emit(JobEvent::Finished {
                    job,
                    label: ctx.label,
                });
            }
            JobVerdict::Done(t)
        }
        Err(payload) => {
            ctx.fail(panic_text(payload));
            JobVerdict::Panicked(format!("job `{}` panicked", ctx.label))
        }
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A fully-owned object graph transferred wholesale between threads.
///
/// The analysis pipeline interns strings with `Rc<str>`, so harnesses,
/// fact databases, and multi-run outcomes are not `Send` even though they
/// contain no thread-shared state. Jobs build those graphs *entirely on
/// the worker thread* and hand them back through the pool exactly once;
/// `Mutex`/`join` synchronization orders the handoff, so the non-atomic
/// refcounts are never touched concurrently. Its one user is detjobs'
/// batch jobs ([`crate::batch`]), which hand back a job's program,
/// source and combined outcome.
///
/// # Safety invariant (on the constructor's caller)
///
/// Every `Rc` reachable from the wrapped value must have *all* of its
/// clones inside the wrapped value itself — nothing reachable may share a
/// refcount with data that stays on the producing thread or is visible to
/// any other thread. Values freshly parsed/analyzed inside one job satisfy
/// this by construction.
pub(crate) struct IsolatedGraph<T>(T);

unsafe impl<T> Send for IsolatedGraph<T> {}

impl<T> IsolatedGraph<T> {
    /// Wraps a graph for transfer. See the type-level safety invariant.
    pub(crate) fn new(value: T) -> Self {
        IsolatedGraph(value)
    }

    /// Unwraps on the receiving thread.
    pub(crate) fn into_inner(self) -> T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    type BoxedJob<T> = Box<dyn Fn(&JobCtx) -> T + Send>;
    type SharedJob<'a, T> = &'a (dyn Fn(&JobCtx) -> T + Sync);

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = JobPool::new(8);
        // Reverse sleeps so completion order inverts submission order.
        let jobs: Vec<(String, _)> = (0..16usize)
            .map(|i| {
                (format!("j{i}"), move |_ctx: &JobCtx| {
                    std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
                    i * 10
                })
            })
            .collect();
        let out = pool.run(jobs);
        for (i, v) in out.iter().enumerate() {
            assert!(matches!(v, JobVerdict::Done(x) if *x == i * 10));
        }
    }

    #[test]
    fn a_panicking_job_does_not_poison_the_batch() {
        let pool = JobPool::new(2);
        let jobs: Vec<(String, BoxedJob<usize>)> = vec![
            ("ok-0".into(), Box::new(|_| 1)),
            ("boom".into(), Box::new(|_| panic!("job exploded"))),
            ("ok-2".into(), Box::new(|_| 3)),
        ];
        let out = pool.run(jobs);
        assert!(matches!(out[0], JobVerdict::Done(1)));
        assert!(matches!(&out[1], JobVerdict::Panicked(_)));
        assert!(matches!(out[2], JobVerdict::Done(3)));
    }

    #[test]
    fn cancellation_skips_queued_jobs() {
        let pool = JobPool::new(1);
        let token = pool.cancel_token();
        let jobs: Vec<(String, BoxedJob<u32>)> = vec![
            (
                "canceller".into(),
                Box::new(move |_| {
                    token.cancel();
                    7
                }),
            ),
            ("never-runs".into(), Box::new(|_| 8)),
        ];
        let out = pool.run(jobs);
        assert!(matches!(out[0], JobVerdict::Done(7)));
        assert!(matches!(out[1], JobVerdict::Cancelled));
    }

    #[test]
    fn events_stream_start_progress_finish() {
        let (tx, rx) = channel();
        let pool = JobPool::new(1).with_events(tx);
        let jobs: Vec<(String, _)> = vec![("one".to_owned(), |ctx: &JobCtx| {
            ctx.progress("halfway");
            42
        })];
        let out = pool.run(jobs);
        assert!(matches!(out[0], JobVerdict::Done(42)));
        let kinds: Vec<String> = rx
            .try_iter()
            .map(|e| match e {
                JobEvent::Started { .. } => "started".into(),
                JobEvent::Progress { detail, .. } => format!("progress:{detail}"),
                JobEvent::Finished { .. } => "finished".into(),
                other => format!("{other:?}"),
            })
            .collect();
        assert_eq!(kinds, ["started", "progress:halfway", "finished"]);
    }

    #[test]
    fn run_here_matches_a_one_job_batch() {
        let jobs: [(&str, SharedJob<u32>); 2] = [
            ("ok", &|ctx| {
                ctx.progress("halfway");
                5
            }),
            ("boom", &|_| panic!("job exploded")),
        ];
        for (label, job) in jobs {
            let (tx, rx) = channel();
            let pool = JobPool::new(1).with_events(tx);
            let pooled = pool.run(vec![(label.to_owned(), job)]).pop().unwrap();
            let pooled_events: Vec<String> = rx.try_iter().map(|e| format!("{e:?}")).collect();
            let (tx, rx) = channel();
            let here = JobPool::new(1)
                .with_events(tx)
                .run_here(label.to_owned(), job);
            let here_events: Vec<String> = rx.try_iter().map(|e| format!("{e:?}")).collect();
            assert_eq!(format!("{pooled:?}"), format!("{here:?}"));
            assert_eq!(pooled_events, here_events);
        }
    }

    #[test]
    fn fail_fast_cancels_the_rest_of_the_batch() {
        let (tx, rx) = channel();
        let pool = JobPool::new(1).with_events(tx);
        let jobs: Vec<(String, BoxedJob<u32>)> = vec![
            (
                "fatal".into(),
                Box::new(|ctx| {
                    ctx.fail_fast();
                    ctx.fail("bad input".into());
                    0
                }),
            ),
            ("never-runs".into(), Box::new(|_| 1)),
        ];
        let out = pool.run(jobs);
        assert!(matches!(out[0], JobVerdict::Done(0)));
        assert!(matches!(out[1], JobVerdict::Cancelled));
        let events: Vec<JobEvent> = rx.try_iter().collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::Failed { job: 0, error, .. } if error == "bad input")));
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, JobEvent::Finished { .. })),
            "a failed job streams Failed in place of Finished: {events:?}"
        );
    }

    #[test]
    fn fail_fast_cancels_the_batch_on_a_panic() {
        let pool = JobPool::new(1);
        let jobs: Vec<(String, BoxedJob<u32>)> = vec![
            (
                "boom".into(),
                Box::new(|ctx| {
                    ctx.fail_fast();
                    panic!("job exploded")
                }),
            ),
            ("never-runs".into(), Box::new(|_| 1)),
        ];
        let out = pool.run(jobs);
        assert!(matches!(&out[0], JobVerdict::Panicked(p) if p == "job `boom` panicked"));
        assert!(matches!(out[1], JobVerdict::Cancelled));
    }

    #[test]
    fn dropping_the_event_receiver_does_not_stall_the_pool() {
        let (tx, rx) = channel();
        let pool = JobPool::new(2).with_events(tx);
        drop(rx); // listener gone before the batch even starts
        let jobs: Vec<(String, _)> = (0..8usize)
            .map(|i| {
                (format!("j{i}"), move |ctx: &JobCtx| {
                    ctx.progress("still emitting into the void");
                    i
                })
            })
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out.len(), 8);
        for (i, v) in out.iter().enumerate() {
            assert!(matches!(v, JobVerdict::Done(x) if *x == i));
        }
    }
}
