//! The daemon: connection handling, admission, and the bridge into the
//! jobs layer.
//!
//! Each connection (TCP socket or the process's stdin/stdout pipe) is a
//! line loop: parse a request, dispatch, write the frames it produces.
//! Every analyze request runs on the thread that read it, as one
//! [`JobPool::run_here`] job: panic isolation and the same [`JobEvent`]s
//! a pool worker would stream, with no thread spawned per request. The
//! job first probes the shared [`StageCache`] for all of the request's
//! stages at once; a full hit only renders cached artifacts, and anything
//! else (a partial hit, a disk-only entry, a cached syntax error) runs
//! the pipeline, which consults the cache stage by stage. Each progress
//! report writes the events queued so far, so progress frames reach the
//! client while a cold stage runs.
//!
//! The analysis recurses on that thread, so it must have a parser
//! thread's stack ([`mujs_syntax::PARSER_STACK_BYTES`]): [`Server::serve`]
//! spawns each connection thread with it, and `detserved --stdin` runs
//! its session on such a thread. JS recursion stops at
//! `mujs_interp::MAX_CALL_DEPTH` levels with a `RangeError`, which that
//! stack holds even in a debug build.
//!
//! Admission reuses the batch [`AdmissionController`] unchanged: a
//! request declaring more heap cells than the server-wide budget is
//! admitted at the budget and reported (and keyed!) as degraded — the
//! reduced budget changes the analysis, so it must change the facts
//! stage key too, which falls out of hashing the *effective* config.

use crate::cache::{CacheConfig, StageCache};
use crate::proto::{
    bye_line, error_line, event_line, parse_request, pong_line, result_line, stats_line,
    AnalyzeRequest, Request,
};
use crate::stage::{self, execute};
use mujs_jobs::admission::Admission;
use mujs_jobs::pipeline::{PipelineCounters, StageRequest};
use mujs_jobs::{AdmissionController, JobCtx, JobEvent, JobPool, JobVerdict};
use serde_json::Value;
use std::cell::RefCell;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

/// Daemon-wide options.
#[derive(Debug, Default)]
pub struct ServeOptions {
    /// Stage-cache sizing and persistence.
    pub cache: CacheConfig,
    /// Server-wide declared-memory budget (heap cells) for admission
    /// control; `None` admits everything at full budget.
    pub mem_budget_cells: Option<u64>,
}

struct Inner {
    cache: StageCache,
    counters: PipelineCounters,
    admission: Option<AdmissionController>,
    requests: AtomicU64,
    responses: AtomicU64,
    errors: AtomicU64,
    degraded: AtomicU64,
    shutdown: AtomicBool,
}

/// The analysis service. Clone-free sharing via [`Server::serve`]'s
/// per-connection threads; all state lives behind one `Arc`.
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// A server over `opts` with an empty (or disk-restored) cache.
    pub fn new(opts: ServeOptions) -> Self {
        Server {
            inner: Arc::new(Inner {
                cache: StageCache::new(opts.cache),
                counters: PipelineCounters::default(),
                admission: opts.mem_budget_cells.map(AdmissionController::new),
                requests: AtomicU64::new(0),
                responses: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                degraded: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// The shared stage cache (exposed for tests and pre-warming).
    pub fn cache(&self) -> &StageCache {
        &self.inner.cache
    }

    /// The shared pipeline counters.
    pub fn counters(&self) -> &PipelineCounters {
        &self.inner.counters
    }

    /// Whether a shutdown request has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// The full counter snapshot served to `stats` requests.
    pub fn stats_value(&self) -> Value {
        let num = |a: &AtomicU64| Value::Num(a.load(Ordering::Relaxed) as f64);
        Value::Object(vec![
            (
                "server".to_owned(),
                Value::Object(vec![
                    ("requests".to_owned(), num(&self.inner.requests)),
                    ("responses".to_owned(), num(&self.inner.responses)),
                    ("errors".to_owned(), num(&self.inner.errors)),
                    ("degraded".to_owned(), num(&self.inner.degraded)),
                ]),
            ),
            ("cache".to_owned(), self.inner.cache.stats()),
            ("pipeline".to_owned(), self.inner.counters.to_value()),
        ])
    }

    /// Runs one connection's line loop to completion. Returns `Ok(true)`
    /// when the peer requested daemon shutdown.
    ///
    /// Every request runs on the calling thread, which must have
    /// [`mujs_syntax::PARSER_STACK_BYTES`] of stack for the analysis's
    /// recursion (a release build also fits an 8 MiB main thread).
    ///
    /// # Errors
    ///
    /// I/O errors reading requests or writing frames; protocol errors are
    /// answered in-band (an `error` frame), never surfaced here.
    pub fn handle_stream(
        &self,
        reader: impl BufRead,
        mut writer: impl Write,
    ) -> std::io::Result<bool> {
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            self.inner.requests.fetch_add(1, Ordering::Relaxed);
            match parse_request(&line) {
                Err(e) => {
                    self.inner.errors.fetch_add(1, Ordering::Relaxed);
                    writeln!(writer, "{}", error_line(&Value::Null, &e))?;
                }
                Ok(Request::Ping(id)) => {
                    self.inner.responses.fetch_add(1, Ordering::Relaxed);
                    writeln!(writer, "{}", pong_line(&id))?;
                }
                Ok(Request::Stats(id)) => {
                    self.inner.responses.fetch_add(1, Ordering::Relaxed);
                    writeln!(writer, "{}", stats_line(&id, &self.stats_value()))?;
                }
                Ok(Request::Shutdown(id)) => {
                    self.inner.responses.fetch_add(1, Ordering::Relaxed);
                    self.inner.shutdown.store(true, Ordering::SeqCst);
                    writeln!(writer, "{}", bye_line(&id))?;
                    writer.flush()?;
                    return Ok(true);
                }
                Ok(Request::Analyze(req)) => {
                    self.handle_analyze(&req, &mut writer)?;
                }
            }
            writer.flush()?;
        }
        Ok(false)
    }

    /// Runs (or serves) one analyze request on the calling thread,
    /// streaming its frames.
    fn handle_analyze(&self, req: &AnalyzeRequest, writer: &mut impl Write) -> std::io::Result<()> {
        let adm = match &self.inner.admission {
            Some(c) => c.admit(req.effective_config().mem_cell_budget),
            None => Admission {
                reserved: 0,
                granted: None,
                degraded: false,
            },
        };
        let (tx, rx) = mpsc::channel();
        let mut cfg = req.effective_config();
        if adm.degraded {
            cfg.mem_cell_budget = adm.granted;
            self.inner.degraded.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(JobEvent::Degraded {
                job: 0,
                label: req.name.clone(),
                granted_cells: adm.granted.unwrap_or_default(),
            });
        }
        let status_label = if adm.degraded {
            "degraded"
        } else {
            "completed"
        };
        let stage_req = StageRequest {
            src: req.src.clone(),
            cfg,
            seeds: req.effective_seeds(),
            page: None,
            pta: req.pta,
        };

        // The job runs on this thread, so each progress report writes the
        // event frames queued so far. A broken pipe stops the writing,
        // never the job.
        let out = RefCell::new((writer, Ok(())));
        let drain = || {
            let (writer, written) = &mut *out.borrow_mut();
            for ev in rx.try_iter() {
                if written.is_ok() {
                    *written = writeln!(writer, "{}", event_line(&ev, &req.id));
                }
            }
        };
        let inner = &self.inner;
        let pool = JobPool::new(1).with_events(tx);
        let verdict = pool.run_here(req.name.clone(), |ctx: &JobCtx| {
            match stage::probe(&inner.cache, &stage_req) {
                // A full hit only renders cached artifacts.
                Some(warm) => warm.render(&req.name, status_label, req.include_facts),
                None => execute(
                    &stage_req,
                    status_label,
                    req.include_facts,
                    &req.name,
                    &inner.cache,
                    &inner.counters,
                    &ctx.cancel,
                    &|detail| {
                        ctx.progress(detail);
                        drain();
                    },
                ),
            }
        });
        drain();
        if let Some(c) = &self.inner.admission {
            c.release(adm);
        }
        let (writer, written) = out.into_inner();
        written?;
        let line = match verdict {
            JobVerdict::Done(executed) => {
                self.inner.responses.fetch_add(1, Ordering::Relaxed);
                result_line(&req.id, &executed.cached, executed.report)
            }
            JobVerdict::Panicked(p) => {
                self.inner.errors.fetch_add(1, Ordering::Relaxed);
                error_line(&req.id, &format!("panicked: {p}"))
            }
            JobVerdict::Cancelled => {
                self.inner.errors.fetch_add(1, Ordering::Relaxed);
                error_line(&req.id, "cancelled")
            }
        };
        writeln!(writer, "{line}")
    }

    /// Accepts connections until a peer sends `shutdown`, handling each
    /// on its own thread. Returns once every in-flight connection has
    /// drained.
    ///
    /// # Errors
    ///
    /// Fatal accept errors; per-connection I/O errors only end that
    /// connection.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        std::thread::scope(|s| {
            for stream in listener.incoming() {
                if self.is_shutting_down() {
                    break;
                }
                let stream = match stream {
                    Ok(st) => st,
                    Err(e) => return Err(e),
                };
                // Requests run on the connection thread, with a parser
                // thread's stack.
                std::thread::Builder::new()
                    .stack_size(mujs_syntax::PARSER_STACK_BYTES)
                    .spawn_scoped(s, move || {
                        let _ = self.handle_connection(stream, addr);
                    })?;
            }
            Ok(())
        })
    }

    fn handle_connection(
        &self,
        stream: TcpStream,
        addr: std::net::SocketAddr,
    ) -> std::io::Result<()> {
        // Frames are small line-delimited writes; without this, Nagle's
        // algorithm batches them against the peer's delayed ACK and every
        // warm round-trip eats ~40ms per frame.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let shutdown = self.handle_stream(reader, stream)?;
        if shutdown {
            // Unblock the accept loop so `serve` can observe the flag and
            // return instead of waiting for a connection that never comes.
            let _ = TcpStream::connect(addr);
        }
        Ok(())
    }
}
