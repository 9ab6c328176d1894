//! The closed-loop runner shared by every workload: an untimed reference
//! pass, timed set-ups, a window of whole input cycles, output checks, and
//! the metric report.

use crate::expected::Expected;
use crate::heap;
use crate::host::{self, HostSpeed};
use crate::stats::{class_latencies, median, percentile};
use crate::trace::{self_times, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run: at least this many (the first, of the reference
/// pass, is often the slowest), `setup_s` being their median...
const MIN_SETUPS: usize = 4;
/// ...and more until they have taken this long in total, so that a
/// set-up of a few milliseconds is the median of many.
const SETUP_BUDGET_S: f64 = 2.0;
/// Upper limit on set-ups per run.
const MAX_SETUPS: usize = 200;

/// Seed of the reference pass. Its inputs do not depend on `--seed`, so
/// the metrics taken there repeat exactly from seed to seed.
pub const REFERENCE_SEED: u64 = 0;

/// The host probe runs before every set-up, and between two ops once this
/// many seconds have passed since it last ran: about ten probes within
/// reach of each op (see [`crate::host`]), at about 1% of the window.
const PROBE_EVERY_S: f64 = 0.2;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("op_heap_mb", "MiB"),
    ("pta_completed_frac", "frac"),
    ("avg_points_to", "count"),
    ("det_facts", "count"),
];

/// Per-layer metrics (`--trace 1`), with units. Times and counts are
/// means per call into the layer; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead_frac", "frac"),
    ("trace.coverage", "frac"),
    ("host.probe_ms", "ms"),
    ("frontend.share", "frac"),
    ("determinacy.share", "frac"),
    ("specialize.share", "frac"),
    ("pta.share", "frac"),
    ("interp.share", "frac"),
    ("serve.share", "frac"),
    ("frontend.ms", "ms"),
    ("syntax.parse_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("frontend.spawn_ms", "ms"),
    ("syntax.mb_per_s", "MB/s"),
    ("ir.stmts", "count"),
    ("determinacy.analyze_ms", "ms"),
    ("determinacy.msteps_per_s", "Msteps/s"),
    ("determinacy.steps", "count"),
    ("determinacy.counterfactuals", "count"),
    ("determinacy.cf_aborts", "count"),
    ("determinacy.heap_flushes", "count"),
    ("determinacy.handlers_fired", "count"),
    ("determinacy.det_facts", "count"),
    ("determinacy.det_fact_frac", "frac"),
    ("determinacy.shortcut_ms", "ms"),
    ("determinacy.shortcut_candidates", "count"),
    ("determinacy.shortcut_regions", "count"),
    ("determinacy.shortcut_yield", "frac"),
    ("determinacy.shortcut_degraded", "frac"),
    ("determinacy.inject_ms", "ms"),
    ("determinacy.inject_sites", "count"),
    ("interp.run_ms", "ms"),
    ("interp.steps", "count"),
    ("interp.msteps_per_s", "Msteps/s"),
    ("specialize.ms", "ms"),
    ("specialize.clones", "count"),
    ("specialize.keys_staticized", "count"),
    ("specialize.branches_pruned", "count"),
    ("specialize.calls_redirected", "count"),
    ("pta.solve_ms.baseline", "ms"),
    ("pta.solve_ms.injected", "ms"),
    ("pta.solve_ms.shortcut", "ms"),
    ("pta.solve_ms.specialized", "ms"),
    ("pta.mprops_per_s", "Mprops/s"),
    ("pta.propagations", "count"),
    ("pta.nodes", "count"),
    ("pta.edges", "count"),
    ("pta.call_edges", "count"),
    ("pta.scc_passes", "count"),
    ("pta.nodes_merged", "count"),
    ("pta.injected_keys", "count"),
    ("pta.injected_calls", "count"),
    ("pta.shortcut_tuples", "count"),
    ("serve.request_ms.hit", "ms"),
    ("serve.request_ms.miss", "ms"),
    ("serve.request_p99_ms.hit", "ms"),
    ("serve.request_p90_ms.miss", "ms"),
    ("serve.warm_frac", "frac"),
    ("serve.parse_hit_frac", "frac"),
    ("serve.facts_hit_frac", "frac"),
    ("serve.summary_hit_frac", "frac"),
    ("serve.pta_hit_frac", "frac"),
    ("serve.insertions", "count"),
    ("serve.evictions", "count"),
    ("serve.parses", "count"),
    ("serve.analyses", "count"),
    ("serve.summary_replays", "count"),
    ("serve.pta_solves", "count"),
    ("serve.pta_propagations", "count"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
];

/// Span name → the per-layer metric holding its mean self time per call.
const SPAN_MS: &[(&str, &str)] = &[
    ("frontend", "frontend.ms"),
    ("determinacy.analyze", "determinacy.analyze_ms"),
    ("determinacy.inject", "determinacy.inject_ms"),
    ("determinacy.shortcut", "determinacy.shortcut_ms"),
    ("specialize", "specialize.ms"),
    ("interp", "interp.run_ms"),
    ("pta.baseline", "pta.solve_ms.baseline"),
    ("pta.injected", "pta.solve_ms.injected"),
    ("pta.shortcut", "pta.solve_ms.shortcut"),
    ("pta.specialized", "pta.solve_ms.specialized"),
];

/// Layer → the metric holding its share of op wall time.
const LAYER_SHARES: &[(&str, &str)] = &[
    ("frontend", "frontend.share"),
    ("determinacy", "determinacy.share"),
    ("specialize", "specialize.share"),
    ("pta", "pta.share"),
    ("interp", "interp.share"),
    ("serve", "serve.share"),
];

/// Counters reported as their mean per call.
const COUNTER_MEANS: &[&str] = &[
    "determinacy.steps",
    "determinacy.counterfactuals",
    "determinacy.cf_aborts",
    "determinacy.heap_flushes",
    "determinacy.handlers_fired",
    "determinacy.det_facts",
    "determinacy.shortcut_candidates",
    "determinacy.shortcut_regions",
    "determinacy.shortcut_degraded",
    "determinacy.inject_sites",
    "interp.steps",
    "specialize.clones",
    "specialize.keys_staticized",
    "specialize.branches_pruned",
    "specialize.calls_redirected",
    "pta.propagations",
    "pta.nodes",
    "pta.edges",
    "pta.call_edges",
    "pta.scc_passes",
    "pta.nodes_merged",
    "pta.injected_keys",
    "pta.injected_calls",
    "pta.shortcut_tuples",
];

/// Metrics that are exact for a given benchmark version, taken from the
/// reference pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact {
    /// Solves that reached their fixpoint ÷ solves.
    pub pta_completed_frac: f64,
    /// Mean points-to set size over solves.
    pub avg_points_to: f64,
    /// Mean determinate facts per analyzed input.
    pub det_facts: f64,
}

/// Running sums behind [`Exact`].
#[derive(Debug, Default)]
pub struct ExactSums {
    solves: u64,
    completed: u64,
    points_to: f64,
    analyses: u64,
    det_facts: f64,
}

impl ExactSums {
    /// Adds one solve.
    pub fn solve(&mut self, completed: bool, avg_points_to: f64) {
        self.solves += 1;
        self.completed += u64::from(completed);
        self.points_to += avg_points_to;
    }

    /// Adds one analyzed input.
    pub fn analysis(&mut self, det_facts: usize) {
        self.analyses += 1;
        self.det_facts += det_facts as f64;
    }

    /// The means.
    pub fn exact(&self) -> Exact {
        let per = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        Exact {
            pta_completed_frac: per(self.completed as f64, self.solves),
            avg_points_to: per(self.points_to, self.solves),
            det_facts: per(self.det_facts, self.analyses),
        }
    }
}

/// One workload's timed loop. Only `op` is timed.
pub trait Workload {
    /// What an op is given.
    type In;
    /// What an op hands to its check.
    type Out;
    /// Ops per input cycle.
    fn cycle_len(&self) -> usize;
    /// How far the times of ops of input class `class` move with the host
    /// probe's time, as the exponent `e` in `scaled = measured × scale^e`
    /// (see [`crate::host`]): about the slope of the log of the op times,
    /// per second of a pinned run, over the log of the probe's time.
    /// Set-up is always scaled with 1.
    fn host_elasticity(&self, _class: u64) -> f64 {
        1.0
    }
    /// The sources this workload passes to `DetHarness::from_src`, for
    /// the parse/lower probe of the traced run.
    fn frontend_inputs(&self) -> Vec<&str>;
    /// Prepares op `k`'s input from the seed.
    fn input(&mut self, k: u64) -> Self::In;
    /// Runs one op, recording a span around every layer call.
    fn op(&self, input: Self::In, tr: &mut Tracer) -> Self::Out;
    /// Checks op `k`'s output against the references, counts per-call
    /// counters (while traced), and accumulates exact metrics in cycle 0.
    /// Returns the op's input class: ops of one class do the same work,
    /// and every cycle of the window repeats each class.
    ///
    /// # Errors
    ///
    /// A message describing the mismatch; the op counts as failed.
    fn check(&mut self, k: u64, out: Self::Out, ms: f64, tr: &mut Tracer) -> Result<u64, String>;
    /// Exact metrics of the first cycle (and of set-up, where it analyzes).
    fn exact(&self) -> Exact;
    /// Workload-specific per-layer metrics of the traced cycles.
    fn layer_metrics(&self, _out: &mut BTreeMap<&'static str, f64>) {}
}

/// Run settings.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// What one run measured.
#[derive(Debug)]
pub struct RunOutcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines for the report's comments: sample counts, the host probe and
    /// the unscaled timings.
    pub notes: Vec<String>,
    /// The tracer, holding the spans of a traced run.
    pub tracer: Tracer,
}

/// Parse and lower times of one probe input.
struct Probe {
    parse_s: f64,
    lower_s: f64,
    bytes: usize,
    stmts: usize,
}

/// Times parse and lowering of each input once, inside one big-stack
/// closure (the AST is `Rc`-based and cannot leave that thread). Not
/// part of any op.
fn probe_frontend(inputs: &[&str]) -> Result<Vec<Probe>, String> {
    inputs
        .iter()
        .map(|src| {
            mujs_syntax::with_parser_stack(|| {
                let t0 = Instant::now();
                let ast = mujs_syntax::parse(src).map_err(|e| format!("probe parse: {e}"))?;
                let t1 = Instant::now();
                let prog = mujs_ir::lower_program(&ast);
                let t2 = Instant::now();
                Ok(Probe {
                    parse_s: (t1 - t0).as_secs_f64(),
                    lower_s: (t2 - t1).as_secs_f64(),
                    bytes: src.len(),
                    stmts: prog.stmt_count(),
                })
            })
        })
        .collect()
}

/// Op count and op time of a stretch of the window.
#[derive(Default, Clone, Copy)]
struct Tally {
    ops: u64,
    secs: f64,
}

impl Tally {
    fn add(&mut self, secs: f64) {
        self.ops += 1;
        self.secs += secs;
    }

    fn rate(&self) -> f64 {
        self.ops as f64 / self.secs.max(f64::MIN_POSITIVE)
    }
}

/// One untraced op of the window: its midpoint on the run's clock, its
/// input class (`None` if it failed its check), and its time.
struct TimedOp {
    at: f64,
    class: Option<u64>,
    secs: f64,
}

/// The op rate and latency percentiles of the window. Each op's time is
/// multiplied by `scale(op)` and then counts with its input class's
/// latency (see [`class_latencies`]), so the rate is ops ÷ the sum of
/// those latencies and the percentiles weight each class by its op count.
/// A failed op counts as +inf.
fn op_stats(ops: &[TimedOp], scale: impl Fn(&TimedOp) -> f64) -> [(&'static str, f64); 3] {
    let scaled: Vec<(Option<u64>, f64)> = ops
        .iter()
        .map(|o| (o.class, o.secs * scale(o) * 1e3))
        .collect();
    let ms = class_latencies(&scaled);
    let total_s = ms.iter().sum::<f64>() / 1e3;
    [
        (
            "ops_per_s",
            ms.len() as f64 / total_s.max(f64::MIN_POSITIVE),
        ),
        ("op_p50_ms", percentile(&ms, 50.0).unwrap_or(0.0)),
        ("op_p90_ms", percentile(&ms, 90.0).unwrap_or(0.0)),
    ]
}

/// Ops that failed their check, with the first few messages.
#[derive(Default)]
struct Failures {
    failed: u64,
    errors: Vec<String>,
}

impl Failures {
    /// Records op `k`'s check result; returns its input class if it
    /// passed.
    fn note(&mut self, what: &str, k: u64, r: Result<u64, String>) -> Option<u64> {
        r.map_err(|e| {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(format!("{what} {k}: {e}"));
            }
        })
        .ok()
    }
}

/// Runs op `k` and checks it: `(seconds, peak heap MiB, check result)`.
/// Only the op is timed; the heap peak reads 0 unless counting is on.
fn one_op<W: Workload>(w: &mut W, k: u64, tr: &mut Tracer) -> (f64, f64, Result<u64, String>) {
    let input = w.input(k);
    let heap_base = heap::reset_peak();
    let t0 = Instant::now();
    let out = tr.span("op", |tr| w.op(input, tr));
    let secs = t0.elapsed().as_secs_f64();
    let heap_mb = (heap::peak() - heap_base).max(0) as f64 / (1024.0 * 1024.0);
    (secs, heap_mb, w.check(k, out, secs * 1e3, tr))
}

/// Runs one workload: the reference pass, timed set-ups, then the window,
/// then the report.
///
/// The reference pass (untraced runs only) sets the workload up with
/// [`REFERENCE_SEED`] and runs one input cycle untimed with heap counting
/// on. `op_heap_mb` and the exact metrics come from it, so they do not
/// vary with `--seed`, and the window runs on the plain allocator.
///
/// The run pins itself to one CPU first. Each set-up and each op of the
/// window is scaled to the host probe's reference speed with the probes
/// taken around it (see [`crate::host`]). `setup_s` is the median scaled
/// set-up; the op rate and latency percentiles come from the per-class
/// latencies of the window's untraced ops (see [`op_stats`]).
///
/// # Errors
///
/// Set-up failures (the run measured nothing).
pub fn run<W: Workload>(
    opts: &RunOpts,
    setup: impl Fn(u64, &Expected, &mut Tracer) -> Result<W, String>,
) -> Result<RunOutcome, String> {
    let expected = Expected::load()?;
    let pinned = host::pin_to_current_cpu();
    let mut host = HostSpeed::new();
    let mut tr = Tracer::new(false);
    let mut fails = Failures::default();
    // `(midpoint, seconds)` of each set-up.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut timed_setup = |seed: u64, tr: &mut Tracer, host: &mut HostSpeed| {
        host.sample();
        let at = host.now();
        let t0 = Instant::now();
        let w = tr.span("setup", |tr| setup(seed, &expected, tr));
        let secs = t0.elapsed().as_secs_f64();
        setups.push((at + secs / 2.0, secs));
        w.map(|w| (w, setups.len(), setups.iter().map(|s| s.1).sum::<f64>()))
    };

    let mut reference = None;
    let mut attempted = 0u64;
    if !opts.trace {
        let (mut r, _, _) = timed_setup(REFERENCE_SEED, &mut tr, &mut host)?;
        let cycle = r.cycle_len() as u64;
        let mut heap_mb = Vec::new();
        heap::set_counting(true);
        for k in 0..cycle {
            let (_, mb, ok) = one_op(&mut r, k, &mut tr);
            fails.note("reference op", k, ok);
            heap_mb.push(mb);
        }
        heap::set_counting(false);
        attempted += cycle;
        let mean_mb = heap_mb.iter().sum::<f64>() / heap_mb.len().max(1) as f64;
        reference = Some((mean_mb, r.exact()));
    }

    // Each set-up is dropped before the next is built, so peak memory
    // holds one copy; the window uses the last. A traced run sets up once,
    // traced, and reports no `setup_s`.
    let mut w = loop {
        tr.set_on(opts.trace);
        let (w, n, total) = timed_setup(opts.seed, &mut tr, &mut host)?;
        tr.set_on(false);
        if opts.trace || n >= MAX_SETUPS || (n >= MIN_SETUPS && total >= SETUP_BUDGET_S) {
            break w;
        }
    };
    let frontend = if opts.trace {
        probe_frontend(&w.frontend_inputs())?
    } else {
        Vec::new()
    };

    let cycle = w.cycle_len().max(1) as u64;
    // A traced run alternates untraced and traced cycles, so both see the
    // same input mix; the untraced ones give the tracing overhead.
    let min_cycles = if opts.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut last_probe = f64::NEG_INFINITY;
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut timed = Vec::new();
    let mut k = 0u64;
    loop {
        if k.is_multiple_of(cycle) {
            let c = k / cycle;
            if c >= min_cycles && start.elapsed().as_secs_f64() >= opts.seconds {
                break;
            }
            tr.set_on(opts.trace && c % 2 == 1);
        }
        if host.now() - last_probe >= PROBE_EVERY_S {
            host.sample();
            last_probe = host.now();
        }
        let at = host.now();
        let (secs, _, checked) = one_op(&mut w, k, &mut tr);
        let class = fails.note("op", k, checked);
        if tr.is_on() {
            traced.add(secs);
        } else {
            plain.add(secs);
            timed.push(TimedOp {
                at: at + secs / 2.0,
                class,
                secs,
            });
        }
        k += 1;
    }
    tr.set_on(false);
    attempted += k;

    let probes = host.times_ms();
    let probe = median(&probes).unwrap_or(host::REFERENCE_MS);
    let mut notes = vec![
        match pinned {
            Some(cpu) => format!("pinned to CPU {cpu}"),
            None => "not pinned to a CPU".to_owned(),
        },
        format!(
            "{} untraced ops in {} cycles of {cycle}",
            timed.len(),
            k / cycle
        ),
        format!(
            "host probe: median {probe:.3} ms over {} probes (reference {} ms)",
            probes.len(),
            host::REFERENCE_MS
        ),
    ];
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let names = if let Some((heap_mb, exact)) = reference {
        let setup_s = |scale: &dyn Fn(f64) -> f64| {
            let v: Vec<f64> = setups.iter().map(|&(at, s)| s * scale(at)).collect();
            ("setup_s", median(&v).unwrap_or(0.0))
        };
        let unscaled = [setup_s(&|_| 1.0)]
            .into_iter()
            .chain(op_stats(&timed, |_| 1.0));
        notes.push(format!(
            "unscaled: {}",
            unscaled
                .map(|(name, v)| format!("{name} {v:.6}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let scale = |o: &TimedOp| {
            let e = o.class.map_or(1.0, |c| w.host_elasticity(c));
            host.scale_at(o.at).powf(e)
        };
        for (name, v) in [setup_s(&|at| host.scale_at(at))]
            .into_iter()
            .chain(op_stats(&timed, scale))
        {
            m.insert(name, v);
        }
        m.insert("op_heap_mb", heap_mb);
        m.insert("pta_completed_frac", exact.pta_completed_frac);
        m.insert("avg_points_to", exact.avg_points_to);
        m.insert("det_facts", exact.det_facts);
        END_TO_END
    } else {
        layer_metrics(&tr, &frontend, &mut m);
        w.layer_metrics(&mut m);
        m.insert("trace_overhead_frac", 1.0 - traced.rate() / plain.rate());
        m.insert("host.probe_ms", probe);
        PER_LAYER
    };
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let v = m.get(name).copied().unwrap_or(0.0);
            // A failed op is +inf in the percentiles; report it as the
            // largest finite number so the result stays valid JSON.
            let v = if v.is_finite() { v } else { f64::MAX };
            (name, v, unit)
        })
        .collect();
    Ok(RunOutcome {
        attempted,
        failed: fails.failed,
        errors: fails.errors,
        metrics,
        notes,
        tracer: tr,
    })
}

/// Per-layer metrics derived from the spans, the counters and the probe.
fn layer_metrics(tr: &Tracer, probes: &[Probe], m: &mut BTreeMap<&'static str, f64>) {
    let spans = tr.spans();
    let selfs = self_times(spans);
    let root = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut per_name: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut per_layer_in_ops: BTreeMap<&str, f64> = BTreeMap::new();
    let mut op_total = 0.0;
    let mut op_self = 0.0;
    for (i, s) in spans.iter().enumerate() {
        let self_s = selfs[i] as f64 / 1e9;
        let e = per_name.entry(s.name).or_insert((0.0, 0));
        e.0 += self_s;
        e.1 += 1;
        if s.name == "op" {
            op_total += s.duration_ns() as f64 / 1e9;
            op_self += self_s;
        } else if spans[root(i)].name == "op" {
            *per_layer_in_ops.entry(s.layer()).or_insert(0.0) += self_s;
        }
    }
    let self_secs = |name: &str| per_name.get(name).map_or(0.0, |e| e.0);
    for &(span, metric) in SPAN_MS {
        if let Some(&(secs, n)) = per_name.get(span) {
            m.insert(metric, secs * 1e3 / n as f64);
        }
    }
    if op_total > 0.0 {
        for &(layer, metric) in LAYER_SHARES {
            let share = per_layer_in_ops.get(layer).copied().unwrap_or(0.0) / op_total;
            m.insert(metric, share);
        }
        m.insert("trace.coverage", 1.0 - op_self / op_total);
    }
    for &name in COUNTER_MEANS {
        m.insert(name, tr.mean(name));
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.insert(
        "determinacy.det_fact_frac",
        ratio(tr.sum("determinacy.det_facts"), tr.sum("determinacy.facts")),
    );
    m.insert(
        "determinacy.shortcut_yield",
        ratio(
            tr.sum("determinacy.shortcut_regions"),
            tr.sum("determinacy.shortcut_candidates"),
        ),
    );
    m.insert(
        "determinacy.msteps_per_s",
        ratio(
            tr.sum("determinacy.steps"),
            self_secs("determinacy.analyze"),
        ) / 1e6,
    );
    m.insert(
        "interp.msteps_per_s",
        ratio(tr.sum("interp.steps"), self_secs("interp")) / 1e6,
    );
    let pta_secs: f64 = per_name
        .iter()
        .filter(|(n, _)| n.starts_with("pta."))
        .map(|(_, e)| e.0)
        .sum();
    m.insert(
        "pta.mprops_per_s",
        ratio(tr.sum("pta.propagations"), pta_secs) / 1e6,
    );
    if !probes.is_empty() {
        let n = probes.len() as f64;
        let parse_s: f64 = probes.iter().map(|p| p.parse_s).sum();
        let lower_s: f64 = probes.iter().map(|p| p.lower_s).sum();
        let bytes: usize = probes.iter().map(|p| p.bytes).sum();
        let stmts: usize = probes.iter().map(|p| p.stmts).sum();
        let parse_ms = parse_s * 1e3 / n;
        let lower_ms = lower_s * 1e3 / n;
        m.insert("syntax.parse_ms", parse_ms);
        m.insert("ir.lower_ms", lower_ms);
        m.insert("syntax.mb_per_s", ratio(bytes as f64, parse_s) / 1e6);
        m.insert("ir.stmts", stmts as f64 / n);
        if let Some(&frontend_ms) = m.get("frontend.ms") {
            m.insert("frontend.spawn_ms", frontend_ms - parse_ms - lower_ms);
        }
    }
}
