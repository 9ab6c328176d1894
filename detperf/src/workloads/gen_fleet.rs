//! `gen-fleet`: the whole pipeline over a seeded pool of small generated
//! programs, one program per op.
//!
//! Per-program fixed costs (thread spawn, machine set-up) dominate here,
//! where the 85 KB jQuery pages amortize them.

use super::{count_analysis, count_pta};
use crate::expected::Expected;
use crate::inputs::{cycle_order, program_pool, program_seed};
use crate::runner::{Exact, ExactSums, Workload};
use crate::trace::Tracer;
use determinacy::multirun::{analyze_many, MultiRunOutcome};
use determinacy::{injectable_facts, AnalysisConfig, AnalysisStatus, DetHarness};
use mujs_interp::{Interp, InterpOptions, RunError};
use mujs_ir::Program;
use mujs_pta::{PtaConfig, PtaResult, PtaStatus};

/// Programs in the pool.
pub const POOL: usize = 1024;

/// Instrumented runs per program (seeds `s..s+4`).
const RUNS: u64 = 4;

/// The gen-fleet workload.
pub struct GenFleet {
    seed: u64,
    pool: Vec<String>,
    budget: u64,
    max_conflicts: u64,
    order: (u64, Vec<usize>),
    exact: ExactSums,
}

/// Everything one program produced, handed to the check.
pub struct ProgramRun {
    /// The program's index in the pool.
    index: usize,
    multi: MultiRunOutcome,
    inject_sites: usize,
    program: Program,
    solve: PtaResult,
    concrete: Result<(), RunError>,
    concrete_output: Vec<String>,
    concrete_steps: u64,
}

/// The analysis seed of pool program `i`: small, so every machine sees
/// ordinary `Math.random` streams.
fn run_seed(seed: u64, i: usize) -> u64 {
    program_seed(seed, i) % 1_000_000
}

impl GenFleet {
    /// Generates the pool.
    ///
    /// # Errors
    ///
    /// Never; the signature matches the other set-ups.
    pub fn setup(seed: u64, expected: &Expected, _tr: &mut Tracer) -> Result<Self, String> {
        Ok(GenFleet {
            seed,
            pool: program_pool(seed, POOL),
            budget: expected.table1_budget,
            max_conflicts: expected.gen_conflicts,
            order: (u64::MAX, Vec::new()),
            exact: ExactSums::default(),
        })
    }
}

impl Workload for GenFleet {
    type In = usize;
    type Out = Result<ProgramRun, String>;

    fn input(&mut self, k: u64) -> usize {
        let c = k / POOL as u64;
        if self.order.0 != c {
            self.order = (c, cycle_order(self.seed, c, POOL));
        }
        self.order.1[(k % POOL as u64) as usize]
    }

    fn cycle_len(&self) -> usize {
        POOL
    }

    /// The per-second slope fitted over ten pinned runs was 1.32.
    fn host_elasticity(&self, _class: u64) -> f64 {
        1.3
    }

    fn frontend_inputs(&self) -> Vec<&str> {
        self.pool.iter().map(String::as_str).collect()
    }

    fn op(&self, i: usize, tr: &mut Tracer) -> Self::Out {
        let s = run_seed(self.seed, i);
        let src = &self.pool[i];
        let mut h = tr
            .span("frontend", |_| DetHarness::from_src(src))
            .map_err(|e| format!("program {i}: {e}"))?;
        let seeds: Vec<u64> = (s..s + RUNS).collect();
        let multi = tr.span("determinacy.analyze", |_| {
            analyze_many(&mut h, &seeds, AnalysisConfig::default())
        });
        let facts = tr.span("determinacy.inject", |_| {
            injectable_facts(&multi.facts, &mut h.program)
        });
        let inject_sites = facts.len();
        let budget = self.budget;
        let solve = tr.span("pta.injected", |_| {
            mujs_pta::solve(
                &h.program,
                &PtaConfig {
                    budget,
                    facts: Some(facts),
                    ..Default::default()
                },
            )
        });
        let (concrete, concrete_output, concrete_steps) = tr.span("interp", |_| {
            let mut m = Interp::new(
                &mut h.program,
                InterpOptions {
                    seed: s,
                    ..Default::default()
                },
            );
            let r = m.run();
            (r, std::mem::take(&mut m.output), m.steps())
        });
        Ok(ProgramRun {
            index: i,
            multi,
            inject_sites,
            program: h.program,
            solve,
            concrete,
            concrete_output,
            concrete_steps,
        })
    }

    fn check(&mut self, k: u64, out: Self::Out, _ms: f64, tr: &mut Tracer) -> Result<u64, String> {
        let r = out?;
        let det_facts = r.multi.facts.det_count();
        count_analysis(tr, &r.multi.runs, r.multi.facts.len(), det_facts);
        tr.count("determinacy.inject_sites", r.inject_sites as f64);
        count_pta(tr, &r.solve);
        tr.count("interp.steps", r.concrete_steps as f64);
        let completed = r.solve.status == PtaStatus::Completed;
        if k < POOL as u64 {
            self.exact.analysis(det_facts);
            self.exact
                .solve(completed, r.solve.precision(&r.program).avg_points_to);
        }
        if let Some(f) = r.multi.failures.first() {
            return Err(format!("instrumented run failed: {f}"));
        }
        if r.multi.conflicts > self.max_conflicts {
            return Err(format!(
                "{} determinate-vs-determinate conflicts",
                r.multi.conflicts
            ));
        }
        // Theorem 1's machine agreement: on the same seed the instrumented
        // machine prints exactly what the concrete interpreter prints.
        let first = r.multi.runs.first().ok_or("no instrumented run")?;
        if first.status == AnalysisStatus::Completed
            && r.concrete.is_ok()
            && first.output != r.concrete_output
        {
            return Err(format!(
                "instrumented output {:?} differs from concrete output {:?}",
                first.output, r.concrete_output
            ));
        }
        Ok(r.index as u64)
    }

    fn exact(&self) -> Exact {
        self.exact.exact()
    }
}
