//! `table1`: one Table 1 cell per op, round-robin over the eight
//! (version × {Spec, Spec+DetDOM}) cells in a seeded order per cycle.
//!
//! This is the paper's headline experiment. About nine tenths of an op is
//! the instrumented machine, so it is where interpreter work shows.

use super::{count_analysis, count_pta, count_spec};
use crate::expected::{Expected, Table1Cell};
use crate::inputs::cycle_order;
use crate::runner::{Exact, ExactSums, Workload};
use crate::trace::Tracer;
use determinacy::{
    injectable_facts, supervised_analyze_dom, AnalysisConfig, AnalysisOutcome, AnalysisStatus,
    DetHarness, RunHooks,
};
use mujs_corpus::jquery_like::{all_versions, JQueryLike};
use mujs_ir::Program;
use mujs_pta::{PtaConfig, PtaResult, PtaStatus};
use mujs_specialize::{specialize, SpecConfig, Specialized};

/// The table1 workload.
pub struct Table1 {
    seed: u64,
    pages: Vec<JQueryLike>,
    cells: Vec<(usize, Table1Cell)>,
    budget: u64,
    order: (u64, Vec<usize>),
    exact: ExactSums,
}

/// Everything one cell produced, handed to the check.
pub struct CellRun {
    cell: usize,
    analysis: AnalysisOutcome,
    program: Program,
    spec: Specialized,
    inject_sites: usize,
    spec_solve: PtaResult,
    inj_solve: PtaResult,
}

impl Table1 {
    /// Builds the four pages and checks that each parses.
    ///
    /// # Errors
    ///
    /// A page that does not parse, or a cell naming an unknown version.
    pub fn setup(seed: u64, expected: &Expected, tr: &mut Tracer) -> Result<Self, String> {
        let pages = all_versions();
        for p in &pages {
            tr.span("frontend", |_| DetHarness::from_src(&p.src))
                .map_err(|e| format!("jQuery-like {}: {e}", p.version))?;
        }
        let cells = expected
            .table1
            .iter()
            .map(|c| {
                let page = pages
                    .iter()
                    .position(|p| p.version == c.version)
                    .ok_or_else(|| format!("no corpus version {}", c.version))?;
                Ok((page, c.clone()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Table1 {
            seed,
            pages,
            cells,
            budget: expected.table1_budget,
            order: (u64::MAX, Vec::new()),
            exact: ExactSums::default(),
        })
    }
}

impl Workload for Table1 {
    type In = usize;
    type Out = Result<CellRun, String>;

    fn input(&mut self, k: u64) -> usize {
        let n = self.cells.len();
        let c = k / n as u64;
        if self.order.0 != c {
            self.order = (c, cycle_order(self.seed, c, n));
        }
        self.order.1[(k % n as u64) as usize]
    }

    fn cycle_len(&self) -> usize {
        self.cells.len()
    }

    /// Chosen over ten pinned runs, as the exponent that minimized their
    /// spread (1.2–1.4 did best; 1, the probe's own, left 1.5–2 times as
    /// much): the 1.3 cells, most of this loop's time, work through tens
    /// of MiB of heap and slow down more than the probe does.
    fn host_elasticity(&self, _class: u64) -> f64 {
        1.25
    }

    fn frontend_inputs(&self) -> Vec<&str> {
        self.cells
            .iter()
            .map(|(page, _)| self.pages[*page].src.as_str())
            .collect()
    }

    fn op(&self, cell: usize, tr: &mut Tracer) -> Self::Out {
        let (page, ref c) = self.cells[cell];
        let v = &self.pages[page];
        let mut h = tr
            .span("frontend", |_| DetHarness::from_src(&v.src))
            .map_err(|e| e.to_string())?;
        let cfg = AnalysisConfig {
            det_dom: c.det_dom,
            ..Default::default()
        };
        let mut analysis = tr
            .span("determinacy.analyze", |_| {
                supervised_analyze_dom(&mut h, cfg, v.doc.clone(), &v.plan, &RunHooks::supervised())
            })
            .map_err(|e| e.to_string())?;
        let spec = tr.span("specialize", |_| {
            specialize(
                &h.program,
                &analysis.facts,
                &mut analysis.ctxs,
                &SpecConfig::default(),
            )
        });
        let facts = tr.span("determinacy.inject", |_| {
            injectable_facts(&analysis.facts, &mut h.program)
        });
        let inject_sites = facts.len();
        let budget = self.budget;
        let spec_solve = tr.span("pta.specialized", |_| {
            mujs_pta::solve(
                &spec.program,
                &PtaConfig {
                    budget,
                    ..Default::default()
                },
            )
        });
        let inj_solve = tr.span("pta.injected", |_| {
            mujs_pta::solve(
                &h.program,
                &PtaConfig {
                    budget,
                    facts: Some(facts),
                    ..Default::default()
                },
            )
        });
        Ok(CellRun {
            cell,
            analysis,
            program: h.program,
            spec,
            inject_sites,
            spec_solve,
            inj_solve,
        })
    }

    fn check(&mut self, k: u64, out: Self::Out, _ms: f64, tr: &mut Tracer) -> Result<u64, String> {
        let r = out?;
        let c = &self.cells[r.cell].1;
        let det_facts = r.analysis.facts.det_count();
        count_analysis(
            tr,
            std::slice::from_ref(&r.analysis),
            r.analysis.facts.len(),
            det_facts,
        );
        count_spec(tr, &r.spec.report);
        tr.count("determinacy.inject_sites", r.inject_sites as f64);
        count_pta(tr, &r.spec_solve);
        count_pta(tr, &r.inj_solve);
        if k < self.cells.len() as u64 {
            self.exact.analysis(det_facts);
            for (res, prog) in [(&r.spec_solve, &r.spec.program), (&r.inj_solve, &r.program)] {
                self.exact.solve(
                    res.status == PtaStatus::Completed,
                    res.precision(prog).avg_points_to,
                );
            }
        }
        let label = format!(
            "{} {}",
            c.version,
            if c.det_dom { "Spec+DetDOM" } else { "Spec" }
        );
        let completes = r.spec_solve.status == PtaStatus::Completed;
        if completes != c.completes {
            return Err(format!(
                "{label}: specialized solve completes={completes}, Table 1 says {}",
                c.completes
            ));
        }
        let capped = r.analysis.status == AnalysisStatus::FlushCapReached;
        let flushes = r.analysis.stats.heap_flushes;
        let flush_ok = match c.flushes {
            None => capped,
            Some(n) => !capped && flushes == n,
        };
        if !flush_ok {
            return Err(format!(
                "{label}: {flushes} flushes (cap reached: {capped}), Table 1 says {:?}",
                c.flushes
            ));
        }
        Ok(r.cell as u64)
    }

    fn exact(&self) -> Exact {
        self.exact.exact()
    }
}
