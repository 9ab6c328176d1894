//! `pta-modes`: one solve per op over 16 (version × mode) pairs, with the
//! dynamic analysis, fact injection, shortcut replay and specialization
//! done once in set-up.
//!
//! The timed loop is all pointer analysis, so interpreter changes should
//! move nothing here and solver changes should show here first.

use super::{count_analysis, count_pta, count_spec};
use crate::expected::{Expected, PtaVersion};
use crate::inputs::cycle_order;
use crate::runner::{Exact, ExactSums, Workload};
use crate::trace::Tracer;
use determinacy::{
    injectable_facts, shortcut_summaries, supervised_analyze_dom, AnalysisConfig, DetHarness,
    RunHooks,
};
use mujs_corpus::jquery_like::all_versions;
use mujs_ir::Program;
use mujs_pta::{PtaConfig, PtaResult, PtaStatus};
use mujs_specialize::{specialize, SpecConfig};
use std::hash::Hasher;
use std::sync::Arc;

/// The solve modes (as span names), in pair order within a version.
const MODES: [&str; 4] = [
    "pta.baseline",
    "pta.injected",
    "pta.shortcut",
    "pta.specialized",
];
const BASELINE: usize = 0;
const SHORTCUT: usize = 2;
const SPECIALIZED: usize = 3;

/// One version's prepared programs and solver configurations.
struct Prepared {
    expected: PtaVersion,
    src: String,
    program: Program,
    specialized: Program,
    /// Solver configuration per mode, in [`MODES`] order.
    configs: [PtaConfig; 4],
}

impl Prepared {
    /// The program a mode solves.
    fn program(&self, mode: usize) -> &Program {
        if mode == SPECIALIZED {
            &self.specialized
        } else {
            &self.program
        }
    }
}

/// The pta-modes workload.
pub struct PtaModes {
    seed: u64,
    versions: Vec<Prepared>,
    order: (u64, Vec<usize>),
    /// `export_json` digest of each pair, from its first solve.
    digests: Vec<Option<u64>>,
    exact: ExactSums,
}

/// One solve, handed to the check.
pub struct Solve {
    pair: usize,
    result: PtaResult,
}

fn digest(r: &PtaResult) -> u64 {
    let mut h = mujs_pta::hash::FxHasher::default();
    h.write(r.export_json().as_bytes());
    h.finish()
}

impl PtaModes {
    /// Analyzes each version once under DetDOM and builds its facts,
    /// shortcut summaries and specialization.
    ///
    /// # Errors
    ///
    /// A page that does not parse or whose analysis fails, or a reference
    /// naming an unknown version.
    pub fn setup(seed: u64, expected: &Expected, tr: &mut Tracer) -> Result<Self, String> {
        let pages = all_versions();
        let mut versions = Vec::new();
        // The analyses run only here, so their fact counts are set-up's.
        let mut exact = ExactSums::default();
        for ev in &expected.pta_versions {
            let v = pages
                .iter()
                .find(|p| p.version == ev.version)
                .ok_or_else(|| format!("no corpus version {}", ev.version))?;
            let mut h = tr
                .span("frontend", |_| DetHarness::from_src(&v.src))
                .map_err(|e| format!("jQuery-like {}: {e}", v.version))?;
            let cfg = AnalysisConfig {
                det_dom: true,
                ..Default::default()
            };
            let mut analysis = tr
                .span("determinacy.analyze", |_| {
                    supervised_analyze_dom(
                        &mut h,
                        cfg.clone(),
                        v.doc.clone(),
                        &v.plan,
                        &RunHooks::supervised(),
                    )
                })
                .map_err(|e| format!("jQuery-like {}: {e}", v.version))?;
            let det_facts = analysis.facts.det_count();
            count_analysis(
                tr,
                std::slice::from_ref(&analysis),
                analysis.facts.len(),
                det_facts,
            );
            let mut program = h.program;
            let facts = tr.span("determinacy.inject", |_| {
                injectable_facts(&analysis.facts, &mut program)
            });
            tr.count("determinacy.inject_sites", facts.len() as f64);
            let sums = tr.span("determinacy.shortcut", |_| {
                shortcut_summaries(&v.src, &v.doc, &v.plan, &cfg, &analysis.facts, &mut program)
            });
            tr.count("determinacy.shortcut_candidates", sums.candidates as f64);
            tr.count("determinacy.shortcut_regions", sums.summaries.len() as f64);
            tr.count(
                "determinacy.shortcut_degraded",
                f64::from(u8::from(sums.degraded)),
            );
            let spec = tr.span("specialize", |_| {
                specialize(
                    &program,
                    &analysis.facts,
                    &mut analysis.ctxs,
                    &SpecConfig::default(),
                )
            });
            count_spec(tr, &spec.report);
            let budget = |budget| PtaConfig {
                budget,
                ..Default::default()
            };
            let configs = [
                budget(expected.baseline_budget),
                PtaConfig {
                    facts: Some(facts.clone()),
                    ..budget(expected.mode_budget)
                },
                PtaConfig {
                    facts: Some(facts),
                    shortcuts: Some(Arc::new(sums.summaries)),
                    ..budget(expected.mode_budget)
                },
                budget(expected.mode_budget),
            ];
            versions.push(Prepared {
                expected: ev.clone(),
                src: v.src.clone(),
                program,
                specialized: spec.program,
                configs,
            });
            exact.analysis(det_facts);
        }
        let pairs = versions.len() * MODES.len();
        Ok(PtaModes {
            seed,
            versions,
            order: (u64::MAX, Vec::new()),
            digests: vec![None; pairs],
            exact,
        })
    }
}

impl Workload for PtaModes {
    type In = usize;
    type Out = Solve;

    fn input(&mut self, k: u64) -> usize {
        let n = self.digests.len();
        let c = k / n as u64;
        if self.order.0 != c {
            self.order = (c, cycle_order(self.seed, c, n));
        }
        self.order.1[(k % n as u64) as usize]
    }

    fn cycle_len(&self) -> usize {
        self.digests.len()
    }

    /// The baseline solves, most of this loop's time, work through a few
    /// hundred MiB of points-to sets and slow down more than the host
    /// probe when neighbours load the host: the per-second slope fitted
    /// over ten pinned runs was 1.36.
    fn host_elasticity(&self, _class: u64) -> f64 {
        1.4
    }

    fn frontend_inputs(&self) -> Vec<&str> {
        self.versions.iter().map(|v| v.src.as_str()).collect()
    }

    fn op(&self, pair: usize, tr: &mut Tracer) -> Solve {
        let v = &self.versions[pair / MODES.len()];
        let mode = pair % MODES.len();
        let (prog, cfg) = (v.program(mode), &v.configs[mode]);
        let result = tr.span(MODES[mode], |_| mujs_pta::solve(prog, cfg));
        Solve { pair, result }
    }

    fn check(&mut self, k: u64, out: Solve, _ms: f64, tr: &mut Tracer) -> Result<u64, String> {
        let Solve { pair, result } = out;
        count_pta(tr, &result);
        let v = &self.versions[pair / MODES.len()];
        let mode = pair % MODES.len();
        let label = format!("{} {}", v.expected.version, MODES[mode]);
        let completed = result.status == PtaStatus::Completed;
        let first_cycle = k < self.digests.len() as u64;
        if first_cycle {
            self.exact
                .solve(completed, result.precision(v.program(mode)).avg_points_to);
        }
        if mode == BASELINE
            && (!completed || result.stats.propagations != v.expected.baseline_propagations)
        {
            return Err(format!(
                "{label}: {} propagations (completed: {completed}), expected fixpoint {}",
                result.stats.propagations, v.expected.baseline_propagations
            ));
        }
        if mode == SHORTCUT && completed != v.expected.shortcut_completes {
            return Err(format!(
                "{label}: completed={completed}, expected {}",
                v.expected.shortcut_completes
            ));
        }
        // Digests are checked in the first cycle and every power-of-two
        // cycle after it: rendering a 900k-tuple export costs more than
        // the solve, so doing it every cycle would starve the window.
        let c = k / self.digests.len() as u64;
        if c.is_power_of_two() || c == 0 {
            let d = digest(&result);
            match self.digests[pair] {
                None => self.digests[pair] = Some(d),
                Some(prev) if prev != d => {
                    return Err(format!("{label}: export differs from the first solve"));
                }
                Some(_) => {}
            }
        }
        Ok(pair as u64)
    }

    fn exact(&self) -> Exact {
        self.exact.exact()
    }
}
