//! High-level analysis drivers: parse + lower + instrumented run,
//! optionally with a DOM and post-load event plan.

use crate::config::{AnalysisConfig, AnalysisStats, AnalysisStatus};
use crate::facts::FactDb;
use crate::machine::{DMachine, DObservation};
use crate::supervisor::RunHooks;
use crate::trace::HeapTrace;
use mujs_dom::document::Document;
use mujs_dom::events::EventPlan;
use mujs_interp::context::ContextTable;
use mujs_ir::Program;
use mujs_syntax::span::SourceFile;
use mujs_syntax::SyntaxError;

/// Everything one instrumented run produces.
#[derive(Debug)]
pub struct AnalysisOutcome {
    /// How the run ended.
    pub status: AnalysisStatus,
    /// The determinacy facts.
    pub facts: FactDb,
    /// Run statistics (heap flushes, counterfactuals, ...).
    pub stats: AnalysisStats,
    /// Captured output.
    pub output: Vec<String>,
    /// Interned contexts (needed to interpret the facts).
    pub ctxs: ContextTable,
    /// Observations for the soundness harness, when enabled.
    pub observations: Vec<DObservation>,
    /// The heap trace, when [`RunHooks::trace`] was set.
    pub trace: Option<Box<HeapTrace>>,
}

/// A parsed + lowered program ready for (repeated) analysis.
#[derive(Debug)]
pub struct DetHarness {
    /// The lowered program.
    pub program: Program,
    /// The source, for fact rendering.
    pub source: SourceFile,
}

impl DetHarness {
    /// Parses and lowers `src`.
    ///
    /// # Errors
    ///
    /// Syntax errors.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), mujs_syntax::SyntaxError> {
    /// use determinacy::driver::DetHarness;
    /// let mut h = DetHarness::from_src("var x = { f: 23 };")?;
    /// let out = h.analyze(Default::default());
    /// assert!(out.facts.det_count() > 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_src(src: &str) -> Result<Self, SyntaxError> {
        // Parse and lower on the caller's stack; only input nested past
        // `INLINE_NESTING` moves to a big-stack thread.
        let program = mujs_syntax::parse_with(src, mujs_ir::lower_program)?;
        #[cfg(debug_assertions)]
        mujs_analysis::assert_valid(&program);
        Ok(DetHarness {
            program,
            source: SourceFile::new("main.js", src),
        })
    }

    /// Runs the instrumented machine without a DOM.
    pub fn analyze(&mut self, cfg: AnalysisConfig) -> AnalysisOutcome {
        self.analyze_with(cfg, &RunHooks::default())
    }

    /// [`DetHarness::analyze`] with supervision hooks (cancellation,
    /// progress reporting, fault injection) installed on the machine.
    pub fn analyze_with(&mut self, cfg: AnalysisConfig, hooks: &RunHooks) -> AnalysisOutcome {
        let mut m = DMachine::new(&mut self.program, cfg);
        m.install_hooks(hooks);
        let status = m.run();
        finish(m, status)
    }

    /// Runs with a DOM installed, then fires the event plan.
    pub fn analyze_dom(
        &mut self,
        cfg: AnalysisConfig,
        doc: Document,
        plan: &EventPlan,
    ) -> AnalysisOutcome {
        self.analyze_dom_with(cfg, doc, plan, &RunHooks::default())
    }

    /// [`DetHarness::analyze_dom`] with supervision hooks installed.
    pub fn analyze_dom_with(
        &mut self,
        cfg: AnalysisConfig,
        doc: Document,
        plan: &EventPlan,
        hooks: &RunHooks,
    ) -> AnalysisOutcome {
        let mut m = DMachine::new(&mut self.program, cfg);
        m.install_hooks(hooks);
        let status = m.run_page(doc, plan);
        finish(m, status)
    }
}

fn finish(mut m: DMachine<'_>, status: AnalysisStatus) -> AnalysisOutcome {
    m.stats.steps = m.steps();
    AnalysisOutcome {
        status,
        stats: m.stats.clone(),
        output: std::mem::take(&mut m.output),
        observations: std::mem::take(&mut m.observations),
        facts: std::mem::replace(&mut m.facts, FactDb::new(0)),
        ctxs: std::mem::take(&mut m.ctxs),
        trace: m.tracer.take().map(|t| Box::new(t.out)),
    }
}

/// One-shot: analyze `src` with the default configuration.
///
/// # Errors
///
/// Syntax errors.
pub fn analyze_src(src: &str) -> Result<AnalysisOutcome, SyntaxError> {
    let mut h = DetHarness::from_src(src)?;
    Ok(h.analyze(AnalysisConfig::default()))
}
