//! High-level drivers: parse + lower + run, optionally with a DOM and a
//! post-load event plan. This is the programmatic equivalent of loading an
//! HTML page in the paper's ZombieJS harness.

use crate::concrete::{Interp, InterpOptions, RunError};
use crate::domain::Observation;
use mujs_dom::document::Document;
use mujs_dom::events::EventPlan;
use mujs_ir::Program;
use mujs_syntax::span::SourceFile;
use mujs_syntax::SyntaxError;

/// The result of a driven run.
#[derive(Debug)]
pub struct Outcome {
    /// `Ok` on normal completion.
    pub result: Result<(), RunError>,
    /// Captured `console.log`/`alert` lines.
    pub output: Vec<String>,
    /// Statements executed.
    pub steps: u64,
    /// Per-statement observations (when enabled in the options).
    pub observations: Vec<Observation>,
}

impl Outcome {
    /// Panics with diagnostics unless the run completed normally.
    /// Test-assertion helper; production callers should use
    /// [`Outcome::into_result`] instead.
    ///
    /// # Panics
    ///
    /// When the run failed.
    pub fn expect_ok(&self) -> &Self {
        if let Err(e) = &self.result {
            panic!("run failed: {e}; output so far: {:?}", self.output);
        }
        self
    }

    /// Converts the outcome into a `Result`, pairing a failure with the
    /// output captured before it — diagnostics without panicking.
    ///
    /// # Errors
    ///
    /// [`DriveError::Run`] when the run failed.
    pub fn into_result(self) -> Result<Vec<String>, DriveError> {
        match self.result {
            Ok(()) => Ok(self.output),
            Err(error) => Err(DriveError::Run {
                error,
                output: self.output,
            }),
        }
    }
}

/// Why driving a source string failed: it did not parse, or the run
/// itself ended in an error.
#[derive(Debug, Clone)]
pub enum DriveError {
    /// The source did not parse.
    Syntax(SyntaxError),
    /// The program ran and failed.
    Run {
        /// The failure.
        error: RunError,
        /// Output captured before the failure, for diagnostics.
        output: Vec<String>,
    },
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Syntax(e) => write!(f, "syntax error: {e}"),
            DriveError::Run { error, output } => {
                write!(f, "run failed: {error}; output so far: {output:?}")
            }
        }
    }
}

impl std::error::Error for DriveError {}

impl From<SyntaxError> for DriveError {
    fn from(e: SyntaxError) -> Self {
        DriveError::Syntax(e)
    }
}

/// A parsed + lowered program ready to run (repeatedly, e.g. under
/// different seeds).
#[derive(Debug)]
pub struct Harness {
    /// The lowered program (grows if runs `eval` new code).
    pub program: Program,
    /// The source file, for line-number reporting.
    pub source: SourceFile,
}

impl Harness {
    /// Parses and lowers `src`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SyntaxError`] for malformed input.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), mujs_syntax::SyntaxError> {
    /// use mujs_interp::driver::Harness;
    /// let mut h = Harness::from_src("console.log(1 + 2);")?;
    /// let out = h.run(Default::default());
    /// assert_eq!(out.output, vec!["3"]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_src(src: &str) -> Result<Self, SyntaxError> {
        let program = mujs_syntax::parse_with(src, mujs_ir::lower_program)?;
        #[cfg(debug_assertions)]
        mujs_analysis::assert_valid(&program);
        Ok(Harness {
            program,
            source: SourceFile::new("main.js", src),
        })
    }

    /// Runs without a DOM.
    pub fn run(&mut self, opts: InterpOptions) -> Outcome {
        let mut interp = Interp::new(&mut self.program, opts);
        let result = interp.run();
        Outcome {
            result,
            output: std::mem::take(&mut interp.output),
            steps: interp.steps(),
            observations: std::mem::take(&mut interp.observations),
        }
    }

    /// Runs with a DOM installed and fires `plan` afterwards.
    pub fn run_dom(&mut self, opts: InterpOptions, doc: Document, plan: &EventPlan) -> Outcome {
        let mut interp = Interp::new(&mut self.program, opts);
        let result = interp.run_page(doc, plan);
        Outcome {
            result,
            output: std::mem::take(&mut interp.output),
            steps: interp.steps(),
            observations: std::mem::take(&mut interp.observations),
        }
    }
}

/// One-shot convenience: run `src` and return its captured output.
///
/// # Errors
///
/// [`DriveError::Syntax`] for malformed input, [`DriveError::Run`] (with
/// the output captured up to the failure) when the run fails.
pub fn run_src(src: &str) -> Result<Vec<String>, DriveError> {
    let mut h = Harness::from_src(src)?;
    h.run(InterpOptions::default()).into_result()
}
