//! Job specifications and batch manifests.
//!
//! A [`Manifest`] is the JSON interchange form of a batch: a list of
//! [`JobSpec`]s, each naming a program source, the seeds to fan out over,
//! and optional per-job analysis configuration and budgets. Manifests are
//! serialized through the workspace's serde shims, so they round-trip
//! offline.
//!
//! ```json
//! {
//!   "jobs": [
//!     { "name": "page-1", "src": "var x = 1;", "seeds": [1, 2, 3] },
//!     { "name": "page-2", "src": "f();", "deadline_ms": 2000, "mem_cells": 100000 }
//!   ]
//! }
//! ```
//!
//! `seeds` and `config` may be omitted (defaults apply); when `config` is
//! present it must be a complete [`AnalysisConfig`] object. The
//! `deadline_ms` / `mem_cells` shorthands override the corresponding
//! config budgets, which the machine enforces cooperatively at its poll
//! points exactly as under the PR 1 supervisor.

use crate::pipeline::{PtaStage, StageRequest};
use determinacy::AnalysisConfig;
use serde::{Deserialize, Serialize};

/// One batch-analysis job: a source program plus how to analyze it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique job name (report key and progress label).
    pub name: String,
    /// The JavaScript source to analyze.
    pub src: String,
    /// Seeds to fan out over; `null`/omitted means the default seed.
    pub seeds: Option<Vec<u64>>,
    /// Full analysis configuration; `null`/omitted means
    /// [`AnalysisConfig::default`].
    pub config: Option<AnalysisConfig>,
    /// Per-job wall-clock budget override (milliseconds).
    pub deadline_ms: Option<u64>,
    /// Per-job live heap-cell budget override.
    pub mem_cells: Option<u64>,
}

impl JobSpec {
    /// A job with default seeds and configuration.
    pub fn new(name: impl Into<String>, src: impl Into<String>) -> Self {
        JobSpec {
            name: name.into(),
            src: src.into(),
            seeds: None,
            config: None,
            deadline_ms: None,
            mem_cells: None,
        }
    }

    /// The seeds this job fans out over (the config's seed when
    /// unspecified).
    pub fn effective_seeds(&self) -> Vec<u64> {
        match &self.seeds {
            Some(s) if !s.is_empty() => s.clone(),
            _ => vec![self.effective_config().seed],
        }
    }

    /// The analysis configuration with the per-job budget overrides
    /// applied.
    pub fn effective_config(&self) -> AnalysisConfig {
        let mut c = self.config.clone().unwrap_or_default();
        if self.deadline_ms.is_some() {
            c.deadline_ms = self.deadline_ms;
        }
        if self.mem_cells.is_some() {
            c.mem_cell_budget = self.mem_cells;
        }
        c
    }

    /// The job as a pipeline request with the batch's PTA stage (before
    /// any admission degradation).
    pub fn stage_request(&self, pta: Option<PtaStage>) -> StageRequest {
        StageRequest {
            src: self.src.clone(),
            cfg: self.effective_config(),
            seeds: self.effective_seeds(),
            page: None,
            pta,
        }
    }
}

/// A batch of jobs. Job order is significant: it fixes the combination
/// and report order, which is what makes batch output independent of
/// worker count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// The jobs, in report order.
    pub jobs: Vec<JobSpec>,
}

impl Manifest {
    /// A manifest over the given jobs.
    pub fn new(jobs: Vec<JobSpec>) -> Self {
        Manifest { jobs }
    }

    /// A manifest with one default job per `(name, src)` pair.
    pub fn from_named_sources(sources: Vec<(String, String)>) -> Self {
        Manifest {
            jobs: sources
                .into_iter()
                .map(|(name, src)| JobSpec::new(name, src))
                .collect(),
        }
    }

    /// Parses and validates a JSON manifest.
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed JSON, an empty job list, or
    /// duplicate/empty job names.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let m: Manifest = serde_json::from_str(s).map_err(|e| format!("manifest JSON: {e:?}"))?;
        m.validate()?;
        Ok(m)
    }

    /// Serializes to pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for these types).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Builds a manifest from every `*.js` file in `dir`, sorted by file
    /// name (so the manifest — and therefore the report — is independent
    /// of directory iteration order).
    ///
    /// # Errors
    ///
    /// I/O errors reading the directory or a file, or a validation error
    /// when the directory holds no `.js` files.
    pub fn from_dir(dir: &std::path::Path) -> Result<Self, String> {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("read dir {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "js"))
            .collect();
        paths.sort();
        let mut jobs = Vec::new();
        for p in paths {
            let src =
                std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
            let name = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.display().to_string());
            jobs.push(JobSpec::new(name, src));
        }
        let m = Manifest { jobs };
        m.validate()
            .map_err(|e| format!("{e} (in {})", dir.display()))?;
        Ok(m)
    }

    /// A manifest over a built-in corpus suite: `"jquery"` (the four
    /// jQuery-like versions), `"evalbench"` (the 24 runnable eval
    /// benchmarks), or `"all"` (both). Suite jobs analyze the raw sources
    /// against an empty default document — they exercise batch scheduling
    /// and determinism, not the Table 1 DOM/event fidelity (that is what
    /// the `table1` binary's pooled pipeline is for).
    pub fn suite(name: &str) -> Option<Self> {
        let mut sources = Vec::new();
        match name {
            "jquery" => sources.extend(mujs_corpus::jquery_like::named_sources()),
            "evalbench" => sources.extend(mujs_corpus::evalbench::named_sources()),
            "all" => {
                sources.extend(mujs_corpus::jquery_like::named_sources());
                sources.extend(mujs_corpus::evalbench::named_sources());
            }
            _ => return None,
        }
        Some(Manifest::from_named_sources(sources))
    }

    /// Checks batch invariants: at least one job, every name non-empty
    /// and unique.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.jobs.is_empty() {
            return Err("manifest has no jobs".to_owned());
        }
        let mut seen = std::collections::HashSet::new();
        for j in &self.jobs {
            if j.name.is_empty() {
                return Err("job with empty name".to_owned());
            }
            if !seen.insert(j.name.as_str()) {
                return Err(format!("duplicate job name `{}`", j.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let m = Manifest::new(vec![
            JobSpec {
                seeds: Some(vec![1, 2, 3]),
                deadline_ms: Some(5000),
                ..JobSpec::new("a", "var x = 1;")
            },
            JobSpec::new("b", "var y = 2;"),
        ]);
        let m2 = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(m2.jobs.len(), 2);
        assert_eq!(m2.jobs[0].effective_seeds(), vec![1, 2, 3]);
        assert_eq!(m2.jobs[0].effective_config().deadline_ms, Some(5000));
        assert_eq!(
            m2.jobs[1].effective_seeds(),
            vec![AnalysisConfig::default().seed]
        );
    }

    #[test]
    fn validation_rejects_duplicates_and_empties() {
        assert!(Manifest::new(vec![]).validate().is_err());
        let dup = Manifest::new(vec![JobSpec::new("x", "1;"), JobSpec::new("x", "2;")]);
        assert!(dup.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn suites_cover_the_corpus() {
        assert_eq!(Manifest::suite("jquery").unwrap().jobs.len(), 4);
        assert_eq!(Manifest::suite("evalbench").unwrap().jobs.len(), 24);
        assert_eq!(Manifest::suite("all").unwrap().jobs.len(), 28);
        assert!(Manifest::suite("nope").is_none());
        Manifest::suite("all").unwrap().validate().unwrap();
    }

    #[test]
    fn budget_overrides_land_in_the_config() {
        let j = JobSpec {
            mem_cells: Some(1234),
            ..JobSpec::new("m", "var z = 3;")
        };
        assert_eq!(j.effective_config().mem_cell_budget, Some(1234));
        assert_eq!(j.effective_config().deadline_ms, None);
    }
}
