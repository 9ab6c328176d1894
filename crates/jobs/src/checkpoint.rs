//! Atomic batch checkpoints: crash-safe persistence of completed report
//! rows, keyed by job content.
//!
//! A campaign interrupted at job 7,000 of 10,000 should not redo the first
//! 7,000. While a batch runs, the scheduler periodically persists every
//! *settled* report row (completed or degraded — statuses whose bytes are
//! final) to a checkpoint file; `detjobs --resume <ckpt>` then splices
//! those rows back and schedules only the remainder, producing a final
//! report **byte-identical** to an uninterrupted run.
//!
//! Two properties make that safe:
//!
//! * **Content keying.** Rows are keyed by [`job_key`]: the job's
//!   pipeline stage keys ([`crate::pipeline::StageKeys`], which cover the
//!   source, effective [`AnalysisConfig`][determinacy::AnalysisConfig],
//!   seed list, PTA stage and the key-scheme version) plus the batch-wide
//!   memory budget, *not* the job name or manifest position. A stale
//!   checkpoint can never resurrect a row for a job whose inputs changed;
//!   it simply misses and the job reruns.
//! * **Atomic publication.** Checkpoints are written to a `.tmp` sibling
//!   and `rename`d into place. A crash (or the chaos plan's injected
//!   truncation) mid-write leaves the previously published checkpoint
//!   untouched; a torn temp file is never visible under the real path.
//!
//! Rows are stored with their full fact export, also by a `--no-facts`
//! batch (its jobs render fact rows for the checkpoint alone), so a
//! resumed report can be rendered with or without them. A restored row
//! takes the path an executed one takes into the report: the name is
//! re-anchored and, under `--no-facts`, `fact_rows` is nulled.

use crate::pipeline::{stage_hasher, StageKeys};
use serde_json::Value;
use std::io::Write;
use std::path::Path;

/// The checkpoint file format version; bumped on any incompatible layout
/// change so stale files are rejected instead of misread. (The content
/// *keys* inside fold [`crate::pipeline::KEY_SCHEME`]; a key-scheme change needs no
/// version bump — stale keys simply miss and the jobs rerun.)
const VERSION: f64 = 1.0;

/// The content key of one job: its stage keys (see
/// [`crate::pipeline`]) plus the batch-wide memory budget, which decides
/// admission degradation. Jobs with equal keys produce byte-identical rows
/// (modulo the job name, which the splice path rewrites).
pub fn job_key(keys: &StageKeys, batch_mem_budget: Option<u64>) -> String {
    stage_hasher("job", &keys.facts)
        .str(keys.pta.as_deref().unwrap_or(""))
        .opt_u64(batch_mem_budget)
        .finish()
}

/// A set of settled report rows, keyed by [`job_key`].
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    /// `(key, row)` pairs in completion order. Order is irrelevant to
    /// resume (rows are spliced by manifest order) but keeps saves
    /// deterministic for a given completion sequence.
    rows: Vec<(String, Value)>,
}

impl Checkpoint {
    /// An empty checkpoint.
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the checkpoint holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The stored row for `key`, if any.
    pub fn lookup(&self, key: &str) -> Option<&Value> {
        self.rows.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Stores (or replaces) the row for `key`.
    pub fn insert(&mut self, key: String, row: Value) {
        if let Some(slot) = self.rows.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = row;
        } else {
            self.rows.push((key, row));
        }
    }

    /// Parses a checkpoint previously written by [`Checkpoint::save`].
    ///
    /// # Errors
    ///
    /// A human-readable message for unreadable files, malformed JSON, or a
    /// version mismatch. (A crash mid-save cannot produce any of these:
    /// saves publish atomically, so the file under `path` is always a
    /// complete previous generation.)
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read checkpoint {}: {e}", path.display()))?;
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("checkpoint JSON: {e:?}"))?;
        if v.get("version").and_then(Value::as_f64) != Some(VERSION) {
            return Err("checkpoint version mismatch".to_owned());
        }
        let entries = v
            .get("rows")
            .and_then(Value::as_array)
            .ok_or("checkpoint missing rows")?;
        let mut ck = Checkpoint::new();
        for e in entries {
            let key = e
                .get("key")
                .and_then(Value::as_str)
                .ok_or("checkpoint row missing key")?;
            let row = e.get("row").ok_or("checkpoint row missing body")?;
            ck.insert(key.to_owned(), row.clone());
        }
        Ok(ck)
    }

    fn render(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|(k, row)| {
                Value::Object(vec![
                    ("key".to_owned(), Value::Str(k.clone())),
                    ("row".to_owned(), row.clone()),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("version".to_owned(), Value::Num(VERSION)),
            ("rows".to_owned(), Value::Array(rows)),
        ]);
        serde_json::to_string_pretty(&doc).expect("checkpoint serializes")
    }

    /// Atomically publishes the checkpoint to `path` (write `.tmp`
    /// sibling, fsync-free rename). With `truncate_midway` (chaos
    /// injection) the write is abandoned halfway and never renamed,
    /// simulating a crash during the temp write — the previously
    /// published file stays intact.
    ///
    /// # Errors
    ///
    /// I/O errors creating, writing, or renaming the temp file.
    pub fn save(&self, path: &Path, truncate_midway: bool) -> std::io::Result<()> {
        let bytes = self.render().into_bytes();
        let tmp = tmp_path(path);
        let mut f = std::fs::File::create(&tmp)?;
        if truncate_midway {
            f.write_all(&bytes[..bytes.len() / 2])?;
            // Simulated crash: the torn file stays at the temp path and is
            // never published.
            return Ok(());
        }
        f.write_all(&bytes)?;
        drop(f);
        std::fs::rename(&tmp, path)
    }
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str) -> Value {
        Value::Object(vec![
            ("name".to_owned(), Value::Str(name.to_owned())),
            ("status".to_owned(), Value::Str("completed".to_owned())),
        ])
    }

    #[test]
    fn keys_depend_on_content_not_name() {
        use crate::pipeline::{PtaMode, PtaStage};
        use crate::spec::JobSpec;
        let key = |spec: &JobSpec, mem: Option<u64>, pta: Option<PtaStage>| {
            job_key(&StageKeys::compute(&spec.stage_request(pta)), mem)
        };
        let stage = |budget, mode| Some(PtaStage { budget, mode });
        let a = JobSpec::new("a", "var x = 1;");
        let renamed = JobSpec::new("b", "var x = 1;");
        let changed = JobSpec::new("a", "var x = 2;");
        assert_eq!(key(&a, None, None), key(&renamed, None, None));
        assert_ne!(key(&a, None, None), key(&changed, None, None));
        assert_ne!(key(&a, None, None), key(&a, Some(1000), None));
        let reseeded = JobSpec {
            seeds: Some(vec![9]),
            ..JobSpec::new("a", "var x = 1;")
        };
        assert_ne!(key(&a, None, None), key(&reseeded, None, None));
        // The PTA stage (its presence, budget and mode) adds a `pta`
        // object to the row, so each of them moves the key.
        let baseline = stage(1000, PtaMode::Baseline);
        assert_ne!(key(&a, None, None), key(&a, None, baseline));
        assert_ne!(
            key(&a, None, baseline),
            key(&a, None, stage(2000, PtaMode::Baseline))
        );
        assert_ne!(
            key(&a, None, baseline),
            key(&a, None, stage(1000, PtaMode::Spec(2)))
        );
        assert_ne!(
            key(&a, None, stage(1000, PtaMode::Spec(2))),
            key(&a, None, stage(1000, PtaMode::Spec(3)))
        );
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join("detjobs-ckpt-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let mut ck = Checkpoint::new();
        ck.insert("k1".into(), row("one"));
        ck.insert("k2".into(), row("two"));
        ck.save(&path, false).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.lookup("k1").unwrap().get("name").unwrap(), &"one");
        assert!(back.lookup("k3").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_write_never_clobbers_the_published_file() {
        let dir = std::env::temp_dir().join("detjobs-ckpt-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let mut ck = Checkpoint::new();
        ck.insert("k1".into(), row("one"));
        ck.save(&path, false).unwrap();
        ck.insert("k2".into(), row("two"));
        ck.save(&path, true).unwrap(); // injected crash mid-write
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.len(), 1, "torn write must not be published");
        ck.save(&path, false).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_replaces_existing_keys() {
        let mut ck = Checkpoint::new();
        ck.insert("k".into(), row("old"));
        ck.insert("k".into(), row("new"));
        assert_eq!(ck.len(), 1);
        assert_eq!(ck.lookup("k").unwrap().get("name").unwrap(), &"new");
    }
}
