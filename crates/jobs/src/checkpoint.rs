//! Append-only batch checkpoints: a journal of settled report rows, keyed
//! by job content, that a batch both resumes from and appends to.
//!
//! A campaign interrupted at job 7,000 of 10,000 should not redo the first
//! 7,000. `detjobs --checkpoint FILE` opens FILE as a journal: the rows it
//! already holds are spliced back into the report and their jobs are not
//! scheduled, and every row this batch *settles* (completed or degraded —
//! statuses whose bytes are final) is appended to it. Rerunning the same
//! command after a kill resumes the campaign, and the final report is
//! **byte-identical** to an uninterrupted run.
//!
//! The file is one version line, `{"detjobs-checkpoint":2}`, followed by
//! one compact JSON line `{"key":…,"row":…}` per settled row. Three properties make it
//! safe:
//!
//! * **Content keying.** Rows are keyed by [`job_key`]: the job's
//!   pipeline stage keys ([`crate::pipeline::StageKeys`], which cover the
//!   source, effective [`AnalysisConfig`][determinacy::AnalysisConfig],
//!   seed list, PTA stage and the key-scheme version) plus the batch-wide
//!   memory budget, *not* the job name or manifest position. A stale
//!   checkpoint can never resurrect a row for a job whose inputs changed;
//!   it simply misses and the job reruns.
//! * **Linear appends.** A row is rendered on its worker, outside any
//!   lock, and written with one `write_all` to the file, which is opened
//!   once in append mode. Checkpointing costs each row its own bytes,
//!   never a rewrite of the rows before it.
//! * **Torn lines are misses.** A crash mid-append tears at most the last
//!   line. [`Checkpoint::open`] skips every line that has no trailing
//!   newline or does not parse, and terminates a torn last line before
//!   its first append; an append that fails part-way is terminated by the
//!   next one. So a torn write costs only its own row; the job reruns. The
//!   last line for a key wins.
//!
//! Rows are stored with their full fact export, also by a `--no-facts`
//! batch (its jobs render fact rows for the checkpoint alone), so a
//! resumed report can be rendered with or without them. A restored row
//! takes the path an executed one takes into the report: the name is
//! re-anchored and, under `--no-facts`, `fact_rows` is nulled.

use crate::pipeline::{stage_hasher, StageKeys};
use serde_json::Value;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Mutex;

/// The journal's first line. Its version is bumped on any incompatible
/// layout change, so a stale file is rejected instead of misread (version
/// 1 was one pretty-printed JSON document, rewritten whole on every row).
/// The content *keys* fold [`crate::pipeline::KEY_SCHEME`]; a key-scheme
/// change needs no version bump — stale keys simply miss and the jobs
/// rerun.
const HEADER: &str = r#"{"detjobs-checkpoint":2}"#;

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

/// An open checkpoint journal: the rows it held when opened, keyed by
/// [`job_key`], and the file that settled rows are appended to.
#[derive(Debug)]
pub struct Checkpoint {
    rows: HashMap<String, Value>,
    /// The journal, and whether its last append failed (so the file may
    /// end inside that append's line).
    file: Mutex<(File, bool)>,
}

impl Checkpoint {
    /// Opens (or creates) the journal at `path` and loads its rows.
    ///
    /// # Errors
    ///
    /// A human-readable message when the file cannot be created or read,
    /// or when its first complete line is not the version header (a version-1
    /// checkpoint, or not a checkpoint at all). Such a file is left
    /// untouched.
    pub fn open(path: &Path) -> Result<Self, String> {
        let io_err = |e: std::io::Error| format!("checkpoint {}: {e}", path.display());
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;
        let mismatch = || {
            format!(
                "checkpoint {}: version mismatch (not a `{HEADER}` journal)",
                path.display()
            )
        };
        let Some(end) = bytes.iter().rposition(|&b| b == b'\n') else {
            // A new file, or one torn inside its header: it holds no rows.
            if !HEADER.as_bytes().starts_with(&bytes) {
                return Err(mismatch());
            }
            file.set_len(0).map_err(io_err)?;
            file.write_all(format!("{HEADER}\n").as_bytes())
                .map_err(io_err)?;
            return Ok(Checkpoint {
                rows: HashMap::new(),
                file: Mutex::new((file, false)),
            });
        };
        let mut lines = bytes[..end].split(|&b| b == b'\n');
        if lines.next() != Some(HEADER.as_bytes()) {
            return Err(mismatch());
        }
        let rows = lines.filter_map(parse_line).collect();
        if end + 1 < bytes.len() {
            // Terminate the torn last line so the first append starts
            // its own.
            file.write_all(b"\n").map_err(io_err)?;
        }
        Ok(Checkpoint {
            rows,
            file: Mutex::new((file, false)),
        })
    }

    /// Number of rows the journal held when opened.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the journal held no rows when opened.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row the journal held for `key` when opened, if any.
    pub fn lookup(&self, key: &str) -> Option<&Value> {
        self.rows.get(key)
    }

    /// Appends `row` under `key` as one line. With `torn` (chaos
    /// injection) only the first half of the line is written, with no
    /// newline, simulating a crash mid-append. Errors are swallowed: a
    /// checkpoint is an optimization, and a full disk must not fail the
    /// campaign it is trying to protect. A write that fails may still
    /// have written part of its line, so the next append starts with a
    /// newline and its row keeps a line of its own.
    pub fn append(&self, key: &str, row: &Value, torn: bool) {
        let key = serde_json::to_string(key).expect("key serializes");
        let row = serde_json::to_string(row).expect("row serializes");
        let line = format!("{{\"key\":{key},\"row\":{row}}}\n");
        let bytes = if torn {
            &line.as_bytes()[..line.len() / 2]
        } else {
            line.as_bytes()
        };
        let mut journal = self.file.lock().unwrap();
        let (file, failed) = &mut *journal;
        let lead: &[u8] = if *failed { b"\n" } else { b"" };
        *failed = file.write_all(&[lead, bytes].concat()).is_err();
    }
}

/// One row line's `(key, row)`, or `None` for a line that is not a
/// complete row (a torn append, or garbage).
fn parse_line(line: &[u8]) -> Option<(String, Value)> {
    let Value::Object(fields) = serde_json::from_str(std::str::from_utf8(line).ok()?).ok()? else {
        return None;
    };
    let (mut key, mut row) = (None, None);
    for (name, value) in fields {
        match (name.as_str(), value) {
            ("key", Value::Str(k)) => key = Some(k),
            ("row", r @ Value::Object(_)) => row = Some(r),
            _ => {}
        }
    }
    Some((key?, row?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn row(name: &str) -> Value {
        Value::Object(vec![
            ("name".to_owned(), Value::Str(name.to_owned())),
            ("status".to_owned(), Value::Str("completed".to_owned())),
        ])
    }

    fn name(ck: &Checkpoint, key: &str) -> Option<String> {
        Some(ck.lookup(key)?.get("name")?.as_str()?.to_owned())
    }

    /// A fresh, empty directory for one test.
    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(tag);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
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
    fn appended_rows_reopen_and_the_last_line_for_a_key_wins() {
        let path = tmp_dir("detjobs-ckpt-roundtrip").join("ck.jsonl");
        let ck = Checkpoint::open(&path).unwrap();
        assert!(ck.is_empty());
        ck.append("k1", &row("one"), false);
        ck.append("k2", &row("old"), false);
        ck.append("k2", &row("new"), false);
        assert!(ck.is_empty(), "appends do not reach the opened rows");
        drop(ck);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().next(), Some(HEADER));
        assert_eq!(text.lines().count(), 4);
        let back = Checkpoint::open(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(name(&back, "k1").as_deref(), Some("one"));
        assert_eq!(name(&back, "k2").as_deref(), Some("new"));
        assert!(back.lookup("k3").is_none());
        drop(back);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text,
            "open writes nothing"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_torn_append_costs_only_its_own_row_after_reopening() {
        let path = tmp_dir("detjobs-ckpt-torn").join("ck.jsonl");
        let ck = Checkpoint::open(&path).unwrap();
        ck.append("k1", &row("one"), false);
        ck.append("k2", &row("two"), true); // injected crash mid-append
        drop(ck);
        let ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.len(), 1);
        assert!(ck.lookup("k2").is_none());
        // The torn line was terminated, so this append starts a line.
        ck.append("k3", &row("three"), false);
        drop(ck);
        let ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.len(), 2);
        assert_eq!(name(&ck, "k3").as_deref(), Some("three"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn an_append_after_a_failed_one_starts_its_own_line() {
        let path = tmp_dir("detjobs-ckpt-failed-append").join("ck.jsonl");
        let ck = Checkpoint::open(&path).unwrap();
        // A write that fails part-way: a fragment lands, then an error.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"key\":\"k1\",\"ro").unwrap();
        let read_only = File::open(&path).unwrap();
        let journal = std::mem::replace(&mut ck.file.lock().unwrap().0, read_only);
        ck.append("k1", &row("one"), false);
        ck.file.lock().unwrap().0 = journal;
        ck.append("k2", &row("two"), false);
        drop(ck);
        let ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.len(), 1);
        assert_eq!(name(&ck, "k2").as_deref(), Some("two"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn garbage_lines_in_the_middle_are_skipped() {
        let path = tmp_dir("detjobs-ckpt-garbage").join("ck.jsonl");
        let ck = Checkpoint::open(&path).unwrap();
        ck.append("k1", &row("one"), false);
        drop(ck);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(
            b"{\"key\":\"k9\",\"row\":{\"na\n\xff\xfe not json\n[]\n{\"key\":7,\"row\":{}}\n",
        )
        .unwrap();
        drop(f);
        Checkpoint::open(&path)
            .unwrap()
            .append("k2", &row("two"), false);
        let ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.len(), 2);
        assert_eq!(name(&ck, "k1").as_deref(), Some("one"));
        assert_eq!(name(&ck, "k2").as_deref(), Some("two"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn foreign_files_are_version_errors_and_stay_untouched() {
        let dir = tmp_dir("detjobs-ckpt-foreign");
        let v1 = "{\n  \"version\": 1,\n  \"rows\": []\n}";
        for (i, body) in [v1, "not json at all\n", "garbage", "\n"]
            .iter()
            .enumerate()
        {
            let path = dir.join(format!("ck{i}.json"));
            std::fs::write(&path, body).unwrap();
            let err = Checkpoint::open(&path).unwrap_err();
            assert!(err.contains("version mismatch"), "{body:?}: {err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), *body);
        }
        let missing = dir.join("no-such-dir").join("ck.jsonl");
        assert!(Checkpoint::open(&missing).is_err());
        assert!(!missing.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
