//! The content-addressed stage cache: an in-memory LRU over pipeline
//! artifacts, with optional on-disk persistence.
//!
//! Every entry is keyed by a [`determinacy::cachekey`] digest of the
//! *exact inputs* of one pipeline stage (see [`crate::stage`] for the
//! keying scheme), and every stored artifact is a plain JSON value —
//! deterministic bytes, no interior `Rc`s — so entries are safely shared
//! across connection threads and across daemon restarts.
//!
//! Persistence is write-through and best-effort: artifacts land on disk
//! via the same atomic temp-file + rename discipline as the `mujs-jobs`
//! checkpoint, and a memory miss falls back to a disk read before
//! counting as a true miss. A full disk or a torn file never fails a
//! request — the stage simply recomputes.
//!
//! All counters are monotone atomics exposed through
//! [`StageCache::stats`]; the service's warm/cold guarantees are asserted
//! against them (a warm request increments only hit counters).

use serde_json::Value;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// On-disk artifact envelope version; entries with any other version are
/// ignored (treated as a miss) instead of misread. Version 2 holds the
/// artifacts of the versioned key scheme (`mujs_jobs::pipeline::KEY_SCHEME`).
const DISK_VERSION: f64 = 2.0;

/// The pipeline stages the cache distinguishes. Keys are already
/// content-hashes of stage inputs, but the stage tag keeps artifacts of
/// different shapes from ever colliding in one namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Parse + lower + intern (artifact: program digest or syntax error).
    Parse,
    /// Dynamic determinacy analysis over the seed fan-out (artifact: the
    /// combined fact export plus injectable pairs).
    Facts,
    /// Region summaries from the traced fan-out (artifact: portable
    /// shortcut summaries plus extractor counts).
    Summary,
    /// Budgeted pointer analysis (artifact: precision + work summary).
    Pta,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Parse, Stage::Facts, Stage::Summary, Stage::Pta];

    /// The stage's stable name (stats keys, disk file prefixes).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Facts => "facts",
            Stage::Summary => "summary",
            Stage::Pta => "pta",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Facts => 1,
            Stage::Summary => 2,
            Stage::Pta => 3,
        }
    }
}

/// Cache sizing and persistence knobs.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum in-memory entries across all stages (LRU-evicted beyond
    /// it; clamped to at least 1).
    pub capacity: usize,
    /// When set, artifacts are persisted here (one file per entry) and
    /// memory misses fall back to disk.
    pub disk_dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 256,
            disk_dir: None,
        }
    }
}

/// Monotone cache counters (one snapshot is embedded in every `stats`
/// response; the CI smoke gate diffs warm-request deltas against zero
/// recomputation).
#[derive(Debug, Default)]
struct Counters {
    hits: [AtomicU64; 4],
    misses: [AtomicU64; 4],
    disk_hits: [AtomicU64; 4],
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// One recency-ordered namespace per stage, so a lookup borrows its key.
/// Stamps come from one clock, so eviction stays least-recently-used
/// across all stages.
struct Lru {
    maps: [HashMap<String, (u64, Arc<Value>)>; 4],
    tick: u64,
}

impl Lru {
    /// Refreshes `key`'s stamp and hands back its artifact.
    fn touch(&mut self, stage: Stage, key: &str) -> Option<Arc<Value>> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.maps[stage.index()].get_mut(key)?;
        slot.0 = tick;
        Some(slot.1.clone())
    }

    fn len(&self) -> usize {
        self.maps.iter().map(HashMap::len).sum()
    }
}

/// The shared stage cache. Artifacts are stored behind `Arc`, so a hit
/// hands back a shared reference instead of deep-cloning the (possibly
/// multi-megabyte) JSON tree — the clone under the lock is one refcount
/// bump, which is what keeps warm requests orders of magnitude cheaper
/// than cold ones.
pub struct StageCache {
    cfg: CacheConfig,
    inner: Mutex<Lru>,
    counters: Counters,
}

impl std::fmt::Debug for StageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageCache")
            .field("capacity", &self.cfg.capacity)
            .field("disk_dir", &self.cfg.disk_dir)
            .finish()
    }
}

impl StageCache {
    /// An empty cache over `cfg` (creating the disk directory eagerly so
    /// later write failures are the only I/O surprise).
    pub fn new(cfg: CacheConfig) -> Self {
        if let Some(dir) = &cfg.disk_dir {
            let _ = std::fs::create_dir_all(dir);
        }
        StageCache {
            cfg,
            inner: Mutex::new(Lru {
                maps: Default::default(),
                tick: 0,
            }),
            counters: Counters::default(),
        }
    }

    /// Looks `key` up in `stage`'s namespace: memory first, then disk.
    /// A disk restore is promoted into memory and counted separately
    /// from a warm in-memory hit.
    pub fn get(&self, stage: Stage, key: &str) -> Option<Arc<Value>> {
        let idx = stage.index();
        if let Some(v) = self.inner.lock().unwrap().touch(stage, key) {
            self.counters.hits[idx].fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        if let Some(v) = self.disk_load(stage, key) {
            self.counters.disk_hits[idx].fetch_add(1, Ordering::Relaxed);
            let v = Arc::new(v);
            self.insert_memory(stage, key, v.clone());
            return Some(v);
        }
        self.counters.misses[idx].fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Looks up every `(stage, key)` in memory under one lock. When all
    /// are present, counts a hit and refreshes recency for each in order,
    /// exactly as that sequence of [`StageCache::get`] calls would, and
    /// returns the artifacts in the same order. Otherwise it touches
    /// nothing (no counter, no recency, no disk) and returns `None`.
    pub fn get_all(&self, wants: &[(Stage, &str)]) -> Option<Vec<Arc<Value>>> {
        let mut lru = self.inner.lock().unwrap();
        if !wants
            .iter()
            .all(|(stage, key)| lru.maps[stage.index()].contains_key(*key))
        {
            return None;
        }
        let found = wants
            .iter()
            .map(|&(stage, key)| {
                self.counters.hits[stage.index()].fetch_add(1, Ordering::Relaxed);
                lru.touch(stage, key).expect("checked above")
            })
            .collect();
        Some(found)
    }

    /// Stores an artifact (write-through to disk when persistence is
    /// configured) and returns the shared handle. Concurrent puts of the
    /// same key are idempotent — artifacts are deterministic functions of
    /// the key's inputs.
    pub fn put(&self, stage: Stage, key: &str, value: Value) -> Arc<Value> {
        self.counters.insertions.fetch_add(1, Ordering::Relaxed);
        if self.cfg.disk_dir.is_some() {
            self.disk_store(stage, key, &value);
        }
        let value = Arc::new(value);
        self.insert_memory(stage, key, value.clone());
        value
    }

    fn insert_memory(&self, stage: Stage, key: &str, value: Arc<Value>) {
        let mut lru = self.inner.lock().unwrap();
        lru.tick += 1;
        let tick = lru.tick;
        lru.maps[stage.index()].insert(key.to_owned(), (tick, value));
        let cap = self.cfg.capacity.max(1);
        while lru.len() > cap {
            // O(n) victim scan; service caches are hundreds of entries,
            // not millions, and the lock is held briefly.
            if let Some((idx, victim)) = lru
                .maps
                .iter()
                .enumerate()
                .flat_map(|(i, m)| m.iter().map(move |(k, (stamp, _))| (*stamp, i, k)))
                .min_by_key(|(stamp, _, _)| *stamp)
                .map(|(_, i, k)| (i, k.clone()))
            {
                lru.maps[idx].remove(&victim);
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn disk_path(&self, stage: Stage, key: &str) -> Option<PathBuf> {
        self.cfg
            .disk_dir
            .as_ref()
            .map(|d| d.join(format!("{}-{key}.json", stage.name())))
    }

    fn disk_load(&self, stage: Stage, key: &str) -> Option<Value> {
        let path = self.disk_path(stage, key)?;
        let text = std::fs::read_to_string(path).ok()?;
        let v: Value = serde_json::from_str(&text).ok()?;
        // The envelope must name the entry it is filed under: a file copied
        // or renamed to another key's path is a miss, not that key's
        // artifact.
        let field = |name: &str| v.get(name).and_then(Value::as_str);
        if v.get("version").and_then(Value::as_f64) != Some(DISK_VERSION)
            || field("stage") != Some(stage.name())
            || field("key") != Some(key)
        {
            return None;
        }
        v.get("artifact").cloned()
    }

    /// Best-effort atomic persistence (tmp + rename, errors swallowed —
    /// a full disk must not fail the request the cache is accelerating).
    fn disk_store(&self, stage: Stage, key: &str, value: &Value) {
        let Some(path) = self.disk_path(stage, key) else {
            return;
        };
        let doc = Value::Object(vec![
            ("version".to_owned(), Value::Num(DISK_VERSION)),
            ("stage".to_owned(), Value::Str(stage.name().to_owned())),
            ("key".to_owned(), Value::Str(key.to_owned())),
            ("artifact".to_owned(), value.clone()),
        ]);
        let bytes = serde_json::to_string_pretty(&doc)
            .expect("artifact serializes")
            .into_bytes();
        let tmp = path.with_extension("json.tmp");
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&bytes))
            .is_ok();
        if written {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    /// Number of in-memory entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether the in-memory cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A deterministic JSON snapshot of the counters.
    pub fn stats(&self) -> Value {
        let num = |a: &AtomicU64| Value::Num(a.load(Ordering::Relaxed) as f64);
        let mut fields = Vec::new();
        for stage in Stage::ALL {
            let i = stage.index();
            fields.push((
                format!("{}_hits", stage.name()),
                num(&self.counters.hits[i]),
            ));
            fields.push((
                format!("{}_misses", stage.name()),
                num(&self.counters.misses[i]),
            ));
            fields.push((
                format!("{}_disk_hits", stage.name()),
                num(&self.counters.disk_hits[i]),
            ));
        }
        fields.push(("insertions".to_owned(), num(&self.counters.insertions)));
        fields.push(("evictions".to_owned(), num(&self.counters.evictions)));
        fields.push(("entries".to_owned(), Value::Num(self.len() as f64)));
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::Object(vec![("x".to_owned(), Value::Str(s.to_owned()))])
    }

    #[test]
    fn hits_and_misses_are_counted_per_stage() {
        let c = StageCache::new(CacheConfig::default());
        assert!(c.get(Stage::Parse, "k").is_none());
        c.put(Stage::Parse, "k", v("a"));
        assert_eq!(c.get(Stage::Parse, "k").as_deref(), Some(&v("a")));
        // Same key in a different stage namespace is a distinct entry.
        assert!(c.get(Stage::Facts, "k").is_none());
        let s = c.stats();
        assert_eq!(s.get("parse_hits").unwrap(), &1.0);
        assert_eq!(s.get("parse_misses").unwrap(), &1.0);
        assert_eq!(s.get("facts_misses").unwrap(), &1.0);
    }

    #[test]
    fn get_all_counts_like_gets_or_touches_nothing() {
        let c = StageCache::new(CacheConfig {
            capacity: 3,
            disk_dir: None,
        });
        c.put(Stage::Parse, "p", v("p"));
        c.put(Stage::Facts, "f", v("f"));
        let before = serde_json::to_string(&c.stats()).unwrap();
        assert!(c
            .get_all(&[(Stage::Parse, "p"), (Stage::Facts, "f"), (Stage::Pta, "t")])
            .is_none());
        assert_eq!(serde_json::to_string(&c.stats()).unwrap(), before);
        let got = c
            .get_all(&[(Stage::Facts, "f"), (Stage::Parse, "p")])
            .unwrap();
        assert_eq!(*got[0], v("f"));
        assert_eq!(*got[1], v("p"));
        let s = c.stats();
        assert_eq!(s.get("parse_hits").unwrap(), &1.0);
        assert_eq!(s.get("facts_hits").unwrap(), &1.0);
        assert_eq!(s.get("pta_misses").unwrap(), &0.0);
        // Recency follows the probe order: `p` was touched last, so the
        // next two inserts evict `f` first.
        c.put(Stage::Pta, "t", v("t"));
        c.put(Stage::Summary, "s", v("s"));
        assert!(c.get(Stage::Facts, "f").is_none());
        assert!(c.get(Stage::Parse, "p").is_some());
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let c = StageCache::new(CacheConfig {
            capacity: 2,
            disk_dir: None,
        });
        c.put(Stage::Parse, "a", v("a"));
        c.put(Stage::Parse, "b", v("b"));
        assert!(c.get(Stage::Parse, "a").is_some()); // refresh a
        c.put(Stage::Parse, "c", v("c")); // evicts b
        assert!(c.get(Stage::Parse, "b").is_none());
        assert!(c.get(Stage::Parse, "a").is_some());
        assert!(c.get(Stage::Parse, "c").is_some());
        assert_eq!(c.stats().get("evictions").unwrap(), &1.0);
    }

    #[test]
    fn disk_persistence_survives_a_fresh_cache() {
        let dir = std::env::temp_dir().join("detserved-cache-persist");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CacheConfig {
            capacity: 8,
            disk_dir: Some(dir.clone()),
        };
        let c1 = StageCache::new(cfg.clone());
        c1.put(Stage::Facts, "deadbeef", v("persisted"));
        drop(c1);
        let c2 = StageCache::new(cfg);
        assert_eq!(
            c2.get(Stage::Facts, "deadbeef").as_deref(),
            Some(&v("persisted"))
        );
        let s = c2.stats();
        assert_eq!(s.get("facts_disk_hits").unwrap(), &1.0);
        assert_eq!(s.get("facts_misses").unwrap(), &0.0);
        // A second lookup is a warm in-memory hit.
        assert!(c2.get(Stage::Facts, "deadbeef").is_some());
        assert_eq!(c2.stats().get("facts_hits").unwrap(), &1.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_disk_entries_read_as_misses() {
        let dir = std::env::temp_dir().join("detserved-cache-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("pta-badkey.json"), "{ not json").unwrap();
        std::fs::write(
            dir.join("pta-oldver.json"),
            r#"{"version": 99.0, "stage": "pta", "key": "oldver", "artifact": {"x": "stale"}}"#,
        )
        .unwrap();
        let cfg = CacheConfig {
            capacity: 8,
            disk_dir: Some(dir.clone()),
        };
        // A well-formed entry copied under another key's (or stage's)
        // file name names its own key and stage in the envelope.
        StageCache::new(cfg.clone()).put(Stage::Pta, "original", v("other"));
        let entry = std::fs::read(dir.join("pta-original.json")).unwrap();
        std::fs::write(dir.join("pta-copied.json"), &entry).unwrap();
        std::fs::write(dir.join("facts-original.json"), &entry).unwrap();
        let c = StageCache::new(cfg);
        assert!(c.get(Stage::Pta, "badkey").is_none());
        assert!(c.get(Stage::Pta, "oldver").is_none());
        assert!(c.get(Stage::Pta, "copied").is_none());
        assert!(c.get(Stage::Facts, "original").is_none());
        assert_eq!(c.get(Stage::Pta, "original").as_deref(), Some(&v("other")));
        std::fs::remove_dir_all(&dir).ok();
    }
}
