//! Cache-correctness contract of the stage pipeline: warm responses are
//! byte-identical to the cold runs that populated them, warm requests
//! recompute nothing, and any change to a stage's inputs — source,
//! config, seeds, budget, or an upstream artifact — misses.

use determinacy::{AnalysisConfig, CancelToken};
use mujs_jobs::{PtaMode, PtaStage};
use mujs_serve::stage::{execute, Executed};
use mujs_serve::{CacheConfig, PipelineCounters, StageCache, StageRequest};
use serde_json::Value;

/// A program with a determinate dynamic property access, so fact
/// injection has something to inject.
const SRC: &str = "function get(o, k) { return o[k]; }\n\
                   var obj = { f: 23, g: 42 };\n\
                   var x = get(obj, 'f');\n\
                   var y = obj.g + x;";

fn req(src: &str) -> StageRequest {
    StageRequest {
        src: src.to_owned(),
        cfg: AnalysisConfig::default(),
        seeds: vec![AnalysisConfig::default().seed],
        page: None,
        pta: Some(PtaStage {
            budget: 100_000,
            mode: PtaMode::Inject,
        }),
    }
}

fn with_mode(mode: PtaMode) -> StageRequest {
    StageRequest {
        pta: Some(PtaStage {
            budget: 100_000,
            mode,
        }),
        ..req(SRC)
    }
}

fn run(r: &StageRequest, cache: &StageCache, counters: &PipelineCounters) -> Executed {
    execute(
        r,
        "completed",
        true,
        "job",
        cache,
        counters,
        &CancelToken::new(),
        &|_| {},
    )
}

fn bytes(report: &Value) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

#[test]
fn warm_response_is_byte_identical_and_recomputes_nothing() {
    let cache = StageCache::new(CacheConfig::default());
    let counters = PipelineCounters::default();
    let r = req(SRC);

    let cold = run(&r, &cache, &counters);
    assert!(!cold.cached.parse && !cold.cached.facts);
    assert_eq!(cold.cached.pta, Some(false));
    let cold_snapshot = counters.to_value();
    let props = cold_snapshot
        .get("pta_propagations")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(props > 0.0, "cold run must actually solve");

    let warm = run(&r, &cache, &counters);
    assert!(warm.cached.parse && warm.cached.facts);
    assert_eq!(warm.cached.pta, Some(true));
    assert_eq!(
        bytes(&cold.report),
        bytes(&warm.report),
        "warm report must be byte-identical to the cold run"
    );
    assert_eq!(
        serde_json::to_string(&counters.to_value()).unwrap(),
        serde_json::to_string(&cold_snapshot).unwrap(),
        "a fully warm request must not move any pipeline counter"
    );
}

#[test]
fn shortcut_requests_leave_shortcutless_bytes_untouched() {
    // Shortcut mode lives under its own summary key and pta-key fold:
    // interleaving shortcut requests on a shared cache must not move a
    // single byte of a shortcut-less request's warm response.
    let cache = StageCache::new(CacheConfig::default());
    let counters = PipelineCounters::default();
    let plain = run(&req(SRC), &cache, &counters);
    assert!(
        plain.report.get("summary").is_none(),
        "no summary row without shortcut mode"
    );
    assert!(plain
        .report
        .get("stage_keys")
        .unwrap()
        .get("summary")
        .is_none());

    let sc = with_mode(PtaMode::InjectShortcuts);
    let shortcut = run(&sc, &cache, &counters);
    assert!(shortcut.cached.parse && shortcut.cached.facts);
    assert_eq!(shortcut.cached.summary, Some(false));
    assert_eq!(
        shortcut.cached.pta,
        Some(false),
        "shortcut solves live under their own pta key"
    );

    let warm_plain = run(&req(SRC), &cache, &counters);
    assert_eq!(warm_plain.cached.pta, Some(true));
    assert_eq!(
        bytes(&plain.report),
        bytes(&warm_plain.report),
        "shortcut traffic must not perturb shortcut-less responses"
    );
    // And the shortcut request itself is warm-repeatable.
    let warm_shortcut = run(&sc, &cache, &counters);
    assert_eq!(warm_shortcut.cached.summary, Some(true));
    assert_eq!(warm_shortcut.cached.pta, Some(true));
    assert_eq!(bytes(&shortcut.report), bytes(&warm_shortcut.report));
}

#[test]
fn source_changes_invalidate_every_stage() {
    let cache = StageCache::new(CacheConfig::default());
    let counters = PipelineCounters::default();
    run(&req(SRC), &cache, &counters);

    let changed = req("var x = 1;");
    let e = run(&changed, &cache, &counters);
    assert!(!e.cached.parse && !e.cached.facts);
    assert_eq!(e.cached.pta, Some(false));
}

#[test]
fn config_changes_invalidate_facts_but_keep_the_parse_warm() {
    let cache = StageCache::new(CacheConfig::default());
    let counters = PipelineCounters::default();
    run(&req(SRC), &cache, &counters);

    let mut r = req(SRC);
    r.cfg.max_facts = 77;
    let e = run(&r, &cache, &counters);
    assert!(e.cached.parse, "parse ignores the analysis config");
    assert!(!e.cached.facts, "facts key folds the effective config");
    assert_eq!(
        e.cached.pta,
        Some(false),
        "an injecting solve chains the facts key"
    );
}

#[test]
fn seed_changes_invalidate_the_facts_stage() {
    let cache = StageCache::new(CacheConfig::default());
    let counters = PipelineCounters::default();
    run(&req(SRC), &cache, &counters);

    let mut r = req(SRC);
    r.seeds = vec![4242];
    let e = run(&r, &cache, &counters);
    assert!(e.cached.parse);
    assert!(!e.cached.facts);
}

#[test]
fn budget_changes_invalidate_only_the_pta_stage() {
    let cache = StageCache::new(CacheConfig::default());
    let counters = PipelineCounters::default();
    run(&req(SRC), &cache, &counters);

    let mut r = req(SRC);
    r.pta = Some(PtaStage {
        budget: 200_000,
        mode: PtaMode::Inject,
    });
    let e = run(&r, &cache, &counters);
    assert!(e.cached.parse && e.cached.facts);
    assert_eq!(e.cached.pta, Some(false));
}

#[test]
fn baseline_and_injected_solves_do_not_share_entries() {
    let cache = StageCache::new(CacheConfig::default());
    let counters = PipelineCounters::default();
    run(&req(SRC), &cache, &counters); // injected solve

    let baseline = with_mode(PtaMode::Baseline);
    let e = run(&baseline, &cache, &counters);
    assert_eq!(e.cached.pta, Some(false), "the mode is part of the key");
    // And the baseline entry is itself cached now.
    let e2 = run(&baseline, &cache, &counters);
    assert_eq!(e2.cached.pta, Some(true));
}

#[test]
fn include_facts_only_gates_rendering_never_the_cache() {
    let cache = StageCache::new(CacheConfig::default());
    let counters = PipelineCounters::default();
    let r = req(SRC);
    let with_facts = run(&r, &cache, &counters);
    assert!(matches!(
        with_facts.report.get("fact_rows"),
        Some(Value::Array(_))
    ));

    // Same request, facts stripped: still fully warm.
    let without = execute(
        &r,
        "completed",
        false,
        "job",
        &cache,
        &counters,
        &CancelToken::new(),
        &|_| {},
    );
    assert!(without.cached.parse && without.cached.facts);
    assert_eq!(without.report.get("fact_rows"), Some(&Value::Null));
    // Everything except fact_rows matches the facts-bearing report.
    for field in ["name", "status", "seeds", "facts", "determinate", "pta"] {
        assert_eq!(
            with_facts.report.get(field),
            without.report.get(field),
            "field {field}"
        );
    }
}

#[test]
fn disk_persistence_serves_warm_across_daemon_restarts() {
    let dir = std::env::temp_dir().join("detserved-test-restart");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = CacheConfig {
        capacity: 64,
        disk_dir: Some(dir.clone()),
    };
    let r = req(SRC);

    let counters1 = PipelineCounters::default();
    let cache1 = StageCache::new(cfg.clone());
    let cold = run(&r, &cache1, &counters1);
    drop(cache1);

    // "Restart": a fresh cache over the same directory.
    let counters2 = PipelineCounters::default();
    let cache2 = StageCache::new(cfg);
    let warm = run(&r, &cache2, &counters2);
    assert!(warm.cached.parse && warm.cached.facts);
    assert_eq!(warm.cached.pta, Some(true));
    assert_eq!(bytes(&cold.report), bytes(&warm.report));
    assert_eq!(
        counters2
            .to_value()
            .get("pta_propagations")
            .unwrap()
            .as_f64(),
        Some(0.0),
        "restored entries must skip the solver entirely"
    );
    std::fs::remove_dir_all(&dir).ok();
}
