//! Determinism, budget, and provenance tests for the dynamic-shortcut
//! layer (`PtaConfig::shortcuts`).
//!
//! The shortcut contract: (1) exports are deterministic; (2) summary
//! insertions flow through the ordinary budget accounting, so
//! exact-budget completion and budget-exact truncation are preserved;
//! (3) every summary-inserted tuple carries a [`BlameCause::Shortcut`]
//! tag that survives budget truncation, and provenance
//! stays a pure side channel (on or off, the points-to exports do not
//! move a byte); (4) with `shortcuts` unset nothing about a solve
//! changes.

use mujs_ir::{FuncId, Program};
use mujs_pta::{
    solve, AbsObj, BlameCause, Node, PtaConfig, PtaResult, PtaStatus, RegionSummary,
    ShortcutSummaries,
};
use std::sync::Arc;

/// Wide + deep program (many closures, higher-order calls, cross-wired
/// copy chains) with a ⋆-smearing dynamic access.
fn big_src() -> String {
    let mut s = String::new();
    s.push_str("function id(x) { return x; }\n");
    for i in 0..60 {
        s.push_str(&format!(
            "function mk{i}() {{ return {{ tag: mk{i}, lift: id }}; }}\n"
        ));
        s.push_str(&format!("var v{i} = mk{i}();\n"));
    }
    for i in 0..60 {
        let j = (i + 23) % 60;
        s.push_str(&format!("v{i} = id(v{j});\n"));
        s.push_str(&format!("var f{i} = v{i}.tag;\n"));
        s.push_str(&format!("var w{i} = f{i}();\n"));
    }
    s.push_str("var key = somethingUnknown;\n");
    s.push_str("var smeared = v0[key];\n");
    s
}

fn lower(src: &str) -> Program {
    let ast = mujs_syntax::parse(src).expect("source parses");
    mujs_ir::lower_program(&ast)
}

fn func_named(prog: &Program, name: &str) -> FuncId {
    prog.funcs
        .iter()
        .find(|f| f.name.is_some_and(|s| prog.interner.resolve(s) == name))
        .map(|f| f.id)
        .unwrap_or_else(|| panic!("no function named {name}"))
}

/// A hand-built summary for `id`: its return node points at a spread of
/// `mk*` closures — enough fan-out that every caller receives a wide set
/// — plus the identity flow a real trace would record.
/// (Solver-side tests need no producer; the summary's *content* only has
/// to be well-formed, its effect on determinism is what's under test.)
fn test_summaries(prog: &Program) -> ShortcutSummaries {
    let id = func_named(prog, "id");
    let mut tuples: Vec<(Node, AbsObj)> = (0..60)
        .map(|i| {
            (
                Node::Ret(id),
                AbsObj::Closure(func_named(prog, &format!("mk{i}"))),
            )
        })
        .collect();
    tuples.push((Node::Ret(id), AbsObj::Opaque));
    tuples.sort();
    let mut sums = ShortcutSummaries::default();
    sums.regions.insert(
        id,
        RegionSummary {
            tuples,
            calls: vec![],
        },
    );
    sums
}

fn with_shortcuts(prog: &Program, cfg: PtaConfig) -> PtaConfig {
    PtaConfig {
        shortcuts: Some(Arc::new(test_summaries(prog))),
        ..cfg
    }
}

fn unlimited() -> PtaConfig {
    PtaConfig {
        budget: u64::MAX,
        ..Default::default()
    }
}

/// Shortcut solves are deterministic: two runs export identical bytes.
#[test]
fn shortcut_exports_are_deterministic() {
    let prog = lower(&big_src());
    let cfg = with_shortcuts(&prog, unlimited());
    let r = solve(&prog, &cfg);
    assert_eq!(r.status, PtaStatus::Completed);
    assert_eq!(r.stats.shortcut_regions, 1);
    assert!(r.stats.shortcut_tuples > 0);
    assert_eq!(
        solve(&prog, &cfg).export_json(),
        r.export_json(),
        "shortcut export moved between runs"
    );
}

/// The summarized region changes the solve: the region's constraints are
/// never generated, and the summary's tuples are present verbatim.
#[test]
fn summaries_replace_region_constraints() {
    let prog = lower(&big_src());
    let plain = solve(&prog, &unlimited());
    let sc = solve(&prog, &with_shortcuts(&prog, unlimited()));
    assert_eq!(plain.status, PtaStatus::Completed);
    assert_eq!(sc.status, PtaStatus::Completed);
    assert_eq!(plain.stats.shortcut_regions, 0);
    assert_eq!(plain.stats.shortcut_tuples, 0);
    let id = func_named(&prog, "id");
    let ret = sc.points_to(&Node::Ret(id));
    assert!(
        ret.contains(&AbsObj::Opaque),
        "summary tuple missing from Ret(id): {ret:?}"
    );
    assert_ne!(
        plain.export_json(),
        sc.export_json(),
        "the summary had no observable effect"
    );
}

/// Budget semantics survive: a budget equal to the fixpoint work
/// completes, one less truncates budget-exactly, and truncated exports
/// are deterministic.
#[test]
fn shortcut_budgets_stay_exact() {
    let prog = lower(&big_src());
    let unlimited = PtaConfig {
        budget: u64::MAX,
        ..Default::default()
    };
    let full = solve(&prog, &with_shortcuts(&prog, unlimited));
    assert_eq!(full.status, PtaStatus::Completed);
    let needed = full.stats.propagations;
    assert!(needed > 1_000, "program too small: {needed}");
    // Exact budget completes.
    let exact = PtaConfig {
        budget: needed,
        ..Default::default()
    };
    let r = solve(&prog, &with_shortcuts(&prog, exact));
    assert_eq!(r.status, PtaStatus::Completed);
    assert_eq!(r.stats.propagations, needed);
    // Truncation points are budget-exact and deterministic.
    for budget in [needed / 3, needed / 2 + 1, needed - 1] {
        let cfg = with_shortcuts(
            &prog,
            PtaConfig {
                budget,
                ..Default::default()
            },
        );
        let r = solve(&prog, &cfg);
        assert_eq!(r.status, PtaStatus::BudgetExceeded, "budget={budget}");
        assert_eq!(r.stats.propagations, budget, "budget={budget}");
        assert_eq!(
            solve(&prog, &cfg).export_json(),
            r.export_json(),
            "budget={budget}"
        );
    }
}

fn shortcut_blamed(r: &PtaResult) -> u64 {
    r.blame_histogram()
        .into_iter()
        .filter(|(c, _)| matches!(c, BlameCause::Shortcut(_)))
        .map(|(_, n)| n)
        .sum()
}

/// Shortcut-blamed tuples reach the fixpoint, and the blame export is
/// deterministic.
#[test]
fn shortcut_blame_is_deterministic() {
    let prog = lower(&big_src());
    let cfg = with_shortcuts(
        &prog,
        PtaConfig {
            budget: u64::MAX,
            provenance: true,
            ..Default::default()
        },
    );
    let r = solve(&prog, &cfg);
    assert_eq!(r.status, PtaStatus::Completed);
    assert!(shortcut_blamed(&r) > 0, "no shortcut-blamed tuples survive");
    let got = r.export_blame_json().expect("provenance was on");
    assert!(got.contains("shortcut"), "blame export lacks the new kind");
    assert_eq!(
        solve(&prog, &cfg).export_blame_json().as_ref(),
        Some(&got),
        "blame export moved"
    );
}

/// Shortcut blame survives budget truncation: a truncated provenance
/// solve keeps blame exactly on the kept tuples, still carrying the
/// shortcut kind once the summary was applied.
#[test]
fn shortcut_blame_survives_budget_truncation() {
    let prog = lower(&big_src());
    let unlimited = PtaConfig {
        budget: u64::MAX,
        provenance: true,
        ..Default::default()
    };
    let full = solve(&prog, &with_shortcuts(&prog, unlimited.clone()));
    assert_eq!(full.status, PtaStatus::Completed);
    let needed = full.stats.propagations;
    let r = solve(
        &prog,
        &with_shortcuts(
            &prog,
            PtaConfig {
                budget: needed - 1,
                ..unlimited
            },
        ),
    );
    assert_eq!(r.status, PtaStatus::BudgetExceeded);
    assert_eq!(r.stats.propagations, needed - 1);
    assert!(
        shortcut_blamed(&r) > 0,
        "truncation dropped every shortcut-blamed tuple"
    );
    // Blame still covers the surviving sets exactly.
    for (node, objs) in r.all_points_to() {
        let blamed: Vec<AbsObj> = r.blame_of(&node).into_iter().map(|(o, _)| o).collect();
        assert_eq!(blamed, objs, "node {node:?}: blame diverged from sets");
    }
}

/// Provenance is a pure side channel in shortcut mode too: toggling it
/// moves no export byte, at fixpoint or mid-budget.
#[test]
fn provenance_toggle_moves_no_shortcut_export_byte() {
    let prog = lower(&big_src());
    let off = solve(&prog, &with_shortcuts(&prog, unlimited()));
    assert!(!off.has_blame());
    let half = off.stats.propagations / 2;
    for budget in [u64::MAX, half] {
        let cfg = PtaConfig {
            budget,
            ..Default::default()
        };
        let off = solve(&prog, &with_shortcuts(&prog, cfg.clone()));
        let on = solve(
            &prog,
            &with_shortcuts(
                &prog,
                PtaConfig {
                    provenance: true,
                    ..cfg
                },
            ),
        );
        assert!(on.has_blame());
        assert_eq!(
            on.stats.propagations, off.stats.propagations,
            "budget={budget}"
        );
        assert_eq!(
            on.export_json(),
            off.export_json(),
            "budget={budget}: provenance moved a shortcut export byte"
        );
    }
}

/// `shortcuts: None` is exactly the old solver: explicit-None and
/// default configs agree byte-for-byte on exports and work, with zero
/// shortcut stats.
#[test]
fn unset_shortcuts_change_nothing() {
    let prog = lower(&big_src());
    let default = solve(&prog, &unlimited());
    let explicit = solve(
        &prog,
        &PtaConfig {
            shortcuts: None,
            ..unlimited()
        },
    );
    assert_eq!(default.export_json(), explicit.export_json());
    assert_eq!(default.stats.propagations, explicit.stats.propagations);
    assert_eq!(explicit.stats.shortcut_regions, 0);
    assert_eq!(explicit.stats.shortcut_tuples, 0);
    // An *empty* summary table is also a no-op.
    let empty = solve(
        &prog,
        &PtaConfig {
            shortcuts: Some(Arc::new(ShortcutSummaries::default())),
            ..unlimited()
        },
    );
    assert_eq!(default.export_json(), empty.export_json());
    assert_eq!(default.stats.propagations, empty.stats.propagations);
}
