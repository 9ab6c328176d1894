//! The hand-written reference outputs in `expected.json`, compiled in so
//! the checks cannot drift from the file a reader checks them against.

use serde_json::Value;

/// One Table 1 cell.
#[derive(Debug, Clone)]
pub struct Table1Cell {
    /// Corpus version label.
    pub version: String,
    /// Whether the cell is Spec+DetDOM (otherwise Spec).
    pub det_dom: bool,
    /// ✓: the specialized solve completes within the budget.
    pub completes: bool,
    /// Heap flushes; `None` for `>1000` (the flush cap fired).
    pub flushes: Option<u32>,
}

/// One pta-modes version.
#[derive(Debug, Clone)]
pub struct PtaVersion {
    /// Corpus version label.
    pub version: String,
    /// Propagations of the uninjected baseline fixpoint.
    pub baseline_propagations: u64,
    /// Whether the shortcut solve completes at the mode budget.
    pub shortcut_completes: bool,
}

/// Every reference the benchmark checks against.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Table 1 PTA budget.
    pub table1_budget: u64,
    /// Table 1 cells in Spec-then-DetDOM, version order.
    pub table1: Vec<Table1Cell>,
    /// Budget of the pta-modes baseline solve.
    pub baseline_budget: u64,
    /// Budget of the other pta-modes solves.
    pub mode_budget: u64,
    /// pta-modes references in version order.
    pub pta_versions: Vec<PtaVersion>,
    /// Multi-run fact conflicts allowed on gen-fleet.
    pub gen_conflicts: u64,
    /// Pipeline counter movement allowed on a warm serve request.
    pub warm_pipeline_delta: u64,
}

fn num(v: &Value, path: &[&str]) -> Result<f64, String> {
    let mut cur = v;
    for p in path {
        cur = cur
            .get(p)
            .ok_or_else(|| format!("expected.json: missing {p}"))?;
    }
    cur.as_f64()
        .ok_or_else(|| format!("expected.json: {} is not a number", path.join(".")))
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("expected.json: missing {key}"))
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("expected.json: {key} is not a string"))
}

fn boolean(v: &Value, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("expected.json: {key} is not a bool"))
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("expected.json: {key} is not an array"))
}

impl Expected {
    /// Parses the compiled-in `expected.json`.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn load() -> Result<Self, String> {
        let v: Value = serde_json::from_str(include_str!("../expected.json"))
            .map_err(|e| format!("expected.json: {e}"))?;
        let t1 = field(&v, "table1")?;
        let table1 = array(t1, "cells")?
            .iter()
            .map(|c| {
                let flushes = string(c, "flushes")?;
                Ok(Table1Cell {
                    version: string(c, "version")?,
                    det_dom: boolean(c, "det_dom")?,
                    completes: boolean(c, "completes")?,
                    flushes: if flushes == ">1000" {
                        None
                    } else {
                        Some(
                            flushes
                                .parse()
                                .map_err(|_| format!("expected.json: bad flush count {flushes}"))?,
                        )
                    },
                })
            })
            .collect::<Result<_, String>>()?;
        let pm = field(&v, "pta_modes")?;
        let pta_versions = array(pm, "versions")?
            .iter()
            .map(|r| {
                Ok(PtaVersion {
                    version: string(r, "version")?,
                    baseline_propagations: num(r, &["baseline_propagations"])? as u64,
                    shortcut_completes: boolean(r, "shortcut_completes")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Expected {
            table1_budget: num(&v, &["table1", "pta_budget"])? as u64,
            table1,
            baseline_budget: num(&v, &["pta_modes", "baseline_budget"])? as u64,
            mode_budget: num(&v, &["pta_modes", "mode_budget"])? as u64,
            pta_versions,
            gen_conflicts: num(&v, &["gen_fleet", "conflicts"])? as u64,
            warm_pipeline_delta: num(&v, &["serve_edit", "warm_pipeline_delta"])? as u64,
        })
    }
}
