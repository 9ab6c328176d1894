//! `detperf compare`: medians, quartiles and a verdict per workload and
//! metric between two sets of runs, judged by the bounds in
//! `BENCHMARK.json`. Runs are paired by workload and seed.

use crate::stats::{median, quartiles};
use crate::workloads::NAMES;
use serde_json::Value;
use std::collections::BTreeMap;

/// A metric's declared direction and regression bound.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// Reads every metric's rule from a `BENCHMARK.json` text.
///
/// # Errors
///
/// Malformed JSON or a metric without a name or direction.
fn rules(benchmark_json: &str) -> Result<BTreeMap<String, Rule>, String> {
    let v: Value =
        serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in v.get(section).and_then(Value::as_array).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("BENCHMARK.json: metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("BENCHMARK.json: {name} has no direction"))?;
            out.insert(
                name.to_owned(),
                Rule {
                    higher_is_better: better == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// Quartile spread `(q3 - q1) / |median|`; 0 for a zero median.
fn spread(v: &[f64], m: f64) -> f64 {
    match quartiles(v) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The verdict on runs `b` against baseline runs `a`, given as
/// `(a, b)` pairs of runs with the same seed:
///
/// * `better` when `b` wins at least nine tenths of the pairs (ties count
///   for neither) and its median beats `a`'s by more than `a`'s own
///   quartile spread;
/// * `worse` when `b`'s median is worse than `a`'s by more than the bound.
///   Where every run of `a` reads the same (an exact metric), one pair
///   worse by more than the bound is enough;
/// * `unresolved` when either side's quartile spread, as a share of its
///   median, is wider than the bound — unless every run of `b` reads
///   better (then `better` stands) or worse (`worse`) than every run
///   of `a`;
/// * `within bound` otherwise.
///
/// Metrics without a bound get `better`, `worse` or `same` by median.
pub fn verdict(pairs: &[(f64, f64)], rule: Rule) -> &'static str {
    let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (Some(ma), Some(mb)) = (median(&a), median(&b)) else {
        return "no data";
    };
    // Signed worsening of y relative to x (positive = worse), as a share
    // of x.
    let sign = if rule.higher_is_better { -1.0 } else { 1.0 };
    let worsening = |x: f64, y: f64| {
        if x == 0.0 {
            if y == x {
                0.0
            } else {
                sign * (y - x).signum()
            }
        } else {
            sign * (y - x) / x.abs()
        }
    };
    let w = worsening(ma, mb);
    let Some(bound) = rule.bound else {
        return match w {
            w if w > 0.0 => "worse",
            w if w < 0.0 => "better",
            _ => "same",
        };
    };
    let wins = pairs
        .iter()
        .filter(|&&(x, y)| worsening(x, y) < 0.0)
        .count();
    let sa = spread(&a, ma);
    let exact = a.iter().all(|&x| x == ma);
    let worse = w > bound || (exact && pairs.iter().any(|&(x, y)| worsening(x, y) > bound));
    let better = wins * 10 >= pairs.len() * 9 && -w > sa;
    if sa.max(spread(&b, mb)) > bound {
        let all = |f: fn(f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(worsening(x, y))));
        return if better && all(|d| d < 0.0) {
            "better"
        } else if worse && all(|d| d > 0.0) {
            "worse"
        } else {
            "unresolved"
        };
    }
    if worse {
        "worse"
    } else if better {
        "better"
    } else {
        "within bound"
    }
}

/// Metric values by `(workload, metric)`, then by seed, one per run in
/// file order.
type Runs = BTreeMap<(String, String), BTreeMap<u64, Vec<f64>>>;

/// The runs of a results file (`--out` lines), plus the workloads with
/// failed ops.
///
/// # Errors
///
/// A line that is not a result record.
fn load_runs(text: &str) -> Result<(Runs, Vec<String>), String> {
    let mut out = Runs::new();
    let mut failing = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let v: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let seed = v
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("no seed"))? as u64;
        let result = v.get("result").ok_or_else(|| bad("no result"))?;
        if result.get("failed").and_then(Value::as_f64).unwrap_or(0.0) > 0.0 {
            failing.push(format!("{workload} (seed {seed})"));
        }
        for (name, m) in result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or(&[])
        {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .entry(seed)
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok((out, failing))
}

/// The `(a, b)` pairs of runs with the same seed: the i-th run of a seed
/// in `a` with the i-th run of that seed in `b`.
fn pair_up(a: &BTreeMap<u64, Vec<f64>>, b: &BTreeMap<u64, Vec<f64>>) -> Vec<(f64, f64)> {
    a.iter()
        .filter_map(|(seed, va)| {
            b.get(seed)
                .map(|vb| va.iter().copied().zip(vb.iter().copied()))
        })
        .flatten()
        .collect()
}

/// Renders the comparison table of two results files.
///
/// # Errors
///
/// Malformed inputs.
pub fn compare(a: &str, b: &str, benchmark_json: &str) -> Result<String, String> {
    use std::fmt::Write;
    let rules = rules(benchmark_json)?;
    let (ra, fa) = load_runs(a)?;
    let (rb, fb) = load_runs(b)?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<11} {:<28} {:>34} {:>34} {:>9}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    let cell = |v: &[f64]| {
        let m = median(v).unwrap_or(f64::NAN);
        let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        format!("{m:.4} [{q1:.4}, {q3:.4}]")
    };
    for w in NAMES {
        for ((wl, metric), sa) in ra.iter().filter(|((wl, _), _)| wl == w) {
            let Some(sb) = rb.get(&(wl.clone(), metric.clone())) else {
                continue;
            };
            let pairs = pair_up(sa, sb);
            if pairs.is_empty() {
                continue;
            }
            let Some(&rule) = rules.get(metric) else {
                continue;
            };
            let sign = if rule.higher_is_better { 1.0 } else { -1.0 };
            let wins = pairs.iter().filter(|&&(x, y)| sign * (y - x) > 0.0).count();
            let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let _ = writeln!(
                s,
                "{wl:<11} {metric:<28} {:>34} {:>34} {:>9}  {}",
                cell(&a),
                cell(&b),
                format!("{wins}/{}", pairs.len()),
                verdict(&pairs, rule)
            );
        }
    }
    for (side, failing) in [("A", fa), ("B", fb)] {
        if !failing.is_empty() {
            let _ = writeln!(s, "{side}: runs with failed ops: {}", failing.join(", "));
        }
    }
    Ok(s)
}
