//! Order statistics shared by the run report and `detperf compare`.

use std::collections::BTreeMap;

/// Each op's latency taken as its input class's: the nearest-rank lower
/// quartile of the times of the class's ops, which leaves out the repeats
/// that a busy neighbour slowed down. `ops` holds `(class, time)`; a
/// failed op has class `None` and latency `f64::INFINITY`. The result
/// holds one latency per op, grouped by class.
pub fn class_latencies(ops: &[(Option<u64>, f64)]) -> Vec<f64> {
    let mut by_class: BTreeMap<Option<u64>, Vec<f64>> = BTreeMap::new();
    for &(class, t) in ops {
        by_class.entry(class).or_default().push(t);
    }
    let mut out = Vec::with_capacity(ops.len());
    for (class, times) in &by_class {
        let latency = match class {
            Some(_) => percentile(times, 25.0).unwrap_or(0.0),
            None => f64::INFINITY,
        };
        out.extend(std::iter::repeat_n(latency, times.len()));
    }
    out
}

/// Nearest-rank percentile of `samples` (`p` in 0..=100). Failed ops enter
/// as `f64::INFINITY`, so a failure always counts as missing any latency
/// limit. Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartiles with Python's `statistics.quantiles(values,
/// n=4)` (exclusive method), the definition the acceptance runs use. A
/// single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}
