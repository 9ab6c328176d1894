//! Percentiles, quartiles, per-class latencies, host scaling, span self
//! time and the compare verdicts.

use mujs_perf::compare::{verdict, Rule};
use mujs_perf::host;
use mujs_perf::stats::{class_latencies, median, percentile, quartiles};
use mujs_perf::trace::{self_times, Span, Tracer};

#[test]
fn percentiles_use_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(50.0));
    assert_eq!(percentile(&v, 90.0), Some(90.0));
    assert_eq!(percentile(&v, 99.0), Some(99.0));
    assert_eq!(percentile(&v, 100.0), Some(100.0));
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&[], 50.0), None);
    // Unsorted input is fine.
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
}

#[test]
fn failed_ops_count_as_infinitely_slow() {
    let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
    for x in &mut v[..3] {
        *x = f64::INFINITY;
    }
    // Three failures out of twenty push the p90 (rank 18) past the last
    // finite sample.
    assert_eq!(percentile(&v, 90.0), Some(f64::INFINITY));
    assert_eq!(percentile(&v, 85.0), Some(20.0));
    assert_eq!(percentile(&v, 50.0), Some(13.0));
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(values, n=4) gives these.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    assert_eq!(quartiles(&[3.5, 1.0]), Some((0.375, 4.125)));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
    assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
    assert_eq!(quartiles(&[]), None);
    assert_eq!(median(&ten), Some(5.5));
    assert_eq!(median(&[5.0, 1.0, 4.0]), Some(4.0));
}

#[test]
fn a_class_takes_the_lower_quartile_of_its_repeats() {
    // Class 1 ran eight times, twice while a neighbour slowed it down;
    // class 2 ran four times; one op failed its check.
    let mut ops: Vec<(Option<u64>, f64)> = [10.0, 11.0, 30.0, 10.5, 12.0, 31.0, 11.5, 10.2]
        .into_iter()
        .map(|t| (Some(1), t))
        .collect();
    ops.extend([4.0, 3.0, 9.0, 3.5].map(|t| (Some(2), t)));
    ops.push((None, 1.0));
    let mut got = class_latencies(&ops);
    got.sort_by(f64::total_cmp);
    let mut want = vec![10.2; 8];
    want.extend([3.0; 4]);
    want.sort_by(f64::total_cmp);
    want.push(f64::INFINITY);
    assert_eq!(got, want);
    assert!(class_latencies(&[]).is_empty());
}

#[test]
fn host_scaling_uses_the_probes_around_the_op() {
    let r = host::REFERENCE_MS;
    // The host ran at reference speed, then at half speed from 10 s on.
    let samples: Vec<(f64, f64)> = (0..40)
        .map(|i| {
            let t = f64::from(i) * 0.5;
            (t, if t < 10.0 { r } else { 2.0 * r })
        })
        .collect();
    assert_eq!(host::scale_at(&samples, 3.0), 1.0);
    assert_eq!(host::scale_at(&samples, 16.0), 0.5);
    // Far from every probe, the nearest one decides.
    assert_eq!(host::scale_at(&samples, 60.0), 0.5);
    assert_eq!(host::scale_at(&samples[..1], -30.0), 1.0);
    assert_eq!(host::scale_at(&[], 1.0), 1.0);
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    let spans = [
        span("op", None, 0, 100),
        span("frontend", Some(0), 10, 30),
        span("determinacy.analyze", Some(0), 40, 90),
        // A grandchild counts against its parent only.
        span("pta.injected", Some(2), 50, 70),
    ];
    assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
}

#[test]
fn self_time_merges_overlapping_children() {
    let spans = [
        span("op", None, 0, 100),
        span("serve", Some(0), 10, 50),
        // Overlaps the first child by 20 and sticks out of the parent.
        span("serve", Some(0), 30, 120),
        // Entirely inside the first child.
        span("serve", Some(0), 15, 20),
    ];
    // Children cover [10, 100): 90 of the parent's 100.
    assert_eq!(self_times(&spans)[0], 10);
}

#[test]
fn tracer_nests_spans_and_records_nothing_while_off() {
    let mut tr = Tracer::new(true);
    tr.span("op", |tr| {
        tr.span("frontend", |_| ());
        tr.span("pta.baseline", |tr| tr.count("pta.nodes", 4.0));
    });
    tr.count("pta.nodes", 6.0);
    let spans = tr.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert_eq!(spans[2].layer(), "pta");
    assert_eq!(tr.mean("pta.nodes"), 5.0);

    tr.set_on(false);
    let got = tr.span("op", |tr| {
        tr.count("pta.nodes", 100.0);
        7
    });
    assert_eq!(got, 7);
    assert_eq!(tr.spans().len(), 3);
    assert_eq!(tr.mean("pta.nodes"), 5.0);
}

/// Pairs run `i` of `a` with run `i` of `b` (same seed).
fn pairs(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
    a.iter().copied().zip(b.iter().copied()).collect()
}

#[test]
fn verdicts_respect_bounds_and_spread() {
    let lower = Rule {
        higher_is_better: false,
        bound: Some(0.10),
    };
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    let same = [100.2, 100.8, 99.4, 100.1, 99.9];
    let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
    let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
    assert_eq!(verdict(&pairs(&a, &same), lower), "within bound");
    assert_eq!(verdict(&pairs(&a, &slower), lower), "worse");
    assert_eq!(verdict(&pairs(&a, &faster), lower), "better");
    assert_eq!(verdict(&[], lower), "no data");
    // A spread wider than the bound leaves it unresolved...
    let noisy = [60.0, 150.0, 100.0, 70.0, 130.0];
    assert_eq!(verdict(&pairs(&a, &noisy), lower), "unresolved");
    // ...unless every run of one side beats every run of the other.
    let noisy_fast = [10.0, 40.0, 20.0, 30.0, 5.0];
    assert_eq!(verdict(&pairs(&a, &noisy_fast), lower), "better");
    let higher = Rule {
        higher_is_better: true,
        bound: Some(0.08),
    };
    assert_eq!(verdict(&pairs(&a, &faster), higher), "worse");
    let unbounded = Rule {
        higher_is_better: true,
        bound: None,
    };
    assert_eq!(verdict(&pairs(&a, &slower), unbounded), "better");
}

#[test]
fn a_gain_needs_nine_tenths_of_the_pairs() {
    let lower = Rule {
        higher_is_better: false,
        bound: Some(0.10),
    };
    let a = [100.0; 10];
    // The median is 20% faster, but the change loses two pairs of ten.
    let mut b = [80.0; 10];
    b[3] = 105.0;
    b[7] = 105.0;
    assert_eq!(verdict(&pairs(&a, &b), lower), "within bound");
    // Losing one pair of ten still counts as a gain.
    b[7] = 80.0;
    assert_eq!(verdict(&pairs(&a, &b), lower), "better");
}

#[test]
fn an_exact_metric_is_worse_if_any_seed_worsens() {
    let higher = Rule {
        higher_is_better: true,
        bound: Some(0.0005),
    };
    let a = [0.75; 10];
    let mut b = [0.75; 10];
    assert_eq!(verdict(&pairs(&a, &b), higher), "within bound");
    // One solve of sixteen lost on one seed of ten.
    b[4] = 0.6875;
    assert_eq!(verdict(&pairs(&a, &b), higher), "worse");
}
