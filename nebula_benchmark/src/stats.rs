//! Order statistics, the tail-percentile rule, span self time and the
//! metric-name rule the benchmark's outputs are held to.

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the benchmark contract measures run-to-run spread with.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

/// Percentile `p` (0..=100) by linear interpolation between order
/// statistics.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest percentile of the ladder 50/75/90/95/99 that still has at
/// least ten of `samples` beyond it, or `None` below twenty samples. A
/// tail read off fewer than ten samples is one slow run, not a property
/// of the system.
pub fn tail_percentile(samples: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50].into_iter().find(|&p| samples * (100 - p as usize) >= 10 * 100)
}

/// Whether two parameter vectors agree bit for bit (so that NaNs and
/// signed zeros count too).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One recorded interval; `parent` indexes the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent never overlap (the recorder is
/// a stack on one thread), so their durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.duration_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// Metric and workload names: start with a letter or digit, then at most
/// 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 90.0), 46.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
    }

    #[test]
    fn tail_rule_wants_ten_samples_beyond() {
        assert_eq!(tail_percentile(12), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(39), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, round: 0 };
        // round [0,100) > device [10,90) > {install [10,30), adapt [30,80)}; aggregate [90,98).
        let spans = vec![
            span("round", 0, 100, None),
            span("device", 10, 90, Some(0)),
            span("install", 10, 30, Some(1)),
            span("adapt", 30, 80, Some(1)),
            span("aggregate", 90, 98, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![12, 10, 20, 50, 8]);
        // Self times partition the root exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn same_bits_is_stricter_than_float_equality() {
        assert!(same_bits(&[1.0, f32::NAN], &[1.0, f32::NAN]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    fn name_rule() {
        for ok in ["setup_s", "core.edge_adapt_ms", "c10_sim", "9p", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ms%", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }
}
