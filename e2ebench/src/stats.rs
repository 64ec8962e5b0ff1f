//! Summary statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the printed results.

/// The median of `xs`, or `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The three quartile cut points of `xs` by Python's exclusive method,
/// or `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1i64..) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (`None` with fewer than
/// two samples or a zero median).
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    let rank = rank_of(s.len(), p)?;
    Some(s[rank - 1])
}

/// Percentiles considered by [`tail_percentile`], highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of p99.9/p99/p95/p90/p75/p50 that still has at least
/// `min_beyond` samples strictly above its nearest rank, with its value:
/// a tail figure is only reported where enough samples stand behind it.
pub fn tail_percentile(xs: &[f64], min_beyond: usize) -> Option<(f64, f64)> {
    let s = sorted(xs);
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let rank = rank_of(s.len(), p)?;
        (s.len() - rank >= min_beyond).then(|| (p, s[rank - 1]))
    })
}

/// Latency samples for a served population where `missed` requests were
/// refused or failed: each counts as `+inf`, so it misses every latency
/// limit and sorts into the tail.
pub fn with_misses(served: &[f64], missed: usize) -> Vec<f64> {
    let mut v = served.to_vec();
    v.extend(std::iter::repeat_n(f64::INFINITY, missed));
    v
}

/// Share of `latencies` at or under `limit` (`None` when empty). Feed it
/// [`with_misses`] so refused and failed requests count as misses.
pub fn met_limit_share(latencies: &[f64], limit: f64) -> Option<f64> {
    if latencies.is_empty() {
        return None;
    }
    Some(latencies.iter().filter(|&&l| l <= limit).count() as f64 / latencies.len() as f64)
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// that interval covered by at least one child. Children may overlap
/// each other (threads) or stick out of the parent; only their union
/// inside the parent is subtracted.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank_of(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from statistics.quantiles(xs, n=4).
        let cases: [(&[f64], [f64; 3]); 4] = [
            (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], [2.75, 5.5, 8.25]),
            (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
            (&[5.0, 1.0], [0.0, 3.0, 6.0]),
            (&[1.5, 2.5, 10.0, 4.0, 7.0, 3.3, 8.1], [2.5, 4.0, 8.1]),
        ];
        for (xs, want) in cases {
            let got = quartiles(xs).unwrap();
            assert!(got.iter().zip(want).all(|(g, w)| close(*g, w)), "{xs:?}: {got:?}");
        }
        assert_eq!(quartiles(&[1.0]), None);
        assert!(close(iqr_share(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap(), 1.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 is rank 190: exactly ten samples beyond it.
        assert_eq!(tail_percentile(&xs, 10), Some((95.0, 190.0)));
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        // Rank 190 of 199 leaves nine beyond; fall back to p90.
        assert_eq!(tail_percentile(&xs, 10), Some((90.0, 180.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&[1.0; 5], 10), None);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), Some(3.0));
    }

    #[test]
    fn refused_and_failed_jobs_miss_the_limit() {
        let served = [10.0, 20.0, 30.0, 900.0];
        let all = with_misses(&served, 2);
        assert_eq!(all.len(), 6);
        // Three of six met a 100 ms limit: the two misses count against it.
        assert!(close(met_limit_share(&all, 100.0).unwrap(), 0.5));
        // A miss sorts into the tail and never meets any limit.
        assert_eq!(percentile(&all, 100.0), Some(f64::INFINITY));
        assert!(close(met_limit_share(&with_misses(&[], 3), 1e300).unwrap(), 0.0));
        assert_eq!(met_limit_share(&[], 1.0), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["wall_s", "codecs.encode_ms", "exec.store-hits", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "wall s", "a/b", "p95%", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        // Two overlapping children cover [10, 50); a third covers [60, 70).
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50), (60, 70)]), 100 - 40 - 10);
        // A child sticking out of the parent only counts inside it.
        assert_eq!(self_time(0, 100, &[(90, 150), (0, 5)]), 100 - 10 - 5);
        // Nested and identical children count once.
        assert_eq!(self_time(0, 10, &[(0, 10), (2, 3), (0, 10)]), 0);
    }
}
