//! Order statistics the benchmark reports: nearest-rank percentiles of the
//! operations in one window, and over the windows of a run the quiet decile
//! of each per-window statistic.

/// Which windows of a run speak for it. The benchmark's host is shared: a
/// neighbour on the same cores only ever adds time, for seconds at a
/// stretch, and the median over windows moved by a third between
/// back-to-back runs of the same binary while the lowest decile moved by a
/// twentieth. So a run reports the value its best tenth of windows reached
/// or beat — lowest decile of a latency, highest of a rate.
pub const QUIET: f64 = 0.10;

/// Nearest-rank percentile of an ascending slice: the smallest sample such
/// that at least `p` of the samples are at or below it. `None` when there
/// is no sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// [`percentile`] of values in any order.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    percentile(&ascending(values), p)
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the two middle values averaged. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = ascending(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Distance between the nearest-rank first and third quartiles; 0 when
/// there are fewer than two values.
pub fn iqr(values: &[f64]) -> f64 {
    let v = ascending(values);
    match (percentile(&v, 0.25), percentile(&v, 0.75)) {
        (Some(q1), Some(q3)) => q3 - q1,
        _ => 0.0,
    }
}

/// The [`QUIET`] decile of latencies: nearest rank counted from the lowest.
pub fn quiet_low(values: &[f64]) -> Option<f64> {
    quantile(values, QUIET)
}

/// The [`QUIET`] decile of rates: nearest rank counted from the highest.
pub fn quiet_high(values: &[f64]) -> Option<f64> {
    let mut v = ascending(values);
    v.reverse();
    percentile(&v, QUIET)
}

/// What one timed window of one configuration saw.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Latency of every completed operation, ms, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Length of the window, seconds.
    pub secs: f64,
}

impl Window {
    /// A window holding a single operation that took the whole window
    /// (one compile).
    pub fn single(ms: f64) -> Self {
        Self {
            latencies_ms: vec![ms],
            secs: ms / 1e3,
        }
    }
}

/// A run's summary: each value is the [`QUIET`] decile over windows of
/// that window's statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Lowest decile over windows of the window's median latency, ms.
    pub p50_ms: f64,
    /// Lowest decile over windows of the window's 95th-percentile latency,
    /// ms.
    pub p95_ms: f64,
    /// Highest decile over windows of completed operations per second.
    pub per_s: f64,
    /// Interquartile range of the windows' median latencies, ms.
    pub p50_iqr_ms: f64,
    /// Each window's median latency, ms, in time order.
    pub window_p50s_ms: Vec<f64>,
    /// Operations in those windows.
    pub samples: usize,
}

/// Summarises the windows that completed at least one operation; `None`
/// when none did.
pub fn summarise(windows: &[Window]) -> Option<Summary> {
    let used: Vec<&Window> = windows
        .iter()
        .filter(|w| !w.latencies_ms.is_empty())
        .collect();
    let stat = |f: &dyn Fn(&Window) -> Option<f64>| -> Vec<f64> {
        used.iter().filter_map(|w| f(w)).collect()
    };
    let p50s = stat(&|w| quantile(&w.latencies_ms, 0.50));
    Some(Summary {
        p50_ms: quiet_low(&p50s)?,
        p95_ms: quiet_low(&stat(&|w| quantile(&w.latencies_ms, 0.95)))?,
        per_s: quiet_high(&stat(&|w| Some(w.latencies_ms.len() as f64 / w.secs)))?,
        p50_iqr_ms: iqr(&p50s),
        window_p50s_ms: p50s,
        samples: used.iter().map(|w| w.latencies_ms.len()).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        // ceil(0.95 * 12) = 12: the largest of twelve, not the eleventh.
        assert_eq!(percentile(&v, 0.95), Some(12.0));
        assert_eq!(percentile(&v, 0.50), Some(6.0));
        assert_eq!(percentile(&v, 1.0), Some(12.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(iqr(&[]), 0.0);
        assert_eq!(iqr(&[2.0]), 0.0);
        assert_eq!(iqr(&[1.0, 2.0, 3.0, 4.0]), 2.0);
    }

    #[test]
    fn summary_is_the_quiet_decile_of_window_statistics() {
        let w = |ms: &[f64]| Window {
            latencies_ms: ms.to_vec(),
            secs: 0.5,
        };
        assert_eq!(summarise(&[]), None);
        assert_eq!(summarise(&[w(&[])]), None);
        // Disturbed windows move no statistic while a quiet one is left.
        let s = summarise(&[
            w(&[1.0, 2.0, 3.0]),
            w(&[40.0, 50.0]),
            w(&[2.0, 2.0, 4.0]),
            w(&[]),
        ])
        .unwrap();
        assert_eq!(s.p50_ms, 2.0);
        assert_eq!(s.p95_ms, 3.0);
        assert_eq!(s.per_s, 6.0);
        assert_eq!(
            (s.window_p50s_ms.as_slice(), s.samples),
            ([2.0, 40.0, 2.0].as_slice(), 8)
        );
        // Of twenty windows the second best speaks: one lucky window alone
        // does not.
        let twenty: Vec<Window> = (1..=20)
            .map(|i| w(&vec![f64::from(i); i as usize]))
            .collect();
        let s = summarise(&twenty).unwrap();
        assert_eq!((s.p50_ms, s.p95_ms, s.per_s), (2.0, 2.0, 38.0));
        let one = summarise(&[Window::single(1500.0)]).unwrap();
        assert_eq!((one.p50_ms, one.p95_ms), (1500.0, 1500.0));
        assert!((one.per_s - 1.0 / 1.5).abs() < 1e-12);
    }
}
