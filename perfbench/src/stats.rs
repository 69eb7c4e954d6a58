//! Sample statistics: exact nearest-rank quantiles over stored samples
//! (no histogram buckets), medians and quartiles, fixed-duration
//! windows after a warm-up, the tail-percentile rule, and the peak-RSS
//! reader.

use std::time::Duration;

/// Nearest-rank quantile `q` of an ascending slice: the element of rank
/// `ceil(q * n)`, clamped to `1..=n`. `None` for an empty slice.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a copy of `values` ascending (NaNs last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The median: the mean of the two middle samples for an even count.
/// `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// Distance between the quartiles as a share of the median.
    #[must_use]
    pub fn relative_spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// the ones computed from the printed runs with Python. Needs at least two
/// samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some(Quartiles {
        q1: cut(1),
        median: median(&s)?,
        q3: cut(3),
    })
}

/// `q1 … median … q3 (spread s)` of `values`, for report notes.
#[must_use]
pub fn describe(values: &[f64]) -> String {
    match quartiles(values) {
        Some(q) => format!(
            "q1 {:.4} median {:.4} q3 {:.4} (spread {:.3})",
            q.q1,
            q.median,
            q.q3,
            q.relative_spread()
        ),
        None => format!("{values:?}"),
    }
}

/// The tail percentile to report for `n` samples: the highest whole
/// percentile with at least ten samples beyond its nearest rank, capped
/// at 99. `None` below 11 samples, where no percentile qualifies.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99u32).rev().find(|&p| {
        let rank = (u64::from(p) * n as u64).div_ceil(100) as usize;
        rank >= 1 && n.saturating_sub(rank) >= 10
    })
}

/// Fixed-duration measurement windows that start after a warm-up:
/// window `i` covers `[warmup + i*len, warmup + (i+1)*len)` on the run's
/// clock.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    /// Time discarded before the first window.
    pub warmup: Duration,
    /// Length of each window.
    pub len: Duration,
    /// Number of windows.
    pub count: usize,
}

impl Windows {
    /// The window an event at `t` (on the run's clock) falls into, or
    /// `None` during warm-up or after the last window.
    #[must_use]
    pub fn index(&self, t: Duration) -> Option<usize> {
        let since = t.checked_sub(self.warmup)?;
        let i = (since.as_nanos() / self.len.as_nanos().max(1)) as usize;
        (i < self.count).then_some(i)
    }

    /// Where the last window ends on the run's clock.
    #[must_use]
    pub fn end(&self) -> Duration {
        self.warmup + self.len * self.count as u32
    }

    /// Splits timestamped values into per-window sample lists.
    #[must_use]
    pub fn split(&self, samples: impl IntoIterator<Item = (Duration, f64)>) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); self.count];
        for (t, v) in samples {
            if let Some(i) = self.index(t) {
                out[i].push(v);
            }
        }
        out
    }
}

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// document, in MiB.
#[must_use]
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set size in MiB, from the kernel's
/// per-process status page.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_on_stored_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&s, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&s, 0.991), Some(100.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Values between bucket edges come back exactly.
        let odd = [0.000_123, 7.5, 1023.9];
        assert_eq!(nearest_rank(&odd, 0.5), Some(7.5));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert!((q.q1 - 2.75).abs() < 1e-12, "{q:?}");
        assert!((q.median - 5.5).abs() < 1e-12, "{q:?}");
        assert!((q.q3 - 8.25).abs() < 1e-12, "{q:?}");
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[20.0, 10.0]).unwrap();
        assert!(
            (q.q1 - 7.5).abs() < 1e-12 && (q.q3 - 22.5).abs() < 1e-12,
            "{q:?}"
        );
        assert!((q.relative_spread() - 1.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(25), Some(60));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(500), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(4000), Some(99));
        for n in [11, 37, 250, 999] {
            let p = tail_percentile(n).unwrap();
            let rank = (p as usize * n).div_ceil(100);
            assert!(n - rank >= 10, "n={n} p={p}");
            let next = ((p as usize + 1) * n).div_ceil(100);
            assert!(p == 99 || n - next < 10, "n={n}: p{} also qualifies", p + 1);
        }
    }

    #[test]
    fn windows_drop_warmup_and_overflow() {
        let w = Windows {
            warmup: Duration::from_millis(100),
            len: Duration::from_millis(50),
            count: 3,
        };
        assert_eq!(w.index(Duration::from_millis(99)), None);
        assert_eq!(w.index(Duration::from_millis(100)), Some(0));
        assert_eq!(w.index(Duration::from_millis(149)), Some(0));
        assert_eq!(w.index(Duration::from_millis(150)), Some(1));
        assert_eq!(w.index(Duration::from_millis(249)), Some(2));
        assert_eq!(w.index(Duration::from_millis(250)), None);
        assert_eq!(w.end(), Duration::from_millis(250));
        let split = w.split([
            (Duration::from_millis(10), 1.0),
            (Duration::from_millis(120), 2.0),
            (Duration::from_millis(130), 3.0),
            (Duration::from_millis(200), 4.0),
        ]);
        assert_eq!(split, vec![vec![2.0, 3.0], vec![], vec![4.0]]);
    }

    #[test]
    fn vm_hwm_parses_kib_lines() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
