//! Order statistics over host-time samples and the `/proc` readers for CPU
//! time and peak memory.

/// Median of a non-empty sample set.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the "exclusive" method) so the
/// spreads printed here are the ones the acceptance rule is stated in.
/// A single sample has no spread: both quartiles are that sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m > 0, "quartiles of no samples");
    if m == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(xs: &[f64]) -> f64 {
    let med = median(xs);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / med
}

/// Kernel clock ticks per second behind `/proc/self/stat`'s utime/stime.
/// `sysconf(_SC_CLK_TCK)` needs libc; every Linux ABI this repo builds on
/// reports 100.
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system) this process has consumed, from
/// `/proc/self/stat`; `None` off Linux.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut it = rest.split_whitespace();
    let utime: f64 = it.nth(11)?.parse().ok()?;
    let stime: f64 = it.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// Peak resident set size of this process in MiB (`VmHWM`); `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn proc_readers_work_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(process_cpu_s().is_some());
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
