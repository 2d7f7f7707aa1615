//! Order statistics, the `VmHWM` reader and the simulated-statistics
//! digest: the helpers every workload shares.

use vsv::{MetricsRegistry, RunResult, SweepReport};

/// Quartiles `[q1, median, q3]` by the "exclusive" method, the default
/// of Python's `statistics.quantiles(values, n=4)`, so figures printed
/// here match what a reader recomputes from the raw values.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Median by the same method as [`quartiles`].
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Quartile spread: `(q3 - q1) / median`, the share of the median the
/// middle half of the values covers. Zero when the median is zero.
#[must_use]
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Percentiles the tail metric may report, in tenths of a percent,
/// highest first.
const TAIL_LADDER_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`TAIL_LADDER_PERMILLE`] that leaves at
/// least ten samples beyond it: `(percentile, value, samples beyond)`,
/// the value by nearest rank. With fewer than twenty samples no entry
/// qualifies and the median is reported with however many samples lie
/// beyond it.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn tail_percentile(values: &[f64]) -> (f64, f64, usize) {
    assert!(!values.is_empty(), "tail of nothing");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    // Nearest rank: the smallest value with at least p of the samples
    // at or below it, in integer arithmetic so p99.9 of 1000 is 999.
    let at = |permille: usize| {
        let rank = (permille * n).div_ceil(1000).max(1);
        (permille as f64 / 10.0, data[rank - 1], n - rank)
    };
    TAIL_LADDER_PERMILLE
        .iter()
        .map(|&p| at(p))
        .find(|&(_, _, beyond)| beyond >= 10)
        .unwrap_or_else(|| at(500))
}

/// Peak resident set size in MiB, read from the `VmHWM` line of a
/// `/proc/<pid>/status` document. `None` when the line is absent or
/// malformed.
#[must_use]
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    parse_vmhwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// FNV-1a, 64 bit, folded over byte slices.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one cell's simulated statistics: the measured window and
    /// its metrics registry, serialized. Host time appears in neither.
    pub fn cell(&mut self, result: &RunResult, metrics: &MetricsRegistry) {
        self.update(
            serde_json::to_string(result)
                .expect("RunResult serializes")
                .as_bytes(),
        );
        self.update(
            serde_json::to_string(metrics)
                .expect("metrics serialize")
                .as_bytes(),
        );
    }

    /// 16 hex digits.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Zeroes every host wall-clock field of a sweep report — the
/// top-level `wall_ns` and each record's — leaving only simulated
/// values, which repeat exactly for a fixed grid.
pub fn scrub_wall_clocks(report: &mut SweepReport) {
    report.wall_ns = 0;
    for record in &mut report.records {
        record.wall_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsv::{Experiment, Sweep, SystemConfig};
    use vsv_workloads::twin;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn quartile_spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.0; 9]), 0.0);
        assert_eq!(quartile_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 leaves exactly ten beyond; p95 would leave five.
        assert_eq!(tail_percentile(&v), (90.0, 90.0, 10));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (99.0, 990.0, 10));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (99.9, 9990.0, 10));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (75.0, 30.0, 10));
        // Too few samples: the median, with what lies beyond it.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (50.0, 6.0, 6));
        // Order of the input does not matter.
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        v.swap(3, 70);
        assert_eq!(tail_percentile(&v).1, 90.0);
    }

    #[test]
    fn vmhwm_parser_reads_kilobytes() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Some(20.0));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t 100 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    fn tiny_sweep() -> Sweep {
        let twins = [twin("gzip").expect("twin"), twin("art").expect("twin")];
        let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
        let e = Experiment {
            warmup_instructions: 500,
            instructions: 2_000,
        };
        Sweep::over_grid(e, &twins, &configs)
    }

    fn digest_of(report: &SweepReport) -> String {
        let mut d = Digest::default();
        for r in &report.records {
            d.cell(r.result().expect("cell ran"), &r.metrics);
        }
        d.hex()
    }

    #[test]
    fn digest_is_stable_across_runs_and_worker_counts() {
        let sweep = tiny_sweep();
        let a = digest_of(&sweep.report(1));
        assert_eq!(a, digest_of(&sweep.report(2)));
        assert_eq!(a, digest_of(&sweep.report(1)));
        // Any simulated change moves it.
        let mut other = tiny_sweep();
        other.experiment.instructions += 500;
        assert_ne!(a, digest_of(&other.report(1)));
        let mut d = Digest::default();
        d.update(b"a");
        assert_ne!(d.hex(), Digest::default().hex());
    }

    #[test]
    fn scrub_leaves_only_simulated_values() {
        let sweep = tiny_sweep();
        let mut a = sweep.report(1);
        let mut b = sweep.report(2);
        assert!(a.records.iter().all(|r| r.wall_ns > 0));
        scrub_wall_clocks(&mut a);
        scrub_wall_clocks(&mut b);
        assert_eq!(a.wall_ns, 0);
        assert!(a.records.iter().all(|r| r.wall_ns == 0));
        // Worker count is part of the report; equalize it, then the
        // two runs serialize to the same bytes.
        b.workers = a.workers;
        assert_eq!(
            serde_json::to_string_pretty(&a).expect("serializes"),
            serde_json::to_string_pretty(&b).expect("serializes")
        );
    }
}
