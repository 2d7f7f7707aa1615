//! Result types and paper-style derived metrics.

use vsv_power::EnergyBreakdown;
use vsv_uarch::IssueHistogram;

use crate::controller::ModeStats;

/// Measured outcome of one simulation window.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunResult {
    /// Workload name (empty if unset).
    pub workload: String,
    /// Instructions committed in the window.
    pub instructions: u64,
    /// Wall-clock nanoseconds elapsed (= full-speed cycles at 1 GHz).
    pub elapsed_ns: u64,
    /// Pipeline clock edges in the window (fewer than `elapsed_ns`
    /// when VSV ran at half speed).
    pub pipeline_cycles: u64,
    /// Committed instructions per full-speed-clock cycle — the paper's
    /// IPC metric (Table 2).
    pub ipc: f64,
    /// L2 *demand* misses per 1000 instructions — the paper's MR.
    pub mpki: f64,
    /// L2 prefetch misses per 1000 instructions.
    pub prefetch_mpki: f64,
    /// Total energy dissipated, picojoules.
    pub energy_pj: f64,
    /// Per-structure energy breakdown (Wattch-style view; render with
    /// [`EnergyBreakdown::table`]).
    pub energy: EnergyBreakdown,
    /// Average total processor power, watts.
    pub avg_power_w: f64,
    /// Mode residency and transition counts.
    pub mode: ModeStats,
    /// Down-FSM transitions signalled.
    pub down_triggers: u64,
    /// Down-FSM windows that expired (high ILP detected).
    pub down_expiries: u64,
    /// Up-FSM transitions signalled.
    pub up_triggers: u64,
    /// Up-FSM windows that expired (no ILP found).
    pub up_expiries: u64,
    /// Cycles in which nothing issued.
    pub zero_issue_cycles: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Branches committed.
    pub branches: u64,
    /// Instructions issued per pipeline cycle, bucketed — the
    /// statistic the down/up FSMs sample.
    pub issue_histogram: IssueHistogram,
    /// Erroneous low-voltage cache reads detected in the window
    /// (always 0 with the error model off).
    pub read_errors: u64,
    /// Read retries issued in the window (errors that still had retry
    /// budget; an exhausted budget ends the run with
    /// `SimError::UnrecoverableRead` instead).
    pub read_retries: u64,
    /// Open-loop requests that arrived in the window (0 with traffic
    /// off).
    #[serde(default)]
    pub requests_arrived: u64,
    /// Open-loop requests that completed service in the window.
    #[serde(default)]
    pub requests_completed: u64,
    /// Requests still queued when the window closed (nonzero backlog
    /// = offered load exceeded service capacity).
    #[serde(default)]
    pub request_backlog: u64,
    /// Median request latency: the log2-bucket upper edge holding the
    /// window's 50th-percentile arrival → completion latency, ns
    /// (0 with traffic off or no completions).
    #[serde(default)]
    pub request_p50_ns: u64,
    /// 99th-percentile request latency (same bucket-edge convention).
    #[serde(default)]
    pub request_p99_ns: u64,
    /// 99.9th-percentile request latency (same convention).
    #[serde(default)]
    pub request_p999_ns: u64,
    /// The window's reliability outcome against the configured
    /// [`SloSpec`] (`None` when no SLO was set).
    pub slo: Option<SloOutcome>,
    /// Per-core measured windows when the run simulated a multicore
    /// chip ([`SystemConfig::cores`](crate::SystemConfig) > 1): entry
    /// `i` is core `i`'s own voltage domain over the shared fabric,
    /// and the top-level fields are the chip-wide aggregate (summed
    /// work and energy over the longest core's window). Empty for
    /// single-core runs.
    #[serde(default)]
    pub core_results: Vec<RunResult>,
}

impl RunResult {
    /// Fraction of cycles with zero issue — the signal VSV's FSMs key
    /// off.
    #[must_use]
    pub fn zero_issue_fraction(&self) -> f64 {
        if self.pipeline_cycles == 0 {
            0.0
        } else {
            self.zero_issue_cycles as f64 / self.pipeline_cycles as f64
        }
    }
}

/// The paper's two headline metrics for a VSV run against its
/// baseline (Figures 4–7).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Comparison {
    /// Increase in execution time, percent of the baseline
    /// (Figure 4 top).
    pub perf_degradation_pct: f64,
    /// Reduction in average total processor power, percent of the
    /// baseline (Figure 4 bottom).
    pub power_saving_pct: f64,
}

impl Comparison {
    /// Compares a VSV run against its baseline run (same workload,
    /// same instruction window).
    ///
    /// # Panics
    ///
    /// Panics if the baseline window is degenerate (zero time/power).
    #[must_use]
    pub fn of(baseline: &RunResult, vsv: &RunResult) -> Self {
        assert!(baseline.elapsed_ns > 0, "baseline ran for zero time");
        assert!(baseline.avg_power_w > 0.0, "baseline burned zero power");
        Comparison {
            perf_degradation_pct: (vsv.elapsed_ns as f64 / baseline.elapsed_ns as f64 - 1.0)
                * 100.0,
            power_saving_pct: (1.0 - vsv.avg_power_w / baseline.avg_power_w) * 100.0,
        }
    }
}

/// A run's service-level objective: ceilings on how much low-voltage
/// timing-error churn the modeled machine may impose on the workload,
/// and — for traffic scenarios — on the request tail latency. Checked
/// per measurement window against the observed retry stream and the
/// request-latency histogram; a violated window marks its
/// [`RunResult::slo`] (and sweep record) non-compliant and bumps the
/// `slo_violations` counter.
///
/// The tail-latency ceilings are optional so latency-only and
/// reliability-only SLOs both express naturally; `None` means
/// unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SloSpec {
    /// Maximum tolerated read-retry rate, in retries per million
    /// successful architectural fills.
    pub max_retry_rate_ppm: u64,
    /// Maximum tolerated 99th-percentile *added* fill latency from
    /// error detection and retry, in nanoseconds (each retry adds a
    /// fixed detect + reissue delay; see `vsv-mem`).
    pub max_added_latency_p99_ns: u64,
    /// Maximum tolerated 99th-percentile request latency, ns
    /// (traffic scenarios; `None` = unbounded).
    #[serde(default)]
    pub max_request_p99_ns: Option<u64>,
    /// Maximum tolerated 99.9th-percentile request latency, ns.
    #[serde(default)]
    pub max_request_p999_ns: Option<u64>,
}

impl SloSpec {
    /// A reliability-only SLO with the given ceilings (request tail
    /// latency unbounded).
    #[must_use]
    pub fn new(max_retry_rate_ppm: u64, max_added_latency_p99_ns: u64) -> Self {
        SloSpec {
            max_retry_rate_ppm,
            max_added_latency_p99_ns,
            max_request_p99_ns: None,
            max_request_p999_ns: None,
        }
    }

    /// Adds a request-p99 ceiling (ns).
    #[must_use]
    pub fn with_request_p99(mut self, ns: u64) -> Self {
        self.max_request_p99_ns = Some(ns);
        self
    }

    /// Adds a request-p999 ceiling (ns).
    #[must_use]
    pub fn with_request_p999(mut self, ns: u64) -> Self {
        self.max_request_p999_ns = Some(ns);
        self
    }

    /// Whether any reliability ceiling is finite (used by the CLI to
    /// warn when a retry-rate bound is asserted without an error
    /// model, where the retry rate is trivially 0).
    #[must_use]
    pub fn bounds_reliability(&self) -> bool {
        self.max_retry_rate_ppm != u64::MAX || self.max_added_latency_p99_ns != u64::MAX
    }

    /// Judges one window's observed reliability numbers against this
    /// objective (no traffic percentiles; request ceilings are judged
    /// vacuously satisfied).
    #[must_use]
    pub fn evaluate(&self, retry_rate_ppm: u64, added_latency_p99_ns: u64) -> SloOutcome {
        self.evaluate_window(retry_rate_ppm, added_latency_p99_ns, None, None)
    }

    /// Judges one window's observed reliability numbers and request
    /// tail latencies (`None` when no traffic scenario ran) against
    /// this objective.
    #[must_use]
    pub fn evaluate_window(
        &self,
        retry_rate_ppm: u64,
        added_latency_p99_ns: u64,
        request_p99_ns: Option<u64>,
        request_p999_ns: Option<u64>,
    ) -> SloOutcome {
        let within = |observed: Option<u64>, ceiling: Option<u64>| match (observed, ceiling) {
            (Some(seen), Some(max)) => seen <= max,
            // An unbounded ceiling, or a ceiling with no traffic to
            // measure against, cannot be violated.
            _ => true,
        };
        SloOutcome {
            retry_rate_ppm,
            added_latency_p99_ns,
            request_p99_ns,
            request_p999_ns,
            compliant: retry_rate_ppm <= self.max_retry_rate_ppm
                && added_latency_p99_ns <= self.max_added_latency_p99_ns
                && within(request_p99_ns, self.max_request_p99_ns)
                && within(request_p999_ns, self.max_request_p999_ns),
        }
    }
}

/// One window's measured reliability and tail latency, judged against
/// an [`SloSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SloOutcome {
    /// Observed read-retry rate: retries per million successful
    /// architectural fills (0 when the window had no fills).
    pub retry_rate_ppm: u64,
    /// Observed 99th-percentile added fill latency, ns.
    pub added_latency_p99_ns: u64,
    /// Observed 99th-percentile request latency, ns (`None` when no
    /// traffic scenario ran).
    #[serde(default)]
    pub request_p99_ns: Option<u64>,
    /// Observed 99.9th-percentile request latency, ns.
    #[serde(default)]
    pub request_p999_ns: Option<u64>,
    /// Whether every ceiling held.
    pub compliant: bool,
}

impl std::fmt::Display for SloOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retry rate {} ppm, p99 added latency {} ns",
            self.retry_rate_ppm, self.added_latency_p99_ns,
        )?;
        if let (Some(p99), Some(p999)) = (self.request_p99_ns, self.request_p999_ns) {
            write!(f, ", request p99 {p99} ns / p999 {p999} ns")?;
        }
        write!(
            f,
            " — {}",
            if self.compliant {
                "compliant"
            } else {
                "VIOLATED"
            }
        )
    }
}

/// Arithmetic mean of comparisons (the paper averages percentages
/// across benchmarks).
#[must_use]
pub fn mean_comparison(comparisons: &[Comparison]) -> Comparison {
    if comparisons.is_empty() {
        return Comparison {
            perf_degradation_pct: 0.0,
            power_saving_pct: 0.0,
        };
    }
    let n = comparisons.len() as f64;
    Comparison {
        perf_degradation_pct: comparisons
            .iter()
            .map(|c| c.perf_degradation_pct)
            .sum::<f64>()
            / n,
        power_saving_pct: comparisons.iter().map(|c| c.power_saving_pct).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn result(elapsed_ns: u64, power: f64) -> RunResult {
        RunResult {
            workload: String::new(),
            instructions: 1000,
            elapsed_ns,
            pipeline_cycles: elapsed_ns,
            ipc: 1.0,
            mpki: 0.0,
            prefetch_mpki: 0.0,
            energy_pj: power * elapsed_ns as f64 * 1e3,
            energy: EnergyBreakdown {
                per_structure_pj: [0.0; 14],
                ramp_pj: 0.0,
                level_converter_pj: 0.0,
                uncore_pj: 0.0,
                leakage_pj: 0.0,
                cycles: 0,
            },
            avg_power_w: power,
            mode: ModeStats::default(),
            down_triggers: 0,
            down_expiries: 0,
            up_triggers: 0,
            up_expiries: 0,
            zero_issue_cycles: 0,
            mispredicts: 0,
            branches: 0,
            issue_histogram: IssueHistogram::default(),
            read_errors: 0,
            read_retries: 0,
            requests_arrived: 0,
            requests_completed: 0,
            request_backlog: 0,
            request_p50_ns: 0,
            request_p99_ns: 0,
            request_p999_ns: 0,
            slo: None,
            core_results: Vec::new(),
        }
    }

    #[test]
    fn comparison_signs_follow_paper_convention() {
        let base = result(1000, 40.0);
        let vsv = result(1020, 32.0);
        let c = Comparison::of(&base, &vsv);
        assert!((c.perf_degradation_pct - 2.0).abs() < 1e-9);
        assert!((c.power_saving_pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn faster_and_hungrier_goes_negative() {
        let base = result(1000, 40.0);
        let vsv = result(990, 44.0);
        let c = Comparison::of(&base, &vsv);
        assert!(c.perf_degradation_pct < 0.0);
        assert!(c.power_saving_pct < 0.0);
    }

    #[test]
    fn mean_comparison_averages() {
        let cs = [
            Comparison {
                perf_degradation_pct: 2.0,
                power_saving_pct: 20.0,
            },
            Comparison {
                perf_degradation_pct: 4.0,
                power_saving_pct: 40.0,
            },
        ];
        let m = mean_comparison(&cs);
        assert!((m.perf_degradation_pct - 3.0).abs() < 1e-9);
        assert!((m.power_saving_pct - 30.0).abs() < 1e-9);
        let empty = mean_comparison(&[]);
        assert_eq!(empty.power_saving_pct, 0.0);
    }

    #[test]
    fn slo_evaluation_checks_both_ceilings() {
        let spec = SloSpec::new(500, 16);
        assert!(spec.evaluate(500, 16).compliant, "at the ceilings is ok");
        assert!(!spec.evaluate(501, 0).compliant, "retry rate over");
        assert!(!spec.evaluate(0, 17).compliant, "latency over");
        let o = spec.evaluate(42, 8);
        assert_eq!(o.retry_rate_ppm, 42);
        assert_eq!(o.added_latency_p99_ns, 8);
        assert!(o.to_string().contains("compliant"), "{o}");
        assert!(spec.evaluate(9999, 0).to_string().contains("VIOLATED"));
    }

    #[test]
    fn slo_request_ceilings_judge_tail_latency() {
        let spec = SloSpec::new(u64::MAX, u64::MAX).with_request_p99(2000);
        assert!(!spec.bounds_reliability(), "latency-only SLO");
        assert!(SloSpec::new(5, 5).bounds_reliability());
        // No traffic ran: the ceiling is vacuously satisfied.
        assert!(spec.evaluate(0, 0).compliant);
        assert!(spec.evaluate_window(0, 0, Some(2000), Some(9999)).compliant);
        let over = spec.evaluate_window(0, 0, Some(2001), Some(2001));
        assert!(!over.compliant);
        assert_eq!(over.request_p99_ns, Some(2001));
        assert!(over.to_string().contains("request p99 2001 ns"), "{over}");
        let p999 = spec.with_request_p999(4000);
        assert!(!p999.evaluate_window(0, 0, Some(100), Some(4001)).compliant);
    }

    #[test]
    fn run_display_includes_traffic_line_only_under_traffic() {
        let mut r = result(100, 10.0);
        assert!(!r.to_string().contains("traffic:"));
        r.requests_arrived = 12;
        r.requests_completed = 11;
        r.request_backlog = 1;
        r.request_p99_ns = 4095;
        let s = r.to_string();
        assert!(
            s.contains("traffic: 12 arrived / 11 completed (1 queued)"),
            "{s}"
        );
        assert!(s.contains("p99 4095"), "{s}");
    }

    #[test]
    fn run_display_includes_slo_line_only_when_set() {
        let mut r = result(100, 10.0);
        assert!(!r.to_string().contains("slo:"));
        r.slo = Some(SloSpec::new(10, 10).evaluate(3, 0));
        assert!(r.to_string().contains("slo: retry rate 3 ppm"));
    }

    #[test]
    fn zero_issue_fraction() {
        let mut r = result(100, 10.0);
        r.zero_issue_cycles = 25;
        assert!((r.zero_issue_fraction() - 0.25).abs() < 1e-12);
    }
}

impl std::fmt::Display for RunResult {
    /// A compact multi-line summary, suitable for logs and examples.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} insts in {} ns (IPC {:.2}, MR {:.1})",
            if self.workload.is_empty() {
                "run"
            } else {
                &self.workload
            },
            self.instructions,
            self.elapsed_ns,
            self.ipc,
            self.mpki
        )?;
        writeln!(
            f,
            "  power {:.1} W over {} pipeline cycles ({:.0}% zero-issue)",
            self.avg_power_w,
            self.pipeline_cycles,
            self.zero_issue_fraction() * 100.0
        )?;
        write!(
            f,
            "  vsv: {:.0}% low residency, {} down / {} up transitions",
            self.mode.low_residency() * 100.0,
            self.mode.down_transitions,
            self.mode.up_transitions
        )?;
        if self.requests_arrived > 0 || self.request_backlog > 0 {
            write!(
                f,
                "\n  traffic: {} arrived / {} completed ({} queued); latency p50 {} / p99 {} / p999 {} ns",
                self.requests_arrived,
                self.requests_completed,
                self.request_backlog,
                self.request_p50_ns,
                self.request_p99_ns,
                self.request_p999_ns
            )?;
        }
        if let Some(slo) = &self.slo {
            write!(
                f,
                "\n  reliability: {} errors / {} retries; slo: {slo}",
                self.read_errors, self.read_retries
            )?;
        }
        for (i, core) in self.core_results.iter().enumerate() {
            write!(
                f,
                "\n  core {i}: {} insts in {} ns (IPC {:.2}), {:.1} W, {:.0}% low",
                core.instructions,
                core.elapsed_ns,
                core.ipc,
                core.avg_power_w,
                core.mode.low_residency() * 100.0
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Comparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1}% power saved at {:.1}% performance degradation",
            self.power_saving_pct, self.perf_degradation_pct
        )
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn run_result_display_is_informative() {
        let mut r = tests::result(1000, 40.0);
        r.workload = "mcf".to_owned();
        let s = r.to_string();
        assert!(s.contains("mcf"));
        assert!(s.contains("40.0 W"));
        assert!(!s.is_empty());
    }

    #[test]
    fn unnamed_run_display_is_nonempty() {
        let r = tests::result(10, 1.0);
        assert!(r.to_string().contains("run:"));
    }

    #[test]
    fn comparison_display() {
        let c = Comparison {
            perf_degradation_pct: 2.0,
            power_saving_pct: 20.7,
        };
        assert_eq!(
            c.to_string(),
            "20.7% power saved at 2.0% performance degradation"
        );
    }
}
