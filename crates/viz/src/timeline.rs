//! Mode/voltage timelines (the paper's Figure 2/3 style), rendered
//! from a recorded [`vsv::ModeTrace`].

use vsv::{Mode, ModeTrace};

use crate::svg::SvgDoc;

fn mode_color(mode: Mode) -> &'static str {
    match mode {
        Mode::High => "#cfe3cf",
        Mode::DownDistribute => "#f2e3b3",
        Mode::RampDown => "#e8c98a",
        Mode::Low => "#b9cde8",
        Mode::UpDistribute => "#e6c4da",
        Mode::RampUp => "#d9a8c7",
    }
}

/// A timeline chart: a mode band (colour per controller state) with
/// the variable-domain supply voltage drawn over it.
///
/// # Examples
///
/// ```
/// use vsv::{Mode, ModeTrace, TraceEvent, TraceSink};
/// use vsv_viz::TimelineChart;
///
/// let mut trace = ModeTrace::new(64);
/// for at in 0..32 {
///     trace.record(&TraceEvent::Sample {
///         at,
///         mode: if at < 16 { Mode::High } else { Mode::Low },
///         vdd_mv: if at < 16 { 1800 } else { 1200 },
///         edge: true,
///     });
/// }
/// let svg = TimelineChart::new(&trace).render();
/// assert!(svg.contains("<svg"));
/// assert!(svg.contains("VDD"));
/// ```
#[derive(Debug)]
pub struct TimelineChart<'a> {
    trace: &'a ModeTrace,
    px_per_ns: f64,
}

impl<'a> TimelineChart<'a> {
    /// Creates a chart over `trace` at the default 2 px per ns.
    #[must_use]
    pub fn new(trace: &'a ModeTrace) -> Self {
        TimelineChart {
            trace,
            px_per_ns: 2.0,
        }
    }

    /// Sets the horizontal scale.
    ///
    /// # Panics
    ///
    /// Panics if `px` is not positive.
    #[must_use]
    pub fn px_per_ns(mut self, px: f64) -> Self {
        assert!(px > 0.0, "scale must be positive");
        self.px_per_ns = px;
        self
    }

    /// Renders to SVG.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    #[must_use]
    pub fn render(&self) -> String {
        assert!(!self.trace.is_empty(), "trace has no samples");
        let samples = self.trace.samples();
        let t0 = samples[0].ns;
        let span = samples.last().expect("nonempty").ns - t0 + 1;

        let (left, top) = (50.0, 24.0);
        let band_h = 46.0;
        let volt_h = 80.0;
        let width = left + span as f64 * self.px_per_ns + 20.0;
        let height = top + band_h + 16.0 + volt_h + 40.0;
        let mut doc = SvgDoc::new(width, height);
        let x_of = |ns: u64| left + (ns - t0) as f64 * self.px_per_ns;

        doc.text(left, 14.0, 12.0, "start", 0.0, "VSV mode and VDD timeline");

        // Mode band: one rect per contiguous run.
        let mut run_start = 0usize;
        for i in 1..=samples.len() {
            let run_ends = i == samples.len() || samples[i].mode != samples[run_start].mode;
            if run_ends {
                let s = samples[run_start];
                let end_ns = if i == samples.len() {
                    samples[i - 1].ns + 1
                } else {
                    samples[i].ns
                };
                doc.rect(
                    x_of(s.ns),
                    top,
                    (end_ns - s.ns) as f64 * self.px_per_ns,
                    band_h,
                    mode_color(s.mode),
                );
                run_start = i;
            }
        }
        for (label, mode) in [("high", Mode::High), ("low", Mode::Low)] {
            // Legend chips for the two steady states.
            let lx = left + [0.0, 60.0][usize::from(mode == Mode::Low)];
            doc.rect(lx, height - 14.0, 10.0, 10.0, mode_color(mode));
            doc.text(lx + 14.0, height - 5.0, 10.0, "start", 0.0, label);
        }

        // Voltage plot.
        let vy_top = top + band_h + 16.0;
        let (vmin, vmax) = (1.0, 2.0);
        let y_of_v = |v: f64| vy_top + volt_h * (1.0 - (v - vmin) / (vmax - vmin));
        for v in [1.2, 1.8] {
            let y = y_of_v(v);
            doc.line(left, y, width - 20.0, y, "#dddddd", 0.5);
            doc.text(left - 4.0, y + 3.0, 9.0, "end", 0.0, &format!("{v:.1}"));
        }
        let points: Vec<(f64, f64)> = samples
            .iter()
            .map(|s| (x_of(s.ns), y_of_v(f64::from(s.vdd_mv) / 1000.0)))
            .collect();
        doc.polyline(&points, "#333333", 1.5);
        doc.text(
            left - 30.0,
            vy_top + volt_h / 2.0,
            10.0,
            "start",
            -90.0,
            "VDD",
        );

        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsv::{TraceEvent, TraceSink};

    fn trace_with(modes: &[(Mode, u64)]) -> ModeTrace {
        let mut t = ModeTrace::new(4096);
        let mut at = 0;
        for &(mode, len) in modes {
            for _ in 0..len {
                let vdd_mv = match mode {
                    Mode::High | Mode::DownDistribute => 1800,
                    Mode::Low | Mode::UpDistribute => 1200,
                    _ => 1500,
                };
                t.record(&TraceEvent::Sample {
                    at,
                    mode,
                    vdd_mv,
                    edge: true,
                });
                at += 1;
            }
        }
        t
    }

    #[test]
    fn renders_one_band_rect_per_mode_run() {
        let t = trace_with(&[
            (Mode::High, 20),
            (Mode::DownDistribute, 4),
            (Mode::RampDown, 12),
            (Mode::Low, 30),
        ]);
        let svg = TimelineChart::new(&t).render();
        // 4 run rects + 2 legend chips.
        assert_eq!(svg.matches("<rect").count(), 6);
        assert!(svg.contains("<polyline"));
    }

    #[test]
    fn scale_controls_width() {
        let t = trace_with(&[(Mode::High, 100)]);
        let narrow = TimelineChart::new(&t).px_per_ns(1.0).render();
        let wide = TimelineChart::new(&t).px_per_ns(4.0).render();
        let w = |svg: &str| -> f64 {
            let i = svg.find("width=\"").expect("width") + 7;
            svg[i..]
                .split('"')
                .next()
                .expect("value")
                .parse()
                .expect("number")
        };
        assert!(w(&wide) > w(&narrow) * 2.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_trace_panics() {
        let t = ModeTrace::new(4);
        let _ = TimelineChart::new(&t).render();
    }
}
