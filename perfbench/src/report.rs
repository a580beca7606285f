//! Metric records, summary statistics, and the benchmark's output lines.

use std::fmt::Write as _;

/// Whose clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Measured on the machine running the benchmark (wall time, counts
    /// of host work, memory).
    Host,
    /// Produced by the accelerator model's cycle simulator.
    Simulated,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` for contract metrics.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string (`ms`, `s`, `1/s`, `count`, `ratio`, …).
    pub unit: &'static str,
    /// Samples behind the value (1 for a single reading).
    pub samples: usize,
    /// Host or simulated.
    pub clock: Clock,
}

impl Metric {
    /// A host-side metric.
    pub fn host(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
            clock: Clock::Host,
        }
    }

    /// A metric read from the cycle simulator.
    pub fn simulated(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) -> Self {
        Self {
            clock: Clock::Simulated,
            ..Self::host(name, value, unit, samples)
        }
    }
}

/// Everything one benchmark invocation measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted in measured windows.
    pub attempted: u64,
    /// Failed or refused operations plus failed output checks.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// End-to-end metrics, in report order.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only), in report order.
    pub layers: Vec<Metric>,
    /// Remarks printed with the report (thin samples, sub-window sizes).
    pub notes: Vec<String>,
}

impl Run {
    /// Records one failed operation or output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what.into());
        }
    }

    /// Checks an accounting identity; a violation counts as a failed
    /// output check.
    pub fn identity(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.fail(format!("accounting identity violated: {}", what()));
        }
    }

    /// Finds a recorded metric by name (end-to-end first, then layers).
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.e2e.iter().chain(&self.layers).find(|m| m.name == name)
    }
}

/// Nearest-rank quantile of ascending-sorted samples (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank `q` quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One human-readable report line per metric.
pub fn metric_line(section: &str, m: &Metric) -> String {
    format!(
        "{section:<6} {:<28} {:>16} {:<6} samples={:<7} {}",
        m.name,
        fmt_value(m.value),
        m.unit,
        m.samples,
        m.clock.label()
    )
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "nan".into()
    }
}

/// The final machine-readable line: `correct`, `attempted`, `failed`,
/// and the metrics named in `names`, in that order.
pub fn result_line(run: &Run, names: &[(&str, &str)]) -> Result<String, String> {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.failed == 0,
        run.attempted.max(1),
        run.failed
    )
    .expect("writing to a String cannot fail");
    for (i, (name, unit)) in names.iter().enumerate() {
        let m = run
            .metric(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != *unit {
            return Err(format!("metric {name} has unit {} not {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            fmt_value(m.value)
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_rejects_missing_metrics() {
        let mut run = Run::default();
        run.e2e.push(Metric::host("a", 1.5, "ms", 3));
        assert!(result_line(&run, &[("a", "ms")]).is_ok());
        assert!(result_line(&run, &[("b", "ms")]).is_err());
        assert!(result_line(&run, &[("a", "s")]).is_err());
    }
}
