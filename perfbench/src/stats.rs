//! Sample summaries, process memory and the result line.

use std::fmt::Write as _;

/// Exact percentile over a sample set (nearest rank on the sorted values).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One reported metric: name, value, unit and the samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, printed as human-readable lines and as the final
/// JSON result line.
#[derive(Default)]
pub struct Report {
    /// Metrics listed in `BENCHMARK.json`; they go on the result line.
    pub listed: Vec<Metric>,
    /// Workload-specific figures with no samples on some workloads: printed
    /// as text only (the result line carries metrics every workload has).
    pub extra: Vec<Metric>,
    /// Names with no samples on this workload.
    pub missing: Vec<&'static str>,
}

impl Report {
    pub fn listed(&mut self, name: &'static str, value: Option<f64>, unit: &'static str, n: usize) {
        if !push(&mut self.listed, name, value, unit, n) {
            self.missing.push(name);
        }
    }

    pub fn extra(&mut self, name: &'static str, value: Option<f64>, unit: &'static str, n: usize) {
        if !push(&mut self.extra, name, value, unit, n) {
            self.missing.push(name);
        }
    }

    /// Prints every metric line, then the result line last.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for name in &self.missing {
            println!("{name}: no samples on this workload");
        }
        for m in self.listed.iter().chain(&self.extra) {
            println!("{} = {:.4} {} (n={})", m.name, m.value, m.unit, m.samples);
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.listed.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` keeps every digit and is valid JSON for finite values.
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// A metric with no samples is left out rather than printed as zero;
/// returns whether it was kept.
fn push(
    to: &mut Vec<Metric>,
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    n: usize,
) -> bool {
    let Some(value) = value.filter(|v| v.is_finite()) else {
        return false;
    };
    to.push(Metric {
        name,
        value,
        unit,
        samples: n,
    });
    true
}
