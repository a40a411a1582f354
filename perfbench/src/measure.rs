//! Measurement plumbing: exact latency samples, medians, peak RSS, spans,
//! and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Raw per-op latencies in nanoseconds — exact, never bucketed.
#[derive(Debug, Default, Clone)]
pub struct Latencies(pub Vec<u64>);

/// One percentile read off a [`Latencies`] store, with the evidence behind
/// it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub value_ns: u64,
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (nearest rank). `None` when fewer than ten samples
    /// lie beyond it — such a tail is not reported.
    pub fn percentile(&mut self, q: f64) -> Option<Percentile> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        let beyond = n - 1 - rank;
        if beyond < 10 {
            return None;
        }
        let (_, value, _) = self.0.select_nth_unstable(rank);
        Some(Percentile { value_ns: *value, samples: n, beyond })
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile with linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Throughput and latency of one fixed-length window of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub rate: f64,
    pub p50_ns: f64,
    /// Absent when the window holds too few samples for a p99.
    pub p99_ns: Option<f64>,
}

/// Cuts a phase's completed ops, as (end ns since phase start, latency
/// ns), into its full windows of `window_ns`; the partial tail is dropped.
pub fn windows(ops: &[(u64, u64)], phase_ns: u64, window_ns: u64) -> Vec<Window> {
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); (phase_ns / window_ns) as usize];
    for &(end, latency) in ops {
        if let Some(bucket) = buckets.get_mut((end / window_ns) as usize) {
            bucket.push(latency);
        }
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|b| {
            let rate = b.len() as f64 * 1e9 / window_ns as f64;
            let mut lat = Latencies(b);
            let p50_ns = lat.percentile(0.5).map_or(0.0, |p| p.value_ns as f64);
            let p99_ns = lat.percentile(0.99).map(|p| p.value_ns as f64);
            Window { rate, p50_ns, p99_ns }
        })
        .collect()
}

/// Nanoseconds since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A rung of the layer ladder: the public entry point a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    FrontSync,
    FrontAsync,
    EngineExecute,
    ShardTranslate,
    MtlTranslate,
    MtlData,
    /// Simulator phases of one (workload, system) pair.
    SimInit,
    SimTrace,
    SimAccess,
}

impl Rung {
    pub fn name(self) -> &'static str {
        match self {
            Rung::FrontSync => "front.sync",
            Rung::FrontAsync => "front.async",
            Rung::EngineExecute => "engine.execute",
            Rung::ShardTranslate => "shard.translate",
            Rung::MtlTranslate => "mtl.translate",
            Rung::MtlData => "mtl.data",
            Rung::SimInit => "sim.init",
            Rung::SimTrace => "workloads.trace",
            Rung::SimAccess => "sim.access",
        }
    }
}

/// One timed call into a layer. Every rung's span of one op carries that
/// op's id, so an op's spans can be lined up across rungs.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub rung: Rung,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Mean span duration of a rung, in ns per op (0 when the rung did not run).
pub fn mean_ns(spans: &[Span], rung: Rung) -> f64 {
    let (sum, n) = spans
        .iter()
        .filter(|s| s.rung == rung)
        .fold((0u64, 0u64), |(sum, n), s| (sum + s.ns(), n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Writes the spans as tab-separated `op rung start_ns end_ns` lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\trung\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(out, "{}\t{}\t{}\t{}", s.op, s.rung.name(), s.start_ns, s.end_ns)?;
    }
    out.flush()
}

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// Keeps exactly `names`, in that order; a name this run did not
    /// measure is reported as 0 (the layer was not exercised).
    pub fn select(&self, names: &[(&str, &'static str)]) -> Metrics {
        Metrics(
            names
                .iter()
                .map(|&(name, unit)| (name.to_string(), self.get(name).unwrap_or(0.0), unit))
                .collect(),
        )
    }

    pub fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("{name} = {} {unit}", fmt_num(*value));
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ =
                write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", fmt_num(*value));
        }
        out.push('}');
        out
    }
}

/// A finite JSON number with all its digits.
pub fn fmt_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The result line (`correct`, `attempted`, `failed`, `metrics`).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let mut small = Latencies((1..=500).collect());
        assert!(small.percentile(0.99).is_none());
        let mut big = Latencies((1..=2000).collect());
        let p = big.percentile(0.99).unwrap();
        assert_eq!(p.value_ns, 1980);
        assert_eq!(p.beyond, 20);
        assert_eq!(big.percentile(0.5).unwrap().value_ns, 1000);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
    }

    #[test]
    fn windows_drop_the_partial_tail() {
        let ops: Vec<(u64, u64)> = (0..2500).map(|i| (i * 1000, 7)).collect();
        let w = windows(&ops, 2_500_000, 1_000_000);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].rate, 1000.0 * 1000.0);
        assert_eq!(w[1].p50_ns, 7.0);
    }
}
