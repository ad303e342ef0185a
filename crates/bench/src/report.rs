//! Small fixed-width table printer for the figure harnesses, plus the
//! machine-readable benchmark record (`BENCH_runtime.json`) that keeps a
//! perf trajectory across PRs.

use korch_telemetry::json::{escape, parse, Value};
use std::io::Write;
use std::path::Path;

/// One benchmark measurement destined for the JSON perf record.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark name (`group/bench` convention).
    pub name: String,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
    /// 10th-percentile wall time (nearest-rank), nanoseconds — the
    /// fast-tail bound of the sample spread. `0.0` when not sampled.
    pub p10_ns: f64,
    /// 90th-percentile wall time (nearest-rank), nanoseconds — the
    /// slow-tail bound of the sample spread. `0.0` when not sampled.
    pub p90_ns: f64,
    /// Speedup over the sequential-interpreter baseline of the same
    /// workload (`None` for benches without one).
    pub speedup_vs_sequential: Option<f64>,
    /// Free-form structural note (tile counts, lane counts, host cores).
    pub note: String,
}

/// Median of a sample set (interpolated for even sizes). Returns 0.0 for
/// an empty slice.
pub fn median_ns(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// `(p10, median, p90)` of a sample set — the spread triple the perf
/// record carries per bench. Percentiles are nearest-rank (the smallest
/// sample ≥ p of the set); all zeros for an empty slice.
pub fn spread_ns(samples: &mut [f64]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let median = median_ns(samples); // sorts
    let pct = |p: f64| {
        let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        samples[rank - 1]
    };
    (pct(0.10), median, pct(0.90))
}

/// Writes the perf record as JSON (hand-rolled — the build container has
/// no serde; [`read_bench_json`] reads it back). Schema:
/// `{ "host_cores": N, "benches": [ { "name", "median_ns", "p10_ns",
/// "p90_ns", "speedup_vs_sequential" | null, "note" } ] }`.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_bench_json(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    writeln!(f, "{{")?;
    writeln!(f, "  \"host_cores\": {cores},")?;
    writeln!(f, "  \"benches\": [")?;
    for (i, r) in records.iter().enumerate() {
        let speedup = r
            .speedup_vs_sequential
            .map(|s| format!("{s:.4}"))
            .unwrap_or_else(|| "null".into());
        let comma = if i + 1 < records.len() { "," } else { "" };
        writeln!(
            f,
            "    {{ \"name\": \"{}\", \"median_ns\": {:.1}, \"p10_ns\": {:.1}, \
             \"p90_ns\": {:.1}, \"speedup_vs_sequential\": {}, \"note\": \"{}\" }}{}",
            escape(&r.name),
            r.median_ns,
            r.p10_ns,
            r.p90_ns,
            speedup,
            escape(&r.note),
            comma
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

/// One entry parsed back out of a `BENCH_runtime.json` perf record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Benchmark name (`group/bench` convention).
    pub name: String,
    /// Median wall time per iteration, nanoseconds. Only comparable
    /// between records written on same-core-count hosts.
    pub median_ns: f64,
    /// Speedup over the workload's sequential baseline, if recorded.
    pub speedup_vs_sequential: Option<f64>,
}

/// A parsed perf record: the writing host's core count plus every bench
/// entry's name and speedup ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// `host_cores` of the machine that wrote the record.
    pub host_cores: usize,
    /// All bench entries, in file order.
    pub benches: Vec<BenchEntry>,
}

/// Parses a perf record written by [`write_bench_json`] back into names,
/// medians, and speedup ratios. Absolute medians do not transfer across
/// hosts — comparers must check `host_cores` before holding them to a
/// floor; speedups of a binary over its own sequential baseline always
/// transfer.
///
/// # Errors
///
/// Returns any I/O error from reading the file, and
/// [`std::io::ErrorKind::InvalidData`] when it is not JSON.
pub fn read_bench_json(path: &Path) -> std::io::Result<BenchReport> {
    let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let doc = parse(&std::fs::read_to_string(path)?).map_err(invalid)?;
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let benches = doc.get("benches").and_then(Value::as_array);
    let entry = |b: &Value| {
        Some(BenchEntry {
            name: b.get("name")?.as_str()?.to_string(),
            median_ns: field(b, "median_ns").unwrap_or(0.0),
            speedup_vs_sequential: field(b, "speedup_vs_sequential"),
        })
    };
    Ok(BenchReport {
        host_cores: field(&doc, "host_cores").unwrap_or(0.0) as usize,
        benches: benches
            .unwrap_or_default()
            .iter()
            .filter_map(entry)
            .collect(),
    })
}

/// Prints a header row followed by a separator.
pub fn header(cols: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// Prints one row.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{line}");
}
