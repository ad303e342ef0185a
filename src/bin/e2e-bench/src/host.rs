//! Where and how a result was made: two results are comparable only when
//! this block agrees.

use crate::workload::{Params, Scenario};
use std::process::Command;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark runs in; a checkout without
/// git history has none.
fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// `(key, value)` pairs for the result's host block.
pub fn block(scenario: &Scenario, params: &Params) -> Vec<(String, String)> {
    let models: Vec<&str> = scenario.models.iter().map(|m| m.0).collect();
    let pairs: [(&str, String); 13] = [
        ("models", models.join(" ")),
        ("nproc", nproc().to_string()),
        ("cpu", cpu_model()),
        ("rustc", env!("E2E_BENCH_RUSTC").to_string()),
        ("rustflags", env!("E2E_BENCH_RUSTFLAGS").to_string()),
        ("git_sha", git_sha()),
        ("seed", params.seed.to_string()),
        ("seconds", params.seconds.to_string()),
        ("window_ms", params.window.as_millis().to_string()),
        ("callers", params.callers.to_string()),
        ("setup_reps", params.setup_reps.to_string()),
        ("pool_sets", params.pool_sets.to_string()),
        ("lanes", format!("{} and 1", crate::workload::PAR_LANES)),
    ];
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used. `/proc/self/stat`
/// counts in ticks of 1/100 s on every Linux this runs on.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| {
            // The command name may hold spaces; fields count from after it.
            let after = text.rsplit_once(')')?.1;
            let mut fields = after.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}
