//! `e2e-bench compare <a.json> <b.json>`: the parent-against-change table.
//! Each file holds full records (`*.e2e.json`, `*.layers.json`), one per
//! line — concatenate the records of several runs to compare medians of
//! runs.

use crate::metrics::{spec, Better, Report};
use crate::stats::{iqr, median};
use korch::telemetry::json::parse;
use std::collections::BTreeMap;

/// One side's values of one metric on one workload.
#[derive(Default)]
struct Side {
    values: Vec<f64>,
    /// Widest in-run spread over windows any record carried.
    window_iqr: Option<f64>,
}

impl Side {
    /// Spread between runs where there are enough of them to have
    /// quartiles, else the spread between one run's windows.
    fn spread(&self) -> Option<f64> {
        if self.values.len() >= 4 {
            Some(iqr(&self.values))
        } else {
            self.window_iqr
        }
    }
}

type Table = BTreeMap<(String, String), Side>;

fn read(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut table = Table::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = parse(line).map_err(|e| format!("{path}: {e}"))?;
        let report = Report::from_json(&record).map_err(|e| format!("{path}: {e}"))?;
        for m in report.metrics {
            let side = table.entry((report.workload.clone(), m.name)).or_default();
            side.values.push(m.value);
            side.window_iqr = match (side.window_iqr, m.iqr) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
    }
    if table.is_empty() {
        return Err(format!("{path}: no record"));
    }
    Ok(table)
}

/// `worse` when `b` is worse than `a` by more than the bound, `unresolved`
/// when either side's spread is wider than the bound (so the medians
/// cannot tell), else `same`; `-` for a per-layer metric, which has no
/// bound.
fn verdict(name: &str, a: f64, b: f64, spread: Option<f64>) -> &'static str {
    let Some((s, bound)) = spec(name).and_then(|s| Some((s, s.bound?))) else {
        return "-";
    };
    let worse_by = match s.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if spread.is_some_and(|s| s / a.abs() > bound) {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "same"
    }
}

fn render(a: &Table, b: &Table) -> String {
    let mut out = format!(
        "{:<34} {:<14} {:>14} {:>14} {:>12} {:>6}  verdict\n",
        "metric", "workload", "a (median)", "b (median)", "b/a (base a)", "bound"
    );
    for ((workload, name), side_a) in a {
        let Some(side_b) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (Some(ma), Some(mb)) = (median(&side_a.values), median(&side_b.values)) else {
            continue;
        };
        let spread = match (side_a.spread(), side_b.spread()) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        };
        let bound = spec(name)
            .and_then(|s| s.bound)
            .map_or("-".to_string(), |b| format!("{b}"));
        out.push_str(&format!(
            "{name:<34} {workload:<14} {ma:>14.4} {mb:>14.4} {:>12.4} {bound:>6}  {}\n",
            mb / ma,
            verdict(name, ma, mb, spread)
        ));
    }
    out
}

pub fn compare_files(a: &str, b: &str) -> Result<String, String> {
    Ok(render(&read(a)?, &read(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // op_ms_p50: lower is better, bound 0.25.
        assert_eq!(verdict("op_ms_p50", 10.0, 12.0, Some(0.2)), "same");
        assert_eq!(verdict("op_ms_p50", 10.0, 13.0, Some(0.2)), "worse");
        assert_eq!(verdict("op_ms_p50", 10.0, 5.0, None), "same");
        assert_eq!(verdict("op_ms_p50", 10.0, 13.0, Some(3.0)), "unresolved");
        // ops_per_s: higher is better.
        assert_eq!(verdict("ops_per_s", 100.0, 70.0, None), "worse");
        assert_eq!(verdict("ops_per_s", 100.0, 120.0, None), "same");
        assert_eq!(verdict("blp.pivots", 100.0, 900.0, None), "-");
    }

    #[test]
    fn sides_take_medians_of_runs_and_pair_by_workload() {
        let mut a = Table::new();
        let mut b = Table::new();
        let key = |w: &str| (w.to_string(), "op_ms_p50".to_string());
        a.entry(key("exec_dispatch")).or_default().values = vec![1.0, 1.1, 0.9, 1.0, 1.0];
        b.entry(key("exec_dispatch")).or_default().values = vec![1.5];
        a.entry(key("only_in_a")).or_default().values = vec![1.0];
        let table = render(&a, &b);
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 2, "{table}");
        assert!(rows[1].starts_with("op_ms_p50"), "{table}");
        assert!(
            rows[1].contains("1.5000") && rows[1].ends_with("worse"),
            "{table}"
        );
        assert_eq!(a[&key("exec_dispatch")].spread(), Some(0.0));
        assert_eq!(b[&key("exec_dispatch")].spread(), None);
    }
}
