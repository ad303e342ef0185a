//! The benchmark's vocabulary — workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics — and the result a run prints.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! below holds the two together.

use korch::telemetry::json::{escape, Value};

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// `(name, why it is here)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "compile_suite",
        "compiles a Candy CNN (kernel identification dominates) and an EfficientViT attention block (the BLP dominates): optimizer crates do all the work, the runtime none",
    ),
    (
        "exec_compute",
        "direct execute of a 64x64 Segformer at 1 lane: kernel bodies (conv, matmul) are 98 % of the request, the scheduler almost none",
    ),
    (
        "exec_dispatch",
        "the same program on 32x32 tensors: a quarter of the work per kernel, so per-kernel and per-request fixed costs weigh 3x more; the bare model serve_closed serves",
    ),
    (
        "serve_closed",
        "two closed-loop callers of a 2-shard batching server over the small Segformer: batch hold, request threads and wakeups dominate",
    ),
];

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one; what
/// "the operation" is — a compile pass, an `execute`, an `infer` — is the
/// workload's (`README.md` has the table).
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
];

/// One number per crate a request or a compile crosses, from the traced
/// run.
pub const PER_LAYER: &[Spec] = &[
    layer("models.build_ms", "ms", Lower),
    layer("models.op_nodes", "count", Lower),
    layer("fission.time_ms", "ms", Lower),
    layer("fission.prim_nodes", "count", Lower),
    layer("core.partition_ms", "ms", Lower),
    layer("core.partitions", "count", Lower),
    layer("core.cache_hits", "count", Higher),
    layer("core.optimize_ms", "ms", Lower),
    layer("core.unattributed_share", "ratio", Lower),
    layer("transform.time_ms", "ms", Lower),
    layer("transform.variants", "count", Higher),
    layer("orch.states_ms", "ms", Lower),
    layer("orch.states", "count", Lower),
    layer("orch.identify_ms", "ms", Lower),
    layer("orch.candidates", "count", Lower),
    layer("orch.blp_ms", "ms", Lower),
    layer("orch.blp_constraints", "count", Lower),
    layer("orch.plan_kernels", "count", Lower),
    layer("orch.sim_latency_us", "us", Lower),
    layer("orch.plan_sim_speedup", "ratio", Higher),
    layer("blp.nodes", "count", Lower),
    layer("blp.pivots", "count", Lower),
    layer("blp.pivots_spread", "ratio", Lower),
    layer("cost.model_error", "ratio", Lower),
    layer("baselines.orchestrate_ms", "ms", Lower),
    layer("baselines.kernels.pytorch", "count", Lower),
    layer("baselines.kernels.tvm", "count", Lower),
    layer("baselines.kernels.tensorrt", "count", Lower),
    layer("baselines.kernels.dnnfusion", "count", Lower),
    layer("baselines.sim_ratio.pytorch", "ratio", Higher),
    layer("baselines.sim_ratio.tvm", "ratio", Higher),
    layer("baselines.sim_ratio.tensorrt", "ratio", Higher),
    layer("baselines.sim_ratio.dnnfusion", "ratio", Higher),
    layer("baselines.exec_ratio.pytorch", "ratio", Higher),
    layer("baselines.exec_ratio.tvm", "ratio", Higher),
    layer("baselines.exec_ratio.tensorrt", "ratio", Higher),
    layer("baselines.exec_ratio.dnnfusion", "ratio", Higher),
    layer("baselines.plan_exec_speedup", "ratio", Higher),
    layer("runtime.build_ms", "ms", Lower),
    layer("runtime.kernel_us.conv", "us", Lower),
    layer("runtime.kernel_us.matmul", "us", Lower),
    layer("runtime.kernel_us.memory", "us", Lower),
    layer("runtime.fixed_us", "us", Lower),
    layer("runtime.fixed_share", "ratio", Lower),
    layer("runtime.seq_ms_p95", "ms", Lower),
    layer("runtime.par_speedup", "ratio", Higher),
    layer("runtime.steals_per_req", "count", Lower),
    layer("runtime.parks_per_req", "count", Lower),
    layer("runtime.tile_tasks_per_req", "count", Lower),
    layer("runtime.min_execute_us.lanes1", "us", Lower),
    layer("runtime.min_execute_us.lanes2", "us", Lower),
    layer("runtime.partition_calls", "count", Lower),
    layer("runtime.arena_peak_kb", "KiB", Lower),
    layer("runtime.arena_reuse_ratio", "ratio", Higher),
    layer("runtime.arena_live_bytes_end", "B", Lower),
    layer("exec.interp_ms", "ms", Lower),
    layer("exec.plan_interp_ms", "ms", Lower),
    layer("exec.chain_gbps", "GB/s", Higher),
    layer("tensor.matmul_gflops", "GFLOP/s", Higher),
    layer("tensor.conv2d_gflops", "GFLOP/s", Higher),
    layer("tensor.reduce_gbps", "GB/s", Higher),
    layer("serving.queue_wait_us_p50", "us", Lower),
    layer("serving.model_run_us_p50", "us", Lower),
    layer("serving.self_us_p50", "us", Lower),
    layer("serving.closed_ms_p95", "ms", Lower),
    layer("serving.mean_batch", "count", Higher),
    layer("serving.batches", "count", Lower),
    layer("serving.errors", "count", Lower),
    layer("serving.cpu_ms_per_req", "ms", Lower),
    layer("serving.open300.ms_p50", "ms", Lower),
    layer("serving.open300.ms_p95", "ms", Lower),
    layer("serving.open300.ms_p99", "ms", Lower),
    layer("serving.saturated_rps", "1/s", Higher),
    layer("shard.served_imbalance", "ratio", Lower),
    layer("shard.adopted", "count", Lower),
    layer("shard.failures", "count", Lower),
    layer("telemetry.overhead_ratio", "ratio", Lower),
    layer("telemetry.events", "count", Lower),
    layer("verify.time_ms", "ms", Lower),
    layer("verify.max_abs_err", "abs", Lower),
    layer("loadgen.late_ms_max", "ms", Lower),
    layer("loadgen.samples", "count", Higher),
    layer("loadgen.threads", "count", Lower),
    layer("process.peak_rss_mb", "MiB", Lower),
    layer("process.cpu_s", "s", Lower),
];

impl Spec {
    /// A value of this metric; `iqr` is its spread over the run's windows
    /// where it has one.
    pub fn measured(&self, value: f64, iqr: Option<f64>) -> Measured {
        Measured {
            name: self.name.into(),
            value,
            unit: self.unit.into(),
            iqr,
        }
    }
}

/// The metrics a run with this `--trace` setting reports.
pub fn specs(trace: bool) -> &'static [Spec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// Names are 1 to 64 letters, digits, `_`, `.` and `-`, starting with a
/// letter or digit. The names are constants above, so a test checks them.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Interquartile range over the run's windows, in the metric's unit,
    /// where the metric is a median of windows.
    pub iqr: Option<f64>,
}

/// Everything one run of one workload found.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub trace: bool,
    /// Host and provenance, `(key, value)`.
    pub host: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
}

fn number(v: f64) -> String {
    // `{}` prints the shortest text that reads back as the same f64.
    debug_assert!(v.is_finite());
    format!("{v}")
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Fails unless the metrics are exactly the ones this kind of run must
    /// report, once each, finite, in the listed unit.
    pub fn check(&self) -> Result<(), String> {
        let specs = specs(self.trace);
        for s in specs {
            let found: Vec<&Measured> = self.metrics.iter().filter(|m| m.name == s.name).collect();
            match found.as_slice() {
                [m] if !m.value.is_finite() => {
                    return Err(format!("metric {} is {}", s.name, m.value))
                }
                [m] if m.unit != s.unit => {
                    return Err(format!(
                        "metric {} is in {}, not {}",
                        s.name, m.unit, s.unit
                    ))
                }
                [_] => {}
                other => return Err(format!("metric {} reported {} times", s.name, other.len())),
            }
        }
        // Each listed metric is there once, so anything more is an extra.
        if self.metrics.len() != specs.len() {
            return Err("a metric outside this kind of run's list is reported".into());
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        Ok(())
    }

    fn metrics_json(&self, with_spread: bool) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let iqr = match m.iqr {
                    Some(i) if with_spread => format!(",\"iqr\":{}", number(i)),
                    _ => String::new(),
                };
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"{iqr}}}",
                    escape(&m.name),
                    number(m.value),
                    escape(&m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(false)
        )
    }

    /// The full record `compare` reads: the result line's content plus
    /// workload, host block and window spreads. `claim` is null: a
    /// benchmark run claims no gain.
    pub fn to_json(&self) -> String {
        let host: Vec<String> = self
            .host
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        format!(
            "{{\"benchmark\":\"e2e-bench\",\"workload\":\"{}\",\"trace\":{},\"claim\":null,\"host\":{{{}}},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            escape(&self.workload),
            u8::from(self.trace),
            host.join(","),
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(true)
        )
    }

    /// Reads back what [`Report::to_json`] wrote.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("no \"{k}\" in the record"));
        let pairs = |v: &Value| match v {
            Value::Obj(pairs) => Ok(pairs.clone()),
            _ => Err("expected an object".to_string()),
        };
        let metrics = pairs(field("metrics")?)?
            .into_iter()
            .map(|(name, m)| {
                Ok(Measured {
                    value: m
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("metric {name} has no value"))?,
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("metric {name} has no unit"))?
                        .to_string(),
                    iqr: m.get("iqr").and_then(Value::as_f64),
                    name,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let host = pairs(field("host")?)?
            .into_iter()
            .map(|(k, v)| (k, v.as_str().unwrap_or_default().to_string()))
            .collect();
        let count = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("\"{k}\" is not a whole number"))
        };
        Ok(Self {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            trace: count("trace")? != 0,
            host,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    /// The table a person reads.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} ({}): attempted {} failed {}\n",
            self.workload,
            if self.trace {
                "traced run, per-layer"
            } else {
                "end to end"
            },
            self.attempted,
            self.failed
        );
        for (k, v) in &self.host {
            out.push_str(&format!("  # {k}: {v}\n"));
        }
        for m in &self.metrics {
            let spread = m
                .iqr
                .map_or(String::new(), |i| format!("  (IQR within the run {i:.4})"));
            out.push_str(&format!(
                "  {:<34} {:>14.4} {}{spread}\n",
                m.name, m.value, m.unit
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch::telemetry::json::parse;

    fn sample(trace: bool) -> Report {
        Report {
            workload: "exec_dispatch".into(),
            trace,
            host: vec![
                ("nproc".into(), "2".into()),
                ("cpu".into(), "a \"quoted\" cpu".into()),
            ],
            attempted: 10,
            failed: 0,
            metrics: specs(trace)
                .iter()
                .enumerate()
                .map(|(i, s)| Measured {
                    name: s.name.into(),
                    value: 1.25 + i as f64 / 3.0,
                    unit: s.unit.into(),
                    iqr: (i % 2 == 0).then_some(0.015625),
                })
                .collect(),
        }
    }

    #[test]
    fn names_are_valid_and_listed_once() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|s| s.name)
            .chain(WORKLOADS.iter().map(|w| w.0))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
        for bad in ["", "a b", ".x", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|s| s.bound.is_none()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    /// `BENCHMARK.json` at the repository root is the contract the driver
    /// reads; it must say what this file says.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = parse(&text).expect("BENCHMARK.json is JSON");
        let list = |key: &str| json.get(key).and_then(Value::as_array).unwrap().to_vec();
        let text_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.0.to_string(), w.1.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = list(key);
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (l, s) in listed.iter().zip(specs) {
                assert_eq!(text_of(l, "name"), s.name);
                assert_eq!(text_of(l, "unit"), s.unit, "{}", s.name);
                let better = match s.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(text_of(l, "better"), better, "{}", s.name);
                assert_eq!(
                    l.get("bound").and_then(Value::as_f64),
                    s.bound,
                    "{}",
                    s.name
                );
            }
        }
        let paths = list("paths");
        assert_eq!(paths, vec![Value::Str("src/bin/e2e-bench".into())]);
    }

    #[test]
    fn report_round_trips_through_json() {
        for trace in [false, true] {
            let r = sample(trace);
            r.check().unwrap();
            let back = Report::from_json(&parse(&r.to_json()).unwrap()).unwrap();
            assert_eq!(back, r);
            let line = parse(&r.result_line()).unwrap();
            let Value::Obj(keys) = &line else { panic!() };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Value::Obj(first)) = line
                .get("metrics")
                .and_then(|m| m.get(specs(trace)[0].name))
            else {
                panic!()
            };
            assert_eq!(
                first.len(),
                2,
                "a metric in the result line is value and unit"
            );
        }
    }

    #[test]
    fn check_rejects_wrong_metric_sets() {
        let mut missing = sample(false);
        missing.metrics.pop();
        assert!(missing.check().is_err());
        let mut twice = sample(false);
        twice.metrics.push(twice.metrics[0].clone());
        assert!(twice.check().is_err());
        let mut nan = sample(true);
        nan.metrics[3].value = f64::NAN;
        assert!(nan.check().is_err());
        let mut unit = sample(true);
        unit.metrics[0].unit = "s".into();
        assert!(unit.check().is_err());
        let mut mixed = sample(false);
        mixed.metrics.push(sample(true).metrics[0].clone());
        assert!(mixed.check().is_err());
        let mut idle = sample(false);
        idle.attempted = 0;
        assert!(idle.check().is_err());
    }
}
