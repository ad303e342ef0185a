//! `e2e-bench`: the repository's end-to-end, layered benchmark. One command
//! per workload compiles, executes, dispatches or serves a real model,
//! checks every output against the independent `execute_ops` interpreter and
//! prints every metric by name and unit; `--trace 1` makes the traced run
//! that gives one number per crate instead. `README.md` beside this
//! package has the tables.

mod compare;
mod host;
mod layers;
mod measure;
mod metrics;
mod stats;
mod trace;
mod workload;
mod yardstick;

use metrics::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Params, Scenario};

const USAGE: &str = "usage:
  e2e-bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--callers <n>]
  e2e-bench compare <a.json> <b.json>
workloads: compile_suite exec_compute exec_dispatch serve_closed";

/// Where results and traces go: beside the build, inside the checkout.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("e2e-bench")
}

struct Args {
    workload: String,
    trace: bool,
    params: Params,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut trace = false;
    let mut params = Params {
        seed: 1,
        seconds: 16.0,
        window: Duration::from_millis(250),
        callers: host::nproc().min(2),
        setup_reps: 2,
        pool_sets: 16,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag} {value}: not a number in range");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => params.seed = value.parse().map_err(bad)?,
            "--seconds" => params.seconds = value.parse::<u32>().map_err(bad)?.into(),
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            "--callers" => params.callers = value.parse().map_err(bad)?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(1.0..=60.0).contains(&params.seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    // The load generator never runs more threads than the host has cores:
    // callers that share a core would time each other, not the server.
    if params.callers == 0 || params.callers > host::nproc() {
        return Err(format!(
            "{} callers requested, the host has {} cores",
            params.callers,
            host::nproc()
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        trace,
        params,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let scenario = Scenario::named(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut slowdown = None;
    let (metrics, tally) = if args.trace {
        let tracer = trace::Tracer::new();
        let found = layers::per_layer(&scenario, &args.params, &tracer)?;
        let path = dir.join(format!("{}.trace.json", scenario.name));
        std::fs::write(&path, tracer.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{} spans written to {}", tracer.len(), path.display());
        found
    } else {
        let found = measure::end_to_end(&scenario, &args.params)?;
        let s = &found.op;
        println!(
            "{} operations in {} windows; windows' median latencies, ms: {:.3?}",
            s.samples,
            s.window_p50s_ms.len(),
            s.window_p50s_ms
        );
        println!(
            "as measured: p50 {:.4} ms, p95 {:.4} ms, {:.3}/s (quiet decile over windows)",
            s.p50_ms, s.p95_ms, s.per_s
        );
        let [setup, windows] = found.slowdown;
        println!(
            "yardstick: host at {setup:.3}x nominal time during set-up, {windows:.3}x during the windows; times below are divided by that"
        );
        slowdown = Some(found.slowdown);
        (found.metrics, found.tally)
    };
    let mut host = host::block(&scenario, &args.params);
    if let Some([setup, windows]) = slowdown {
        host.push(("slowdown_setup".into(), format!("{setup:.4}")));
        host.push(("slowdown_windows".into(), format!("{windows:.4}")));
    }
    let report = Report {
        workload: scenario.name.into(),
        trace: args.trace,
        host,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    report.check()?;
    let kind = if args.trace { "layers" } else { "e2e" };
    let path = dir.join(format!("{}.{kind}.json", scenario.name));
    std::fs::write(&path, report.to_json() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    print!("{}", report.table());
    println!("full record: {}", path.display());
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match args.as_slice() {
            [_, a, b] => match compare::compare_files(a, b) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("e2e-bench compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let report = parse_args(&args).and_then(|a| run(&a));
    match report {
        Ok(report) => {
            // Last line of standard output: the result the driver reads.
            println!("{}", report.result_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "e2e-bench: {} of {} operations failed or answered wrongly",
                    report.failed, report.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2e-bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch::telemetry::json::parse;
    use workload::Kind;

    fn smoke_params(seconds: f64) -> Params {
        Params {
            seed: 7,
            seconds,
            window: Duration::from_millis(50),
            callers: host::nproc().min(2),
            setup_reps: 2,
            pool_sets: 4,
        }
    }

    fn report(
        scenario: &Scenario,
        trace: bool,
        found: (Vec<metrics::Measured>, workload::Tally),
    ) -> Report {
        Report {
            workload: scenario.name.into(),
            trace,
            host: host::block(scenario, &smoke_params(1.0)),
            attempted: found.1.attempted,
            failed: found.1.failed,
            metrics: found.0,
        }
    }

    /// Every workload kind, end to end, on a graph that compiles in
    /// milliseconds: every metric is reported, finite and positive, and no
    /// answer is wrong.
    #[test]
    fn smoke_run_of_each_workload_kind() {
        for kind in [Kind::Compile, Kind::Execute, Kind::Serve] {
            let scenario = Scenario::smoke(kind);
            let found = measure::end_to_end(&scenario, &smoke_params(0.4)).unwrap();
            assert!(!found.op.window_p50s_ms.is_empty(), "{kind:?}");
            let report = report(&scenario, false, (found.metrics, found.tally));
            report.check().unwrap();
            assert!(
                report.correct() && report.attempted > 8,
                "{kind:?}: {report:?}"
            );
            assert!(
                report.metrics.iter().all(|m| m.value > 0.0),
                "{kind:?}: {report:?}"
            );
        }
    }

    /// The traced run on the same graph: every per-layer metric is there,
    /// nothing leaks, and the spans export as a Chrome trace.
    #[test]
    fn smoke_run_of_the_traced_pass() {
        let scenario = Scenario::smoke(Kind::Serve);
        let tracer = trace::Tracer::new();
        let found = layers::per_layer(&scenario, &smoke_params(1.0), &tracer).unwrap();
        let report = report(&scenario, true, found);
        report.check().unwrap();
        assert!(report.correct(), "{report:?}");
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!(value("runtime.arena_live_bytes_end"), 0.0);
        assert_eq!(value("serving.errors"), 0.0);
        assert!(value("core.partitions") >= 1.0 && value("blp.pivots_spread") >= 1.0);
        assert!(value("tensor.matmul_gflops") > 0.0 && value("serving.saturated_rps") > 0.0);
        let trace = parse(&tracer.chrome_json()).expect("the trace is JSON");
        let events = trace.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), tracer.len());
        let named = |n: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(|v| v.as_str()) == Some(n))
        };
        for name in [
            "core.optimize",
            "orch.blp",
            "core.execute",
            "serving.queue_wait",
        ] {
            assert!(named(name), "no {name} span");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload exec_dispatch --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.workload.as_str(), ok.trace), ("exec_dispatch", true));
        assert_eq!((ok.params.seed, ok.params.seconds), (9, 3.0));
        assert!(parse_args(&args("--seed 9")).is_err());
        assert!(parse_args(&args("--workload x --seconds 0")).is_err());
        assert!(parse_args(&args("--workload x --seconds 1.5")).is_err());
        assert!(parse_args(&args("--workload x --bogus 1")).is_err());
        assert!(parse_args(&args("--workload x --seed")).is_err());
        // More callers than cores would time the callers, not the server.
        let too_many = format!("--workload x --callers {}", host::nproc() + 1);
        assert!(parse_args(&args(&too_many)).is_err());
        assert!(Scenario::named("exec_compute").is_some() && Scenario::named("x").is_none());
    }
}
