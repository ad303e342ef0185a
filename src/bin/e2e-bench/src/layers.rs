//! The traced run: one pass over every layer a compile or a request
//! crosses, each call into a crate inside a benchmark-side span, giving one
//! number per crate. It crosses every layer on every workload — the
//! workload decides which models, and so which layers carry the weight.
//! End-to-end metrics never come from here.

use crate::host;
use crate::measure::pools;
use crate::metrics::{Measured, PER_LAYER};
use crate::stats::{median, percentile, quantile, summarise, Summary, Window};
use crate::trace::{SpanId, Tracer};
use crate::workload::{
    batch_config, closed_loop, Params, Pool, Request, Rig, Scenario, Tally, PAR_LANES,
};
use korch::baselines::{orchestrate_baseline, Baseline};
use korch::core::{partition, CompiledModel, KorchConfig};
use korch::cost::{Backend, Device, Profiler};
use korch::exec::{execute_ops, CompiledChain};
use korch::fission::{FissionEngine, FissionResult};
use korch::ir::{EwFn, LinearFn, NodeId, PrimGraph, PrimKind};
use korch::orch::{
    enumerate_states, identify_kernels, optimize, OrchError, Orchestrator, Plan, SelectedKernel,
};
use korch::runtime::{
    BatchConfig, PlanExecutor, RuntimeConfig, RuntimeProfile, Server, ShardStats,
};
use korch::telemetry::Telemetry;
use korch::tensor::{conv2d_flops, matmul_flops, BinaryOp, MatMulSpec, Tensor, UnaryOp};
use korch::transform::optimize_graph;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A baseline orchestrator and the metrics that carry its name.
struct BaselineSpec {
    baseline: Baseline,
    kernels: &'static str,
    sim_ratio: &'static str,
    exec_ratio: &'static str,
}

const BASELINES: [BaselineSpec; 4] = [
    BaselineSpec {
        baseline: Baseline::PyTorch,
        kernels: "baselines.kernels.pytorch",
        sim_ratio: "baselines.sim_ratio.pytorch",
        exec_ratio: "baselines.exec_ratio.pytorch",
    },
    BaselineSpec {
        baseline: Baseline::Tvm,
        kernels: "baselines.kernels.tvm",
        sim_ratio: "baselines.sim_ratio.tvm",
        exec_ratio: "baselines.exec_ratio.tvm",
    },
    BaselineSpec {
        baseline: Baseline::TensorRt,
        kernels: "baselines.kernels.tensorrt",
        sim_ratio: "baselines.sim_ratio.tensorrt",
        exec_ratio: "baselines.exec_ratio.tensorrt",
    },
    BaselineSpec {
        baseline: Baseline::DnnFusion,
        kernels: "baselines.kernels.dnnfusion",
        sim_ratio: "baselines.sim_ratio.dnnfusion",
        exec_ratio: "baselines.exec_ratio.dnnfusion",
    },
];

const KERNEL_CLASSES: [&str; 3] = [
    "runtime.kernel_us.conv",
    "runtime.kernel_us.matmul",
    "runtime.kernel_us.memory",
];

/// Rate of the open-loop phase, requests per second.
const OPEN_LOOP_RATE: f64 = 300.0;

/// Requests submitted at once in the saturating burst.
const BURST: usize = 64;

/// Shares of `--seconds` the time-boxed phases get; the rest of the traced
/// run (set-up, compile replay, microbenchmarks) is a fixed amount of work.
mod share {
    pub const PLANS: f64 = 0.22;
    pub const LANES: f64 = 0.14;
    pub const CLOSED: f64 = 0.14;
    pub const OPEN: f64 = 0.10;
    pub const BURSTS: f64 = 0.05;
    pub const TELEMETRY: f64 = 0.12;
}

/// The per-layer values found so far, by metric name.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        let fresh = self.0.insert(name, value).is_none();
        debug_assert!(fresh, "{name} set twice");
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Every metric of `PER_LAYER`, in its order.
    fn finish(self) -> Result<Vec<Measured>, String> {
        PER_LAYER
            .iter()
            .map(|s| {
                let value = *self
                    .0
                    .get(s.name)
                    .ok_or_else(|| format!("the traced run did not measure {}", s.name))?;
                Ok(s.measured(value, None))
            })
            .collect()
    }
}

/// What every phase of the traced run reads and writes.
struct Pass<'a> {
    rig: &'a Rig,
    /// Input sets and references of the model requests run on.
    pool: &'a Pool,
    params: &'a Params,
    tracer: &'a Tracer,
    out: Values,
    tally: Tally,
    /// Latencies taken so far, all phases.
    samples: usize,
}

fn median_of(mut f: impl FnMut(), reps: usize) -> f64 {
    f();
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let began = Instant::now();
            f();
            began.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs).expect("reps is at least 1")
}

fn p50(values: &[f64]) -> f64 {
    quantile(values, 0.50).unwrap_or(0.0)
}

/// The `KERNEL_CLASSES` entry of the heaviest primitive the kernel holds.
fn kernel_class(graph: &PrimGraph, kernel: &SelectedKernel) -> &'static str {
    let has = |want: fn(&LinearFn) -> bool| {
        kernel
            .members
            .iter()
            .any(|&m| matches!(&graph.node(m).kind, PrimKind::Linear(l) if want(l)))
    };
    if has(|l| matches!(l, LinearFn::Conv2d { .. })) {
        KERNEL_CLASSES[0]
    } else if has(|l| matches!(l, LinearFn::MatMul { .. })) {
        KERNEL_CLASSES[1]
    } else {
        KERNEL_CLASSES[2]
    }
}

impl Pass<'_> {
    /// Seconds a time-boxed phase may take.
    fn budget(&self, share: f64) -> f64 {
        self.params.seconds * share
    }

    /// A span for one stage of a phase, child of the phase's span.
    fn stage<R>(&self, parent: SpanId, name: &str, f: impl FnOnce() -> R) -> R {
        self.tracer.scope(name, Some(parent), None, |_| f())
    }

    /// Alternates windows of one closed-loop caller between two ways of
    /// answering a request and returns both summaries, `(first, second)`.
    fn alternate(
        &mut self,
        budget: f64,
        first: &Request,
        second: &Request,
    ) -> Result<(Summary, Summary), String> {
        let window = self
            .params
            .window
            .min(Duration::from_secs_f64(budget / 6.0));
        let rounds = ((budget / window.as_secs_f64() / 2.0) as usize).max(2);
        let mut windows: [Vec<Window>; 2] = [Vec::new(), Vec::new()];
        for round in 0..rounds {
            for (op, windows) in [first, second].into_iter().zip(&mut windows) {
                let (w, t) = closed_loop(window, 1, self.pool, round, op);
                self.tally.merge(t);
                self.samples += w.latencies_ms.len();
                windows.push(w);
            }
        }
        let [first, second] = windows.map(|w| summarise(&w));
        first
            .zip(second)
            .ok_or_else(|| "no request completed in a window".to_string())
    }

    /// Replays the stages of `Korch::optimize` one public function at a
    /// time — fission, partition, transform search, state enumeration,
    /// kernel identification, BLP — so each gets a span. The BLP is solved
    /// twice per variant: its pivot count differs between solves of the
    /// same problem, and the second solve (span `orch.blp.repeat`, outside
    /// the stage sum) shows by how much.
    fn replay_compile(&mut self, parent: SpanId) -> Result<Vec<FissionResult>, String> {
        let config: &KorchConfig = self.rig.korch.config();
        let profiler = Profiler::new(self.rig.korch.device().clone());
        let backends = [Backend::Generated, Backend::Vendor];
        let max_states = config.orchestrator.max_states.unwrap_or(1_500);
        let mut pivots = [0usize; 2];
        let mut fissions = Vec::new();
        for m in &self.rig.models {
            let fission = self
                .stage(parent, "fission", || FissionEngine::new().fission(&m.graph))
                .map_err(|e| format!("fission: {e}"))?;
            let parts = self
                .stage(parent, "core.partition", || {
                    partition(&fission.prim_graph, config.partition_max_prims)
                })
                .map_err(|e| format!("partition: {e}"))?;
            let mut cached = HashSet::new();
            for part in &parts {
                if config.cache && !cached.insert(part.graph.fingerprint()) {
                    continue;
                }
                let variants = self.stage(parent, "transform", || {
                    optimize_graph(&part.graph, &config.transform)
                });
                self.out.add("transform.variants", variants.len() as f64);
                for v in variants.iter().take(config.variants_to_orchestrate.max(1)) {
                    let space =
                        self.stage(parent, "orch.states", || enumerate_states(v, max_states));
                    let identify = &config.orchestrator.identify;
                    let cands = self.stage(parent, "orch.identify", || {
                        identify_kernels(v, &space, &profiler, identify, &backends)
                    });
                    for (solve, name) in ["orch.blp", "orch.blp.repeat"].into_iter().enumerate() {
                        let solved = self.stage(parent, name, || {
                            optimize(v, &cands, Some(&space), &config.orchestrator.optimize)
                        });
                        match solved {
                            Ok((_, report)) => {
                                pivots[solve] += report.solver_pivots;
                                if solve == 0 {
                                    let constraints = report.num_constraints as f64;
                                    self.out.add("orch.blp_constraints", constraints);
                                    self.out.add("blp.nodes", report.solver_nodes as f64);
                                }
                            }
                            // The pipeline skips a variant no kernel set covers.
                            Err(OrchError::Infeasible(_)) => {}
                            Err(e) => return Err(format!("BLP: {e}")),
                        }
                    }
                }
            }
            fissions.push(fission);
        }
        for name in ["transform.variants", "orch.blp_constraints", "blp.nodes"] {
            self.out.add(name, 0.0);
        }
        self.out.set("blp.pivots", pivots[0] as f64);
        let (low, high) = (pivots[0].min(pivots[1]), pivots[0].max(pivots[1]));
        self.out
            .set("blp.pivots_spread", high as f64 / low.max(1) as f64);
        Ok(fissions)
    }

    /// What the set-up and the compile replay say about the optimizer
    /// crates.
    fn compile_metrics(&mut self) {
        let (tracer, out) = (self.tracer, &mut self.out);
        out.set("models.build_ms", tracer.total_ms("models.build"));
        out.set("core.optimize_ms", tracer.total_ms("core.optimize"));
        out.set(
            "runtime.build_ms",
            tracer.total_ms("runtime.build") / tracer.count("runtime.build").max(1) as f64,
        );
        let mut stages = 0.0;
        for (metric, span) in [
            ("fission.time_ms", "fission"),
            ("core.partition_ms", "core.partition"),
            ("transform.time_ms", "transform"),
            ("orch.states_ms", "orch.states"),
            ("orch.identify_ms", "orch.identify"),
            ("orch.blp_ms", "orch.blp"),
        ] {
            let ms = tracer.total_ms(span);
            stages += ms;
            out.set(metric, ms);
        }
        // The replay and the set-up's `Korch::optimize` are two executions
        // of the same stages; what the replay's spans do not cover is the
        // pipeline's own glue.
        out.set(
            "core.unattributed_share",
            1.0 - stages / tracer.total_ms("core.optimize").max(f64::MIN_POSITIVE),
        );
        // Counts the pipeline reports itself.
        for m in &self.rig.models {
            let stats = m.optimized.stats();
            out.add("models.op_nodes", m.graph.len() as f64);
            out.add("fission.prim_nodes", stats.prim_nodes as f64);
            out.add("core.partitions", stats.partitions as f64);
            out.add("core.cache_hits", stats.cache_hits as f64);
            out.add("orch.states", stats.states as f64);
            out.add("orch.candidates", stats.candidate_kernels as f64);
            out.add("orch.plan_kernels", m.optimized.kernel_count() as f64);
            out.add("orch.sim_latency_us", m.optimized.latency_ms() * 1e3);
        }
    }

    /// The four baseline plans of every model, priced on the same device;
    /// the run model's come back with executors at 1 lane.
    fn baseline_plans(
        &mut self,
        fissions: &[FissionResult],
        parent: SpanId,
    ) -> Result<Vec<(&'static BaselineSpec, PlanExecutor)>, String> {
        let device = Device::v100();
        let models = &self.rig.models;
        let mut log_speedup = 0.0;
        let mut executors = Vec::new();
        for (i, (m, fission)) in models.iter().zip(fissions).enumerate() {
            let korch_us = m.optimized.latency_ms() * 1e3;
            let mut best_us = f64::INFINITY;
            for spec in &BASELINES {
                let name = spec.baseline.name();
                let plan: Plan = self
                    .stage(parent, "baselines.orchestrate", || {
                        orchestrate_baseline(spec.baseline, &m.graph, &device)
                    })
                    .map_err(|e| format!("baseline {name}: {e}"))?;
                best_us = best_us.min(plan.total_latency.0);
                if i + 1 == models.len() {
                    self.out.set(spec.kernels, plan.kernel_count() as f64);
                    self.out
                        .set(spec.sim_ratio, plan.total_latency.0 / korch_us);
                    let executor =
                        PlanExecutor::new(&fission.prim_graph, &plan, RuntimeConfig::with_lanes(1))
                            .map_err(|e| format!("baseline {name} executor: {e}"))?;
                    executors.push((spec, executor));
                }
            }
            log_speedup += (best_us / korch_us).ln();
        }
        self.out.set(
            "baselines.orchestrate_ms",
            self.tracer.total_ms("baselines.orchestrate"),
        );
        self.out.set(
            "orch.plan_sim_speedup",
            (log_speedup / models.len() as f64).exp(),
        );
        Ok(executors)
    }

    /// Runs the Korch plan and the four baseline plans round-robin at
    /// 1 lane — the paper's Fig. 6 executed, not simulated — then splits
    /// the Korch plan's request time into kernel bodies by class and the
    /// fixed rest.
    fn plan_rounds(&mut self, baselines: &[(&'static BaselineSpec, PlanExecutor)], parent: SpanId) {
        let (pool, tracer) = (self.pool, self.tracer);
        let run = self.rig.run_model();
        // Every baseline plan answers every pooled input set correctly
        // before any of them is timed.
        for (_, executor) in baselines {
            for (set, refs) in pool.inputs.iter().zip(&pool.refs) {
                self.tally.check(&executor.execute(set), refs);
            }
        }
        let partitions = run.seq.partitions();
        for p in partitions.iter() {
            p.executor.reset_profile();
        }
        let budget = self.budget(share::PLANS);
        let mut korch_ms = Vec::new();
        let mut baseline_ms: Vec<Vec<f64>> = vec![Vec::new(); baselines.len()];
        let began = Instant::now();
        let mut round = 0u64;
        while round < 3 || began.elapsed().as_secs_f64() < budget {
            let set = round as usize % pool.sets();
            let (inputs, refs) = (&pool.inputs[set], &pool.refs[set]);
            let sent = Instant::now();
            let got = tracer.scope("core.execute", Some(parent), Some(round), |_| {
                run.seq.execute(inputs)
            });
            korch_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            self.tally.check(&got, refs);
            for ((_, executor), ms) in baselines.iter().zip(&mut baseline_ms) {
                let sent = Instant::now();
                let got = tracer.scope("baselines.execute", Some(parent), Some(round), |_| {
                    executor.execute(inputs)
                });
                ms.push(sent.elapsed().as_secs_f64() * 1e3);
                self.tally.check(&got, refs);
            }
            round += 1;
        }
        self.samples += korch_ms.len() * (1 + baselines.len());
        let out = &mut self.out;
        let korch_p50 = p50(&korch_ms);
        let mut worst = f64::INFINITY;
        for ((spec, _), ms) in baselines.iter().zip(&baseline_ms) {
            let ratio = p50(ms) / korch_p50;
            worst = worst.min(ratio);
            out.set(spec.exec_ratio, ratio);
        }
        out.set("baselines.plan_exec_speedup", worst);

        // Kernel time per request by class, from the executors' own profile
        // of exactly these requests.
        for class in KERNEL_CLASSES {
            out.add(class, 0.0);
        }
        let mut kernels_us = 0.0;
        for (profile, p) in run.seq.profiles().iter().zip(partitions.iter()) {
            for (stats, kernel) in profile.per_kernel.iter().zip(&p.plan.kernels) {
                kernels_us += stats.mean_us();
                out.add(kernel_class(&p.graph, kernel), stats.mean_us());
            }
        }
        let request_us = korch_ms.iter().sum::<f64>() / korch_ms.len() as f64 * 1e3;
        out.set("runtime.fixed_us", request_us - kernels_us);
        out.set(
            "runtime.fixed_share",
            (request_us - kernels_us) / request_us,
        );
        out.set("runtime.partition_calls", partitions.len() as f64);
        let model_error = run.seq.current_model_error(&Profiler::new(Device::v100()));
        out.set("cost.model_error", model_error.unwrap_or(0.0));
    }

    /// The same model at 2 lanes and at 1, in alternating windows: what the
    /// work-stealing threads gain or cost, and how busy the scheduler was.
    fn lane_windows(&mut self) -> Result<(), String> {
        let run = self.rig.run_model();
        let partitions = run.par.partitions();
        for p in partitions.iter() {
            p.executor.reset_profile();
        }
        let (par, seq) = self.alternate(
            self.budget(share::LANES),
            &|_, x| run.par.execute(x).map_err(|e| e.to_string()),
            &|_, x| run.seq.execute(x).map_err(|e| e.to_string()),
        )?;
        let out = &mut self.out;
        out.set("runtime.seq_ms_p95", seq.p95_ms);
        out.set("runtime.par_speedup", seq.p50_ms / par.p50_ms);

        let profiles = run.par.profiles();
        let requests = profiles.first().map_or(1, |p| p.runs.max(1)) as f64;
        let per_request =
            |f: fn(&RuntimeProfile) -> u64| profiles.iter().map(f).sum::<u64>() as f64 / requests;
        out.set("runtime.steals_per_req", per_request(|p| p.steals));
        out.set("runtime.parks_per_req", per_request(|p| p.parks));
        out.set("runtime.tile_tasks_per_req", per_request(|p| p.tile_tasks));
        let (mut peak, mut reused, mut fresh) = (0u64, 0u64, 0u64);
        for a in partitions.iter().map(|p| p.executor.arena_stats()) {
            peak += a.peak_bytes;
            reused += a.reuse_hits;
            fresh += a.total_allocs;
        }
        out.set("runtime.arena_peak_kb", peak as f64 / 1024.0);
        out.set(
            "runtime.arena_reuse_ratio",
            reused as f64 / (reused + fresh).max(1) as f64,
        );
        Ok(())
    }

    /// The floor of `PlanExecutor::execute`: a plan of one kernel over four
    /// elements, where everything but the kernel body is the executor's
    /// own.
    fn min_execute(&mut self) -> Result<(), String> {
        let mut g = PrimGraph::new();
        let fail = |e: &dyn std::fmt::Display| format!("one-kernel plan: {e}");
        let x = g
            .add(PrimKind::Input { shape: vec![4] }, vec![])
            .map_err(|e| fail(&e))?;
        let exp = PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp));
        let y = g.add(exp, vec![x.into()]).map_err(|e| fail(&e))?;
        g.mark_output(y).map_err(|e| fail(&e))?;
        let plan = Orchestrator::new(Device::v100())
            .orchestrate(&g)
            .map_err(|e| fail(&e))?
            .plan;
        let input = [Tensor::random(vec![4], 1)];
        for (lanes, name) in [
            (1, "runtime.min_execute_us.lanes1"),
            (PAR_LANES, "runtime.min_execute_us.lanes2"),
        ] {
            let executor = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(lanes))
                .map_err(|e| fail(&e))?;
            let secs = median_of(
                || {
                    let out = executor.execute(&input).expect("a valid one-kernel plan");
                    std::hint::black_box(out);
                },
                500,
            );
            self.out.set(name, secs * 1e6);
        }
        Ok(())
    }

    /// The interpreters and the bare tensor kernels, each against the work
    /// it does: sustained GFLOP/s for matmul and conv, computed bytes per
    /// second for the memory-bound ones.
    fn microbenchmarks(&mut self) -> Result<(), String> {
        let run = self.rig.run_model();
        let inputs = &self.pool.inputs[0];
        let out = &mut self.out;
        let interp = median_of(
            || {
                std::hint::black_box(execute_ops(&run.graph, inputs).expect("the gate ran this"));
            },
            5,
        );
        out.set("exec.interp_ms", interp * 1e3);
        let plan_interp = median_of(
            || {
                let outs = run.optimized.execute(inputs);
                std::hint::black_box(outs.expect("the gate ran this plan"));
            },
            5,
        );
        out.set("exec.plan_interp_ms", plan_interp * 1e3);

        // A 6-op mul/add/abs chain over 768x768 through
        // `CompiledChain::run`: one read and one write of the tensor per
        // run, computed from its size.
        let dim = 768usize;
        let mut g = PrimGraph::new();
        let fail = |e: &dyn std::fmt::Display| format!("chain graph: {e}");
        let shape = vec![dim, dim];
        let x = g
            .add(PrimKind::Input { shape }, vec![])
            .map_err(|e| fail(&e))?;
        let mut members: Vec<NodeId> = Vec::new();
        let mut cur = x;
        for i in 0..6 {
            let f = match i % 3 {
                0 => EwFn::BinaryScalar(BinaryOp::Mul, 1.25),
                1 => EwFn::BinaryScalar(BinaryOp::Add, 0.5),
                _ => EwFn::Unary(UnaryOp::Abs),
            };
            cur = g
                .add(PrimKind::Elementwise(f), vec![cur.into()])
                .map_err(|e| fail(&e))?;
            members.push(cur);
        }
        let (chain, _) = CompiledChain::compile(&g, &members, cur.into())
            .ok_or("the 6-op chain did not compile")?;
        let chain_in = Tensor::random(vec![dim, dim], 5);
        let mut chain_out = vec![0f32; dim * dim];
        let secs = median_of(
            || {
                chain
                    .run(&[chain_in.as_slice()], &mut chain_out)
                    .expect("one input of the output's length");
                std::hint::black_box(&chain_out);
            },
            10,
        );
        out.set("exec.chain_gbps", (2 * dim * dim * 4) as f64 / secs / 1e9);

        let n = 320usize;
        let a = Tensor::random(vec![n, n], 11);
        let b = Tensor::random(vec![n, n], 13);
        let secs = median_of(
            || {
                let c = a.matmul(&b, MatMulSpec::default());
                std::hint::black_box(c.expect("square operands"));
            },
            20,
        );
        let gflops = matmul_flops(1, n, n, n) as f64 / secs / 1e9;
        out.set("tensor.matmul_gflops", gflops);

        let image = Tensor::random(vec![1, 16, 32, 32], 17);
        let weight = Tensor::random(vec![32, 16, 3, 3], 19);
        let secs = median_of(
            || {
                let c = image.conv2d(&weight, 1, 1, 1);
                std::hint::black_box(c.expect("matching channels"));
            },
            10,
        );
        let gflops = conv2d_flops(1, 32, 32, 32, 16, 3, 3) as f64 / secs / 1e9;
        out.set("tensor.conv2d_gflops", gflops);

        let rows = Tensor::random(vec![1024, 1024], 23);
        let secs = median_of(
            || {
                std::hint::black_box(rows.reduce_sum(1).expect("axis 1 of a matrix"));
            },
            20,
        );
        out.set("tensor.reduce_gbps", rows.byte_size() as f64 / secs / 1e9);
        Ok(())
    }

    /// The closed loop of `serve_closed`, traced: every request gets a
    /// span, and the shim's stamps split it into the wait before the model
    /// ran, the model run, and the rest.
    fn serving_closed(&mut self, parent: SpanId) {
        let (rig, tracer) = (self.rig, self.tracer);
        let before = rig.server.stats();
        let cpu_before = host::cpu_seconds();
        let next_request = AtomicU64::new(0);
        // (queue wait, model run, caller latency minus model run), µs.
        let split: Mutex<Vec<[f64; 3]>> = Mutex::new(Vec::new());
        let (window, t) = closed_loop(
            Duration::from_secs_f64(self.budget(share::CLOSED)),
            self.params.callers,
            self.pool,
            0,
            &|set, x| {
                let request = next_request.fetch_add(1, Ordering::Relaxed);
                let sent = tracer.now_us();
                let got = rig.server.infer(x.to_vec());
                let done = tracer.now_us();
                let span = tracer.record("serving.infer", sent, done, Some(parent), Some(request));
                if let Some((entry, exit)) = rig.served.take(set) {
                    tracer.record("serving.queue_wait", sent, entry, Some(span), Some(request));
                    tracer.record("runtime.model_run", entry, exit, Some(span), Some(request));
                    split.lock().expect("a caller panicked").push([
                        entry - sent,
                        exit - entry,
                        (done - sent) - (exit - entry),
                    ]);
                }
                got.map_err(|e| e.to_string())
            },
        );
        self.tally.merge(t);
        let cpu_s = host::cpu_seconds() - cpu_before;
        let after = rig.server.stats();
        let split = split.into_inner().expect("a caller panicked");
        let column = |i: usize| p50(&split.iter().map(|s| s[i]).collect::<Vec<_>>());
        let out = &mut self.out;
        out.set("serving.queue_wait_us_p50", column(0));
        out.set("serving.model_run_us_p50", column(1));
        out.set("serving.self_us_p50", column(2));
        let p95 = quantile(&window.latencies_ms, 0.95).unwrap_or(0.0);
        out.set("serving.closed_ms_p95", p95);
        let batches = (after.batches - before.batches) as f64;
        let batched =
            after.mean_batch * after.batches as f64 - before.mean_batch * before.batches as f64;
        out.set("serving.batches", batches);
        out.set("serving.mean_batch", batched / batches.max(1.0));
        out.set("serving.errors", (after.errors - before.errors) as f64);
        let requests = window.latencies_ms.len();
        out.set(
            "serving.cpu_ms_per_req",
            cpu_s * 1e3 / requests.max(1) as f64,
        );
        self.samples += requests;
    }

    /// Open loop at a fixed rate: requests go out on schedule whether or
    /// not earlier ones have answered, and each is timed from when it was
    /// due, so a stall counts against every request it delays. One thread
    /// sends, this one collects in sending order.
    fn serving_open(&mut self) {
        let (rig, pool) = (self.rig, self.pool);
        let total = (OPEN_LOOP_RATE * self.budget(share::OPEN)) as usize;
        let began = Instant::now();
        let (tx, rx) = mpsc::channel();
        let mut latencies_ms = Vec::with_capacity(total);
        let tally = &mut self.tally;
        let late_ms_max = std::thread::scope(|s| {
            let sender = s.spawn(move || {
                let mut late_ms_max = 0f64;
                for i in 0..total {
                    let due = began + Duration::from_secs_f64(i as f64 / OPEN_LOOP_RATE);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    late_ms_max = late_ms_max.max(due.elapsed().as_secs_f64() * 1e3);
                    let set = i % pool.sets();
                    let handle = rig.server.submit(pool.inputs[set].clone());
                    if tx.send((due, set, handle)).is_err() {
                        break;
                    }
                }
                late_ms_max
            });
            for (due, set, handle) in rx {
                let got = handle.wait();
                latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
                tally.check(&got, &pool.refs[set]);
            }
            sender.join().expect("the sending thread panicked")
        });
        latencies_ms.sort_by(f64::total_cmp);
        let at = |p: f64| percentile(&latencies_ms, p).unwrap_or(0.0);
        self.out.set("serving.open300.ms_p50", at(0.50));
        self.out.set("serving.open300.ms_p95", at(0.95));
        self.out.set("serving.open300.ms_p99", at(0.99));
        self.out.set("loadgen.late_ms_max", late_ms_max);
        self.samples += latencies_ms.len();
    }

    /// Bursts submitted all at once and drained: the most the two shards
    /// complete per second.
    fn serving_bursts(&mut self) {
        let (rig, pool) = (self.rig, self.pool);
        let budget = self.budget(share::BURSTS);
        let began = Instant::now();
        let mut rates = Vec::new();
        while rates.is_empty() || began.elapsed().as_secs_f64() < budget {
            let burst = Instant::now();
            let handles: Vec<_> = (0..BURST)
                .map(|i| i % pool.sets())
                .map(|set| (set, rig.server.submit(pool.inputs[set].clone())))
                .collect();
            for (set, handle) in handles {
                self.tally.check(&handle.wait(), &pool.refs[set]);
            }
            rates.push(BURST as f64 / burst.elapsed().as_secs_f64());
        }
        let rate = median(&rates).expect("at least one burst ran");
        self.out.set("serving.saturated_rps", rate);
        self.samples += rates.len() * BURST;
    }

    /// Two more servers over the same plan, one with a telemetry hub
    /// attached to both the serving layer and the executors, in alternating
    /// windows of one caller: what observability costs a request when it
    /// is on.
    fn telemetry_overhead(&mut self) -> Result<(), String> {
        let hub = Arc::new(Telemetry::with_capacity(8, 65_536));
        let optimized = &self.rig.run_model().optimized;
        let start = |telemetry: Option<Arc<Telemetry>>| -> Result<Server, String> {
            let runtime = RuntimeConfig {
                telemetry: telemetry.clone(),
                ..RuntimeConfig::with_lanes(1)
            };
            let model = CompiledModel::from_optimized(optimized, &runtime)
                .map_err(|e| format!("compile onto the runtime: {e}"))?;
            let batching = BatchConfig {
                telemetry,
                ..batch_config()
            };
            Server::start_sharded(Arc::new(model), batching)
                .map_err(|e| format!("server start: {e}"))
        };
        let (plain, observed) = (start(None)?, start(Some(Arc::clone(&hub)))?);
        let (off, on) = self.alternate(
            self.budget(share::TELEMETRY),
            &|_, x| plain.infer(x.to_vec()).map_err(|e| e.to_string()),
            &|_, x| observed.infer(x.to_vec()).map_err(|e| e.to_string()),
        )?;
        self.out
            .set("telemetry.overhead_ratio", on.p50_ms / off.p50_ms);
        let recorder = hub.recorder();
        let events = recorder.len() as f64 + recorder.dropped() as f64;
        self.out.set("telemetry.events", events);
        Ok(())
    }

    /// Static verification, leaked arena bytes, and what the process used.
    fn wrap_up(&mut self) {
        let rig = self.rig;
        let verified = self
            .tracer
            .scope("verify", None, None, |_| rig.run_model().par.verify());
        self.tally.attempted += 1;
        self.tally.failed += u64::from(verified.is_err());
        self.out
            .set("verify.time_ms", self.tracer.total_ms("verify"));
        let max_abs_err = f64::from(self.tally.max_abs_err);
        self.out.set("verify.max_abs_err", max_abs_err);

        let shards = rig.server.stats().shards;
        let served =
            |pick: fn(u64, u64) -> u64| shards.iter().map(|s| s.served).reduce(pick).unwrap_or(0);
        let imbalance = served(u64::max) as f64 / served(u64::min).max(1) as f64;
        self.out.set("shard.served_imbalance", imbalance);
        let total = |f: fn(&ShardStats) -> u64| shards.iter().map(f).sum::<u64>() as f64;
        self.out.set("shard.adopted", total(|s| s.adopted));
        self.out.set("shard.failures", total(|s| s.failures));

        // Every buffer an executor adopted during a run is back when the
        // run is over; bytes still live here are a leak.
        let mut live = 0u64;
        let compiled = rig.models.iter().flat_map(|m| [&m.par, &m.seq]);
        for model in compiled.chain([rig.served.model()]) {
            for shard in model.shard_snapshots().iter() {
                live += shard
                    .iter()
                    .map(|p| p.executor.arena_stats().live_bytes)
                    .sum::<u64>();
            }
        }
        self.tally.attempted += 1;
        self.tally.failed += u64::from(live != 0);
        self.out.set("runtime.arena_live_bytes_end", live as f64);

        self.out.set("loadgen.samples", self.samples as f64);
        // Callers of the closed loop; sender and collector of the open one.
        let threads = self.params.callers.max(2);
        self.out.set("loadgen.threads", threads as f64);
        self.out.set("process.peak_rss_mb", host::peak_rss_mb());
        self.out.set("process.cpu_s", host::cpu_seconds());
    }
}

pub fn per_layer(
    scenario: &Scenario,
    params: &Params,
    tracer: &Tracer,
) -> Result<(Vec<Measured>, Tally), String> {
    let pools = pools(scenario, params)?;
    let rig = tracer.scope("setup", None, None, |id| {
        Rig::build(scenario, &pools, tracer, Some(id), true)
    })?;
    let mut pass = Pass {
        rig: &rig,
        pool: pools.last().ok_or("a workload needs a model")?,
        params,
        tracer,
        out: Values::default(),
        tally: Tally::default(),
        samples: 0,
    };
    rig.gate(&pools, &mut pass.tally);

    let baselines = tracer.scope("compile.replay", None, None, |id| {
        let fissions = pass.replay_compile(id)?;
        pass.baseline_plans(&fissions, id)
    })?;
    pass.compile_metrics();

    tracer.scope("execute.plans", None, None, |id| {
        pass.plan_rounds(&baselines, id)
    });
    drop(baselines);
    tracer.scope("execute.lanes", None, None, |_| pass.lane_windows())?;
    tracer.scope("execute.floor", None, None, |_| pass.min_execute())?;
    tracer.scope("microbenchmarks", None, None, |_| pass.microbenchmarks())?;

    tracer.scope("serve.closed", None, None, |id| pass.serving_closed(id));
    tracer.scope("serve.open", None, None, |_| pass.serving_open());
    tracer.scope("serve.bursts", None, None, |_| pass.serving_bursts());
    tracer.scope("serve.telemetry", None, None, |_| pass.telemetry_overhead())?;
    pass.wrap_up();
    Ok((pass.out.finish()?, pass.tally))
}
