//! Multi-stream execution of an orchestrated plan — the inter-kernel
//! optimization the paper leaves as future work (§5.3: "Korch only
//! considers sequential execution of the orchestrated kernels and does not
//! consider inter-kernel optimizations such as CUDA multi-streaming").
//!
//! [`schedule_streams`] maps a [`Plan`]'s kernels onto `S` CUDA-stream
//! lanes with a list scheduler and simulates the resulting makespan under a
//! resource-sharing model:
//!
//! - **dependencies** — a kernel starts only after, for each port it reads
//!   from device memory, the first kernel materializing that port has
//!   finished ([`plan_dependencies`], the relation the executor runs by);
//! - **launch pipelining** — each kernel's launch overhead is uncontended
//!   (the driver pipelines launches across streams), so plans made of many
//!   small kernels gain from multi-streaming even when every kernel is
//!   bandwidth-bound;
//! - **class-based contention** — concurrent *memory-intensive* kernel
//!   bodies share HBM bandwidth (n co-running bodies each progress at rate
//!   1/n: co-scheduling two bandwidth-saturated kernels saves nothing),
//!   while *compute-intensive* bodies share the SMs among themselves. A
//!   memory-bound body overlapping a compute-bound body is the genuinely
//!   profitable case — that is where multi-streaming wins.
//!
//! With one stream the simulation degenerates to the paper's sequential
//! model: the makespan equals Σ kernel latencies (Eq. 2) exactly.
//!
//! This is a what-if simulator for the device the plan was priced on.
//! Nothing executes by it: the `korch-runtime` executor schedules from
//! the plan's dependency DAG ([`plan_dependencies`]) by work stealing.

use crate::plan::Plan;
use korch_cost::{kernel_spec, Device, Micros};
use korch_ir::{NodeId, PrimGraph};
use std::collections::{BTreeSet, HashMap};

/// Resource class of a kernel body under concurrent execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceClass {
    /// Saturates HBM bandwidth (no linear primitive, paper §5.2).
    Memory,
    /// Saturates the SMs / tensor cores.
    Compute,
}

/// How strongly co-running kernel bodies of the same [`ResourceClass`]
/// contend for their shared resource. A body co-running with `n - 1`
/// same-class bodies progresses at rate `1 / (1 + rate · (n - 1))`:
/// `rate = 1.0` is full processor sharing (n bodies each at 1/n, the
/// default), `rate = 0.0` is no contention at all.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamContention {
    /// Sharing rate between concurrent memory-intensive bodies (HBM).
    pub memory_rate: f64,
    /// Sharing rate between concurrent compute-intensive bodies (SMs).
    pub compute_rate: f64,
}

impl Default for StreamContention {
    fn default() -> Self {
        Self {
            memory_rate: 1.0,
            compute_rate: 1.0,
        }
    }
}

impl StreamContention {
    /// Progress rate of one body co-running with `n` same-class bodies in
    /// total (`n >= 1`).
    fn rate(&self, class: ResourceClass, n: usize) -> f64 {
        let r = match class {
            ResourceClass::Memory => self.memory_rate,
            ResourceClass::Compute => self.compute_rate,
        };
        1.0 / (1.0 + r.max(0.0) * (n.saturating_sub(1)) as f64)
    }
}

/// Placement of one plan kernel on a stream, with simulated times in µs.
#[derive(Debug, Clone)]
pub struct StreamAssignment {
    /// Index into `plan.kernels`.
    pub kernel: usize,
    /// Stream lane (0-based).
    pub stream: usize,
    /// Simulated start time, µs.
    pub start_us: f64,
    /// Simulated completion time, µs.
    pub end_us: f64,
}

/// A multi-stream schedule of a plan.
#[derive(Debug, Clone)]
pub struct StreamSchedule {
    /// Per-kernel placements, in start-time order.
    pub assignments: Vec<StreamAssignment>,
    /// Simulated end-to-end latency.
    pub makespan: Micros,
    /// Number of stream lanes used.
    pub num_streams: usize,
}

impl StreamSchedule {
    /// Makespan in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan.as_millis()
    }

    /// Speedup of this schedule over the plan's sequential latency.
    pub fn speedup_vs(&self, plan: &Plan) -> f64 {
        plan.total_latency.0 / self.makespan.0.max(1e-12)
    }

    /// The schedule's lane structure: for each stream, the kernel indices
    /// assigned to it in start-time order. Lane `s` of the result may be
    /// empty if fewer kernels than streams exist.
    pub fn lanes(&self) -> Vec<Vec<usize>> {
        let mut lanes = vec![Vec::new(); self.num_streams];
        // `assignments` is already sorted by start time.
        for a in &self.assignments {
            lanes[a.stream].push(a.kernel);
        }
        lanes
    }

    /// Per-kernel placement: `lane_of()[k]` is the stream lane the
    /// simulation placed kernel `k` on.
    pub fn lane_of(&self) -> Vec<usize> {
        let mut lane = vec![0usize; self.assignments.len()];
        for a in &self.assignments {
            lane[a.kernel] = a.stream;
        }
        lane
    }
}

struct Job {
    deps: Vec<usize>,
    launch_left: f64,
    body_left: f64,
    class: ResourceClass,
}

/// A plan read with no producer ordered before it: kernel `kernel` reads
/// `port` from device memory, but no kernel at an index `<= kernel`
/// materializes that port. Such a plan fails under every executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingProducer {
    /// Index of the reading kernel in `plan.kernels`.
    pub kernel: usize,
    /// The port that is never materialized in time.
    pub port: korch_ir::PortRef,
}

impl std::fmt::Display for MissingProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan kernel {} reads port {}:{} that no earlier kernel materializes",
            self.kernel, self.port.node.0, self.port.port
        )
    }
}

/// Port-level kernel dependency edges of `plan` over `g`: kernel `i`
/// depends on the first (plan-order) kernel that materializes each port
/// one of its members reads from device memory — reads satisfied inside
/// the kernel's own member set (or by graph sources, which exist before
/// kernel 0) carry no edge. This is the exact readiness relation the
/// `korch-runtime` executor compiles into its atomic dependency counters;
/// `korch-verify` re-derives it here to cross-check compiled artifacts.
///
/// Every returned edge points at a strictly lower kernel index, so the
/// relation is acyclic by construction and plan order is one of its
/// topological orders.
///
/// # Errors
///
/// Returns [`MissingProducer`] when some kernel reads a port no kernel
/// ordered before it materializes.
pub fn plan_dependencies(g: &PrimGraph, plan: &Plan) -> Result<Vec<Vec<usize>>, MissingProducer> {
    let mut first_producer: HashMap<korch_ir::PortRef, usize> = HashMap::new();
    for (i, k) in plan.kernels.iter().enumerate() {
        for o in &k.outputs {
            first_producer.entry(*o).or_insert(i);
        }
    }
    let mut all = Vec::with_capacity(plan.kernels.len());
    for (i, k) in plan.kernels.iter().enumerate() {
        let member_set: BTreeSet<NodeId> = k.members.iter().copied().collect();
        let mut deps: BTreeSet<usize> = BTreeSet::new();
        for &m in &k.members {
            let node = g.node(m);
            if node.kind.is_source() {
                continue;
            }
            for r in &node.inputs {
                // Mirrors the executors: sources exist before kernel 0 and
                // carry no edge; non-source member values stay kernel-local.
                if g.node(r.node).kind.is_source() || member_set.contains(&r.node) {
                    continue;
                }
                match first_producer.get(r) {
                    Some(&p) if p < i => {
                        deps.insert(p);
                    }
                    Some(&p) if p == i => {}
                    _ => {
                        return Err(MissingProducer {
                            kernel: i,
                            port: *r,
                        })
                    }
                }
            }
        }
        all.push(deps.into_iter().collect());
    }
    Ok(all)
}

/// [`ResourceClass`] of every kernel in `plan`, indexed like
/// `plan.kernels`. This is the classification the contention simulation
/// uses internally.
pub fn kernel_classes(g: &PrimGraph, plan: &Plan) -> Vec<ResourceClass> {
    plan.kernels
        .iter()
        .map(|k| {
            let member_set: BTreeSet<NodeId> = k.members.iter().copied().collect();
            let spec = kernel_spec(g, &member_set, &k.outputs);
            if spec.is_compute_intensive() {
                ResourceClass::Compute
            } else {
                ResourceClass::Memory
            }
        })
        .collect()
}

/// Schedules `plan` onto `num_streams` lanes and simulates the makespan
/// under the default full-sharing contention model.
///
/// Kernels are started greedily in plan order (the plan order is a valid
/// topological order of the kernel dependency DAG, so the list scheduler
/// never deadlocks). The result is deterministic.
///
/// # Panics
///
/// Panics if `num_streams == 0`, or if [`plan_dependencies`] rejects the
/// plan (a kernel reads a port no earlier kernel materializes).
pub fn schedule_streams(
    g: &PrimGraph,
    plan: &Plan,
    num_streams: usize,
    device: &Device,
) -> StreamSchedule {
    schedule_streams_with(g, plan, num_streams, device, &StreamContention::default())
}

/// [`schedule_streams`] with explicit [`StreamContention`] sharing rates.
///
/// # Panics
///
/// Panics if `num_streams == 0`, or if [`plan_dependencies`] rejects the
/// plan (a kernel reads a port no earlier kernel materializes).
pub fn schedule_streams_with(
    g: &PrimGraph,
    plan: &Plan,
    num_streams: usize,
    device: &Device,
    contention: &StreamContention,
) -> StreamSchedule {
    assert!(num_streams > 0, "need at least one stream");
    let n = plan.kernels.len();

    let deps = plan_dependencies(g, plan).unwrap_or_else(|e| panic!("{e}"));
    let mut jobs: Vec<Job> = plan
        .kernels
        .iter()
        .zip(deps)
        .zip(kernel_classes(g, plan))
        .map(|((k, deps), class)| {
            let launch = device.launch_overhead_us.min(k.latency.0);
            Job {
                deps,
                launch_left: launch,
                body_left: k.latency.0 - launch,
                class,
            }
        })
        .collect();

    // Event-driven simulation with processor sharing per resource class.
    let mut finished = vec![false; n];
    let mut finish_time = vec![0.0f64; n];
    let mut running: Vec<usize> = Vec::new(); // kernel indices
    let mut stream_of = vec![usize::MAX; n];
    let mut start_time = vec![0.0f64; n];
    let mut free_streams: Vec<usize> = (0..num_streams).rev().collect();
    let mut next_to_consider = 0usize;
    let mut started = vec![false; n];
    let mut t = 0.0f64;
    let mut n_done = 0usize;

    while n_done < n {
        // Start every ready kernel, in plan order, while streams are free.
        // Plan order may be blocked on dependencies while later kernels are
        // ready; scanning from `next_to_consider` keeps this O(n·S) overall.
        let mut i = next_to_consider;
        while i < n && !free_streams.is_empty() {
            if !started[i] && jobs[i].deps.iter().all(|&d| finished[d]) {
                let s = free_streams.pop().expect("checked non-empty");
                stream_of[i] = s;
                start_time[i] = t;
                started[i] = true;
                running.push(i);
            }
            if started[i] && i == next_to_consider {
                next_to_consider += 1;
            }
            i += 1;
        }
        debug_assert!(!running.is_empty(), "list scheduler stalled");

        // Progress rates at this instant: launches are uncontended; bodies
        // share their class's resource equally.
        let bodies_mem = running
            .iter()
            .filter(|&&k| jobs[k].launch_left <= 0.0 && jobs[k].class == ResourceClass::Memory)
            .count()
            .max(1);
        let bodies_cmp = running
            .iter()
            .filter(|&&k| jobs[k].launch_left <= 0.0 && jobs[k].class == ResourceClass::Compute)
            .count()
            .max(1);
        let rate = |k: usize| -> f64 {
            if jobs[k].launch_left > 0.0 {
                1.0
            } else {
                match jobs[k].class {
                    ResourceClass::Memory => contention.rate(ResourceClass::Memory, bodies_mem),
                    ResourceClass::Compute => contention.rate(ResourceClass::Compute, bodies_cmp),
                }
            }
        };
        // Time to the next phase change or completion.
        let mut dt = f64::INFINITY;
        for &k in &running {
            let remaining = if jobs[k].launch_left > 0.0 {
                jobs[k].launch_left
            } else {
                jobs[k].body_left
            };
            dt = dt.min(remaining / rate(k));
        }
        let dt = dt.max(1e-12);
        // Advance and retire.
        let rates: Vec<(usize, f64)> = running.iter().map(|&k| (k, rate(k))).collect();
        for (k, r) in rates {
            let progress = r * dt;
            if jobs[k].launch_left > 0.0 {
                jobs[k].launch_left -= progress;
                if jobs[k].launch_left < 1e-12 {
                    jobs[k].launch_left = 0.0;
                }
            } else {
                jobs[k].body_left -= progress;
            }
        }
        t += dt;
        running.retain(|&k| {
            if jobs[k].launch_left <= 0.0 && jobs[k].body_left <= 1e-9 {
                finished[k] = true;
                finish_time[k] = t;
                free_streams.push(stream_of[k]);
                n_done += 1;
                false
            } else {
                true
            }
        });
        free_streams.sort_unstable_by(|a, b| b.cmp(a));
    }

    let mut assignments: Vec<StreamAssignment> = (0..n)
        .map(|i| StreamAssignment {
            kernel: i,
            stream: stream_of[i],
            start_us: start_time[i],
            end_us: finish_time[i],
        })
        .collect();
    assignments.sort_by(|a, b| {
        a.start_us
            .partial_cmp(&b.start_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.kernel.cmp(&b.kernel))
    });
    StreamSchedule {
        assignments,
        makespan: Micros(t),
        num_streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{identify_kernels, IdentifyConfig};
    use crate::optimizer::{optimize, OptimizeConfig};
    use crate::state::enumerate_states;
    use korch_cost::{Backend, Profiler};
    use korch_ir::{EwFn, LinearFn, PortRef, PrimKind};
    use korch_tensor::{BinaryOp, MatMulSpec, ReduceKind, UnaryOp};

    fn orchestrate(g: &PrimGraph) -> Plan {
        let space = enumerate_states(g, 10_000);
        let cands = identify_kernels(
            g,
            &space,
            &Profiler::new(Device::v100()),
            &IdentifyConfig::default(),
            &[Backend::Generated, Backend::Vendor],
        );
        optimize(g, &cands, Some(&space), &OptimizeConfig::default())
            .unwrap()
            .0
    }

    /// Two independent branches: a big matmul and a long pointwise chain.
    fn heterogeneous_branches() -> PrimGraph {
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![512, 512],
                },
                vec![],
            )
            .unwrap();
        let w = g
            .add(
                PrimKind::Constant {
                    shape: vec![512, 512],
                    init: korch_ir::ConstInit::Random(1),
                },
                vec![],
            )
            .unwrap();
        let mm = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![x.into(), w.into()],
            )
            .unwrap();
        g.mark_output(mm).unwrap();
        // Independent memory-bound branch on a second input.
        let y = g
            .add(
                PrimKind::Input {
                    shape: vec![2048, 2048],
                },
                vec![],
            )
            .unwrap();
        let mut cur: PortRef = y.into();
        for _ in 0..3 {
            let e = g
                .add(PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)), vec![cur])
                .unwrap();
            let r = g
                .add(
                    PrimKind::Reduce {
                        kind: ReduceKind::Sum,
                        axis: 1,
                    },
                    vec![e.into()],
                )
                .unwrap();
            let b = g
                .add(
                    PrimKind::Broadcast {
                        axis: 1,
                        size: 2048,
                    },
                    vec![r.into()],
                )
                .unwrap();
            cur = g
                .add(
                    PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)),
                    vec![e.into(), b.into()],
                )
                .unwrap()
                .into();
        }
        g.mark_output(cur.node).unwrap();
        g
    }

    #[test]
    fn one_stream_equals_sequential_latency() {
        let g = heterogeneous_branches();
        let plan = orchestrate(&g);
        let s = schedule_streams(&g, &plan, 1, &Device::v100());
        assert!(
            (s.makespan.0 - plan.total_latency.0).abs() < 1e-6,
            "S=1 must reproduce Eq. 2: {} vs {}",
            s.makespan.0,
            plan.total_latency.0
        );
        // All kernels on stream 0, back to back.
        assert!(s.assignments.iter().all(|a| a.stream == 0));
    }

    #[test]
    fn streams_overlap_compute_with_memory() {
        // Hand-built two-kernel plan: a compute-bound GEMM and an
        // independent bandwidth-bound elementwise kernel. With two streams
        // their bodies overlap fully (different resource classes).
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![1024, 1024],
                },
                vec![],
            )
            .unwrap();
        let w = g
            .add(
                PrimKind::Constant {
                    shape: vec![1024, 1024],
                    init: korch_ir::ConstInit::Random(1),
                },
                vec![],
            )
            .unwrap();
        let mm = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![x.into(), w.into()],
            )
            .unwrap();
        let y = g
            .add(
                PrimKind::Input {
                    shape: vec![4096, 4096],
                },
                vec![],
            )
            .unwrap();
        let e = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                vec![y.into()],
            )
            .unwrap();
        g.mark_output(mm).unwrap();
        g.mark_output(e).unwrap();
        let device = Device::v100();
        let profiler = Profiler::new(device.clone());
        let mk = |members: Vec<korch_ir::NodeId>, out: korch_ir::NodeId, backend| {
            let set: std::collections::BTreeSet<_> = members.iter().copied().collect();
            let spec = korch_cost::kernel_spec(&g, &set, &[out.into()]);
            crate::plan::SelectedKernel {
                members,
                outputs: vec![out.into()],
                latency: profiler.latency(&spec, backend),
                backend,
            }
        };
        let kernels = vec![
            mk(vec![mm], mm, Backend::Vendor),
            mk(vec![e], e, Backend::Generated),
        ];
        let plan = Plan::from_kernels(kernels);

        let seq = schedule_streams(&g, &plan, 1, &device);
        let par = schedule_streams(&g, &plan, 2, &device);
        assert!(
            (seq.makespan.0 - plan.total_latency.0).abs() < 1e-9,
            "S=1 is sequential"
        );
        assert!(
            par.makespan.0 < seq.makespan.0 * 0.9,
            "compute/memory overlap should win: {} vs {}",
            par.makespan.0,
            seq.makespan.0
        );
        assert!(par.speedup_vs(&plan) > 1.1);
        // Different streams, overlapping spans.
        let a = &par.assignments[0];
        let b = &par.assignments[1];
        assert_ne!(a.stream, b.stream);
        assert!(
            a.start_us < b.end_us && b.start_us < a.end_us,
            "no overlap: {a:?} {b:?}"
        );
    }

    #[test]
    fn identical_memory_branches_gain_little_body_time() {
        // Four equal bandwidth-bound branches: bodies share HBM, so the
        // only saving is launch pipelining.
        let mut g = PrimGraph::new();
        let mut outs = Vec::new();
        for _ in 0..4 {
            let x = g
                .add(
                    PrimKind::Input {
                        shape: vec![1024, 1024],
                    },
                    vec![],
                )
                .unwrap();
            let e = g
                .add(
                    PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                    vec![x.into()],
                )
                .unwrap();
            outs.push(e);
        }
        for o in outs {
            g.mark_output(o).unwrap();
        }
        let plan = orchestrate(&g);
        let device = Device::v100();
        let seq = schedule_streams(&g, &plan, 1, &device);
        let par = schedule_streams(&g, &plan, 4, &device);
        let launch_budget = device.launch_overhead_us * plan.kernel_count() as f64;
        let saved = seq.makespan.0 - par.makespan.0;
        assert!(saved >= -1e-9, "streams must not hurt here: saved {saved}");
        assert!(
            saved <= launch_budget + 1e-6,
            "bandwidth-bound branches cannot save more than launch overlap: \
             saved {saved} vs launch budget {launch_budget}"
        );
    }

    /// `(start_us, end_us)` of every kernel, indexed like `plan.kernels`.
    fn spans(s: &StreamSchedule) -> Vec<(f64, f64)> {
        let mut spans = vec![(0.0, 0.0); s.assignments.len()];
        for a in &s.assignments {
            spans[a.kernel] = (a.start_us, a.end_us);
        }
        spans
    }

    #[test]
    fn dependencies_are_respected() {
        let g = heterogeneous_branches();
        let plan = orchestrate(&g);
        let deps = plan_dependencies(&g, &plan).unwrap();
        for streams in [1, 2, 4, 8] {
            let span = spans(&schedule_streams(&g, &plan, streams, &Device::v100()));
            for (i, producers) in deps.iter().enumerate() {
                for &p in producers {
                    assert!(
                        span[i].0 >= span[p].1 - 1e-9,
                        "kernel {i} started before its producer {p} finished"
                    );
                }
            }
        }
    }

    /// Two kernels materialize different ports of one `Split`; a third
    /// reads port 1. It waits on port 1's producer, not on whichever
    /// kernel materialized *a* port of the node first.
    #[test]
    fn a_reader_waits_on_the_producer_of_its_port() {
        let mut g = PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![4, 6] }, vec![])
            .unwrap();
        let split = g
            .add(
                PrimKind::Layout(korch_ir::LayoutFn::Split {
                    axis: 1,
                    sizes: vec![3, 3],
                }),
                vec![x.into()],
            )
            .unwrap();
        let port1 = PortRef {
            node: split,
            port: 1,
        };
        let tanh = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                vec![port1],
            )
            .unwrap();
        g.mark_output(tanh).unwrap();
        let kernel = |member, output: PortRef, latency| crate::plan::SelectedKernel {
            members: vec![member],
            outputs: vec![output],
            latency: Micros(latency),
            backend: Backend::Generated,
        };
        // Port 0's producer finishes long before port 1's.
        let plan = Plan::from_kernels([
            kernel(split, split.into(), 10.0),
            kernel(split, port1, 50.0),
            kernel(tanh, tanh.into(), 10.0),
        ]);
        let span = spans(&schedule_streams(&g, &plan, 3, &Device::v100()));
        assert!(span[0].1 < span[1].1, "{span:?}");
        assert!(
            span[2].0 >= span[1].1 - 1e-9,
            "the port-1 reader started before port 1 existed: {span:?}"
        );
    }

    #[test]
    fn makespan_never_exceeds_sequential() {
        let g = heterogeneous_branches();
        let plan = orchestrate(&g);
        for streams in [2, 3, 4, 16] {
            let s = schedule_streams(&g, &plan, streams, &Device::v100());
            assert!(
                s.makespan.0 <= plan.total_latency.0 + 1e-6,
                "S={streams} made things worse"
            );
        }
    }

    #[test]
    fn zero_contention_overlaps_identical_memory_branches() {
        // With memory_rate = 0 the four equal bandwidth-bound branches
        // overlap fully, unlike under the default full-sharing model.
        let mut g = PrimGraph::new();
        let mut outs = Vec::new();
        for _ in 0..4 {
            let x = g
                .add(
                    PrimKind::Input {
                        shape: vec![1024, 1024],
                    },
                    vec![],
                )
                .unwrap();
            let e = g
                .add(
                    PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                    vec![x.into()],
                )
                .unwrap();
            outs.push(e);
        }
        for o in outs {
            g.mark_output(o).unwrap();
        }
        // One kernel per branch (the BLP would fuse all four into one, which
        // leaves nothing to overlap).
        let device = Device::v100();
        let profiler = Profiler::new(device.clone());
        let kernels: Vec<_> = g
            .iter()
            .filter(|(_, n)| !n.kind.is_source())
            .map(|(id, _)| {
                let set: BTreeSet<NodeId> = [id].into_iter().collect();
                let spec = korch_cost::kernel_spec(&g, &set, &[id.into()]);
                crate::plan::SelectedKernel {
                    members: vec![id],
                    outputs: vec![id.into()],
                    latency: profiler.latency(&spec, Backend::Generated),
                    backend: Backend::Generated,
                }
            })
            .collect();
        let plan = Plan::from_kernels(kernels);
        let shared = schedule_streams(&g, &plan, 4, &device);
        let free = schedule_streams_with(
            &g,
            &plan,
            4,
            &device,
            &StreamContention {
                memory_rate: 0.0,
                compute_rate: 1.0,
            },
        );
        assert!(
            free.makespan.0 < shared.makespan.0 * 0.75,
            "uncontended bodies should overlap: {} vs {}",
            free.makespan.0,
            shared.makespan.0
        );
        // And full sharing (the default) must equal the rate-1.0 model.
        let explicit = schedule_streams_with(&g, &plan, 4, &device, &StreamContention::default());
        assert!((explicit.makespan.0 - shared.makespan.0).abs() < 1e-9);
    }

    #[test]
    fn lanes_partition_all_kernels_in_start_order() {
        let g = heterogeneous_branches();
        let plan = orchestrate(&g);
        let s = schedule_streams(&g, &plan, 3, &Device::v100());
        let lanes = s.lanes();
        assert_eq!(lanes.len(), 3);
        let mut seen: Vec<usize> = lanes.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..plan.kernel_count()).collect::<Vec<_>>());
        let start: HashMap<usize, f64> = s
            .assignments
            .iter()
            .map(|a| (a.kernel, a.start_us))
            .collect();
        for lane in &lanes {
            for w in lane.windows(2) {
                assert!(start[&w[0]] <= start[&w[1]], "lane out of start order");
            }
        }
    }

    #[test]
    fn stream_lanes_never_overlap_in_time() {
        let g = heterogeneous_branches();
        let plan = orchestrate(&g);
        let s = schedule_streams(&g, &plan, 3, &Device::v100());
        let mut by_stream: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
        for a in &s.assignments {
            by_stream
                .entry(a.stream)
                .or_default()
                .push((a.start_us, a.end_us));
        }
        for (stream, mut spans) in by_stream {
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                assert!(
                    w[1].0 >= w[0].1 - 1e-9,
                    "stream {stream} runs two kernels at once: {w:?}"
                );
            }
        }
    }
}
