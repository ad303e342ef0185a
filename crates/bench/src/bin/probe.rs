//! Internal timing probe.
//!
//! - `probe <model>`: how long does the full pipeline take?
//! - `probe members <model>`: what does each member of each kernel of the
//!   stitched plan cost? Every non-source member is timed alone through
//!   `eval_prim` on the operands it sees in a real run (min of
//!   [`MEMBER_CALLS`] warm calls) and reported with its achieved GB/s
//!   (operand + result bytes) or, for linear primitives, GFLOP/s — per
//!   member, per kernel and per primitive kind (convs per path:
//!   depthwise, pointwise, panel).
//! - `probe blp <model>`: what does each orchestration BLP cost? Replays
//!   `Korch::optimize` stage by stage and prints one line per orchestrated
//!   (partition, variant) — problem size, identification time, the
//!   search's nodes, LP solves and pivots, solve time and the objective
//!   against the warm start the search began from (the best of greedy,
//!   chain-DP and seeds) — then the model's totals.
use korch_core::{partition, stitch, Korch, KorchConfig};
use korch_cost::{Backend, Device, Profiler};
use korch_exec::{eval_prim, materialize_const};
use korch_fission::fission;
use korch_ir::{LinearFn, NodeKind, OpGraph, PortRef, PrimGraph, PrimKind};
use korch_models::SegformerConfig;
use korch_orch::{enumerate_states, identify_kernels, optimize, OrchError};
use korch_tensor::{conv2d_flops, matmul_flops, Tensor};
use korch_transform::optimize_graph;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Warm calls per member; the minimum is reported.
const MEMBER_CALLS: usize = 200;

fn model(which: &str) -> OpGraph {
    match which {
        "candy" => korch_models::candy(korch_models::CandyConfig::default()),
        "segformer" => korch_models::segformer(SegformerConfig::default()),
        // The e2e-bench models: `exec_compute` and `exec_dispatch`/`serve_closed`.
        "segformer64" => korch_bench::segformer64(),
        "segformer32" => korch_models::segformer(SegformerConfig::tiny()),
        // ... and the two `compile_suite` compiles.
        "candy32" => korch_models::candy(korch_models::CandyConfig {
            resolution: 32,
            width: 8,
            residual_blocks: 0,
        }),
        "effvit64" => korch_models::subgraphs::efficientvit_attention(64, 16),
        "yolov4" => korch_models::yolov4(korch_models::YoloConfig::v4()),
        "yolox" => korch_models::yolox_nano(korch_models::YoloConfig::x_nano()),
        "evit" => korch_models::efficientvit(korch_models::EfficientVitConfig::default()),
        _ => panic!("unknown model {which}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (members, which) = match args.get(1).map(String::as_str) {
        Some("members") => (true, args.get(2).map(String::as_str)),
        Some("blp") => return blp_table(&model(args.get(2).map_or("candy", String::as_str))),
        other => (false, other),
    };
    let which = which.unwrap_or("candy");
    let g = model(which);
    println!("{which}: {} ops", g.len());
    let t0 = Instant::now();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let opt = korch.optimize(&g).expect("optimize");
    println!(
        "optimized in {:.1}s: {:.3} ms, {} kernels, stats {:?}",
        t0.elapsed().as_secs_f64(),
        opt.latency_ms(),
        opt.kernel_count(),
        opt.stats()
    );
    if members {
        let (graph, plan) = stitch(&opt).expect("stitch");
        member_table(&graph, &plan);
    }
}

/// Milliseconds `f` took, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// `Korch::optimize` at its defaults, one stage at a time: every
/// (partition, variant) the pipeline orchestrates, in its order, a repeated
/// partition once.
fn blp_table(g: &OpGraph) {
    let config = KorchConfig::default();
    let profiler = Profiler::new(Device::v100());
    let backends = [Backend::Generated, Backend::Vendor];
    let max_states = config.orchestrator.max_states.unwrap_or(1_500);
    let prims = fission(g).expect("fission").prim_graph;
    let parts = partition(&prims, config.partition_max_prims).expect("partition");
    println!(
        "part var prims states cands identify_ms   vars x rows  nodes   lps  pivots  solve_ms  objective_us    warm_us"
    );
    let mut seen = HashSet::new();
    let (mut identify_total, mut solve_total) = (0.0, 0.0);
    let (mut nodes, mut lps, mut pivots) = (0, 0, 0);
    for (pi, part) in parts.iter().enumerate() {
        if !seen.insert(part.graph.fingerprint()) {
            continue;
        }
        let variants = optimize_graph(&part.graph, &config.transform);
        let take = config.variants_to_orchestrate.max(1);
        for (vi, v) in variants.iter().take(take).enumerate() {
            let space = enumerate_states(v, max_states);
            let identify = &config.orchestrator.identify;
            let (identify_ms, cands) =
                timed(|| identify_kernels(v, &space, &profiler, identify, &backends));
            let (solve_ms, solved) =
                timed(|| optimize(v, &cands, Some(&space), &config.orchestrator.optimize));
            let prims = v.iter().filter(|(_, n)| !n.kind.is_source()).count();
            let head = format!(
                "{pi:>4} {vi:>3} {prims:>5} {:>6} {:>5} {identify_ms:>11.1}",
                space.states.len(),
                cands.kernels.len()
            );
            match solved {
                Ok((plan, r)) => {
                    println!(
                        "{head} {:>6} x {:<4} {:>6} {:>5} {:>7} {solve_ms:>9.1} {:>13.4} {:>10.4}",
                        r.num_candidates,
                        r.num_constraints,
                        r.solver_nodes,
                        r.solver_lp_solves,
                        r.solver_pivots,
                        plan.total_latency.0,
                        r.warm_objective_us
                    );
                    nodes += r.solver_nodes;
                    lps += r.solver_lp_solves;
                    pivots += r.solver_pivots;
                }
                // The pipeline skips a variant no kernel set covers.
                Err(OrchError::Infeasible(why)) => println!("{head}  infeasible: {why}"),
                Err(e) => panic!("partition {pi} variant {vi}: {e}"),
            }
            identify_total += identify_ms;
            solve_total += solve_ms;
        }
    }
    println!(
        "total: identify {identify_total:.1} ms, solve {solve_total:.1} ms, {nodes} nodes, {lps} LP solves, {pivots} pivots"
    );
}

/// The per-kind key of a primitive: its label without the parameters
/// that differ between calls of one loop. A conv is keyed by the path
/// `korch-tensor` runs it on: the direct depthwise loop, the borrowed
/// pointwise panel, or a filled column panel.
fn kind_key(kind: &PrimKind, ins: &[&Tensor]) -> String {
    match kind {
        PrimKind::Broadcast { .. } => "bcast".into(),
        PrimKind::Reduce { kind, .. } => format!("reduce({})", kind.name()),
        PrimKind::Linear(LinearFn::Conv2d {
            stride,
            padding,
            groups,
        }) => {
            let [o, cg, kh, kw] = ins[1].shape() else {
                return kind.label();
            };
            let path = if *cg == 1 && *o == *groups {
                "depthwise"
            } else if (*kh, *kw, *stride, *padding) == (1, 1, 1, 0) {
                "pointwise"
            } else {
                "panel"
            };
            format!("linear(conv2d/{path})")
        }
        other => other.label(),
    }
}

/// FLOPs of a linear primitive producing `out` from `ins`; `None` for
/// every memory-bound kind.
fn linear_flops(kind: &PrimKind, ins: &[&Tensor], out: &Tensor) -> Option<u64> {
    let PrimKind::Linear(l) = kind else {
        return None;
    };
    let o = out.shape();
    Some(match l {
        LinearFn::MatMul { spec } => {
            let a = ins[0].shape();
            let k = a[a.len() - if spec.trans_a { 2 } else { 1 }];
            let (m, n) = (o[o.len() - 2], o[o.len() - 1]);
            matmul_flops(out.numel() / (m * n).max(1), m, n, k)
        }
        LinearFn::Conv2d { .. } => {
            let w = ins[1].shape();
            conv2d_flops(o[0], o[1], o[2], o[3], w[1], w[2], w[3])
        }
    })
}

/// `12.3 GB/s` or `4.5 GFLOP/s` of `work` units done in `us`.
fn rate(work: f64, us: f64, unit: &str) -> String {
    format!("{:7.2} {unit}", work / us.max(1e-3) / 1e3)
}

fn member_table(g: &PrimGraph, plan: &korch_orch::Plan) {
    // One real run of the primitive graph, every port kept, so each
    // member below is timed on the operands it sees in a request.
    let mut values: HashMap<PortRef, Tensor> = HashMap::new();
    let mut seed = 1u64;
    for (id, node) in g.iter() {
        let outs = match &node.kind {
            PrimKind::Input { shape } => {
                seed += 1;
                vec![Tensor::random(shape.clone(), seed)]
            }
            PrimKind::Constant { shape, init } => vec![materialize_const(shape, init)],
            kind => {
                let ins: Vec<&Tensor> = node.inputs.iter().map(|r| &values[r]).collect();
                eval_prim(kind, &ins, id.0).expect("eval_prim")
            }
        };
        for (port, t) in outs.into_iter().enumerate() {
            values.insert(PortRef { node: id, port }, t);
        }
    }

    // kind → (calls, µs, bytes, flops)
    let mut by_kind: BTreeMap<String, (usize, f64, f64, f64)> = BTreeMap::new();
    let mut total_us = 0.0;
    for (ki, kernel) in plan.kernels.iter().enumerate() {
        let mut members = kernel.members.clone();
        members.sort_unstable();
        let mut rows = Vec::new();
        let mut kernel_us = 0.0;
        for m in members {
            let node = g.node(m);
            if node.kind.is_source() {
                continue;
            }
            let ins: Vec<&Tensor> = node.inputs.iter().map(|r| &values[r]).collect();
            let us = (0..MEMBER_CALLS)
                .map(|_| {
                    let t = Instant::now();
                    black_box(eval_prim(black_box(&node.kind), black_box(&ins), m.0).unwrap());
                    t.elapsed().as_secs_f64() * 1e6
                })
                .fold(f64::INFINITY, f64::min);
            let out = &values[&PortRef::from(m)];
            let out_bytes: usize = node.out_metas.iter().map(|t| t.byte_size()).sum();
            let bytes = (ins.iter().map(|t| t.byte_size()).sum::<usize>() + out_bytes) as f64;
            let flops = linear_flops(&node.kind, &ins, out);
            let speed = match flops {
                Some(f) => rate(f as f64, us, "GFLOP/s"),
                None => rate(bytes, us, "GB/s"),
            };
            rows.push(format!(
                "    {:<22} {:<18} {us:9.2} us  {speed}",
                node.kind.label(),
                format!("{:?}", out.shape())
            ));
            let e = by_kind.entry(kind_key(&node.kind, &ins)).or_default();
            e.0 += 1;
            e.1 += us;
            match flops {
                Some(f) => e.3 += f as f64,
                None => e.2 += bytes,
            }
            kernel_us += us;
        }
        println!("kernel {ki:>3}: {} members, {kernel_us:.1} us", rows.len());
        rows.iter().for_each(|r| println!("{r}"));
        total_us += kernel_us;
    }

    println!("\nper primitive kind (sum of warm per-member minima, {total_us:.0} us in all):");
    let mut kinds: Vec<_> = by_kind.into_iter().collect();
    kinds.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    for (kind, (calls, us, bytes, flops)) in kinds {
        let speed = if flops > 0.0 {
            rate(flops, us, "GFLOP/s")
        } else {
            rate(bytes, us, "GB/s")
        };
        println!("  {kind:<26} {calls:>4} calls {us:9.1} us  {speed}");
    }
}
