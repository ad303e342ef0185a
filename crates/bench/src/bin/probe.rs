//! Internal timing probe.
//!
//! - `probe <model>`: how long does the full pipeline take?
//! - `probe members <model>`: what does each member of each kernel of the
//!   stitched plan cost? Every member a request runs — neither a source
//!   nor folded by `PlanExecutor::new` — is timed alone the way a walk
//!   runs it, on the operands it sees in a real run (min of
//!   [`MEMBER_CALLS`] warm calls) through `eval_prim_into`, into one
//!   set of output buffers reused across the calls. Each is reported with its
//!   achieved GB/s (operand + result bytes) or, for linear primitives,
//!   GFLOP/s — per member, per kernel and per primitive kind (convs per
//!   path: depthwise, pointwise, panel). Two first lines count the folded
//!   members and the bytes the executor holds of them, and the bytes a
//!   warm run allocates (`ArenaStats::fresh_bytes`) against what one run
//!   state holds (`MemoryReport::state_bytes`: its planned buffers) and
//!   the outputs it hands the caller.
//! - `probe blp <model>`: what does each orchestration BLP cost? Replays
//!   `Korch::optimize` stage by stage, one job after the other, and prints
//!   one line per (partition, variant) it takes — a variant whose
//!   canonical numbering equals an earlier one's as `dup of v<k>`,
//!   unsolved; every
//!   other one with its problem size, what identification did (distinct
//!   member sets `priced`, state pairs the latency floor `skipped`
//!   unread, candidates `kept` as BLP variables) and its time, the
//!   search's nodes, LP solves and pivots, solve time and the objective
//!   against the warm start the search began from (the best of greedy,
//!   chain-DP and seeds) and the cutoff it was solved with (the cheapest
//!   earlier warm start, `-` for none) — then the model's totals, and one
//!   `Korch::optimize` wall time (its jobs on every core) against the
//!   identify + solve total: the speedup and parallel efficiency.
use korch_core::{partition, stitch, Korch, KorchConfig};
use korch_cost::{Backend, Device, Profiler};
use korch_exec::{eval_prim, eval_prim_into, materialize_const};
use korch_fission::fission;
use korch_ir::{LinearFn, NodeId, NodeKind, OpGraph, PortRef, PrimGraph, PrimKind};
use korch_models::SegformerConfig;
use korch_orch::{
    enumerate_states, identify_kernels, OrchError, OrchestrationBlp, DEFAULT_MAX_STATES,
};
use korch_runtime::{PlanExecutor, RuntimeConfig, SlotInfo};
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
        "optimized in {:.1} ms: {:.3} ms, {} kernels, stats {:?}",
        t0.elapsed().as_secs_f64() * 1e3,
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
/// (partition, variant) the pipeline takes, in its order, a repeated
/// partition once, each later variant solved with the pipeline's cutoff.
fn blp_table(g: &OpGraph) {
    let config = KorchConfig::default();
    let profiler = Profiler::new(Device::v100());
    let backends = [Backend::Generated, Backend::Vendor];
    let max_states = config.orchestrator.max_states.unwrap_or(DEFAULT_MAX_STATES);
    let prims = fission(g).expect("fission").prim_graph;
    let parts = partition(&prims, config.partition_max_prims).expect("partition");
    println!(
        "part var prims states priced skipped  kept identify_ms   vars x rows  nodes   lps  pivots  solve_ms  objective_us    warm_us  cutoff_us"
    );
    let mut seen = HashSet::new();
    let (mut identify_total, mut solve_total) = (0.0, 0.0);
    let (mut nodes, mut lps, mut pivots) = (0, 0, 0);
    for (pi, part) in parts.iter().enumerate() {
        if !seen.insert(part.graph.fingerprint()) {
            continue;
        }
        let variants: Vec<PrimGraph> = (optimize_graph(&part.graph, &config.transform).iter())
            .take(config.variants_to_orchestrate.max(1))
            .map(PrimGraph::canonical)
            .collect();
        let keys: Vec<u64> = variants.iter().map(PrimGraph::fingerprint).collect();
        // The warm starts of the variants solved so far, infinity for none.
        let mut warm_starts: Vec<f64> = Vec::new();
        for (vi, v) in variants.iter().enumerate() {
            let first = keys.iter().position(|&k| k == keys[vi]).unwrap_or(vi);
            if first < vi {
                println!("{pi:>4} {vi:>3}  dup of v{first}");
                continue;
            }
            let space = enumerate_states(v, max_states);
            let identify = &config.orchestrator.identify;
            let (identify_ms, cands) =
                timed(|| identify_kernels(v, &space, &profiler, identify, &backends));
            let cutoff = Some(warm_starts.iter().copied().fold(f64::INFINITY, f64::min))
                .filter(|c| c.is_finite());
            let (solve_ms, solved) = timed(|| {
                let blp =
                    OrchestrationBlp::build(v, &cands, Some(&space), &config.orchestrator.optimize);
                let warm = blp.as_ref().ok().and_then(|b| b.warm_objective_us());
                warm_starts.push(warm.unwrap_or(f64::INFINITY));
                blp?.solve(cutoff)
            });
            let prims = v.iter().filter(|(_, n)| !n.kind.is_source()).count();
            let head = format!(
                "{pi:>4} {vi:>3} {prims:>5} {:>6} {:>6} {:>7} {:>5} {identify_ms:>11.1}",
                space.states.len(),
                cands.priced,
                cands.skipped,
                cands.kernels.len()
            );
            let cutoff = cutoff.map_or("-".to_string(), |c| format!("{c:.4}"));
            match solved {
                Ok((plan, r)) => {
                    println!(
                        "{head} {:>6} x {:<4} {:>6} {:>5} {:>7} {solve_ms:>9.1} {:>13.4} {:>10.4} {cutoff:>10}",
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
                // The pipeline skips a variant no kernel set covers, and
                // one with no warm start and nothing below its cutoff.
                Err(OrchError::Infeasible(why)) => println!("{head}  infeasible: {why}"),
                Err(OrchError::Cutoff) => println!("{head}  nothing below cutoff {cutoff}"),
                Err(e) => panic!("partition {pi} variant {vi}: {e}"),
            }
            identify_total += identify_ms;
            solve_total += solve_ms;
        }
    }
    println!(
        "total: identify {identify_total:.1} ms, solve {solve_total:.1} ms, {nodes} nodes, {lps} LP solves, {pivots} pivots"
    );
    let (optimize_ms, _) = timed(|| {
        Korch::new(Device::v100(), config)
            .optimize(g)
            .expect("optimize")
    });
    let sequential_ms = identify_total + solve_total;
    let speedup = sequential_ms / optimize_ms;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parallel: Korch::optimize {optimize_ms:.1} ms on {cores} cores for identify + solve {sequential_ms:.1} ms one after the other: {speedup:.2}x, efficiency {:.2}",
        speedup / cores as f64
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
    let exec = PlanExecutor::new(g, plan, RuntimeConfig::with_lanes(1)).expect("executor");
    let folded: HashSet<NodeId> = exec.folded().iter().copied().collect();
    // Folded ports a kernel reads are the source slots of non-source nodes.
    let held: u64 = (exec.slot_table().slots.iter())
        .filter(|s| s.source && !g.node(s.port.node).kind.is_source())
        .map(SlotInfo::bytes)
        .sum();
    println!("folded: {} members, {held} B held", folded.len());

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

    // Warm the executor, then count what one more run allocates.
    let inputs: Vec<Tensor> = (g.iter())
        .filter_map(|(_, n)| match &n.kind {
            PrimKind::Input { shape } => Some(Tensor::random(shape.clone(), 2)),
            _ => None,
        })
        .collect();
    for _ in 0..3 {
        exec.execute(&inputs).expect("execute");
    }
    let before = exec.arena_stats().fresh_bytes;
    exec.execute(&inputs).expect("execute");
    println!(
        "fresh: {} B per warm run, state: {} B held",
        exec.arena_stats().fresh_bytes - before,
        exec.memory_report().state_bytes
    );
    // What a warm run must allocate: the graph outputs it hands the
    // caller (a source output is a constant or the caller's own input).
    let table = exec.slot_table();
    let handed: u64 = (table.slots.iter())
        .filter(|s| g.outputs().contains(&s.port) && !s.source)
        .map(SlotInfo::bytes)
        .sum();
    println!("by design: {handed} B per run (the outputs handed out)");

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
            if node.kind.is_source() || folded.contains(&m) {
                continue;
            }
            let ins: Vec<&Tensor> = node.inputs.iter().map(|r| &values[r]).collect();
            let out = &values[&PortRef::from(m)];
            let mut bufs: Vec<Tensor> = (0..node.out_metas.len())
                .map(|port| values[&PortRef { node: m, port }].clone())
                .collect();
            let us = (0..MEMBER_CALLS)
                .map(|_| {
                    let t = Instant::now();
                    eval_prim_into(black_box(&node.kind), black_box(&ins), &mut bufs, m.0).unwrap();
                    black_box(&bufs);
                    t.elapsed().as_secs_f64() * 1e6
                })
                .fold(f64::INFINITY, f64::min);
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
