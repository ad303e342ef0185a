//! Figure 4 + §6.4 (Segformer self-attention): kernel identification on the
//! softmax self-attention subgraph, and Korch mapping the Softmax operator
//! across several kernels for a 1.50x win over TensorRT on the block.

use korch_baselines::{orchestrate_baseline, Baseline};
use korch_core::{Korch, KorchConfig};
use korch_cost::{Backend, Device, Profiler};
use korch_fission::fission;
use korch_models::subgraphs::{segformer_attention, softmax_attention};
use korch_orch::{enumerate_states, identify_kernels, IdentifyConfig};

fn main() {
    let device = Device::v100();

    // --- Kernel identification on the Fig. 4a-style subgraph ---
    let g = softmax_attention(64, 64);
    let f = fission(&g).expect("fission");
    let space = enumerate_states(&f.prim_graph, 10_000);
    let cands = identify_kernels(
        &f.prim_graph,
        &space,
        &Profiler::new(device.clone()),
        &IdentifyConfig::default(),
        &[Backend::Generated, Backend::Vendor],
    );
    let n_prims = f
        .prim_graph
        .nodes()
        .iter()
        .filter(|n| !n.kind.is_source())
        .count();
    println!("Figure 4: kernel identification on the softmax-attention subgraph\n");
    println!("  primitives:            {n_prims}");
    println!("  execution states:      {}", space.states.len());
    println!("  member sets priced:    {}", cands.priced);
    println!("  candidate kernels:     {}", cands.kernels.len());
    println!("  (paper's Fig 4 example: 12 primitives -> 21 kernels)\n");

    // --- §6.4: Softmax mapped to several kernels on Segformer attention ---
    let attn = segformer_attention(1024, 64, 4);
    let trt = orchestrate_baseline(Baseline::TensorRt, &attn, &device).expect("trt");
    let korch = Korch::new(device.clone(), KorchConfig::default());
    let optimized = korch.optimize(&attn).expect("korch");
    let a = trt.total_latency.as_millis();
    let b = optimized.latency_ms();
    println!("Segformer self-attention block (V100):");
    println!("  TensorRT: {a:8.4} ms   {:3} kernels", trt.kernel_count());
    println!(
        "  Korch:    {b:8.4} ms   {:3} kernels",
        optimized.kernel_count()
    );
    println!("  speedup: {:.2}x   (paper: 1.50x)", a / b);

    // How many kernels touch softmax primitives in Korch's plan?
    // The softmax lowers to exp/reduce/broadcast/div; count kernels that
    // execute at least one elementwise-exp or div/reduce/broadcast prim.
    let mut softmax_kernels = 0usize;
    for part in optimized.partitions() {
        for k in &part.plan.kernels {
            let touches = k.members.iter().any(|&m| {
                matches!(
                    part.part.graph.node(m).kind,
                    korch_ir::PrimKind::Reduce { .. } | korch_ir::PrimKind::Broadcast { .. }
                )
            });
            if touches {
                softmax_kernels += 1;
            }
        }
    }
    println!(
        "  kernels touching softmax's reduce/broadcast primitives: {softmax_kernels}\n  \
         (paper Fig 2c maps Softmax across 4 kernels)"
    );
}
