//! Figures 8–10 (EfficientViT attention case study, §6.4 "Redundant
//! Computing"): TensorRT maps the block to 12 kernels; Korch — after the
//! primitive-graph transformations of Fig. 9 — uses far fewer, executes the
//! Reshape/Transpose chain redundantly in several kernels, and fixes the
//! 1024:1 GEMM layout. Paper: 3.29x for the whole block; the layout-fixed
//! MatMul alone is 3.52x faster.

use korch_baselines::{orchestrate_baseline, Baseline};
use korch_core::{Korch, KorchConfig};
use korch_cost::{gemm_shape_efficiency, Device, GemmShape};
use korch_models::subgraphs::efficientvit_attention;

fn main() {
    let device = Device::v100();
    // Paper's block: 1024 tokens (32x32 stage) with a narrow head dim.
    let g = efficientvit_attention(1024, 16);

    let trt = orchestrate_baseline(Baseline::TensorRt, &g, &device).expect("trt baseline");
    let korch = Korch::new(device.clone(), KorchConfig::default());
    let optimized = korch.optimize(&g).expect("korch");

    let a = trt.total_latency.as_millis();
    let b = optimized.latency_ms();
    println!("Figure 10: EfficientViT attention block (V100)\n");
    println!(
        "  TensorRT strategy (Fig 8a): {a:8.4} ms   {:3} kernels",
        trt.kernel_count()
    );
    println!(
        "  Korch strategy    (Fig 8b): {b:8.4} ms   {:3} kernels",
        optimized.kernel_count()
    );
    println!("\n  block speedup: {:.2}x   (paper: 3.29x)", a / b);
    println!(
        "  kernels saved: {}   (paper: 5)",
        trt.kernel_count().saturating_sub(optimized.kernel_count())
    );

    // Redundant computation evidence (Fig 8b executes the Reshape/Transpose
    // chain in three kernels).
    let max_exec = optimized
        .partitions()
        .iter()
        .flat_map(|p| p.plan.execution_counts().into_values())
        .max()
        .unwrap_or(1);
    println!("  max executions of one primitive in Korch's plan: {max_exec}");

    // The Fig. 8 layout effect in isolation: the normalizer GEMM
    // [n, d] x [d, 1] has a 1024:1 aspect; folding the transpose flips it.
    let skinny = GemmShape {
        batch: 1,
        m: 1024,
        n: 1,
        k: 16,
        mr_rows: 1024,
    };
    let fixed = GemmShape {
        batch: 1,
        m: 16,
        n: 1024,
        k: 16,
        mr_rows: 16,
    };
    let ratio = gemm_shape_efficiency(fixed) / gemm_shape_efficiency(skinny);
    println!("\n  GEMM layout effect (cost model): {ratio:.2}x   (paper k5 vs k8: 3.52x)");

    println!("\n  TensorRT per-kernel breakdown (members, ms):");
    for k in &trt.kernels {
        let (m, ms) = (k.members.len(), k.latency.as_millis());
        println!("    {m:3} prims  {ms:.4} ms");
    }
}
