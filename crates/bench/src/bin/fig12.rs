//! Figure 12 (Candy case study, §6.4 "Map one operator to different
//! kernels"): the `InstanceNorm → ReLU → Pad` pattern. TensorRT runs three
//! dedicated kernels; Korch decomposes InstanceNorm and fuses its
//! elementwise tail with the following ReLU and Pad. Paper: 0.0911 ms vs
//! 0.0692 ms = 1.32x.

use korch_baselines::{orchestrate_baseline, Baseline};
use korch_core::{Korch, KorchConfig};
use korch_cost::Device;
use korch_models::subgraphs::instance_norm_block;

fn main() {
    let device = Device::v100();
    let g = instance_norm_block(32, 224); // Candy's early feature maps

    let trt = orchestrate_baseline(Baseline::TensorRt, &g, &device).expect("trt");
    let korch = Korch::new(device.clone(), KorchConfig::default());
    let optimized = korch.optimize(&g).expect("korch");

    println!("Figure 12: Candy InstanceNorm->ReLU->Pad pattern (V100)\n");
    println!("  TensorRT ({} kernels):", trt.kernel_count());
    for (i, k) in trt.kernels.iter().enumerate() {
        let (m, ms) = (k.members.len(), k.latency.as_millis());
        println!("    k{}: {m:2} prims  {ms:.4} ms", i + 1);
    }
    let a = trt.total_latency.as_millis();
    println!("    total: {a:.4} ms   (paper: 0.0911 ms in 3 kernels)");

    println!("\n  Korch ({} kernels):", optimized.kernel_count());
    let mut total_b = 0.0;
    let mut i = 0;
    for part in optimized.partitions() {
        for k in &part.plan.kernels {
            i += 1;
            let ms = k.latency.as_millis();
            total_b += ms;
            println!("    k{}: {:2} prims  {ms:.4} ms", i, k.members.len());
        }
    }
    println!("    total: {total_b:.4} ms   (paper: 0.0692 ms in 4 kernels)");
    println!("\n  speedup: {:.2}x   (paper: 1.32x)", a / total_b);
}
