//! Analytical GPU cost model: the Korch reproduction's substitute for the
//! paper's kernel profiler (§5.2), which measured candidate kernels on real
//! V100/A100 GPUs via TVM MetaSchedule and vendor libraries.
//!
//! The binary-linear-programming orchestrator only consumes *latencies per
//! candidate kernel*, so any cost oracle that preserves the paper's decision
//! structure — fusion saves launches and intermediate traffic, GEMM layout
//! matters, over-fused generated kernels fall off a cliff — reproduces the
//! paper's qualitative results. The roofline terms are documented in the
//! `model` module; the fitted corrections in [`Calibration`].
//!
//! ```
//! use korch_cost::{Backend, Device, Profiler, KernelSpec};
//!
//! let profiler = Profiler::new(Device::v100());
//! let spec = KernelSpec {
//!     n_prims: 2,
//!     input_bytes: 1 << 20,
//!     output_bytes: 1 << 20,
//!     pointwise_flops: 1 << 18,
//!     linear: vec![],
//!     passes: 1,
//!     pattern_classes: 1,
//!     has_opaque: false,
//! };
//! let t = profiler.latency(&spec, Backend::Generated);
//! assert!(t.0 > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod model;
mod spec;

pub use device::Device;
pub use model::{gemm_shape_efficiency, Backend, Calibration, CalibrationSample, Micros, Profiler};
pub use spec::{
    kernel_spec, member_spec, output_bytes, GemmShape, KernelClass, KernelSpec, PatternClass,
};
