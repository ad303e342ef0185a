//! The end-to-end Korch pipeline (paper Fig. 1), tying together the
//! workspace crates:
//!
//! 1. **graph partitioner** — splits the primitive graph at narrow
//!    boundaries to bound the per-subgraph optimization space (§2);
//! 2. **operator fission** (`korch-fission`) — operators → primitives (§3);
//! 3. **primitive graph optimizer** (`korch-transform`) — TASO-style
//!    rewrites, several variants per partition (§3);
//! 4. **kernel orchestration** (`korch-orch` + `korch-blp` + `korch-cost`)
//!    — candidate kernels and the optimal BLP selection (§4–5);
//! 5. **executable** — a kernel [`korch_orch::Plan`] per partition,
//!    executable and verifiable on CPU via `korch-exec` (§5.3), which
//!    [`stitch`] concatenates into the one whole-program plan a
//!    [`CompiledModel`] runs on `korch-runtime`.
//!
//! ```
//! use korch_core::{Korch, KorchConfig};
//! use korch_cost::Device;
//! use korch_ir::{OpGraph, OpKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = OpGraph::new();
//! let x = g.add(OpKind::Input { shape: vec![32, 64] }, vec![])?;
//! let sm = g.add(OpKind::Softmax { axis: 1 }, vec![x.into()])?;
//! g.mark_output(sm)?;
//! let korch = Korch::new(Device::v100(), KorchConfig::default());
//! let optimized = korch.optimize(&g)?;
//! assert!(optimized.kernel_count() >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod partition;
mod pipeline;
mod stitch;

pub use compiled::{CompiledModel, CompiledPartition, RecalibrationReport};
pub use partition::{partition, Partition};
pub use pipeline::{Korch, KorchConfig, KorchError, Optimized, OptimizedPartition, PipelineStats};
pub use stitch::stitch;
