//! Benchmark harnesses regenerating every table and figure of the paper's
//! evaluation. Shared reporting helpers live here; each figure or table has
//! a binary under `src/bin/` named after it (`fig4` … `fig13`,
//! `table2`), whose module doc says what it reproduces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

/// The 64×64 Segformer `e2e-bench` runs as `exec_compute` — the model the
/// probes and the BLP bench size.
pub fn segformer64() -> korch_ir::OpGraph {
    korch_models::segformer(korch_models::SegformerConfig {
        resolution: 64,
        batch: 1,
        dims: vec![16, 32],
        blocks: 1,
        sr_ratios: vec![2, 1],
        decoder_dim: 32,
    })
}
