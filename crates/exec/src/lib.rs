//! Interpreters for Korch graphs and plans — the functional half of the
//! paper's executable generator (§5.3).
//!
//! Three execution modes over CPU tensors:
//!
//! - [`execute_ops`]: reference semantics of an operator graph, evaluated
//!   from each operator's mathematical definition;
//! - [`execute_prims`]: a primitive graph, every primitive once in
//!   topological order (the unoptimized baseline);
//! - [`execute_plan`]: an orchestrated kernel [`korch_orch::Plan`] — each
//!   kernel recomputes its member primitives (redundant computation and
//!   all) and materializes only its declared outputs.
//!
//! Agreement between the three modes is the project's functional
//! correctness argument: fission, graph transformations and BLP
//! orchestration must all preserve the program's meaning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod error;
mod ops;
mod prims;
mod tile;

pub use chain::CompiledChain;
pub use error::ExecError;
pub use ops::{eval_op, execute_ops};
pub use prims::{eval_prim, eval_prim_into, execute_plan, execute_prims, materialize_const};
pub use tile::{prim_tilability, Tilability};
