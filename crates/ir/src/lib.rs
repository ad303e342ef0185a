//! Intermediate representations for the Korch reproduction.
//!
//! Two IRs share one generic DAG ([`Graph`]):
//!
//! - the **operator graph** ([`OpGraph`], nodes of [`OpKind`]): the input
//!   tensor program, an ONNX-style computation graph (paper §2);
//! - the **primitive graph** ([`PrimGraph`], nodes of [`PrimKind`]): the
//!   result of operator fission (paper §3), where every node is a basic
//!   tensor-algebra primitive with a uniform parallelism degree and memory
//!   access pattern.
//!
//! Shape inference runs eagerly on insertion, so any graph you can build is
//! shape-correct. [`Graph::reachability`] and [`Graph::is_convex`] provide
//! the convex-subgraph machinery of paper §4 (Definition 1).
//!
//! ```
//! use korch_ir::{OpGraph, OpKind};
//! use korch_tensor::UnaryOp;
//!
//! # fn main() -> Result<(), korch_ir::IrError> {
//! let mut g = OpGraph::new();
//! let x = g.add(OpKind::Input { shape: vec![4, 16] }, vec![])?;
//! let sm = g.add(OpKind::Softmax { axis: 1 }, vec![x.into()])?;
//! let relu = g.add(OpKind::Unary(korch_tensor::UnaryOp::Relu), vec![sm.into()])?;
//! g.mark_output(relu)?;
//! assert_eq!(g.meta(relu).shape(), &[4, 16]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
mod meta;
mod op;
mod prim;

pub use error::IrError;
pub use graph::{Graph, Node, NodeId, NodeKind, PortRef, Reachability};
pub use meta::{broadcast_shapes, TensorMeta};
pub use op::{OpGraph, OpKind};
pub use prim::{ConstInit, EwFn, LayoutFn, LinearFn, PrimCategory, PrimGraph, PrimKind, PrimStats};
