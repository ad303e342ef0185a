//! Primitive-graph optimizer (paper §3, Figs. 2b and 9): TASO-style rewrite
//! rules over the primitive IR, plus a bounded superoptimization search.
//!
//! Operator fission makes these rewrites expressible at all: at the
//! operator level there is no "the reduce inside softmax", but at the
//! primitive level the `ReduceSum` can be replaced by a `MatMul` with an
//! all-ones vector, reordered past the division, and merged with the
//! neighbouring `MatMul` — the exact sequence of paper Fig. 2b.
//!
//! ```
//! use korch_transform::{optimize_graph, SearchConfig};
//! use korch_ir::{PrimGraph, PrimKind, EwFn};
//! use korch_tensor::UnaryOp;
//!
//! # fn main() -> Result<(), korch_ir::IrError> {
//! let mut g = PrimGraph::new();
//! let x = g.add(PrimKind::Input { shape: vec![4, 4] }, vec![])?;
//! let e = g.add(PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)), vec![x.into()])?;
//! g.mark_output(e)?;
//! let variants = optimize_graph(&g, &SearchConfig::default());
//! assert_eq!(variants[0].fingerprint(), g.fingerprint()); // original first
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rewrite;
mod rules;
mod rules_extra;
mod search;

pub use rewrite::Rewrite;
pub use rules::{
    default_rules, DivMatMulReorder, FoldTransposeIntoMatMul, MergeSharedMatMuls, ReduceToMatMul,
    Rule,
};
pub use rules_extra::{ComposeReshapes, ComposeTransposes, MergeSharedRhsMatMuls};
pub use search::{heuristic_cost, optimize_graph, SearchConfig};
