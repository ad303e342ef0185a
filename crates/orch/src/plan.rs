//! Executable plans: the output of the orchestration optimizer, consumed by
//! the interpreter in `korch-exec` and by the report generators, and the
//! port-level dependency relation between a plan's kernels.

use korch_cost::{Backend, Micros};
use korch_ir::{NodeId, PortRef, PrimGraph};
use std::collections::{BTreeSet, HashMap};

/// One kernel launch in the final executable (paper §5.3).
#[derive(Debug, Clone)]
pub struct SelectedKernel {
    /// Primitives executed inside the kernel, ascending (= topological)
    /// node order.
    pub members: Vec<NodeId>,
    /// Ports materialized to device memory.
    pub outputs: Vec<PortRef>,
    /// Profiled latency.
    pub latency: Micros,
    /// Backend executing the kernel.
    pub backend: Backend,
}

/// A sequentially executed kernel plan.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Kernel launches in execution order.
    pub kernels: Vec<SelectedKernel>,
    /// Σ kernel latencies (paper Eq. 2: the run time of a strategy is the
    /// sum of individual kernels' run times).
    pub total_latency: Micros,
}

impl Plan {
    /// The plan running `kernels` in the order given.
    pub fn from_kernels(kernels: impl IntoIterator<Item = SelectedKernel>) -> Self {
        let kernels: Vec<SelectedKernel> = kernels.into_iter().collect();
        Self {
            total_latency: kernels.iter().map(|k| k.latency).sum(),
            kernels,
        }
    }

    /// Number of kernel launches.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Total latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.total_latency.as_millis()
    }

    /// How many times each primitive node is executed across kernels
    /// (redundant computation shows up as counts > 1, paper Fig. 4c).
    pub fn execution_counts(&self) -> std::collections::HashMap<NodeId, usize> {
        let mut counts = std::collections::HashMap::new();
        for k in &self.kernels {
            for &m in &k.members {
                *counts.entry(m).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Concatenates two plans (used when stitching partitions).
    pub fn extend(&mut self, other: Plan) {
        self.kernels.extend(other.kernels);
        self.total_latency = self.total_latency + other.total_latency;
    }
}

/// A plan read with no producer ordered before it: kernel `kernel` reads
/// `port` from device memory, but no kernel at an index `<= kernel`
/// materializes that port. Such a plan fails under every executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingProducer {
    /// Index of the reading kernel in `plan.kernels`.
    pub kernel: usize,
    /// The port that is never materialized in time.
    pub port: PortRef,
}

impl std::fmt::Display for MissingProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan kernel {} reads port {}:{} that no earlier kernel materializes",
            self.kernel, self.port.node.0, self.port.port
        )
    }
}

/// Port-level kernel dependency edges of `plan` over `g`: kernel `i`
/// depends on the first (plan-order) kernel that materializes each port
/// one of its members reads from device memory — reads satisfied inside
/// the kernel's own member set (or by graph sources, which exist before
/// kernel 0) carry no edge. This is the exact readiness relation the
/// `korch-runtime` executor compiles into its atomic dependency counters;
/// `korch-verify` re-derives it here to cross-check compiled artifacts.
///
/// Every returned edge points at a strictly lower kernel index, so the
/// relation is acyclic by construction and plan order is one of its
/// topological orders.
///
/// # Errors
///
/// Returns [`MissingProducer`] when some kernel reads a port no kernel
/// ordered before it materializes.
pub fn plan_dependencies(g: &PrimGraph, plan: &Plan) -> Result<Vec<Vec<usize>>, MissingProducer> {
    let mut first_producer: HashMap<PortRef, usize> = HashMap::new();
    for (i, k) in plan.kernels.iter().enumerate() {
        for o in &k.outputs {
            first_producer.entry(*o).or_insert(i);
        }
    }
    let mut all = Vec::with_capacity(plan.kernels.len());
    for (i, k) in plan.kernels.iter().enumerate() {
        let member_set: BTreeSet<NodeId> = k.members.iter().copied().collect();
        let mut deps: BTreeSet<usize> = BTreeSet::new();
        for &m in &k.members {
            let node = g.node(m);
            if node.kind.is_source() {
                continue;
            }
            for r in &node.inputs {
                // Mirrors the executors: sources exist before kernel 0 and
                // carry no edge; non-source member values stay kernel-local.
                if g.node(r.node).kind.is_source() || member_set.contains(&r.node) {
                    continue;
                }
                match first_producer.get(r) {
                    Some(&p) if p < i => {
                        deps.insert(p);
                    }
                    Some(&p) if p == i => {}
                    _ => {
                        return Err(MissingProducer {
                            kernel: i,
                            port: *r,
                        })
                    }
                }
            }
        }
        all.push(deps.into_iter().collect());
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_ir::{EwFn, LayoutFn, PrimKind};
    use korch_tensor::UnaryOp;

    /// A one-member kernel exporting `output`.
    fn kernel(member: NodeId, output: PortRef) -> SelectedKernel {
        SelectedKernel {
            members: vec![member],
            outputs: vec![output],
            latency: Micros(1.0),
            backend: Backend::Generated,
        }
    }

    /// `x → split(3, 3) → tanh(port 1)`: the split node and its port 1.
    fn split_graph() -> (PrimGraph, NodeId, PortRef, NodeId) {
        let mut g = PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![4, 6] }, vec![])
            .unwrap();
        let split = g
            .add(
                PrimKind::Layout(LayoutFn::Split {
                    axis: 1,
                    sizes: vec![3, 3],
                }),
                vec![x.into()],
            )
            .unwrap();
        let port1 = PortRef {
            node: split,
            port: 1,
        };
        let tanh = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                vec![port1],
            )
            .unwrap();
        g.mark_output(tanh).unwrap();
        (g, split, port1, tanh)
    }

    /// Two kernels materialize different ports of one `Split`; a third
    /// reads port 1. It depends on port 1's producer, not on whichever
    /// kernel materialized *a* port of the node first.
    #[test]
    fn a_reader_waits_on_the_producer_of_its_port() {
        let (g, split, port1, tanh) = split_graph();
        let plan = Plan::from_kernels([
            kernel(split, split.into()),
            kernel(split, port1),
            kernel(tanh, tanh.into()),
        ]);
        assert_eq!(
            plan_dependencies(&g, &plan),
            Ok(vec![vec![], vec![], vec![1]])
        );
    }

    #[test]
    fn a_read_with_no_earlier_producer_is_missing() {
        let (g, split, port1, tanh) = split_graph();
        // Port 1 is materialized only after its reader.
        let plan = Plan::from_kernels([kernel(tanh, tanh.into()), kernel(split, port1)]);
        assert_eq!(
            plan_dependencies(&g, &plan),
            Err(MissingProducer {
                kernel: 0,
                port: port1
            })
        );
        // And never at all.
        let plan = Plan::from_kernels([kernel(split, split.into()), kernel(tanh, tanh.into())]);
        assert_eq!(
            plan_dependencies(&g, &plan),
            Err(MissingProducer {
                kernel: 1,
                port: port1
            })
        );
    }

    #[test]
    fn own_output_and_source_reads_carry_no_edge() {
        let (g, split, port1, tanh) = split_graph();
        // Kernel 1 materializes port 1 itself and reads it; kernel 0
        // reads only the graph input.
        let plan = Plan::from_kernels([
            kernel(split, split.into()),
            SelectedKernel {
                members: vec![tanh],
                outputs: vec![port1, tanh.into()],
                latency: Micros(1.0),
                backend: Backend::Generated,
            },
        ]);
        assert_eq!(plan_dependencies(&g, &plan), Ok(vec![vec![], vec![]]));
        // A fused kernel's in-kernel read of its own member.
        let plan = Plan::from_kernels([SelectedKernel {
            members: vec![split, tanh],
            outputs: vec![tanh.into()],
            latency: Micros(1.0),
            backend: Backend::Generated,
        }]);
        assert_eq!(plan_dependencies(&g, &plan), Ok(vec![vec![]]));
    }

    #[test]
    fn execution_counts_detect_redundancy() {
        let k = |members: Vec<usize>| SelectedKernel {
            members: members.into_iter().map(NodeId).collect(),
            outputs: vec![],
            latency: Micros(1.0),
            backend: Backend::Generated,
        };
        let plan = Plan {
            kernels: vec![k(vec![1, 2]), k(vec![1, 3]), k(vec![1, 4])],
            total_latency: Micros(3.0),
        };
        let counts = plan.execution_counts();
        assert_eq!(counts[&NodeId(1)], 3); // p1 executed three times (Fig 4c)
        assert_eq!(counts[&NodeId(2)], 1);
        assert_eq!(plan.kernel_count(), 3);
    }

    #[test]
    fn extend_accumulates() {
        let mut a = Plan::default();
        let b = Plan {
            kernels: vec![SelectedKernel {
                members: vec![NodeId(0)],
                outputs: vec![],
                latency: Micros(5.0),
                backend: Backend::Vendor,
            }],
            total_latency: Micros(5.0),
        };
        a.extend(b);
        assert_eq!(a.kernel_count(), 1);
        assert_eq!(a.latency_ms(), 0.005);
    }
}
