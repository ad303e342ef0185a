//! Executable plans: the output of the orchestration optimizer, consumed by
//! the interpreter in `korch-exec` and by the report generators.

use korch_cost::{Backend, Micros};
use korch_ir::{NodeId, PortRef};

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

#[cfg(test)]
mod tests {
    use super::*;

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
