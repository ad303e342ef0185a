//! Shared machinery: turning disjoint primitive groups into priced plans,
//! and the primitive-level TensorRT-style grouping used by the Fig. 7
//! adaptation study.

use korch_cost::{kernel_spec, Backend, Profiler};
use korch_ir::{NodeId, PortRef, PrimGraph};
use korch_orch::{greedy_seed_groups, Plan, SelectedKernel};
use std::collections::{BTreeSet, HashSet};

/// Converts disjoint primitive groups into a priced [`Plan`]. Each group
/// materializes every port consumed outside the group plus any graph
/// outputs; groups are topologically ordered by their data dependencies.
pub fn groups_to_plan(
    pg: &PrimGraph,
    groups: Vec<Vec<NodeId>>,
    profiler: &Profiler,
    memory_backend: Backend,
    compute_backend: Backend,
) -> Plan {
    let succ = pg.successors();
    let graph_outputs: HashSet<PortRef> = pg.outputs().iter().copied().collect();

    // Topologically order groups by inter-group data dependencies.
    let mut gid_of = vec![usize::MAX; pg.len()];
    for (gid, members) in groups.iter().enumerate() {
        for &m in members {
            gid_of[m.0] = gid;
        }
    }
    let mut indeg = vec![0usize; groups.len()];
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); groups.len()];
    for (id, node) in pg.iter() {
        let gid = gid_of[id.0];
        if gid == usize::MAX {
            continue;
        }
        for r in &node.inputs {
            let pgid = gid_of[r.node.0];
            if pgid != usize::MAX && pgid != gid && edges[pgid].insert(gid) {
                indeg[gid] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..groups.len()).filter(|&g| indeg[g] == 0).collect();
    queue.sort_unstable();
    let mut order = Vec::with_capacity(groups.len());
    let mut qi = 0;
    while qi < queue.len() {
        let g = queue[qi];
        qi += 1;
        order.push(g);
        for &c in &edges[g] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                queue.push(c);
            }
        }
    }
    if order.len() != groups.len() {
        // Cyclic group dependencies indicate a non-convex grouping bug;
        // fall back to creation order (execution would fail loudly).
        order = (0..groups.len()).collect();
    }

    let mut kernels = Vec::with_capacity(groups.len());
    for gid in order {
        let members = &groups[gid];
        let member_set: BTreeSet<NodeId> = members.iter().copied().collect();
        let mut outputs: Vec<PortRef> = Vec::new();
        for &m in members {
            for port in 0..pg.node(m).out_metas.len() {
                let p = PortRef { node: m, port };
                let external = succ[m.0]
                    .iter()
                    .any(|s| !member_set.contains(s) && pg.node(*s).inputs.contains(&p))
                    || graph_outputs.contains(&p);
                if external {
                    outputs.push(p);
                }
            }
        }
        let spec = kernel_spec(pg, &member_set, &outputs);
        let backend = if spec.is_compute_intensive() {
            compute_backend
        } else {
            memory_backend
        };
        let latency = profiler.latency(&spec, backend);
        kernels.push(SelectedKernel {
            members: members.clone(),
            outputs,
            latency,
            backend,
        });
    }
    Plan::from_kernels(kernels)
}

/// The §6.3 adaptation study (Fig. 7): apply TensorRT-style greedy fusion
/// rules directly to the post-fission *primitive* graph. Operator fission
/// alone — without the BLP — already unlocks cross-operator fusion (e.g.
/// InstanceNorm's elementwise tail fuses into the following ReLU and Pad),
/// which is where the paper's 1.24× comes from.
///
/// The rules are the orchestrator's own TensorRT-style seed
/// ([`greedy_seed_groups`] closing groups at a reduce): joins are
/// convexity-checked (paper Def. 1) so the groups are always schedulable,
/// and primitives fed only by sources (broadcast chains of weights) are
/// adopted lazily into their first consumer's group so they never
/// materialize a full-size broadcast tensor on their own.
pub fn trt_with_fission(pg: &PrimGraph, profiler: &Profiler) -> Plan {
    groups_to_plan(
        pg,
        greedy_seed_groups(pg, true, false, true),
        profiler,
        Backend::TrtRuntime,
        Backend::TrtRuntime,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_cost::Device;
    use korch_fission::fission;
    use korch_models::subgraphs;

    #[test]
    fn fission_helps_trt_on_instance_norm_pattern() {
        // Fig 7 / Fig 12: TensorRT on the primitive graph beats TensorRT on
        // the operator graph for the InstanceNorm->ReLU->Pad pattern.
        let g = subgraphs::instance_norm_block(32, 224);
        let f = fission(&g).unwrap();
        let profiler = Profiler::new(Device::v100());
        let with_fission = trt_with_fission(&f.prim_graph, &profiler);
        let without =
            crate::orchestrate_baseline(crate::Baseline::TensorRt, &g, &Device::v100()).unwrap();
        assert!(
            with_fission.total_latency.0 < without.total_latency.0,
            "fission: {} vs op-level: {}",
            with_fission.total_latency.0,
            without.total_latency.0
        );
    }

    #[test]
    fn trt_fission_plans_execute() {
        use korch_exec::{execute_ops, execute_plan};
        use korch_tensor::Tensor;
        let g = subgraphs::instance_norm_block(4, 8);
        let f = fission(&g).unwrap();
        let profiler = Profiler::new(Device::v100());
        let plan = trt_with_fission(&f.prim_graph, &profiler);
        let x = Tensor::random(vec![1, 4, 8, 8], 7);
        let reference = execute_ops(&g, std::slice::from_ref(&x)).unwrap();
        let out = execute_plan(&f.prim_graph, &plan, &[x]).unwrap();
        assert!(reference[0].allclose(&out[0], 1e-4));
    }

    #[test]
    fn groups_emit_multi_output_kernels_when_needed() {
        // A group whose intermediate feeds two later groups must
        // materialize both ports.
        let g = subgraphs::softmax_attention(32, 16);
        let f = fission(&g).unwrap();
        let profiler = Profiler::new(Device::v100());
        let plan = trt_with_fission(&f.prim_graph, &profiler);
        assert!(plan.kernel_count() >= 2);
        // every kernel materializes at least one port
        assert!(plan.kernels.iter().all(|k| !k.outputs.is_empty()));
    }
}
