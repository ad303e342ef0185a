//! Shared machinery: turning disjoint primitive groups into priced plans,
//! and the primitive-level TensorRT-style grouping used by the Fig. 7
//! adaptation study.

use korch_cost::{kernel_spec, Backend, Profiler};
use korch_ir::{NodeId, PortRef, PrimCategory, PrimGraph, PrimKind};
use korch_orch::{Plan, SelectedKernel};
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

/// Primitive-level fusion class for the TensorRT-with-fission study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimClass {
    /// Inputs/constants — no kernel.
    Source,
    /// Conv / matmul anchors.
    Linear,
    /// Elementwise, broadcast and layout primitives (pointwise-network
    /// fusable in TensorRT terms).
    Fusable,
    /// Reduce primitives: absorbed into the running group, which then
    /// closes (TensorRT does not fuse past a reduction).
    Reduce,
    /// Pool / opaque: dedicated kernels.
    Solo,
}

/// Classifies a primitive for [`trt_with_fission`].
pub fn classify_prim(kind: &PrimKind) -> PrimClass {
    match kind.category() {
        PrimCategory::Source => PrimClass::Source,
        PrimCategory::Linear => PrimClass::Linear,
        PrimCategory::Elementwise | PrimCategory::Layout => PrimClass::Fusable,
        PrimCategory::ReduceBroadcast => match kind {
            PrimKind::Reduce { .. } => PrimClass::Reduce,
            PrimKind::WindowReduce { .. } => PrimClass::Solo,
            _ => PrimClass::Fusable, // broadcast
        },
        PrimCategory::Opaque => PrimClass::Solo,
    }
}

/// The §6.3 adaptation study (Fig. 7): apply TensorRT-style greedy fusion
/// rules directly to the post-fission *primitive* graph. Operator fission
/// alone — without the BLP — already unlocks cross-operator fusion (e.g.
/// InstanceNorm's elementwise tail fuses into the following ReLU and Pad),
/// which is where the paper's 1.24× comes from.
///
/// Joins are convexity-checked (paper Def. 1) so the resulting groups are
/// always schedulable. Primitives fed only by sources (broadcast chains of
/// weights) are adopted lazily into their first consumer's group so they
/// never materialize a full-size broadcast tensor on their own.
pub fn trt_with_fission(pg: &PrimGraph, profiler: &Profiler) -> Plan {
    let reach = pg.reachability();
    let mut group_of: Vec<Option<usize>> = vec![None; pg.len()];
    let mut members: Vec<BTreeSet<NodeId>> = Vec::new();
    let mut open: Vec<bool> = Vec::new();

    fn convex_join(
        pg: &PrimGraph,
        reach: &korch_ir::Reachability,
        set: &BTreeSet<NodeId>,
        extra: NodeId,
    ) -> bool {
        let mut s = set.clone();
        s.insert(extra);
        pg.is_convex(&s, reach)
    }

    // Adopt a pending (unassigned, source-fed) producer chain into `gid`.
    fn adopt(
        p: NodeId,
        gid: usize,
        pg: &PrimGraph,
        reach: &korch_ir::Reachability,
        group_of: &mut Vec<Option<usize>>,
        members: &mut [BTreeSet<NodeId>],
        open: &[bool],
    ) {
        if group_of[p.0].is_some() || pg.node(p).kind.is_source() {
            return;
        }
        let _ = open;
        if !convex_join(pg, reach, &members[gid], p) {
            return; // stays pending; will become its own group at the end
        }
        group_of[p.0] = Some(gid);
        members[gid].insert(p);
        let preds: Vec<NodeId> = pg.node(p).inputs.iter().map(|r| r.node).collect();
        for q in preds {
            adopt(q, gid, pg, reach, group_of, members, open);
        }
    }

    for (id, node) in pg.iter() {
        let class = classify_prim(&node.kind);
        if class == PrimClass::Source {
            continue;
        }
        // Open producer groups (distinct).
        let mut producer_groups: Vec<usize> = node
            .inputs
            .iter()
            .filter_map(|r| group_of[r.node.0])
            .collect();
        producer_groups.sort_unstable();
        producer_groups.dedup();
        // Source-fed fusable primitives (weight broadcast chains) stay
        // pending until a consumer adopts them, so they never materialize
        // a full-size broadcast tensor on their own.
        let all_producers_pending = node
            .inputs
            .iter()
            .all(|r| pg.node(r.node).kind.is_source() || group_of[r.node.0].is_none());
        if class == PrimClass::Fusable && all_producers_pending {
            continue;
        }
        let joinable = producer_groups
            .iter()
            .copied()
            .find(|&g| open[g] && convex_join(pg, &reach, &members[g], id));
        let gid = match (class, joinable) {
            (PrimClass::Fusable, Some(g)) => g,
            (PrimClass::Reduce, Some(g)) => {
                open[g] = false;
                g
            }
            (PrimClass::Fusable, None) | (PrimClass::Reduce, None) => {
                members.push(BTreeSet::new());
                open.push(!matches!(class, PrimClass::Reduce));
                members.len() - 1
            }
            (PrimClass::Linear, _) => {
                members.push(BTreeSet::new());
                open.push(true);
                members.len() - 1
            }
            (PrimClass::Solo, _) | (PrimClass::Source, _) => {
                members.push(BTreeSet::new());
                open.push(false);
                members.len() - 1
            }
        };
        group_of[id.0] = Some(gid);
        members[gid].insert(id);
        // Adopt pending source-fed producers (weight broadcast chains).
        let preds: Vec<NodeId> = node.inputs.iter().map(|r| r.node).collect();
        for p in preds {
            adopt(p, gid, pg, &reach, &mut group_of, &mut members, &open);
        }
    }
    // Any still-pending primitive chains become their own kernels,
    // chained along producer links.
    for (id, node) in pg.iter() {
        if group_of[id.0].is_some() || node.kind.is_source() {
            continue;
        }
        let producer_gid = node
            .inputs
            .iter()
            .filter_map(|r| group_of[r.node.0])
            .find(|&g| open[g] && convex_join(pg, &reach, &members[g], id));
        let gid = match producer_gid {
            Some(g) => g,
            None => {
                members.push(BTreeSet::new());
                open.push(true);
                members.len() - 1
            }
        };
        group_of[id.0] = Some(gid);
        members[gid].insert(id);
    }
    let groups: Vec<Vec<NodeId>> = members
        .into_iter()
        .filter(|m| !m.is_empty())
        .map(|m| m.into_iter().collect())
        .collect();
    groups_to_plan(
        pg,
        groups,
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
