//! Graph partitioner (paper §2 / Fig. 1): splits the primitive graph into
//! smaller subgraphs "to reduce the optimization space associated with each
//! subgraph while preserving optimization opportunities".
//!
//! Node insertion order is topological, so every prefix `{0..i}` of the
//! node ids is an execution state; partitions are therefore consecutive id
//! ranges. Cut positions are chosen greedily: once a partition holds enough
//! computational primitives, the cut within a small look-ahead window that
//! minimizes the number of live tensors crossing the boundary wins.

use korch_ir::{IrError, NodeId, PortRef, PrimGraph, PrimKind, TensorMeta};
use std::collections::HashMap;

/// One partition: an extracted primitive subgraph plus the port plumbing
/// back into the full graph.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The extracted subgraph (with fresh `Input` nodes for tensors flowing
    /// in from earlier partitions; constants are cloned in), in its
    /// canonical numbering ([`PrimGraph::canonical`]): two partitions equal
    /// up to node numbering are one graph, and plan alike.
    pub graph: PrimGraph,
    /// Outer ports feeding this partition — one entry per `Input` node of
    /// `graph`, in node order. Entries are either original program-input
    /// ports or boundary tensors produced by earlier partitions.
    pub inputs: Vec<PortRef>,
    /// Outer ports this partition produces, in the order of the subgraph's
    /// outputs.
    pub outputs: Vec<PortRef>,
}

/// Splits `g` into partitions of at most `max_prims` computational
/// primitives each.
///
/// # Errors
///
/// Propagates [`IrError`] from subgraph reconstruction (a bug if it ever
/// fires, since the extraction preserves shapes).
pub fn partition(g: &PrimGraph, max_prims: usize) -> Result<Vec<Partition>, IrError> {
    let n = g.len();
    if n == 0 {
        return Ok(vec![]);
    }
    let cuts = choose_cuts(g, max_prims);
    let succ = g.successors();
    let graph_outputs: HashMap<PortRef, ()> = g.outputs().iter().map(|&p| (p, ())).collect();

    let mut parts = Vec::with_capacity(cuts.len());
    let mut start = 0usize;
    for &end in &cuts {
        parts.push(extract(g, start, end, &succ, &graph_outputs)?);
        start = end;
    }
    Ok(parts)
}

/// Chooses cut positions (exclusive end indices), last one = `g.len()`.
fn choose_cuts(g: &PrimGraph, max_prims: usize) -> Vec<usize> {
    let n = g.len();
    // live[i] = number of distinct ports produced before i and consumed at
    // or after i (the boundary width of a cut at i).
    let mut cuts = Vec::new();
    let mut count = 0usize;
    let mut i = 0usize;
    while i < n {
        if !g.node(NodeId(i)).kind.is_source() {
            count += 1;
        }
        i += 1;
        if count >= max_prims && i < n {
            // Look ahead a few positions for the narrowest boundary
            // (never the end of the graph, which would merge everything).
            let window_end = (i + 8).min(n - 1);
            let best = (i..=window_end.max(i))
                .min_by_key(|&c| boundary_width(g, c))
                .unwrap_or(i);
            cuts.push(best);
            // skip forward to the chosen cut
            i = best;
            count = 0;
        }
    }
    cuts.push(n);
    cuts.dedup();
    cuts
}

/// Number of tensors crossing a cut at position `c`.
fn boundary_width(g: &PrimGraph, c: usize) -> usize {
    let mut crossing = std::collections::HashSet::new();
    for (id, node) in g.iter() {
        if id.0 < c {
            continue;
        }
        for r in &node.inputs {
            if r.node.0 < c && !g.node(r.node).kind.is_source() {
                crossing.insert(*r);
            }
        }
    }
    crossing.len()
}

fn extract(
    g: &PrimGraph,
    start: usize,
    end: usize,
    succ: &[Vec<NodeId>],
    graph_outputs: &HashMap<PortRef, ()>,
) -> Result<Partition, IrError> {
    let mut sub = PrimGraph::new();
    let mut map: HashMap<PortRef, PortRef> = HashMap::new();
    let mut inputs: Vec<PortRef> = Vec::new();

    let outer_input = |sub: &mut PrimGraph,
                       map: &mut HashMap<PortRef, PortRef>,
                       inputs: &mut Vec<PortRef>,
                       r: PortRef,
                       meta: &TensorMeta|
     -> Result<PortRef, IrError> {
        if let Some(&p) = map.get(&r) {
            return Ok(p);
        }
        // Clone constants instead of feeding them across the boundary.
        if let PrimKind::Constant { shape, init } = &g.node(r.node).kind {
            let id = sub.add(
                PrimKind::Constant {
                    shape: shape.clone(),
                    init: init.clone(),
                },
                vec![],
            )?;
            map.insert(r, id.into());
            return Ok(id.into());
        }
        let id = sub.add(
            PrimKind::Input {
                shape: meta.shape().to_vec(),
            },
            vec![],
        )?;
        map.insert(r, id.into());
        inputs.push(r);
        Ok(id.into())
    };

    for i in start..end {
        let id = NodeId(i);
        let node = g.node(id);
        let mut ins = Vec::with_capacity(node.inputs.len());
        for r in &node.inputs {
            if r.node.0 >= start && r.node.0 < end {
                ins.push(map[r]);
            } else {
                ins.push(outer_input(
                    &mut sub,
                    &mut map,
                    &mut inputs,
                    *r,
                    g.meta(*r),
                )?);
            }
        }
        let new_id = sub.add(node.kind.clone(), ins)?;
        // Original program inputs copied into the partition are fed from
        // the caller: record their outer port in feeding order.
        if matches!(node.kind, PrimKind::Input { .. }) {
            inputs.push(PortRef { node: id, port: 0 });
        }
        for port in 0..node.out_metas.len() {
            map.insert(PortRef { node: id, port }, PortRef { node: new_id, port });
        }
    }

    // Outputs: ports consumed outside the range or marked as graph outputs.
    let mut outputs = Vec::new();
    for (i, succ_i) in succ.iter().enumerate().take(end).skip(start) {
        let id = NodeId(i);
        let node = g.node(id);
        for port in 0..node.out_metas.len() {
            let p = PortRef { node: id, port };
            let external_consumer = succ_i
                .iter()
                .any(|s| (s.0 < start || s.0 >= end) && g.node(*s).inputs.contains(&p));
            if external_consumer || graph_outputs.contains_key(&p) {
                sub.mark_output(map[&p])?;
                outputs.push(p);
            }
        }
    }
    Ok(Partition {
        graph: sub.canonical(),
        inputs,
        outputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_ir::EwFn;
    use korch_tensor::UnaryOp;

    fn chain(n: usize) -> PrimGraph {
        let mut g = PrimGraph::new();
        let mut prev = g.add(PrimKind::Input { shape: vec![8] }, vec![]).unwrap();
        for _ in 0..n {
            prev = g
                .add(
                    PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)),
                    vec![prev.into()],
                )
                .unwrap();
        }
        g.mark_output(prev).unwrap();
        g
    }

    #[test]
    fn chain_partitions_cover_all_nodes() {
        let g = chain(20);
        let parts = partition(&g, 6).unwrap();
        assert!(parts.len() >= 3);
        let total: usize = parts
            .iter()
            .map(|p| {
                p.graph
                    .nodes()
                    .iter()
                    .filter(|n| !n.kind.is_source())
                    .count()
            })
            .sum();
        assert_eq!(total, 20);
        // Each middle partition feeds exactly one tensor forward.
        for p in &parts[..parts.len() - 1] {
            assert_eq!(p.outputs.len(), 1);
        }
        assert_eq!(parts.last().unwrap().outputs.len(), 1); // graph output
    }

    #[test]
    fn single_partition_when_under_limit() {
        let g = chain(5);
        let parts = partition(&g, 100).unwrap();
        assert_eq!(parts.len(), 1);
        // the single entry is the original program input
        assert_eq!(
            parts[0].inputs,
            vec![PortRef {
                node: NodeId(0),
                port: 0
            }]
        );
    }

    #[test]
    fn constants_are_cloned_not_fed() {
        let mut g = PrimGraph::new();
        let c = g
            .add(
                PrimKind::Constant {
                    shape: vec![8],
                    init: korch_ir::ConstInit::Ones,
                },
                vec![],
            )
            .unwrap();
        let x = g.add(PrimKind::Input { shape: vec![8] }, vec![]).unwrap();
        let mut prev: PortRef = x.into();
        for _ in 0..6 {
            let a = g
                .add(
                    PrimKind::Elementwise(EwFn::Binary(korch_tensor::BinaryOp::Add)),
                    vec![prev, c.into()],
                )
                .unwrap();
            prev = a.into();
        }
        g.mark_output(prev).unwrap();
        let parts = partition(&g, 3).unwrap();
        assert!(parts.len() >= 2);
        // The later partition must contain a cloned constant and take only
        // the chain tensor as input.
        let last = parts.last().unwrap();
        assert_eq!(last.inputs.len(), 1);
        let has_const = last
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, PrimKind::Constant { .. }));
        assert!(has_const);
    }

    #[test]
    fn empty_graph() {
        let g = PrimGraph::new();
        assert!(partition(&g, 4).unwrap().is_empty());
    }

    #[test]
    fn boundary_width_prefers_narrow_cuts() {
        // diamond inside a chain: cutting in the middle of the diamond
        // crosses 2 tensors; before/after crosses 1.
        let mut g = PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: vec![8] }, vec![]).unwrap();
        let mut prev: PortRef = x.into();
        for _ in 0..3 {
            prev = g
                .add(
                    PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)),
                    vec![prev],
                )
                .unwrap()
                .into();
        }
        let a = g
            .add(PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)), vec![prev])
            .unwrap();
        let b = g
            .add(PrimKind::Elementwise(EwFn::Unary(UnaryOp::Abs)), vec![prev])
            .unwrap();
        let add = g
            .add(
                PrimKind::Elementwise(EwFn::Binary(korch_tensor::BinaryOp::Add)),
                vec![a.into(), b.into()],
            )
            .unwrap();
        g.mark_output(add).unwrap();
        // width at the position right after `a` (id 5) is 2 (prev + a)
        assert_eq!(boundary_width(&g, 5), 2);
        // width right after add is 0; right after the relu chain is 1
        assert_eq!(boundary_width(&g, 4), 1);
    }
}
