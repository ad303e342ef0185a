//! Generic append-only DAG shared by the operator and primitive IRs.
//!
//! Nodes are appended in topological order by construction: a node may only
//! reference earlier nodes, so node index order *is* a topological order.
//! Shape inference runs eagerly at insertion, so a successfully built graph
//! is always shape-correct.

use crate::error::IrError;
use crate::meta::TensorMeta;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::hash::{Hash, Hasher};

/// Identifier of a node within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Reference to one output port of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRef {
    /// The producing node.
    pub node: NodeId,
    /// Which of its outputs (0 for single-output nodes).
    pub port: usize,
}

impl From<NodeId> for PortRef {
    fn from(node: NodeId) -> Self {
        PortRef { node, port: 0 }
    }
}

/// Behaviour every node kind must provide: shape inference and naming.
pub trait NodeKind: Clone + std::fmt::Debug {
    /// Infers output metadata from input metadata.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] on arity or shape violations.
    fn infer(&self, inputs: &[TensorMeta]) -> Result<Vec<TensorMeta>, IrError>;

    /// Short human-readable label for debugging and Graphviz output.
    fn label(&self) -> String;

    /// Feeds a structural fingerprint of this kind into `hasher`
    /// (used for graph deduplication during superoptimization).
    fn fingerprint(&self, hasher: &mut dyn Hasher);

    /// `true` for a graph-input placeholder: inputs are fed by position,
    /// so their order is part of the graph, unlike other sources'.
    fn is_input(&self) -> bool;
}

/// A node: a kind plus its input ports and inferred output metadata.
#[derive(Debug, Clone)]
pub struct Node<K> {
    /// The operation this node performs.
    pub kind: K,
    /// Input ports, in positional order.
    pub inputs: Vec<PortRef>,
    /// Metadata of each output port.
    pub out_metas: Vec<TensorMeta>,
}

/// Append-only DAG with eager shape inference.
#[derive(Debug, Clone, Default)]
pub struct Graph<K> {
    nodes: Vec<Node<K>>,
    outputs: Vec<PortRef>,
}

impl<K: NodeKind> Graph<K> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Appends a node, inferring and validating its output shapes.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DanglingRef`] if an input references a node that
    /// does not exist yet (forward references are structurally impossible in
    /// a DAG built this way), or any error from shape inference.
    pub fn add(&mut self, kind: K, inputs: Vec<PortRef>) -> Result<NodeId, IrError> {
        let mut in_metas = Vec::with_capacity(inputs.len());
        for r in &inputs {
            let node = self.nodes.get(r.node.0).ok_or(IrError::DanglingRef {
                node: r.node.0,
                port: r.port,
            })?;
            let meta = node.out_metas.get(r.port).ok_or(IrError::DanglingRef {
                node: r.node.0,
                port: r.port,
            })?;
            in_metas.push(meta.clone());
        }
        let out_metas = kind.infer(&in_metas)?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind,
            inputs,
            out_metas,
        });
        Ok(id)
    }

    /// Marks a port as a graph output (order matters; duplicates allowed).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DanglingRef`] for references to missing nodes.
    pub fn mark_output(&mut self, port: impl Into<PortRef>) -> Result<(), IrError> {
        let port = port.into();
        let node = self.nodes.get(port.node.0).ok_or(IrError::DanglingRef {
            node: port.node.0,
            port: port.port,
        })?;
        if port.port >= node.out_metas.len() {
            return Err(IrError::DanglingRef {
                node: port.node.0,
                port: port.port,
            });
        }
        self.outputs.push(port);
        Ok(())
    }

    /// The graph's output ports.
    pub fn outputs(&self) -> &[PortRef] {
        &self.outputs
    }

    /// Node accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node<K> {
        &self.nodes[id.0]
    }

    /// All nodes in insertion (= topological) order.
    pub fn nodes(&self) -> &[Node<K>] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterator over `(NodeId, &Node)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node<K>)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Metadata of an output port.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    pub fn meta(&self, port: impl Into<PortRef>) -> &TensorMeta {
        let port = port.into();
        &self.nodes[port.node.0].out_metas[port.port]
    }

    /// Direct successor node ids of each node (deduplicated, sorted).
    pub fn successors(&self) -> Vec<Vec<NodeId>> {
        let mut succ: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for r in &n.inputs {
                succ[r.node.0].insert(NodeId(i));
            }
        }
        succ.into_iter().map(|s| s.into_iter().collect()).collect()
    }

    /// Transitive reachability: `reach[a][b]` is `true` iff there is a path
    /// from node `a` to node `b`. O(V·E/64) via bitset rows.
    pub fn reachability(&self) -> Reachability {
        let n = self.nodes.len();
        let words = n.div_ceil(64);
        let mut rows = vec![vec![0u64; words]; n];
        // process in reverse topological order: reach(a) = union over succ
        let succ = self.successors();
        for a in (0..n).rev() {
            for &NodeId(b) in &succ[a] {
                rows[a][b / 64] |= 1 << (b % 64);
                let (head, tail) = rows.split_at_mut(b);
                let src = &tail[0];
                for (w, s) in head[a].iter_mut().zip(src) {
                    *w |= s;
                }
            }
        }
        Reachability { rows }
    }

    /// Tests whether a node set forms a **convex subgraph** (paper Def. 1):
    /// no path from inside the set leaves it and re-enters.
    pub fn is_convex(&self, set: &BTreeSet<NodeId>, reach: &Reachability) -> bool {
        // For every q outside the set, q must not lie on a path between two
        // members: i.e. not (∃p1∈set: p1⇝q) ∧ (∃p2∈set: q⇝p2).
        for q in 0..self.nodes.len() {
            if set.contains(&NodeId(q)) {
                continue;
            }
            let entered = set.iter().any(|&p| reach.path(p, NodeId(q)));
            if !entered {
                continue;
            }
            let leaves = set.iter().any(|&p| reach.path(NodeId(q), p));
            if leaves {
                return false;
            }
        }
        true
    }

    /// Structural fingerprint of the whole graph: hashes node kinds, edges
    /// and outputs in topological order. Equal graphs hash equal; used to
    /// deduplicate candidates during superoptimization search.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for node in &self.nodes {
            node.kind.fingerprint(&mut h);
            for r in &node.inputs {
                r.node.0.hash(&mut h);
                r.port.hash(&mut h);
            }
            0xfeed_u16.hash(&mut h);
        }
        for o in &self.outputs {
            o.node.0.hash(&mut h);
            o.port.hash(&mut h);
        }
        h.finish()
    }

    /// The graph in its canonical numbering: two graphs that differ only
    /// in how their nodes are numbered get one copy, node for node,
    /// barring a 64-bit hash collision. It computes what the graph
    /// computes, and its inputs and outputs keep their positions, so it
    /// replaces the graph wherever inputs are fed by node order.
    ///
    /// Graph inputs come first, in positional order. The other nodes
    /// follow in Kahn's topological order. Ready nodes are ranked by a
    /// bottom-up hash (kind, graph-input position, each input's hash and
    /// port), then by a top-down hash (each consumer's two hashes, the
    /// operand slot and port it reads, and the node's graph-output
    /// positions), then by the canonical ids of their operands, and only
    /// then by their old id. The hashes tell apart twins that look alike
    /// from one side only, such as a norm's equal `Ones` and `Zeros`
    /// constants and the readers of each; the operand ids tell apart
    /// readers that look alike from both sides but read different twins
    /// (an unused `exp` of each of two equal constants). A tie left after
    /// every rank may order two renumberings apart; it can never merge
    /// two different graphs. [`Graph::fingerprint`] of the copy is then a
    /// numbering-free key.
    pub fn canonical(&self) -> Self {
        let n = self.nodes.len();
        let mut up: Vec<u64> = Vec::with_capacity(n);
        let mut inputs = Vec::new();
        // (consumer, operand slot, port), once per edge.
        let mut reads = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            let mut h = DefaultHasher::new();
            node.kind.fingerprint(&mut h);
            if node.kind.is_input() {
                inputs.len().hash(&mut h);
                inputs.push(i);
            }
            for (slot, r) in node.inputs.iter().enumerate() {
                up[r.node.0].hash(&mut h);
                r.port.hash(&mut h);
                reads[r.node.0].push((i, slot, r.port));
            }
            up.push(h.finish());
        }
        let mut exported = vec![Vec::new(); n];
        for (position, o) in self.outputs.iter().enumerate() {
            exported[o.node.0].push((position, o.port));
        }
        let mut down = vec![0u64; n];
        for i in (0..n).rev() {
            let mut by: Vec<_> = (reads[i].iter())
                .map(|&(c, slot, port)| (up[c], down[c], slot, port))
                .collect();
            by.sort_unstable();
            let mut h = DefaultHasher::new();
            by.hash(&mut h);
            exported[i].hash(&mut h);
            down[i] = h.finish();
        }

        let mut new_id = vec![usize::MAX; n];
        let rank = |i: usize, new_id: &[usize]| {
            let node = &self.nodes[i];
            let operands: Vec<_> = (node.inputs.iter())
                .map(|r| (new_id[r.node.0], r.port))
                .collect();
            Reverse((up[i], down[i], operands, i))
        };
        let mut ready: BinaryHeap<_> = (0..n)
            .filter(|&i| self.nodes[i].inputs.is_empty() && !self.nodes[i].kind.is_input())
            .map(|i| rank(i, &new_id))
            .collect();
        let mut waiting: Vec<usize> = self.nodes.iter().map(|n| n.inputs.len()).collect();
        let mut order = inputs;
        let mut placed = 0;
        loop {
            while let Some(&i) = order.get(placed) {
                new_id[i] = placed;
                placed += 1;
                for &(c, _, _) in &reads[i] {
                    waiting[c] -= 1;
                    if waiting[c] == 0 {
                        ready.push(rank(c, &new_id));
                    }
                }
            }
            let Some(Reverse((.., i))) = ready.pop() else {
                break;
            };
            order.push(i);
        }
        let relabel = |r: &PortRef| PortRef {
            node: NodeId(new_id[r.node.0]),
            port: r.port,
        };
        Graph {
            nodes: (order.iter())
                .map(|&i| {
                    let node = &self.nodes[i];
                    Node {
                        kind: node.kind.clone(),
                        inputs: node.inputs.iter().map(relabel).collect(),
                        out_metas: node.out_metas.clone(),
                    }
                })
                .collect(),
            outputs: self.outputs.iter().map(relabel).collect(),
        }
    }

    /// Returns a copy with all nodes unreachable from the outputs removed
    /// (dead-code elimination after graph rewrites), plus the id remapping.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] only if internal invariants are broken (would be
    /// a bug).
    pub fn eliminate_dead(&self) -> Result<(Self, HashMap<NodeId, NodeId>), IrError> {
        self.eliminate_dead_keeping(|_| false)
    }

    /// Like [`Graph::eliminate_dead`], but unconditionally retains nodes for
    /// which `keep` returns `true` (e.g. graph inputs, whose positional
    /// arity is a caller-visible contract even when a rewrite orphans them).
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] only if internal invariants are broken (would be
    /// a bug).
    pub fn eliminate_dead_keeping(
        &self,
        keep: impl Fn(&K) -> bool,
    ) -> Result<(Self, HashMap<NodeId, NodeId>), IrError> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self.outputs.iter().map(|o| o.node.0).collect();
        stack.extend(
            self.nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| keep(&n.kind))
                .map(|(i, _)| i),
        );
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            for r in &self.nodes[i].inputs {
                stack.push(r.node.0);
            }
        }
        let mut remap = HashMap::new();
        let mut out = Graph::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let inputs = node
                .inputs
                .iter()
                .map(|r| PortRef {
                    node: remap[&r.node],
                    port: r.port,
                })
                .collect();
            let id = out.add(node.kind.clone(), inputs)?;
            remap.insert(NodeId(i), id);
        }
        for o in &self.outputs {
            out.mark_output(PortRef {
                node: remap[&o.node],
                port: o.port,
            })?;
        }
        Ok((out, remap))
    }
}

/// Precomputed transitive reachability matrix (bitset rows).
#[derive(Debug, Clone)]
pub struct Reachability {
    rows: Vec<Vec<u64>>,
}

impl Reachability {
    /// `true` iff there is a (non-empty) path from `a` to `b`.
    pub fn path(&self, a: NodeId, b: NodeId) -> bool {
        self.rows[a.0][b.0 / 64] & (1 << (b.0 % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal test kind: `Src` (no inputs, shape [2]) and `Op(n_outputs)`.
    #[derive(Debug, Clone, PartialEq)]
    enum TK {
        Src,
        Op(usize),
    }

    impl NodeKind for TK {
        fn infer(&self, inputs: &[TensorMeta]) -> Result<Vec<TensorMeta>, IrError> {
            match self {
                TK::Src => {
                    if !inputs.is_empty() {
                        return Err(IrError::Arity {
                            kind: "Src".into(),
                            expected: "0".into(),
                            actual: inputs.len(),
                        });
                    }
                    Ok(vec![TensorMeta::new(vec![2])])
                }
                TK::Op(n) => Ok(vec![TensorMeta::new(vec![2]); *n]),
            }
        }
        fn label(&self) -> String {
            format!("{self:?}")
        }
        fn is_input(&self) -> bool {
            false
        }
        fn fingerprint(&self, hasher: &mut dyn Hasher) {
            match self {
                TK::Src => 0u8.hash(&mut &mut *hasher),
                TK::Op(n) => {
                    1u8.hash(&mut &mut *hasher);
                    n.hash(&mut &mut *hasher);
                }
            }
        }
    }

    fn diamond() -> (Graph<TK>, Vec<NodeId>) {
        // 0:src -> 1, 0 -> 2, {1,2} -> 3
        let mut g = Graph::new();
        let s = g.add(TK::Src, vec![]).unwrap();
        let a = g.add(TK::Op(1), vec![s.into()]).unwrap();
        let b = g.add(TK::Op(1), vec![s.into()]).unwrap();
        let c = g.add(TK::Op(1), vec![a.into(), b.into()]).unwrap();
        g.mark_output(c).unwrap();
        (g, vec![s, a, b, c])
    }

    #[test]
    fn add_rejects_dangling() {
        let mut g: Graph<TK> = Graph::new();
        let err = g
            .add(
                TK::Op(1),
                vec![PortRef {
                    node: NodeId(5),
                    port: 0,
                }],
            )
            .unwrap_err();
        assert!(matches!(err, IrError::DanglingRef { node: 5, .. }));
    }

    #[test]
    fn add_rejects_bad_port() {
        let mut g: Graph<TK> = Graph::new();
        let s = g.add(TK::Src, vec![]).unwrap();
        let err = g
            .add(TK::Op(1), vec![PortRef { node: s, port: 3 }])
            .unwrap_err();
        assert!(matches!(err, IrError::DanglingRef { .. }));
    }

    #[test]
    fn arity_checked_by_kind() {
        let mut g: Graph<TK> = Graph::new();
        let s = g.add(TK::Src, vec![]).unwrap();
        assert!(g.add(TK::Src, vec![s.into()]).is_err());
    }

    #[test]
    fn diamond_successors() {
        let (g, n) = diamond();
        let succ = g.successors();
        assert_eq!(succ[n[0].0], vec![n[1], n[2]]);
        assert_eq!(succ[n[3].0], vec![]);
    }

    #[test]
    fn reachability_paths() {
        let (g, n) = diamond();
        let r = g.reachability();
        assert!(r.path(n[0], n[3]));
        assert!(r.path(n[1], n[3]));
        assert!(!r.path(n[3], n[0]));
        assert!(!r.path(n[1], n[2]));
        assert!(!r.path(n[0], n[0]));
    }

    #[test]
    fn convexity_matches_paper_example() {
        // Fig 4a style: {p1,p2,p5}-like non-convex set.
        // chain: s -> a -> c ; s -> b -> c. Set {s, c} is NOT convex
        // because a (outside) has s ⇝ a and a ⇝ c.
        let (g, n) = diamond();
        let reach = g.reachability();
        let bad: BTreeSet<NodeId> = [n[0], n[3]].into_iter().collect();
        assert!(!g.is_convex(&bad, &reach));
        let good: BTreeSet<NodeId> = [n[0], n[1], n[2]].into_iter().collect();
        assert!(g.is_convex(&good, &reach));
        let single: BTreeSet<NodeId> = [n[1]].into_iter().collect();
        assert!(g.is_convex(&single, &reach));
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let (g1, _) = diamond();
        let (g2, _) = diamond();
        assert_eq!(g1.fingerprint(), g2.fingerprint());
        let mut g3 = g1.clone();
        let extra = g3.add(TK::Op(1), vec![NodeId(3).into()]).unwrap();
        g3.mark_output(extra).unwrap();
        assert_ne!(g1.fingerprint(), g3.fingerprint());
    }

    #[test]
    fn dead_code_elimination() {
        let mut g: Graph<TK> = Graph::new();
        let s = g.add(TK::Src, vec![]).unwrap();
        let live = g.add(TK::Op(1), vec![s.into()]).unwrap();
        let _dead = g.add(TK::Op(1), vec![s.into()]).unwrap();
        g.mark_output(live).unwrap();
        let (pruned, remap) = g.eliminate_dead().unwrap();
        assert_eq!(pruned.len(), 2);
        assert_eq!(remap[&live], NodeId(1));
        assert_eq!(pruned.outputs()[0].node, NodeId(1));
    }

    #[test]
    fn multi_output_ports() {
        let mut g: Graph<TK> = Graph::new();
        let s = g.add(TK::Src, vec![]).unwrap();
        let split = g.add(TK::Op(3), vec![s.into()]).unwrap();
        let use2 = g
            .add(
                TK::Op(1),
                vec![PortRef {
                    node: split,
                    port: 2,
                }],
            )
            .unwrap();
        g.mark_output(use2).unwrap();
        assert_eq!(g.node(split).out_metas.len(), 3);
    }
}
