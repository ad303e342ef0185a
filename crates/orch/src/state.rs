//! Execution states (paper Definition 2) and their DFS enumeration
//! (Algorithm 1, first half).
//!
//! An execution state is a predecessor-closed node set: if a node is in the
//! state, all its producers are too. Source nodes (inputs/constants) live in
//! every state — they occupy no kernel — so the enumeration runs over
//! computational primitives only.

use korch_ir::{NodeId, PrimGraph};
use std::collections::HashSet;

/// A fixed-width bitset over the nodes of one graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set sized for `n` bits.
    pub fn empty(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts a bit.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `true` iff `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Set difference `other \ self` as node ids.
    pub fn diff_from(&self, other: &BitSet) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (w, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            push_ids(&mut out, w, b & !a);
        }
        out
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set over `n` bits holding `ids`.
    pub fn from_ids(n: usize, ids: &[NodeId]) -> Self {
        let mut set = Self::empty(n);
        for id in ids {
            set.insert(id.0);
        }
        set
    }

    /// The set bits as node ids, ascending.
    pub fn ids(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (w, &bits) in self.words.iter().enumerate() {
            push_ids(&mut out, w, bits);
        }
        out
    }

    /// When `self ⊆ other`, writes `other \ self` into `out` (same width)
    /// and returns its size; otherwise `None`, leaving `out` unspecified.
    /// Subset test, difference and popcount share one pass over the words.
    pub fn diff_if_subset(&self, other: &BitSet, out: &mut BitSet) -> Option<usize> {
        let mut count = 0;
        for ((o, &a), &b) in out.words.iter_mut().zip(&self.words).zip(&other.words) {
            if a & !b != 0 {
                return None;
            }
            *o = b & !a;
            count += o.count_ones() as usize;
        }
        Some(count)
    }

    /// When `self` and `other` are disjoint, writes `self ∪ other` into
    /// `out` (same width) and returns `true`; otherwise `false`, leaving
    /// `out` unspecified.
    pub fn union_if_disjoint(&self, other: &BitSet, out: &mut BitSet) -> bool {
        for ((o, &a), &b) in out.words.iter_mut().zip(&self.words).zip(&other.words) {
            if a & b != 0 {
                return false;
            }
            *o = a | b;
        }
        true
    }
}

/// Appends the ids of the set bits of word `w` to `out`, ascending.
fn push_ids(out: &mut Vec<NodeId>, w: usize, mut bits: u64) {
    while bits != 0 {
        out.push(NodeId(w * 64 + bits.trailing_zeros() as usize));
        bits &= bits - 1;
    }
}

/// Result of execution-state enumeration.
#[derive(Debug, Clone)]
pub struct StateSpace {
    /// All enumerated states (the database `B` of Algorithm 1).
    pub states: Vec<BitSet>,
    /// Whether the enumeration hit the state cap before completing.
    pub truncated: bool,
}

/// Enumerates execution states via depth-first search (Algorithm 1 lines
/// 3–11), up to `max_states` states. Source nodes are preloaded into every
/// state.
pub fn enumerate_states(g: &PrimGraph, max_states: usize) -> StateSpace {
    let n = g.len();
    let mut initial = BitSet::empty(n);
    for (id, node) in g.iter() {
        if node.kind.is_source() {
            initial.insert(id.0);
        }
    }
    let mut db: HashSet<BitSet> = HashSet::new();
    let mut order: Vec<BitSet> = Vec::new();
    db.insert(initial.clone());
    order.push(initial.clone());
    let mut truncated = false;

    // Iterative DFS over (state, frontier candidates).
    let mut stack = vec![initial];
    while let Some(state) = stack.pop() {
        if order.len() >= max_states {
            truncated = true;
            break;
        }
        for (id, node) in g.iter() {
            if state.contains(id.0) || node.kind.is_source() {
                continue;
            }
            // Executable next iff all producers are already in the state.
            if node.inputs.iter().all(|r| state.contains(r.node.0)) {
                let mut next = state.clone();
                next.insert(id.0);
                if db.insert(next.clone()) {
                    order.push(next.clone());
                    stack.push(next);
                    if order.len() >= max_states {
                        truncated = true;
                        break;
                    }
                }
            }
        }
        if truncated {
            break;
        }
    }
    StateSpace {
        states: order,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_ir::{EwFn, PrimKind};
    use korch_tensor::UnaryOp;

    fn chain(n: usize) -> PrimGraph {
        let mut g = PrimGraph::new();
        let mut prev = g.add(PrimKind::Input { shape: vec![4] }, vec![]).unwrap();
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

    fn diamond() -> PrimGraph {
        let mut g = PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: vec![4] }, vec![]).unwrap();
        let a = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)),
                vec![x.into()],
            )
            .unwrap();
        let b = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)),
                vec![x.into()],
            )
            .unwrap();
        let c = g
            .add(
                PrimKind::Elementwise(EwFn::Binary(korch_tensor::BinaryOp::Add)),
                vec![a.into(), b.into()],
            )
            .unwrap();
        g.mark_output(c).unwrap();
        g
    }

    #[test]
    fn bitset_basics() {
        let mut a = BitSet::empty(100);
        a.insert(3);
        a.insert(70);
        assert!(a.contains(3) && a.contains(70) && !a.contains(4));
        assert_eq!(a.count(), 2);
        let mut b = a.clone();
        b.insert(99);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert_eq!(a.diff_from(&b), vec![NodeId(99)]);
    }

    #[test]
    fn chain_states_grow_linearly() {
        // A depth-n chain has exactly n+1 execution states (paper §4:
        // states grow linearly with depth).
        for n in [1, 4, 9] {
            let g = chain(n);
            let s = enumerate_states(&g, 10_000);
            assert_eq!(s.states.len(), n + 1);
            assert!(!s.truncated);
        }
    }

    #[test]
    fn diamond_states_include_interleavings() {
        // Diamond: {}, {a}, {b}, {a,b}, {a,b,c} -> 5 states (sources
        // implicit), exponential in width as the paper notes.
        let g = diamond();
        let s = enumerate_states(&g, 10_000);
        assert_eq!(s.states.len(), 5);
    }

    #[test]
    fn states_are_predecessor_closed() {
        let g = diamond();
        let s = enumerate_states(&g, 10_000);
        for st in &s.states {
            for (id, node) in g.iter() {
                if st.contains(id.0) {
                    for r in &node.inputs {
                        assert!(st.contains(r.node.0), "state not closed at {id:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn cap_truncates() {
        let g = chain(50);
        let s = enumerate_states(&g, 10);
        assert!(s.truncated);
        assert!(s.states.len() <= 10);
    }
}
