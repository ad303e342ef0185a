//! Property tests of the paper's Theorem 1: a node set is a convex subgraph
//! iff it is the difference of two execution states. Random DAGs, both
//! directions.

use common::arb_dag;
use korch::ir::{NodeId, PrimGraph};
use korch::orch::{enumerate_states, BitSet};
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;

fn computational(g: &PrimGraph) -> Vec<NodeId> {
    g.iter()
        .filter(|(_, n)| !n.kind.is_source())
        .map(|(id, _)| id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forward direction: every difference of two execution states is a
    /// convex subgraph.
    #[test]
    fn state_differences_are_convex(g in arb_dag()) {
        let space = enumerate_states(&g, 5_000);
        prop_assume!(!space.truncated);
        let reach = g.reachability();
        for d1 in &space.states {
            for d2 in &space.states {
                if d1 == d2 || !d1.is_subset(d2) {
                    continue;
                }
                let diff: BTreeSet<NodeId> = d1.diff_from(d2).into_iter().collect();
                prop_assert!(
                    g.is_convex(&diff, &reach),
                    "state difference {diff:?} is not convex"
                );
            }
        }
    }

    /// Reverse direction: every convex subgraph appears as a difference of
    /// two enumerated execution states (checked on all subsets of the
    /// computational nodes, which stays feasible for ≤ 10 nodes).
    #[test]
    fn convex_subgraphs_are_state_differences(g in arb_dag()) {
        let nodes = computational(&g);
        prop_assume!(nodes.len() <= 8);
        let space = enumerate_states(&g, 100_000);
        prop_assume!(!space.truncated);
        let reach = g.reachability();
        // Collect all differences once.
        let mut diffs: std::collections::HashSet<Vec<NodeId>> = std::collections::HashSet::new();
        for d1 in &space.states {
            for d2 in &space.states {
                if d1 != d2 && d1.is_subset(d2) {
                    diffs.insert(d1.diff_from(d2));
                }
            }
        }
        for mask in 1u32..(1 << nodes.len()) {
            let set: BTreeSet<NodeId> = nodes
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &id)| id)
                .collect();
            if g.is_convex(&set, &reach) {
                let as_vec: Vec<NodeId> = set.iter().copied().collect();
                prop_assert!(
                    diffs.contains(&as_vec),
                    "convex set {as_vec:?} not expressible as a state difference"
                );
            }
        }
    }

    /// Execution states are exactly the predecessor-closed sets.
    #[test]
    fn states_are_predecessor_closed_sets(g in arb_dag()) {
        let nodes = computational(&g);
        prop_assume!(nodes.len() <= 8);
        let space = enumerate_states(&g, 100_000);
        prop_assume!(!space.truncated);
        // Count predecessor-closed subsets of computational nodes.
        let mut closed = 0usize;
        for mask in 0u32..(1 << nodes.len()) {
            let in_set = |id: NodeId| {
                nodes.iter().position(|&n| n == id).map(|i| mask & (1 << i) != 0)
            };
            let mut ok = true;
            'outer: for (i, &id) in nodes.iter().enumerate() {
                if mask & (1 << i) == 0 {
                    continue;
                }
                for r in &g.node(id).inputs {
                    if let Some(false) = in_set(r.node) {
                        ok = false;
                        break 'outer;
                    }
                }
            }
            if ok {
                closed += 1;
            }
        }
        prop_assert_eq!(space.states.len(), closed);
    }
}

#[test]
fn bitset_subset_diff_consistency() {
    // 130 bits span three words; bits 0, 63/64 and 129 sit on the edges.
    let set = |ids: &[usize]| {
        let ids: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        BitSet::from_ids(130, &ids)
    };
    let mut a = BitSet::empty(130);
    let mut b = BitSet::empty(130);
    for i in [0usize, 64, 129] {
        b.insert(i);
    }
    a.insert(64);
    assert!(a.is_subset(&b));
    let d = a.diff_from(&b);
    assert_eq!(d, vec![NodeId(0), NodeId(129)]);
    assert_eq!(b, set(&[0, 64, 129]));
    assert_eq!(b.ids(), vec![NodeId(0), NodeId(64), NodeId(129)]);

    // Difference-if-subset: the difference, its size, and `None` as soon
    // as one word breaks the subset relation.
    let mut out = set(&[1, 2, 3]); // stale contents are overwritten
    assert_eq!(a.diff_if_subset(&b, &mut out), Some(2));
    assert_eq!(out, set(&[0, 129]));
    assert_eq!(out.ids(), d);
    assert_eq!(b.diff_if_subset(&b, &mut out), Some(0));
    assert_eq!(out, BitSet::empty(130));
    assert_eq!(b.diff_if_subset(&a, &mut out), None);
    assert_eq!(set(&[63, 128]).diff_if_subset(&b, &mut out), None);
    assert_eq!(
        set(&[129]).diff_if_subset(&set(&[63, 64, 129]), &mut out),
        Some(2)
    );
    assert_eq!(out, set(&[63, 64]));

    // Union-if-disjoint: the union across every word, refused on any
    // shared bit (the last word included).
    assert!(set(&[0, 129]).union_if_disjoint(&set(&[63, 64]), &mut out));
    assert_eq!(out, set(&[0, 63, 64, 129]));
    assert_eq!(out.count(), 4);
    assert!(!b.union_if_disjoint(&set(&[5, 129]), &mut out));
    assert!(!b.union_if_disjoint(&a, &mut out));
    assert!(BitSet::empty(130).union_if_disjoint(&b, &mut out));
    assert_eq!(out, b);

    // Exhaustively over sets drawn from the boundary bits, the word
    // operations agree with the element-wise definitions.
    let bits = [0usize, 1, 63, 64, 65, 127, 128, 129];
    let from_mask = |m: u32| -> Vec<usize> {
        (0..bits.len())
            .filter(|i| m & (1 << i) != 0)
            .map(|i| bits[i])
            .collect()
    };
    for ma in 0u32..(1 << bits.len()) {
        for mb in (0u32..(1 << bits.len())).step_by(7) {
            let (x, y) = (set(&from_mask(ma)), set(&from_mask(mb)));
            let subset = ma & !mb == 0;
            let expect_diff = (subset).then(|| from_mask(mb & !ma).len());
            assert_eq!(x.diff_if_subset(&y, &mut out), expect_diff);
            if subset {
                assert_eq!(out, set(&from_mask(mb & !ma)));
            }
            let disjoint = ma & mb == 0;
            assert_eq!(x.union_if_disjoint(&y, &mut out), disjoint);
            if disjoint {
                assert_eq!(out, set(&from_mask(ma | mb)));
            }
        }
    }
}
