//! Kernel identification is paid per distinct subgraph (state pairs on
//! bitset words, one member pass per subgraph), but it must identify
//! exactly what pricing every state pair and every output set from
//! scratch identifies. `reference_identify` below is that definition:
//! the pair loop over member-id vectors and one `kernel_spec` per output
//! set, pricing every member set. `identify_kernels` keeps only the
//! BLP's variables and skips the member sets its latency floor rules
//! out, so the reference's candidates go through `cap_vars`, the cap's
//! definition as a stable sort of the whole list. `identify_kernels` must
//! match the capped list field for field and in order — the BLP's rows
//! follow candidate order — with latencies and tuning times equal to the
//! bit, and price no more member sets than the reference (exactly as many
//! when it skipped none). No graph here reaches the priced-set cap, whose
//! own unit test is in `kernel.rs`.

use korch::core::partition;
use korch::cost::{kernel_spec, Backend, Device, Profiler};
use korch::fission::fission;
use korch::ir::{NodeId, OpGraph, PortRef, PrimGraph, PrimKind};
use korch::models::{candy, subgraphs, CandyConfig};
use korch::orch::{
    backend_applicable, enumerate_states, greedy_seed_groups, identify_kernels, CandidateKernel,
    Candidates, IdentifyConfig, StateSpace, DEFAULT_MAX_STATES,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

mod common;

/// The §6.5 caps `identify_kernels` applies.
const MAX_KERNEL_PRIMS: usize = 18;
const MAX_LINEAR_PER_KERNEL: usize = 1;

/// The BLP's variable cap.
const MAX_BLP_CANDIDATES: usize = 220;

/// The member sets `identify_kernels` prices at most; below it, the
/// uncapped reference is its definition.
const MAX_PRICED: usize = 10_000;

/// The backends `Orchestrator` prices on.
const BACKENDS: [Backend; 2] = [Backend::Generated, Backend::Vendor];

/// Identification by definition: every state pair allocates its member
/// vector, every output set gets its own `kernel_spec`.
fn reference_identify(
    g: &PrimGraph,
    space: &StateSpace,
    profiler: &Profiler,
    config: &IdentifyConfig,
    backends: &[Backend],
) -> Candidates {
    let mut r = Reference {
        g,
        succ: g.successors(),
        graph_outputs: g.outputs().iter().copied().collect(),
        profiler,
        config,
        backends,
        seen: HashSet::new(),
        out: Candidates {
            kernels: Vec::new(),
            priced: 0,
            skipped: 0,
            seed_selections: Vec::new(),
        },
    };
    let mut singleton_latency = vec![f64::INFINITY; g.len()];
    for (id, node) in g.iter() {
        if node.kind.is_source() {
            continue;
        }
        let first = r.out.kernels.len();
        r.admit(&[id], false, f64::INFINITY);
        let priced = r.out.kernels[first..].iter().map(|k| k.latency.0);
        singleton_latency[id.0] = priced.fold(f64::INFINITY, f64::min);
    }
    for (close_at_reduce, isolate_fan_in, linear_open) in [
        (false, false, true),
        (true, false, true),
        (false, true, true),
        (false, false, false),
    ] {
        let selection = greedy_seed_groups(g, close_at_reduce, isolate_fan_in, linear_open);
        for members in &selection {
            r.admit(members, true, f64::INFINITY);
        }
        r.out.seed_selections.push(selection);
    }
    let all: Vec<NodeId> = g
        .iter()
        .filter(|(_, n)| !n.kind.is_source())
        .map(|(id, _)| id)
        .collect();
    if all.len() > 1 && !r.rejects(&all) {
        r.admit(&all, true, f64::INFINITY);
        r.out.seed_selections.push(vec![all]);
    }
    for d1 in &space.states {
        for d2 in &space.states {
            if d1 == d2 || !d1.is_subset(d2) {
                continue;
            }
            let members = d1.diff_from(d2);
            if members.is_empty() || members.len() > MAX_KERNEL_PRIMS {
                continue;
            }
            let singleton_sum: f64 = members.iter().map(|m| singleton_latency[m.0]).sum();
            r.admit(&members, false, singleton_sum);
        }
    }
    r.out
}

struct Reference<'a> {
    g: &'a PrimGraph,
    succ: Vec<Vec<NodeId>>,
    graph_outputs: HashSet<PortRef>,
    profiler: &'a Profiler,
    config: &'a IdentifyConfig,
    backends: &'a [Backend],
    seen: HashSet<Vec<NodeId>>,
    out: Candidates,
}

impl Reference<'_> {
    fn rejects(&self, members: &[NodeId]) -> bool {
        let kinds = || members.iter().map(|&m| &self.g.node(m).kind);
        kinds().filter(|k| k.is_linear()).count() > MAX_LINEAR_PER_KERNEL
            || (members.len() > 1 && kinds().any(|k| matches!(k, PrimKind::Opaque { .. })))
    }

    fn admit(&mut self, members: &[NodeId], seeded: bool, reject_at: f64) {
        if !self.seen.insert(members.to_vec()) || self.rejects(members) {
            return;
        }
        self.out.priced += 1;
        let g = self.g;
        let member_set: BTreeSet<NodeId> = members.iter().copied().collect();
        for (output_nodes, outputs, full_output) in self.output_sets(&member_set) {
            let spec = kernel_spec(g, &member_set, &outputs);
            let priced = (self.backends.iter())
                .filter(|&&b| backend_applicable(g, members, &spec, b))
                .map(|&b| (b, self.profiler.latency(&spec, b)));
            let best = priced.reduce(|best, next| if next.1 .0 < best.1 .0 { next } else { best });
            let Some((backend, latency)) = best else {
                continue;
            };
            let tuning_s = self.profiler.tuning_time_s(&spec, backend);
            if latency.0 >= reject_at {
                continue;
            }
            self.out.kernels.push(CandidateKernel {
                members: members.to_vec(),
                full_output,
                seeded,
                output_nodes,
                outputs,
                spec,
                backend,
                latency,
                tuning_s,
            });
        }
    }

    /// Definition 3's possible output sets, one ordered port set per node.
    fn output_sets(&self, members: &BTreeSet<NodeId>) -> Vec<(Vec<NodeId>, Vec<PortRef>, bool)> {
        let g = self.g;
        let mut qualifying: Vec<(NodeId, Vec<PortRef>)> = Vec::new();
        for &m in members {
            let mut ports: BTreeSet<PortRef> = BTreeSet::new();
            for &s in &self.succ[m.0] {
                if !members.contains(&s) {
                    ports.extend(g.node(s).inputs.iter().filter(|r| r.node == m));
                }
            }
            for port in 0..g.node(m).out_metas.len() {
                let p = PortRef { node: m, port };
                if self.graph_outputs.contains(&p) {
                    ports.insert(p);
                }
            }
            if !ports.is_empty() {
                qualifying.push((m, ports.into_iter().collect()));
            }
        }
        let multi = self.config.multi_output;
        let mut out = Vec::new();
        for (i, (n1, p1)) in qualifying.iter().enumerate() {
            out.push((vec![*n1], p1.clone(), qualifying.len() == 1));
            if multi {
                for (n2, p2) in qualifying.iter().skip(i + 1) {
                    out.push((
                        vec![*n1, *n2],
                        [&p1[..], p2].concat(),
                        qualifying.len() == 2,
                    ));
                }
            }
        }
        if qualifying.len() > if multi { 2 } else { 1 } {
            let (nodes, ports): (Vec<NodeId>, Vec<Vec<PortRef>>) = qualifying.into_iter().unzip();
            out.push((nodes, ports.concat(), true));
        }
        out
    }
}

/// The cap as `optimize` applied it: when `items` exceeds `cap`, every
/// `protected` item in the order given, then the rest by ascending
/// `efficiency` (a stable sort) up to the cap.
fn cap_vars<T>(
    items: &[T],
    cap: usize,
    protected: impl Fn(&T) -> bool,
    efficiency: impl Fn(&T) -> f64,
) -> Vec<&T> {
    if items.len() <= cap {
        return items.iter().collect();
    }
    let (mut kept, mut rest): (Vec<&T>, Vec<&T>) = items.iter().partition(|t| protected(t));
    rest.sort_by(|a, b| efficiency(a).total_cmp(&efficiency(b)));
    rest.truncate(cap.saturating_sub(kept.len()));
    kept.append(&mut rest);
    kept
}

/// `identify_kernels` against the capped reference on one graph; returns
/// what `identify_kernels` identified.
fn assert_identifies_as_reference(
    ctx: &str,
    g: &PrimGraph,
    space: &StateSpace,
    config: &IdentifyConfig,
) -> Candidates {
    let profiler = Profiler::new(Device::v100());
    let fast = identify_kernels(g, space, &profiler, config, &BACKENDS);
    let reference = reference_identify(g, space, &profiler, config, &BACKENDS);
    assert_eq!(
        fast.seed_selections, reference.seed_selections,
        "{ctx}: seed selections"
    );
    assert!(
        fast.priced < MAX_PRICED,
        "{ctx}: stopped at the priced-set cap"
    );
    assert!(
        fast.priced <= reference.priced,
        "{ctx}: priced {} of the reference's {}",
        fast.priced,
        reference.priced
    );
    if fast.skipped == 0 {
        assert_eq!(fast.priced, reference.priced, "{ctx}: priced, none skipped");
    }
    let capped = cap_vars(
        &reference.kernels,
        MAX_BLP_CANDIDATES,
        |k| k.members.len() == 1 || k.seeded,
        |k| k.latency.0 / k.members.len() as f64,
    );
    assert_eq!(fast.kernels.len(), capped.len(), "{ctx}: candidate count");
    for (i, (a, b)) in fast.kernels.iter().zip(capped).enumerate() {
        let fields = |k: &CandidateKernel| {
            (
                k.members.clone(),
                k.full_output,
                k.seeded,
                k.output_nodes.clone(),
                k.outputs.clone(),
                k.spec.clone(),
                k.backend,
                k.latency.0.to_bits(),
                k.tuning_s.to_bits(),
            )
        };
        assert_eq!(fields(a), fields(b), "{ctx}: candidate {i}");
    }
    fast
}

/// Every identify configuration a caller can set.
fn configs() -> [IdentifyConfig; 2] {
    [
        IdentifyConfig::default(),
        IdentifyConfig { multi_output: true },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1's random DAGs, whole and truncated state spaces.
    #[test]
    fn random_dags_identify_as_the_reference(g in common::arb_dag()) {
        for max_states in [5_000, 6] {
            let space = enumerate_states(&g, max_states);
            for (c, config) in configs().iter().enumerate() {
                let ctx = format!("max_states {max_states}, config {c}");
                assert_identifies_as_reference(&ctx, &g, &space, config);
            }
        }
    }
}

/// Every partition of a model, at `Korch::optimize`'s partition size and
/// state cap; returns how many partitions skipped some member set.
fn model_identifies_as_the_reference(name: &str, model: &OpGraph) -> usize {
    let prims = fission(model).unwrap().prim_graph;
    let mut skipping = 0;
    for (i, part) in partition(&prims, 28).unwrap().iter().enumerate() {
        let space = enumerate_states(&part.graph, DEFAULT_MAX_STATES);
        let ctx = format!("{name} partition {i}");
        let cands =
            assert_identifies_as_reference(&ctx, &part.graph, &space, &IdentifyConfig::default());
        skipping += usize::from(cands.skipped > 0);
    }
    skipping
}

#[test]
fn efficientvit_attention_identifies_as_the_reference() {
    model_identifies_as_the_reference("effvit64", &subgraphs::efficientvit_attention(64, 16));
}

#[test]
fn candy_identifies_as_the_reference_past_the_latency_floor() {
    let candy32 = candy(CandyConfig {
        resolution: 32,
        width: 8,
        residual_blocks: 0,
    });
    // Candy's partitions overflow the keep, so the floor skips member
    // sets there and candidate rank decides which candidates are kept.
    assert!(
        model_identifies_as_the_reference("candy32", &candy32) > 0,
        "no candy32 partition skipped a member set"
    );
}
