//! Kernel identification (paper §4.1, Algorithm 1 second half): every pair
//! of execution states `D1 ⊂ D2` yields a convex candidate subgraph
//! `P′ = D2 \ D1`; each valid possible-output choice of `P′` becomes a
//! candidate kernel, priced by the profiler on its best backend.
//!
//! The work is paid per *distinct subgraph*, not per state pair or per
//! candidate. State pairs are compared on the words of their
//! [`BitSet`]s, and a difference already seen (about two thirds of the
//! in-cap pairs on a Candy CNN) is dropped before it allocates. A fresh
//! subgraph runs the member pass of its cost spec
//! ([`korch_cost::member_spec`]) and its backend applicability test
//! once; each of its output sets adds only the output pass
//! ([`korch_cost::output_bytes`]) and its pricing. The candidates, their
//! order and their prices are those of pricing every output set with
//! [`korch_cost::kernel_spec`].
//!
//! Identification returns the BLP's variables and nothing more: at most
//! `MAX_BLP_CANDIDATES` (220), unless the singletons and seeds alone are
//! more. The state-pair loop keeps only the best candidates it has seen
//! in a bounded max-heap, and a candidate that cannot enter the heap is
//! never built. Once that heap ranks and is full, a state pair whose
//! member count `n` puts even the profiler's latency floor over `n` at
//! or above the heap's worst latency per member is skipped unpriced: no
//! output set of it could be kept. The 1 500-state cap, the per-kernel
//! primitive cap and a cap on the member sets priced bound the loop;
//! nothing counts admissions.

use crate::plan::SelectedKernel;
use crate::state::{BitSet, StateSpace};
use korch_cost::{member_spec, output_bytes, Backend, KernelSpec, Micros, Profiler};
use korch_ir::{NodeId, PortRef, PrimGraph, PrimKind};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Maximum primitives per state-pair kernel ("too many operators to
/// generate within one kernel", §6.5). Greedy-fusion seeds may exceed it.
const MAX_KERNEL_PRIMS: usize = 18;

/// Maximum linear-transformation primitives per kernel ("including
/// multiple linear transformation primitives" is rejected, §6.5).
const MAX_LINEAR_PER_KERNEL: usize = 1;

/// Distinct member sets priced, after which the state-pair loop stops. It
/// bounds identification's work, not its candidates: left uncapped, the
/// sets priced past it on EfficientViT's and YOLOv4's widest partitions
/// (up to 25 000) slowed identification and made the BLPs harder.
const MAX_PRICED: usize = 10_000;

/// Maximum candidates handed to the BLP. Beyond this, singletons and seeds
/// are kept (for feasibility) and the most efficient fusions fill the
/// remainder — an extension of the paper's §6.5 rejection heuristics that
/// keeps the solve tractable on one CPU core.
const MAX_BLP_CANDIDATES: usize = 220;

/// The variable part of kernel identification; the §6.5 rejection
/// heuristics and the candidate cap are fixed.
#[derive(Debug, Clone, Default)]
pub struct IdentifyConfig {
    /// Allow kernels that materialize more than one output primitive
    /// (paper §5.2 restricts to one; §8 lists multi-output as future work).
    pub multi_output: bool,
}

/// A candidate kernel: a convex set of primitives, the primitives it
/// materializes, and its profiled latency.
#[derive(Debug, Clone)]
pub struct CandidateKernel {
    /// Member primitives, ascending id (= topological) order.
    pub members: Vec<NodeId>,
    /// This candidate materializes *every* externally visible node of its
    /// member set (used by the chain-DP incumbent).
    pub full_output: bool,
    /// Came from a greedy-fusion seed group (protected from pruning).
    pub seeded: bool,
    /// Output *nodes* this kernel materializes.
    pub output_nodes: Vec<NodeId>,
    /// Output ports written to device memory (the externally consumed ports
    /// of `output_nodes`).
    pub outputs: Vec<PortRef>,
    /// Extracted cost features.
    pub spec: KernelSpec,
    /// The cheapest applicable backend.
    pub backend: Backend,
    /// Profiled latency on that backend.
    pub latency: Micros,
    /// Simulated tuning time on `backend` (Table 2 accounting; `optimize`
    /// charges each distinct `(spec, backend)` once).
    pub tuning_s: f64,
}

impl CandidateKernel {
    /// The primitives the kernel reads from device memory: inputs of its
    /// members that are neither members nor sources (graph inputs and
    /// constants are always available). Ascending, deduplicated.
    pub(crate) fn external_inputs(&self, g: &PrimGraph) -> Vec<NodeId> {
        let members: HashSet<NodeId> = self.members.iter().copied().collect();
        let mut ext: Vec<NodeId> = self
            .members
            .iter()
            .flat_map(|&m| g.node(m).inputs.iter())
            .map(|r| r.node)
            .filter(|&j| !members.contains(&j) && !g.node(j).kind.is_source())
            .collect();
        ext.sort_unstable();
        ext.dedup();
        ext
    }

    /// The kernel as a plan entry.
    pub(crate) fn selected(&self) -> SelectedKernel {
        SelectedKernel {
            members: self.members.clone(),
            outputs: self.outputs.clone(),
            latency: self.latency,
            backend: self.backend,
        }
    }
}

/// The primitives some selected kernel must materialize: the graph's
/// outputs, except sources (pass-through inputs/constants at partition
/// boundaries), which are always available and need no kernel.
pub(crate) fn required_outputs(g: &PrimGraph) -> impl Iterator<Item = NodeId> + '_ {
    let outputs = g.outputs().iter().map(|p| p.node);
    outputs.filter(|&t| !g.node(t).kind.is_source())
}

/// Result of kernel identification. It keeps no tuning clock: each kept
/// candidate carries its [`CandidateKernel::tuning_s`], and
/// [`optimize`](crate::optimize) lists each distinct `(spec, backend)`
/// among them once in [`SolveReport::tuned`](crate::SolveReport::tuned).
#[derive(Debug, Clone)]
pub struct Candidates {
    /// The BLP's variables. When at most 220 candidates were admitted
    /// (priced on a backend and below their rejection threshold), all of
    /// them in admission order. Otherwise every singleton and seed in
    /// admission order, then the most efficient other candidates (lowest
    /// latency per member primitive, the earlier admitted on ties) up to
    /// 220 in all; singletons and seeds are kept even beyond.
    pub kernels: Vec<CandidateKernel>,
    /// Distinct member sets priced: each ran its member pass once and
    /// priced every output set, whether a candidate was kept or not.
    pub priced: usize,
    /// State pairs in the size window skipped unread because the latency
    /// floor ruled their member set out (see the module doc). A pair is
    /// counted before its subset test, and a member set may be skipped
    /// once per pair that yields it.
    pub skipped: usize,
    /// Complete greedy-fusion selections (each a disjoint cover of all
    /// primitives by member sets); used as BLP warm-start incumbents.
    pub seed_selections: Vec<Vec<Vec<NodeId>>>,
}

/// Identifies candidate kernels from an enumerated state space and keeps
/// the ones the BLP takes (see [`Candidates::kernels`]).
///
/// `backends` are tried in order; the cheapest *applicable* one wins:
/// memory-intensive kernels may not use [`Backend::Vendor`], and vendor
/// kernels must look like `linear + small epilogue` (paper §5.2 rejects
/// compute-intensive subgraphs that do not match vendor-library entry
/// points).
pub fn identify_kernels(
    g: &PrimGraph,
    space: &StateSpace,
    profiler: &Profiler,
    config: &IdentifyConfig,
    backends: &[Backend],
) -> Candidates {
    identify_capped(g, space, profiler, config, backends, MAX_PRICED)
}

/// [`identify_kernels`], its state-pair loop stopping at a fresh member
/// set once `max_priced` sets are priced.
fn identify_capped(
    g: &PrimGraph,
    space: &StateSpace,
    profiler: &Profiler,
    config: &IdentifyConfig,
    backends: &[Backend],
    max_priced: usize,
) -> Candidates {
    let mut adm = Admission {
        g,
        succ: g.successors(),
        graph_outputs: graph_outputs_by_node(g),
        profiler,
        config,
        backends,
        seen: HashSet::new(),
        keep: Keep::default(),
        out: Candidates {
            kernels: Vec::new(),
            priced: 0,
            skipped: 0,
            seed_selections: Vec::new(),
        },
    };

    // First pass: singleton kernels. Their latencies also power the "not
    // beneficial" rejection heuristic below (paper §6.5: "most of the
    // candidate kernels can be rejected with simple heuristics").
    let mut singleton_latency: Vec<f64> = vec![f64::INFINITY; g.len()];
    for (id, node) in g.iter() {
        if node.kind.is_source() {
            continue;
        }
        singleton_latency[id.0] = adm.admit(&[id], false, f64::INFINITY);
    }

    // Greedy-fusion seed groups: guarantee the candidate set contains the
    // strategies a rule-based fuser would pick, even when the state DFS is
    // truncated on wide graphs. These may exceed `MAX_KERNEL_PRIMS`.
    for (close_at_reduce, isolate_fan_in, linear_open) in [
        (false, false, true),
        (true, false, true),
        (false, true, true),
        (false, false, false),
    ] {
        let selection = greedy_seed_groups(g, close_at_reduce, isolate_fan_in, linear_open);
        for members in &selection {
            adm.admit(members, true, f64::INFINITY);
        }
        adm.out.seed_selections.push(selection);
    }
    // "Fuse everything" seed (paper Fig. 11a — what TVM picks for a
    // memory-bound subgraph): valid when at most one linear primitive and
    // no opaque primitive is present.
    let all: Vec<NodeId> = g
        .iter()
        .filter(|(_, n)| !n.kind.is_source())
        .map(|(id, _)| id)
        .collect();
    if all.len() > 1 && !adm.rejects(&all) {
        adm.admit(&all, true, f64::INFINITY);
        adm.out.seed_selections.push(vec![all]);
    }

    // State pairs `D1 ⊂ D2`, on words: `|D2 \ D1| = |D2| − |D1|` skips
    // every pair outside the size cap, and every pair the latency floor
    // rules out, before a word is read; one reused difference set carries
    // the subset test and the `seen` probe, so only a fresh member set
    // allocates.
    let sizes: Vec<usize> = space.states.iter().map(BitSet::count).collect();
    let floor = profiler.latency_floor_us();
    let mut fewest = adm.keep.fewest_members(floor);
    let mut diff = BitSet::empty(g.len());
    'outer: for (d1, &n1) in space.states.iter().zip(&sizes) {
        for (d2, &n2) in space.states.iter().zip(&sizes) {
            if n2 <= n1 || n2 - n1 > MAX_KERNEL_PRIMS {
                continue;
            }
            // Too few members to be kept even at the floor. The keep's
            // worst only improves, so a skipped set never needs `seen`.
            if n2 - n1 < fewest {
                adm.out.skipped += 1;
                continue;
            }
            if d1.diff_if_subset(d2, &mut diff).is_none() {
                continue;
            }
            if adm.seen.contains(&diff) {
                continue;
            }
            if adm.out.priced >= max_priced {
                break 'outer;
            }
            adm.seen.insert(diff.clone());
            let members = diff.ids();
            // Reject fusions that cannot beat running their members as
            // individual kernels (launch savings are already priced in).
            let singleton_sum: f64 = members.iter().map(|m| singleton_latency[m.0]).sum();
            adm.price(&members, false, singleton_sum);
            fewest = adm.keep.fewest_members(floor);
        }
    }
    adm.out.kernels = adm.keep.into_kernels();
    adm.out
}

/// The one path a convex subgraph takes into the candidate set.
struct Admission<'a> {
    g: &'a PrimGraph,
    succ: Vec<Vec<NodeId>>,
    /// Per node, its ports that are graph outputs.
    graph_outputs: Vec<Vec<PortRef>>,
    profiler: &'a Profiler,
    config: &'a IdentifyConfig,
    backends: &'a [Backend],
    /// Member sets already priced (or rejected) once.
    seen: HashSet<BitSet>,
    keep: Keep,
    /// Everything but the kept kernels, which `keep` holds until the end.
    out: Candidates,
}

/// The bounded keep: every protected candidate (singletons and seeds) and,
/// in a max-heap, the best `MAX_BLP_CANDIDATES − protected` others.
#[derive(Default)]
struct Keep {
    /// Candidates offered (admitted) so far; the next one's admission
    /// sequence.
    offered: usize,
    /// Singletons and seeds, in admission order.
    protected: Vec<Ranked>,
    /// The best other candidates so far, the worst on top.
    best: BinaryHeap<Ranked>,
}

/// A kept candidate and its rank: (latency per member primitive,
/// admission sequence).
struct Ranked {
    rank: (f64, usize),
    kernel: CandidateKernel,
}

/// The ranking order: more efficient first, the earlier admitted on ties.
fn by_rank((e1, s1): (f64, usize), (e2, s2): (f64, usize)) -> Ordering {
    e1.total_cmp(&e2).then(s1.cmp(&s2))
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        by_rank(self.rank, other.rank)
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl Keep {
    /// Heap slots left beside the protected candidates.
    fn room(&self) -> usize {
        MAX_BLP_CANDIDATES.saturating_sub(self.protected.len())
    }

    /// The fewest members an unprotected set needs to be kept, given a
    /// `floor` under every latency (`MAX_KERNEL_PRIMS + 1` for none). Once
    /// the keep ranks (more than `MAX_BLP_CANDIDATES` offered, so
    /// admission order no longer decides the output) and its heap is
    /// full, a set of `n` costs at least `floor / n` per member, which
    /// must beat the heap's worst: a later candidate loses the tie.
    /// `floor / n` falls as `n` grows, so every larger set may be kept.
    fn fewest_members(&self, floor: f64) -> usize {
        let ranks = self.offered > MAX_BLP_CANDIDATES && self.best.len() >= self.room();
        let beats = |bar: f64| (1..=MAX_KERNEL_PRIMS).find(|&n| floor / (n as f64) < bar);
        match self.best.peek().filter(|_| ranks) {
            Some(worst) => beats(worst.rank.0).unwrap_or(MAX_KERNEL_PRIMS + 1),
            None => 1,
        }
    }

    /// Counts an admitted candidate and keeps it when it is protected (a
    /// singleton or a seed) or ranks among the best others, evicting the
    /// worst over the room left; `build` runs only for a kept candidate.
    fn offer(&mut self, protected: bool, efficiency: f64, build: impl FnOnce() -> CandidateKernel) {
        let rank = (efficiency, self.offered);
        self.offered += 1;
        let takes = protected
            || self.best.len() < self.room()
            || (self.best.peek()).is_some_and(|worst| by_rank(rank, worst.rank).is_lt());
        if !takes {
            return;
        }
        let kept = Ranked {
            rank,
            kernel: build(),
        };
        if protected {
            self.protected.push(kept);
        } else {
            self.best.push(kept);
        }
        if self.best.len() > self.room() {
            self.best.pop();
        }
    }

    /// The BLP's variables: everything in admission order when nothing
    /// was evicted, else the protected candidates in order and then the
    /// rest by rank.
    fn into_kernels(self) -> Vec<CandidateKernel> {
        let mut kept = self.protected;
        if self.offered <= MAX_BLP_CANDIDATES {
            kept.extend(self.best);
            kept.sort_unstable_by_key(|r| r.rank.1);
        } else {
            kept.extend(self.best.into_sorted_vec());
        }
        kept.into_iter().map(|r| r.kernel).collect()
    }
}

impl Admission<'_> {
    /// The §6.5 shape rejections, which hold for every output choice of
    /// `members` and cost no profiling: more linear primitives than one
    /// kernel may hold, or an opaque primitive in company (those execute
    /// alone).
    fn rejects(&self, members: &[NodeId]) -> bool {
        let kinds = || members.iter().map(|&m| &self.g.node(m).kind);
        kinds().filter(|k| k.is_linear()).count() > MAX_LINEAR_PER_KERNEL
            || (members.len() > 1 && kinds().any(|k| matches!(k, PrimKind::Opaque { .. })))
    }

    /// Admits subgraph `members` (ascending) unless it was seen before;
    /// see [`Admission::price`].
    fn admit(&mut self, members: &[NodeId], seeded: bool, reject_at: f64) -> f64 {
        if self.seen.insert(BitSet::from_ids(self.g.len(), members)) {
            self.price(members, seeded, reject_at)
        } else {
            f64::INFINITY
        }
    }

    /// Prices a fresh subgraph `members` (ascending): runs the member pass
    /// of its spec once, expands its possible output sets and, per output
    /// set, adds the output pass, prices the candidate on its best
    /// backend, and keeps it when its latency is below `reject_at` (the
    /// latency of running the members as individual kernels; `∞` keeps
    /// everything a backend serves). A rejected candidate is the profiler
    /// "returning ∞" (Algorithm 1 line 19). An admitted candidate is
    /// counted, and built and charged its tuning time only when the keep
    /// takes it. Returns the lowest admitted latency (`∞` when none).
    fn price(&mut self, members: &[NodeId], seeded: bool, reject_at: f64) -> f64 {
        let mut lowest = f64::INFINITY;
        if self.rejects(members) {
            return lowest;
        }
        self.out.priced += 1;
        let (g, profiler) = (self.g, self.profiler);
        let mut spec = member_spec(g, members);
        // Applicability reads member features only: one test per subgraph.
        let applicable: Vec<Backend> = (self.backends.iter().copied())
            .filter(|&b| backend_applicable(g, members, &spec, b))
            .collect();
        let output_sets = expand_outputs(g, members, &self.succ, &self.graph_outputs, self.config);
        for (output_nodes, outputs, full_output) in output_sets {
            spec.output_bytes = output_bytes(g, members, &outputs);
            let priced = (applicable.iter()).map(|&b| (b, profiler.latency(&spec, b)));
            // The cheapest applicable backend, the first on ties.
            let best = priced.reduce(|best, next| if next.1 .0 < best.1 .0 { next } else { best });
            let Some((backend, latency)) = best else {
                continue;
            };
            if latency.0 >= reject_at {
                continue;
            }
            lowest = lowest.min(latency.0);
            let protected = seeded || members.len() == 1;
            let efficiency = latency.0 / members.len() as f64;
            self.keep.offer(protected, efficiency, || CandidateKernel {
                members: members.to_vec(),
                full_output,
                seeded,
                output_nodes,
                outputs,
                spec: spec.clone(),
                backend,
                latency,
                tuning_s: profiler.tuning_time_s(&spec, backend),
            });
        }
        lowest
    }
}

/// Greedy rule-based fusion over the primitive graph (the strategy space of
/// TVM/TensorRT-style fusers): linear primitives anchor fresh groups,
/// memory-bound primitives join their producer's group when the join stays
/// convex, weight-broadcast chains are adopted lazily by their consumers.
/// With `close_at_reduce`, groups stop absorbing after a reduce primitive
/// (TensorRT-style); without it, reduces fuse through (TVM-style). With
/// `isolate_fan_in`, primitives joining several data streams (concat,
/// residual adds) become dedicated kernels — the per-branch strategy B of
/// paper Fig. 11b. With `linear_open = false`, linear primitives run as
/// dedicated vendor kernels and the pointwise neighbourhood fuses around
/// them instead (paper Fig. 2c maps the MatMul alone to kernel 3).
pub fn greedy_seed_groups(
    g: &PrimGraph,
    close_at_reduce: bool,
    isolate_fan_in: bool,
    linear_open: bool,
) -> Vec<Vec<NodeId>> {
    use std::collections::BTreeSet;
    let reach = g.reachability();
    let mut group_of: Vec<Option<usize>> = vec![None; g.len()];
    let mut members: Vec<BTreeSet<NodeId>> = Vec::new();
    let mut open: Vec<bool> = Vec::new();

    let convex_join = |members: &BTreeSet<NodeId>, extra: NodeId| {
        let mut s = members.clone();
        s.insert(extra);
        g.is_convex(&s, &reach)
    };

    enum Class {
        Source,
        Linear,
        Fusable,
        Reduce,
        Solo,
    }
    let classify = |kind: &PrimKind| match kind.category() {
        korch_ir::PrimCategory::Source => Class::Source,
        korch_ir::PrimCategory::Linear => Class::Linear,
        korch_ir::PrimCategory::Elementwise | korch_ir::PrimCategory::Layout => Class::Fusable,
        korch_ir::PrimCategory::ReduceBroadcast => match kind {
            PrimKind::Reduce { .. } => Class::Reduce,
            PrimKind::WindowReduce { .. } => Class::Solo,
            _ => Class::Fusable,
        },
        korch_ir::PrimCategory::Opaque => Class::Solo,
    };

    for (id, node) in g.iter() {
        let class = classify(&node.kind);
        if matches!(class, Class::Source) {
            continue;
        }
        let distinct_producers = {
            let mut p: Vec<NodeId> = node
                .inputs
                .iter()
                .map(|r| r.node)
                .filter(|&p| !g.node(p).kind.is_source())
                .collect();
            p.sort_unstable();
            p.dedup();
            p.len()
        };
        if isolate_fan_in && distinct_producers > 1 {
            members.push([id].into_iter().collect());
            open.push(false);
            group_of[id.0] = Some(members.len() - 1);
            continue;
        }
        let all_producers_pending = node
            .inputs
            .iter()
            .all(|r| g.node(r.node).kind.is_source() || group_of[r.node.0].is_none());
        if matches!(class, Class::Fusable) && all_producers_pending {
            continue; // adopted later by a consumer
        }
        let mut producer_groups: Vec<usize> = node
            .inputs
            .iter()
            .filter_map(|r| group_of[r.node.0])
            .collect();
        producer_groups.sort_unstable();
        producer_groups.dedup();
        let joinable = producer_groups
            .iter()
            .copied()
            .find(|&gr| open[gr] && convex_join(&members[gr], id));
        let gid = match (&class, joinable) {
            (Class::Fusable, Some(gr)) => gr,
            (Class::Reduce, Some(gr)) => {
                if close_at_reduce {
                    open[gr] = false;
                }
                gr
            }
            (Class::Fusable | Class::Reduce, None) => {
                members.push(BTreeSet::new());
                open.push(!(close_at_reduce && matches!(class, Class::Reduce)));
                members.len() - 1
            }
            (Class::Linear, _) => {
                members.push(BTreeSet::new());
                open.push(linear_open);
                members.len() - 1
            }
            (Class::Solo | Class::Source, _) => {
                members.push(BTreeSet::new());
                open.push(false);
                members.len() - 1
            }
        };
        group_of[id.0] = Some(gid);
        members[gid].insert(id);
        // Adopt pending weight-broadcast chains feeding this node.
        let mut stack: Vec<NodeId> = node.inputs.iter().map(|r| r.node).collect();
        while let Some(p) = stack.pop() {
            if group_of[p.0].is_some() || g.node(p).kind.is_source() {
                continue;
            }
            if !convex_join(&members[gid], p) {
                continue;
            }
            group_of[p.0] = Some(gid);
            members[gid].insert(p);
            stack.extend(g.node(p).inputs.iter().map(|r| r.node));
        }
    }
    // Pending leftovers chain among themselves.
    for (id, node) in g.iter() {
        if group_of[id.0].is_some() || node.kind.is_source() {
            continue;
        }
        let producer_gid = node
            .inputs
            .iter()
            .filter_map(|r| group_of[r.node.0])
            .find(|&gr| open[gr] && convex_join(&members[gr], id));
        let gid = match producer_gid {
            Some(gr) => gr,
            None => {
                members.push(BTreeSet::new());
                open.push(true);
                members.len() - 1
            }
        };
        group_of[id.0] = Some(gid);
        members[gid].insert(id);
    }
    members
        .into_iter()
        .filter(|m| !m.is_empty())
        .map(|m| m.into_iter().collect())
        .collect()
}

/// Per node of `g`, its ports that are graph outputs.
fn graph_outputs_by_node(g: &PrimGraph) -> Vec<Vec<PortRef>> {
    let mut by_node = vec![Vec::new(); g.len()];
    for &p in g.outputs() {
        by_node[p.node.0].push(p);
    }
    by_node
}

/// One possible output set of a subgraph: the output nodes, the ports
/// they write to device memory, and whether that is everything visible.
type OutputSet = (Vec<NodeId>, Vec<PortRef>, bool);

/// Enumerates the possible output sets of a convex subgraph (paper Def. 3):
/// nodes with an edge leaving the subgraph (or a graph-output port). With
/// `multi_output = false`, one candidate per single output node; otherwise
/// all non-empty subsets up to size 2 are considered.
fn expand_outputs(
    g: &PrimGraph,
    members: &[NodeId],
    succ: &[Vec<NodeId>],
    graph_outputs: &[Vec<PortRef>],
    config: &IdentifyConfig,
) -> Vec<OutputSet> {
    // Qualifying nodes and, per node, the ports that are externally visible.
    let mut qualifying: Vec<(NodeId, Vec<PortRef>)> = Vec::new();
    for &m in members {
        let mut ports: Vec<PortRef> = Vec::new();
        // Ports consumed by nodes outside the subgraph.
        for &s in &succ[m.0] {
            if members.binary_search(&s).is_err() {
                ports.extend(g.node(s).inputs.iter().filter(|r| r.node == m));
            }
        }
        // Ports that are graph outputs.
        ports.extend_from_slice(&graph_outputs[m.0]);
        if !ports.is_empty() {
            ports.sort_unstable();
            ports.dedup();
            qualifying.push((m, ports));
        }
    }
    let mut out = Vec::new();
    for (i, (n1, p1)) in qualifying.iter().enumerate() {
        out.push((vec![*n1], p1.clone(), qualifying.len() == 1));
        if config.multi_output {
            for (n2, p2) in qualifying.iter().skip(i + 1) {
                let mut ports = p1.clone();
                ports.extend_from_slice(p2);
                out.push((vec![*n1, *n2], ports, qualifying.len() == 2));
            }
        }
    }
    // The "materialize everything visible" candidate: needed by the
    // chain-DP incumbent (and the §8 multi-output extension).
    if qualifying.len() > if config.multi_output { 2 } else { 1 } {
        let (nodes, ports): (Vec<NodeId>, Vec<Vec<PortRef>>) = qualifying.into_iter().unzip();
        out.push((nodes, ports.concat(), true));
    }
    out
}

/// Backend applicability (paper §5.2): vendor libraries serve
/// compute-intensive kernels shaped like `linear (+ short elementwise /
/// broadcast epilogue)`; the generated backend serves memory-intensive
/// kernels; TensorRT runtime kernels follow vendor rules for compute and
/// also run fused memory kernels.
pub fn backend_applicable(
    g: &PrimGraph,
    members: &[NodeId],
    spec: &KernelSpec,
    backend: Backend,
) -> bool {
    match backend {
        Backend::Generated => !spec.is_compute_intensive() || spec.linear.len() <= 1,
        Backend::Vendor | Backend::TrtRuntime => {
            if !spec.is_compute_intensive() {
                return backend == Backend::TrtRuntime;
            }
            if spec.linear.len() != 1 {
                return false;
            }
            // Everything except the linear prim must be a fusable epilogue/
            // prologue: elementwise, broadcast, or free reshape/transpose
            // (cuDNN/TensorRT fuse conv+BN+activation chains natively, so
            // the epilogue may be long as long as it stays pointwise).
            for &m in members {
                match &g.node(m).kind {
                    PrimKind::Linear(_)
                    | PrimKind::Elementwise(_)
                    | PrimKind::Broadcast { .. }
                    | PrimKind::Layout(korch_ir::LayoutFn::Reshape { .. })
                    | PrimKind::Layout(korch_ir::LayoutFn::Transpose { .. }) => {}
                    _ => return false,
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::enumerate_states;
    use korch_cost::Device;
    use korch_ir::{EwFn, LayoutFn, LinearFn};
    use korch_tensor::{BinaryOp, MatMulSpec, ReduceKind, UnaryOp};
    use std::collections::BTreeSet;

    /// The backends `Orchestrator` prices on.
    const BACKENDS: [Backend; 2] = [Backend::Generated, Backend::Vendor];

    /// The Fig. 4a-style softmax attention subgraph used across tests.
    fn softmax_prims() -> PrimGraph {
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![16, 64],
                },
                vec![],
            )
            .unwrap();
        let e = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)),
                vec![x.into()],
            )
            .unwrap();
        let r = g
            .add(
                PrimKind::Reduce {
                    kind: ReduceKind::Sum,
                    axis: 1,
                },
                vec![e.into()],
            )
            .unwrap();
        let b = g
            .add(PrimKind::Broadcast { axis: 1, size: 64 }, vec![r.into()])
            .unwrap();
        let d = g
            .add(
                PrimKind::Elementwise(EwFn::Binary(BinaryOp::Div)),
                vec![e.into(), b.into()],
            )
            .unwrap();
        g.mark_output(d).unwrap();
        g
    }

    fn default_candidates(g: &PrimGraph) -> Candidates {
        let space = enumerate_states(g, 10_000);
        identify_kernels(
            g,
            &space,
            &Profiler::new(Device::v100()),
            &IdentifyConfig::default(),
            &BACKENDS,
        )
    }

    #[test]
    fn softmax_candidates_include_full_fusion_and_singletons() {
        let g = softmax_prims();
        let c = default_candidates(&g);
        // Full fusion {exp, reduce, bcast, div} must be a candidate...
        assert!(c
            .kernels
            .iter()
            .any(|k| k.members.len() == 4 && k.output_nodes == vec![NodeId(4)]));
        // ...and so must every singleton.
        for id in 1..=4 {
            assert!(
                c.kernels.iter().any(|k| k.members == vec![NodeId(id)]),
                "missing singleton for node {id}"
            );
        }
    }

    #[test]
    fn output_sets_follow_definition_3() {
        let g = softmax_prims();
        let c = default_candidates(&g);
        // Kernel {exp}: exp's output feeds reduce AND div (both external),
        // so the single output is exp itself.
        let k = c
            .kernels
            .iter()
            .find(|k| k.members == vec![NodeId(1)])
            .unwrap();
        assert_eq!(k.output_nodes, vec![NodeId(1)]);
        // Kernel {exp, reduce}: both exp (feeds div) and reduce (feeds
        // bcast) qualify as outputs -> two single-output candidates.
        let outs: Vec<_> = c
            .kernels
            .iter()
            .filter(|k| k.members == vec![NodeId(1), NodeId(2)])
            .map(|k| k.output_nodes.clone())
            .collect();
        assert!(outs.contains(&vec![NodeId(1)]));
        assert!(outs.contains(&vec![NodeId(2)]));
    }

    #[test]
    fn multi_linear_kernels_rejected() {
        // Two chained matmuls: no candidate may contain both.
        let mut g = PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![8, 8] }, vec![])
            .unwrap();
        let w1 = g
            .add(PrimKind::Input { shape: vec![8, 8] }, vec![])
            .unwrap();
        let w2 = g
            .add(PrimKind::Input { shape: vec![8, 8] }, vec![])
            .unwrap();
        let m1 = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![x.into(), w1.into()],
            )
            .unwrap();
        let m2 = g
            .add(
                PrimKind::Linear(LinearFn::MatMul {
                    spec: MatMulSpec::new(),
                }),
                vec![m1.into(), w2.into()],
            )
            .unwrap();
        g.mark_output(m2).unwrap();
        let c = default_candidates(&g);
        assert!(c.kernels.iter().all(|k| k.members.len() == 1));
    }

    #[test]
    fn vendor_only_for_linear_epilogue_shapes() {
        let g = softmax_prims();
        let space = enumerate_states(&g, 1000);
        let c = identify_kernels(
            &g,
            &space,
            &Profiler::new(Device::v100()),
            &IdentifyConfig::default(),
            &[Backend::Vendor], // vendor cannot serve memory-intensive kernels
        );
        assert!(c.kernels.is_empty());
    }

    /// A pointwise chain of `len` primitives: every window of it is a
    /// state difference, and the greedy seeds fuse all of it.
    fn chain(len: usize) -> PrimGraph {
        let mut g = PrimGraph::new();
        let mut cur: PortRef = g
            .add(
                PrimKind::Input {
                    shape: vec![64, 64],
                },
                vec![],
            )
            .unwrap()
            .into();
        for i in 0..len {
            let op = if i % 2 == 0 {
                UnaryOp::Tanh
            } else {
                UnaryOp::Abs
            };
            cur = g
                .add(PrimKind::Elementwise(EwFn::Unary(op)), vec![cur])
                .unwrap()
                .into();
        }
        g.mark_output(cur.node).unwrap();
        g
    }

    #[test]
    fn kernel_size_cap_respected() {
        let len = MAX_KERNEL_PRIMS + 6;
        let c = default_candidates(&chain(len));
        // State pairs stop at the cap, and reach it...
        assert!(c
            .kernels
            .iter()
            .all(|k| k.seeded || k.members.len() <= MAX_KERNEL_PRIMS));
        assert!(c
            .kernels
            .iter()
            .any(|k| !k.seeded && k.members.len() == MAX_KERNEL_PRIMS));
        // ...while greedy-fusion seeds may exceed it.
        assert!(c.kernels.iter().any(|k| k.seeded && k.members.len() == len));
    }

    #[test]
    fn pair_loop_stops_at_the_priced_cap() {
        let g = chain(MAX_KERNEL_PRIMS + 6);
        let space = enumerate_states(&g, 10_000);
        let capped = |cap| {
            let (p, config) = (Profiler::new(Device::v100()), IdentifyConfig::default());
            identify_capped(&g, &space, &p, &config, &BACKENDS, cap).priced
        };
        // Singletons and seeds are priced whatever the cap.
        let before_pairs = capped(0);
        let all = default_candidates(&g).priced;
        assert!(all > before_pairs + 2);
        for cap in before_pairs..=all {
            assert_eq!(capped(cap), cap);
        }
    }

    #[test]
    fn multi_output_expansion_optional() {
        let g = softmax_prims();
        let space = enumerate_states(&g, 1000);
        let single = identify_kernels(
            &g,
            &space,
            &Profiler::new(Device::v100()),
            &IdentifyConfig::default(),
            &[Backend::Generated],
        );
        let multi = identify_kernels(
            &g,
            &space,
            &Profiler::new(Device::v100()),
            &IdentifyConfig { multi_output: true },
            &[Backend::Generated],
        );
        // Full-output candidates exist in both modes (the chain-DP needs
        // them); multi-output mode can only add candidates.
        assert!(multi.kernels.len() >= single.kernels.len());
        assert!(single
            .kernels
            .iter()
            .any(|k| k.full_output && k.output_nodes.len() == 2));
    }

    #[test]
    fn opaque_prims_execute_alone() {
        let mut g = PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: vec![32] }, vec![]).unwrap();
        let o = g
            .add(
                PrimKind::Opaque {
                    name: "topk".into(),
                    out_shapes: vec![vec![4]],
                },
                vec![x.into()],
            )
            .unwrap();
        let rl = g
            .add(
                PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)),
                vec![o.into()],
            )
            .unwrap();
        g.mark_output(rl).unwrap();
        let c = default_candidates(&g);
        for k in &c.kernels {
            if k.members.contains(&o) {
                assert_eq!(k.members.len(), 1);
            }
        }
    }

    #[test]
    fn fig4_example_kernel_counts() {
        // Fig 4b identifies 21 kernels (12 singletons + 9 fusions) for the
        // 12-primitive attention subgraph. Our identifier enumerates at
        // least the singletons plus several fusions; the exact set depends
        // on output-choice expansion, so check the lower bound and convexity.
        let g = softmax_prims();
        let c = default_candidates(&g);
        let reach = g.reachability();
        for k in &c.kernels {
            let set: BTreeSet<NodeId> = k.members.iter().copied().collect();
            assert!(
                g.is_convex(&set, &reach),
                "non-convex candidate {:?}",
                k.members
            );
        }
        assert!(c.kernels.len() >= 8);
    }

    /// A stand-in candidate of `members` primitives, told apart by `tag`
    /// (its tuning time).
    fn tagged(tag: usize, members: usize, seeded: bool) -> CandidateKernel {
        CandidateKernel {
            members: (0..members).map(NodeId).collect(),
            full_output: true,
            seeded,
            output_nodes: vec![NodeId(members - 1)],
            outputs: vec![],
            spec: KernelSpec {
                n_prims: members,
                input_bytes: 0,
                output_bytes: 0,
                pointwise_flops: 0,
                linear: vec![],
                passes: 1,
                pattern_classes: 1,
                has_opaque: false,
            },
            backend: Backend::Generated,
            latency: Micros(1.0),
            tuning_s: tag as f64,
        }
    }

    /// Offers `n` protected singletons tagged from 1 000 on.
    fn protected_singletons(keep: &mut Keep, n: usize) {
        for i in 0..n {
            keep.offer(true, 1.0, || tagged(1_000 + i, 1, false));
        }
    }

    fn tags(keep: Keep) -> Vec<usize> {
        let kernels = keep.into_kernels();
        kernels.iter().map(|k| k.tuning_s as usize).collect()
    }

    #[test]
    fn keep_breaks_efficiency_ties_by_admission() {
        let mut keep = Keep::default();
        protected_singletons(&mut keep, MAX_BLP_CANDIDATES - 2);
        keep.offer(false, 2.0, || tagged(1, 2, false));
        keep.offer(false, 2.0, || tagged(2, 2, false));
        keep.offer(false, 2.0, || unreachable!("a later tie is never built"));
        assert_eq!(keep.offered, MAX_BLP_CANDIDATES + 1);
        let kept = tags(keep);
        assert_eq!(kept.len(), MAX_BLP_CANDIDATES);
        assert_eq!(
            kept[..MAX_BLP_CANDIDATES - 2],
            (1_000..1_218).collect::<Vec<_>>()
        );
        assert_eq!(kept[MAX_BLP_CANDIDATES - 2..], [1, 2]);
    }

    #[test]
    fn keep_skips_nothing_until_it_ranks_full() {
        let floor = 6.0;
        let mut keep = Keep::default();
        protected_singletons(&mut keep, MAX_BLP_CANDIDATES - 2);
        keep.offer(false, 3.0, || tagged(3, 2, false));
        assert_eq!(keep.fewest_members(floor), 1, "the heap has room");
        keep.offer(false, 2.0, || tagged(2, 2, false));
        // Full, but a 221st admission would still switch the output from
        // admission order to rank order.
        assert_eq!(keep.fewest_members(floor), 1, "admission order decides");
        keep.offer(false, 4.0, || unreachable!("worse than the worst"));
        // 6 / 2 = 3 ties the worst and loses; 6 / 3 beats it.
        assert_eq!(keep.fewest_members(floor), 3);
        keep.offer(false, 1.0, || tagged(1, 2, false));
        assert_eq!(keep.fewest_members(floor), 4, "the worst only improves");
        assert_eq!(keep.fewest_members(1e9), MAX_KERNEL_PRIMS + 1);
    }

    #[test]
    fn keep_evicts_the_worst_for_a_cheaper_candidate() {
        let mut keep = Keep::default();
        protected_singletons(&mut keep, MAX_BLP_CANDIDATES - 2);
        keep.offer(false, 3.0, || tagged(3, 2, false));
        keep.offer(false, 2.0, || tagged(2, 2, false));
        keep.offer(false, 1.0, || tagged(1, 2, false));
        let kept = tags(keep);
        assert_eq!(kept[MAX_BLP_CANDIDATES - 2..], [1, 2]);
    }

    #[test]
    fn keep_holds_only_protected_beyond_the_cap() {
        let mut keep = Keep::default();
        protected_singletons(&mut keep, MAX_BLP_CANDIDATES);
        keep.offer(false, 0.0, || unreachable!("no room is left"));
        keep.offer(true, 9.0, || tagged(9, 3, true));
        let mut expected: Vec<usize> = (1_000..1_000 + MAX_BLP_CANDIDATES).collect();
        expected.push(9);
        assert_eq!(tags(keep), expected);
    }

    #[test]
    fn keep_under_the_cap_is_admission_order() {
        let mut keep = Keep::default();
        keep.offer(false, 5.0, || tagged(5, 2, false));
        keep.offer(true, 7.0, || tagged(7, 1, false));
        keep.offer(false, 1.0, || tagged(1, 3, false));
        keep.offer(true, 4.0, || tagged(4, 4, true));
        assert_eq!(tags(keep), [5, 7, 1, 4]);
    }

    #[test]
    fn layout_only_kernels_allowed() {
        let mut g = PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![4, 4] }, vec![])
            .unwrap();
        let t = g
            .add(
                PrimKind::Layout(LayoutFn::Transpose { perm: vec![1, 0] }),
                vec![x.into()],
            )
            .unwrap();
        g.mark_output(t).unwrap();
        let c = default_candidates(&g);
        assert_eq!(c.kernels.len(), 1);
        assert!(!c.kernels[0].spec.is_compute_intensive());
    }
}
