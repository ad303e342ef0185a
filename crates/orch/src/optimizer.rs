//! The kernel orchestration optimizer (paper §4.2): the binary linear
//! program of Eqs. 2–4 over the identified candidate kernels, keyed by
//! primitive, warm-started by the greedy singleton cover, the chain-DP and
//! the seed selections, with the no-redundancy ablation rows.
//!
//! Everything here is a function of the candidates in the order given:
//! rows are emitted for the must-produce primitives ascending, then per
//! candidate for its reads ascending, and every table is indexed by
//! candidate position or `NodeId`. No hash iteration reaches the solver,
//! so the same candidates take the same pivots every time they are solved.

use crate::kernel::{required_outputs, CandidateKernel, Candidates};
use crate::plan::Plan;
use crate::state::{BitSet, StateSpace};
use korch_blp::{BlpError, BlpProblem, BranchAndBound, Constraint, Solver};
use korch_cost::{Backend, KernelSpec};
use korch_ir::{NodeId, PrimGraph};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Error produced by the orchestration optimizer.
#[derive(Debug, Clone, PartialEq)]
pub enum OrchError {
    /// No feasible kernel selection covers the graph outputs (e.g. a
    /// required primitive appears in no candidate's output set).
    Infeasible(String),
    /// The BLP solver hit its budget and no incumbent was available.
    SolverBudget,
    /// No plan lies below the solve's cutoff and the graph has no warm
    /// start: whatever plan it has costs at least the cutoff.
    Cutoff,
    /// Selected kernels could not be scheduled (would indicate a bug in the
    /// dependency constraints).
    Unschedulable,
}

impl fmt::Display for OrchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchError::Infeasible(what) => write!(f, "no feasible orchestration: {what}"),
            OrchError::SolverBudget => write!(f, "solver budget exhausted without incumbent"),
            OrchError::Cutoff => write!(f, "no plan below the cutoff"),
            OrchError::Unschedulable => write!(f, "selected kernels cannot be ordered"),
        }
    }
}

impl Error for OrchError {}

/// Configuration of the BLP construction and solve. On budget exhaustion
/// the solve falls back to its best incumbent.
#[derive(Debug, Clone)]
pub struct OptimizeConfig {
    /// Allow primitives to be executed by multiple selected kernels
    /// (the paper's redundant-computation relaxation). Disabling adds
    /// disjointness constraints — the prior-work baseline of §4.2.
    pub allow_redundancy: bool,
    /// Branch-and-bound node budget.
    pub solver_max_nodes: usize,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        Self {
            allow_redundancy: true,
            solver_max_nodes: 600,
        }
    }
}

/// One entry of the simulated tuning database (the paper's TVM-database
/// caching, §6.5): a distinct `(spec, backend)` and the seconds tuning it
/// costs.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedKernel {
    /// The kernel's cost features.
    pub spec: KernelSpec,
    /// The backend it is tuned for.
    pub backend: Backend,
    /// Simulated tuning time, seconds.
    pub tuning_s: f64,
}

/// Statistics of one orchestration solve.
#[derive(Debug, Clone, Default)]
pub struct SolveReport {
    /// Number of candidate kernels (BLP variables).
    pub num_candidates: usize,
    /// The tuning database of the candidates: each distinct
    /// `(spec, backend)` pair once, in candidate order, the first
    /// candidate that has it charged. A model shares one database across
    /// its graphs (`korch_core` unions them).
    pub tuned: Vec<TunedKernel>,
    /// Number of BLP constraints.
    pub num_constraints: usize,
    /// Branch-and-bound nodes explored.
    pub solver_nodes: usize,
    /// Total simplex pivots.
    pub solver_pivots: usize,
    /// LP relaxations solved.
    pub solver_lp_solves: usize,
    /// Objective of the incumbent the search starts from (µs): the
    /// cheapest of the greedy singleton cover, the chain-DP and the seeds.
    pub warm_objective_us: f64,
}

/// Builds and solves the kernel orchestration BLP, returning an executable
/// [`Plan`]: [`OrchestrationBlp::build`], then
/// [`OrchestrationBlp::solve`] without a cutoff.
///
/// # Errors
///
/// See [`OrchError`].
pub fn optimize(
    g: &PrimGraph,
    cands: &Candidates,
    space: Option<&StateSpace>,
    config: &OptimizeConfig,
) -> Result<(Plan, SolveReport), OrchError> {
    OrchestrationBlp::build(g, cands, space, config)?.solve(None)
}

/// The kernel orchestration BLP of one graph, built and warm-started but
/// not solved. One variable per candidate, costed by its latency (Eq. 2);
/// every graph output is produced by a selected kernel (Eq. 3) and every
/// primitive a selected kernel reads is produced by another (Eq. 4).
///
/// Every kernel in the candidates is a variable: the BLP solves over
/// what it is given. [`identify_kernels`](crate::identify_kernels) hands
/// it at most 220, unless the singletons and seeds alone are more.
pub struct OrchestrationBlp<'a> {
    cover: Cover<'a>,
    problem: BlpProblem,
    incumbent: Option<Vec<bool>>,
    report: SolveReport,
    max_nodes: usize,
}

impl<'a> OrchestrationBlp<'a> {
    /// Emits the rows and picks the warm start: the cheapest feasible of
    /// the greedy singleton cover, the chain-DP over `space` and the
    /// greedy-fusion seed selections, the first on ties.
    ///
    /// # Errors
    ///
    /// [`OrchError::Infeasible`] when no candidate produces a primitive
    /// that an output or some candidate needs.
    pub fn build(
        g: &PrimGraph,
        cands: &'a Candidates,
        space: Option<&StateSpace>,
        config: &OptimizeConfig,
    ) -> Result<Self, OrchError> {
        let candidates = &cands.kernels;
        let n = candidates.len();
        let cover = Cover::new(g, candidates);
        let mut must: Vec<NodeId> = required_outputs(g).collect();
        must.sort_unstable();
        must.dedup();
        let mut problem = cover.problem(&must)?;

        // Optional disjointness (no-redundancy ablation): each primitive is
        // *executed* by at most one selected kernel.
        if !config.allow_redundancy {
            let mut executed_by: Vec<Vec<(usize, f64)>> = vec![Vec::new(); g.len()];
            for (i, k) in candidates.iter().enumerate() {
                for &m in &k.members {
                    executed_by[m.0].push((i, 1.0));
                }
            }
            for ks in executed_by.into_iter().filter(|ks| ks.len() > 1) {
                problem.add(Constraint::le(ks, 1.0));
            }
        }

        let by_members = full_output_by_members(candidates);
        // Chain-DP warm start: shortest path over execution states where each
        // edge is the full-output kernel of the state difference. Polynomial,
        // disjoint-cover, usually within a few percent of the BLP optimum —
        // this is what makes branch & bound converge quickly.
        let dp = space.and_then(|s| dp_incumbent(candidates, &by_members, s, g.len()));
        // Greedy-fusion seed incumbents: the TVM-/TensorRT-shaped strategies,
        // guaranteeing the BLP result is at least as good as rule-based fusion.
        let seeds = cands.seed_selections.iter().filter_map(|selection| {
            let mut values = vec![false; n];
            for members in selection {
                values[*by_members.get(members.as_slice())?] = true;
            }
            Some(values)
        });
        let incumbent = (cover.greedy(&must).into_iter().chain(dp).chain(seeds))
            .filter(|v| problem.feasible(v))
            .min_by(|a, b| problem.objective_of(a).total_cmp(&problem.objective_of(b)));
        let report = SolveReport {
            num_candidates: n,
            tuned: tuning_database(candidates),
            num_constraints: problem.constraints.len(),
            warm_objective_us: incumbent
                .as_ref()
                .map_or(f64::NAN, |v| problem.objective_of(v)),
            ..Default::default()
        };
        Ok(Self {
            cover,
            problem,
            incumbent,
            report,
            max_nodes: config.solver_max_nodes,
        })
    }

    /// The warm start's objective (µs), `None` when no warm start is
    /// feasible. The solve returns it or a cheaper plan.
    pub fn warm_objective_us(&self) -> Option<f64> {
        Some(self.report.warm_objective_us).filter(|w| !w.is_nan())
    }

    /// Runs branch and bound from the warm start and orders the selection
    /// wave by wave. With a `cutoff` (µs) the search ends at the first
    /// node whose bound reaches it: when the solve without a cutoff finds
    /// a plan below the cutoff, this one returns the same plan, and
    /// otherwise the warm start. When the search exhausts
    /// [`OptimizeConfig::solver_max_nodes`] it returns the warm start or a
    /// better plan it found.
    ///
    /// # Errors
    ///
    /// [`OrchError::Cutoff`] when there is no warm start and nothing below
    /// the cutoff; otherwise see [`OrchError`].
    pub fn solve(self, cutoff: Option<f64>) -> Result<(Plan, SolveReport), OrchError> {
        let solver = BranchAndBound {
            max_nodes: self.max_nodes,
            rel_gap: 2e-2, // 2%: below the cost model's own fidelity
            incumbent: self.incumbent,
            cutoff,
        };
        let solution = solver.solve(&self.problem).map_err(|e| match e {
            BlpError::Infeasible => OrchError::Infeasible("BLP has no 0/1 solution".into()),
            BlpError::Limit => OrchError::SolverBudget,
            BlpError::Cutoff => OrchError::Cutoff,
        })?;
        let n = self.cover.kernels.len();
        let selected: Vec<usize> = (0..n).filter(|&i| solution.values[i]).collect();
        let order = self.cover.order(&selected)?;
        let plan = Plan::from_kernels(order.iter().map(|&i| self.cover.kernels[i].selected()));
        let report = SolveReport {
            solver_nodes: solution.stats.nodes,
            solver_pivots: solution.stats.pivots,
            solver_lp_solves: solution.stats.lp_solves,
            ..self.report
        };
        Ok((plan, report))
    }
}

/// The tuning database of `candidates`: a candidate whose `(spec,
/// backend)` an earlier one already has reuses its schedule and costs
/// nothing.
fn tuning_database(candidates: &[CandidateKernel]) -> Vec<TunedKernel> {
    let mut tuned = HashSet::with_capacity(candidates.len());
    (candidates.iter())
        .filter(|k| tuned.insert((&k.spec, k.backend)))
        .map(|k| TunedKernel {
            spec: k.spec.clone(),
            backend: k.backend,
            tuning_s: k.tuning_s,
        })
        .collect()
}

/// The candidates seen through the primitives they produce and read,
/// with per-primitive tables indexed by `NodeId`.
struct Cover<'a> {
    kernels: &'a [CandidateKernel],
    /// Per candidate: the primitives it reads (`external_inputs`).
    reads: Vec<Vec<NodeId>>,
    /// Per primitive: the candidates that produce it, in candidate order.
    producers: Vec<Vec<usize>>,
    /// Per primitive: its cheapest singleton candidate, the first on ties.
    /// A singleton may stand in for its primitive in the greedy cover and
    /// in deadlock repair.
    singleton: Vec<Option<usize>>,
}

impl<'a> Cover<'a> {
    fn new(g: &PrimGraph, kernels: &'a [CandidateKernel]) -> Self {
        let mut producers = vec![Vec::new(); g.len()];
        let mut singleton: Vec<Option<usize>> = vec![None; g.len()];
        for (i, k) in kernels.iter().enumerate() {
            for &p in &k.output_nodes {
                producers[p.0].push(i);
                if k.members.len() == 1 {
                    let best = singleton[p.0].get_or_insert(i);
                    if k.latency.0 < kernels[*best].latency.0 {
                        *best = i;
                    }
                }
            }
        }
        Self {
            kernels,
            reads: kernels.iter().map(|k| k.external_inputs(g)).collect(),
            producers,
            singleton,
        }
    }

    /// The BLP of Eqs. 2–4: the Eq. 3 row of every primitive in `must`
    /// (ascending), then the Eq. 4 rows of every candidate's reads.
    ///
    /// # Errors
    ///
    /// [`OrchError::Infeasible`] when no candidate produces a primitive
    /// that `must` or some candidate needs.
    fn problem(&self, must: &[NodeId]) -> Result<BlpProblem, OrchError> {
        let producers_of = |p: NodeId| match self.producers[p.0].as_slice() {
            [] => Err(OrchError::Infeasible(format!(
                "{p:?} is needed but no candidate materializes it"
            ))),
            ps => Ok(ps),
        };
        let mut problem = BlpProblem::minimize(self.kernels.iter().map(|k| k.latency.0).collect());
        // Output constraints (Eq. 3): every must-produce primitive is
        // materialized by at least one selected kernel.
        for &p in must {
            let row = producers_of(p)?.iter().map(|&c| (c, 1.0)).collect();
            problem.add(Constraint::ge(row, 1.0));
        }
        // Dependency constraints (Eq. 4): a kernel can run only if each
        // primitive it reads is materialized by some selected kernel.
        for (i, reads) in self.reads.iter().enumerate() {
            for &p in reads {
                let ps = producers_of(p)?;
                if ps.contains(&i) {
                    continue; // the kernel produces the read itself: vacuous
                }
                let mut row: Vec<(usize, f64)> = ps.iter().map(|&c| (c, 1.0)).collect();
                row.push((i, -1.0));
                problem.add(Constraint::ge(row, 0.0));
            }
        }
        Ok(problem)
    }

    /// Makes `p` available through its cheapest singleton, after the
    /// singletons that one's own reads need. Terminates because singleton
    /// reads follow the primitive graph's topological order.
    fn make_available(
        &self,
        p: NodeId,
        available: &mut [bool],
        ordered: &mut Vec<usize>,
    ) -> Result<(), OrchError> {
        if available[p.0] {
            return Ok(());
        }
        let i = self.singleton[p.0].ok_or(OrchError::Unschedulable)?;
        for &r in &self.reads[i] {
            self.make_available(r, available, ordered)?;
        }
        ordered.push(i);
        for &o in &self.kernels[i].output_nodes {
            available[o.0] = true;
        }
        Ok(())
    }

    /// The "one kernel per primitive" warm start: every primitive in
    /// `must` and everything it transitively reads, each by its cheapest
    /// singleton. Feasible whenever the singletons exist.
    fn greedy(&self, must: &[NodeId]) -> Option<Vec<bool>> {
        let mut available = vec![false; self.producers.len()];
        let mut chosen = Vec::new();
        for &p in must {
            self.make_available(p, &mut available, &mut chosen).ok()?;
        }
        let mut values = vec![false; self.kernels.len()];
        for i in chosen {
            values[i] = true;
        }
        Some(values)
    }

    /// Orders the selected kernels so each runs after the kernels that
    /// materialize what it reads (paper §5.3: sequential execution), wave
    /// by wave.
    ///
    /// Eqs. 3–4 do not rule out *mutual* waits between interleaved convex
    /// kernels (A outputs what B reads while B outputs what A reads). Such
    /// deadlocks are rare; they are repaired by running singletons for the
    /// unmet reads of the kernel with the fewest of them.
    fn order(&self, selected: &[usize]) -> Result<Vec<usize>, OrchError> {
        let mut available = vec![false; self.producers.len()];
        let mut remaining = selected.to_vec();
        let mut ordered = Vec::with_capacity(selected.len());
        let unmet = |i: usize, available: &[bool]| -> Vec<NodeId> {
            let reads = self.reads[i].iter();
            reads.filter(|p| !available[p.0]).copied().collect()
        };
        while !remaining.is_empty() {
            let wave_start = ordered.len();
            remaining.retain(|&i| {
                let ready = unmet(i, &available).is_empty();
                if ready {
                    ordered.push(i);
                }
                !ready
            });
            if ordered.len() > wave_start {
                for &i in &ordered[wave_start..] {
                    for &o in &self.kernels[i].output_nodes {
                        available[o.0] = true;
                    }
                }
            } else {
                let blocked = remaining.iter().map(|&i| unmet(i, &available));
                let fewest = blocked
                    .min_by_key(Vec::len)
                    .ok_or(OrchError::Unschedulable)?;
                for p in fewest {
                    self.make_available(p, &mut available, &mut ordered)?;
                }
            }
        }
        Ok(ordered)
    }
}

/// Cheapest full-output candidate per member set: what the chain-DP edges
/// and the seed groups select.
fn full_output_by_members(candidates: &[CandidateKernel]) -> HashMap<&[NodeId], usize> {
    let mut by_members: HashMap<&[NodeId], usize> = HashMap::new();
    for (i, k) in candidates.iter().enumerate() {
        if k.full_output {
            let e = by_members.entry(k.members.as_slice()).or_insert(i);
            if k.latency.0 < candidates[*e].latency.0 {
                *e = i;
            }
        }
    }
    by_members
}

/// The chain-DP incumbent: treats orchestration as a shortest path through
/// execution states over `width` nodes (every edge = the *full-output*
/// kernel of the state difference, looked up in `by_members`) and returns the
/// selected-candidate vector of the best chain. This is exactly the
/// disjoint, no-redundancy strategy space of prior work (paper §4.2 /
/// "Dynamic programming solutions" in §7), used here as a warm start that
/// the BLP then improves upon.
///
/// States are relaxed in size order over the candidate edges, not over
/// all state pairs: from state `S`, each full-output member set `M`
/// disjoint from `S` leads to `S ∪ M` when that is an enumerated state.
/// A target is reached from `S` through the one candidate of its
/// difference, so `dist` and `back` are those of relaxing every pair.
fn dp_incumbent(
    candidates: &[CandidateKernel],
    by_members: &HashMap<&[NodeId], usize>,
    space: &StateSpace,
    width: usize,
) -> Option<Vec<bool>> {
    let states = &space.states;
    // Order states by size so relaxation sweeps forward.
    let mut order: Vec<usize> = (0..states.len()).collect();
    order.sort_by_key(|&i| states[i].count());
    let full = *order.last()?;
    let start = order[0];
    let index: HashMap<&BitSet, usize> = states.iter().enumerate().map(|(i, s)| (s, i)).collect();
    let mut edges: Vec<(BitSet, usize)> = (by_members.iter())
        .map(|(members, &c)| (BitSet::from_ids(width, members), c))
        .collect();
    edges.sort_unstable_by_key(|&(_, c)| c); // no hash order reaches the solver
    let mut dist = vec![f64::INFINITY; states.len()];
    let mut back: Vec<Option<(usize, usize)>> = vec![None; states.len()]; // (prev state, candidate)
    dist[start] = 0.0;
    let mut next = BitSet::empty(width);
    for &i in &order {
        if dist[i].is_infinite() {
            continue;
        }
        for (members, c) in &edges {
            if !states[i].union_if_disjoint(members, &mut next) {
                continue;
            }
            let Some(&j) = index.get(&next) else {
                continue;
            };
            let nd = dist[i] + candidates[*c].latency.0;
            if nd < dist[j] {
                dist[j] = nd;
                back[j] = Some((i, *c));
            }
        }
    }
    if dist[full].is_infinite() {
        return None;
    }
    let mut values = vec![false; candidates.len()];
    let mut cur = full;
    while let Some((prev, c)) = back[cur] {
        values[c] = true;
        cur = prev;
    }
    Some(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{identify_kernels, IdentifyConfig};
    use crate::state::enumerate_states;
    use korch_cost::{Backend, Device, KernelSpec, Micros, Profiler};
    use korch_ir::{EwFn, LinearFn, PrimKind};
    use korch_tensor::{BinaryOp, MatMulSpec, ReduceKind, UnaryOp};

    fn softmax_prims(rows: usize, cols: usize) -> PrimGraph {
        let mut g = PrimGraph::new();
        let x = g
            .add(
                PrimKind::Input {
                    shape: vec![rows, cols],
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
            .add(
                PrimKind::Broadcast {
                    axis: 1,
                    size: cols,
                },
                vec![r.into()],
            )
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

    fn run(g: &PrimGraph, config: &OptimizeConfig) -> (Plan, SolveReport) {
        let space = enumerate_states(g, 10_000);
        let cands = identify_kernels(
            g,
            &space,
            &Profiler::new(Device::v100()),
            &IdentifyConfig::default(),
            &[Backend::Generated, Backend::Vendor],
        );
        optimize(g, &cands, Some(&space), config).unwrap()
    }

    #[test]
    fn softmax_fuses_into_one_kernel() {
        // With launch overhead dominating at this size, the optimal plan is
        // full fusion into a single kernel.
        let g = softmax_prims(64, 64);
        let (plan, report) = run(&g, &OptimizeConfig::default());
        assert_eq!(plan.kernels.len(), 1, "plan: {plan:?}");
        assert_eq!(plan.kernels[0].members.len(), 4);
        assert!(report.warm_objective_us >= plan.total_latency.0);
    }

    #[test]
    fn optimal_never_worse_than_greedy() {
        // The warm start is the cheapest of greedy, DP and seeds, so
        // holding the plan to it is at least as strict as holding it to
        // the greedy cover.
        for (r, c) in [(8, 8), (128, 256), (1024, 64)] {
            let g = softmax_prims(r, c);
            let (plan, report) = run(&g, &OptimizeConfig::default());
            assert!(
                plan.total_latency.0 <= report.warm_objective_us + 1e-6,
                "{r}x{c}: optimal {} vs warm start {}",
                plan.total_latency.0,
                report.warm_objective_us
            );
        }
    }

    #[test]
    fn no_redundancy_is_never_faster() {
        let g = softmax_prims(256, 128);
        let (with_red, _) = run(&g, &OptimizeConfig::default());
        let (without, _) = run(
            &g,
            &OptimizeConfig {
                allow_redundancy: false,
                ..Default::default()
            },
        );
        assert!(with_red.total_latency.0 <= without.total_latency.0 + 1e-6);
    }

    #[test]
    fn plan_schedules_respect_dependencies() {
        let g = softmax_prims(32, 32);
        let (plan, _) = run(&g, &OptimizeConfig::default());
        let mut materialized: HashSet<NodeId> = g
            .iter()
            .filter(|(_, n)| n.kind.is_source())
            .map(|(id, _)| id)
            .collect();
        for k in &plan.kernels {
            let members: HashSet<NodeId> = k.members.iter().copied().collect();
            for &m in &k.members {
                for r in &g.node(m).inputs {
                    assert!(
                        members.contains(&r.node) || materialized.contains(&r.node),
                        "kernel uses unmaterialized input {:?}",
                        r.node
                    );
                }
            }
            for o in &k.outputs {
                materialized.insert(o.node);
            }
        }
    }

    #[test]
    fn infeasible_when_candidates_missing() {
        let g = softmax_prims(8, 8);
        // Only offer a candidate that outputs the exp node: the graph
        // output (div) can never be materialized.
        let space = enumerate_states(&g, 100);
        let cands = identify_kernels(
            &g,
            &space,
            &Profiler::new(Device::v100()),
            &IdentifyConfig::default(),
            &[Backend::Generated],
        );
        let mut only_exp = cands.clone();
        only_exp
            .kernels
            .retain(|k| k.output_nodes == vec![NodeId(1)]);
        only_exp.seed_selections.clear();
        let err = optimize(&g, &only_exp, None, &OptimizeConfig::default()).unwrap_err();
        assert!(matches!(err, OrchError::Infeasible(_)));
    }

    /// The chain-DP as a relaxation over every ordered pair of states:
    /// the definition [`dp_incumbent`] must reproduce.
    fn dp_all_pairs(
        candidates: &[CandidateKernel],
        by_members: &HashMap<&[NodeId], usize>,
        space: &StateSpace,
    ) -> Option<Vec<bool>> {
        let states = &space.states;
        let m = states.len();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&i| states[i].count());
        let full = *order.last()?;
        let start = order[0];
        let mut dist = vec![f64::INFINITY; m];
        let mut back: Vec<Option<(usize, usize)>> = vec![None; m];
        dist[start] = 0.0;
        for &i in &order {
            if dist[i].is_infinite() {
                continue;
            }
            for &j in &order {
                if states[j].count() <= states[i].count() || !states[i].is_subset(&states[j]) {
                    continue;
                }
                let diff = states[i].diff_from(&states[j]);
                let Some(&c) = by_members.get(diff.as_slice()) else {
                    continue;
                };
                let nd = dist[i] + candidates[c].latency.0;
                if nd < dist[j] {
                    dist[j] = nd;
                    back[j] = Some((i, c));
                }
            }
        }
        if dist[full].is_infinite() {
            return None;
        }
        let mut values = vec![false; candidates.len()];
        let mut cur = full;
        while let Some((prev, c)) = back[cur] {
            values[c] = true;
            cur = prev;
        }
        Some(values)
    }

    /// A random DAG of `n` primitives over two inputs, seeded: unary and
    /// binary elementwise nodes, reduce + broadcast pairs and matmuls,
    /// each reading up to four nodes back; the last node and, now and
    /// then, an inner one are outputs.
    fn random_dag(seed: u64, n: usize) -> PrimGraph {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % m as u64) as usize
        };
        let mut g = PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![8, 8] }, vec![])
            .unwrap();
        let y = g
            .add(PrimKind::Input { shape: vec![8, 8] }, vec![])
            .unwrap();
        let mut ids = vec![x, y];
        for _ in 0..n {
            let pick = |ids: &[NodeId], back: usize| ids[ids.len() - 1 - back.min(ids.len() - 1)];
            let (a, b) = (pick(&ids, next(4)), pick(&ids, next(4)));
            let id = match next(6) {
                0 | 1 => g.add(
                    PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)),
                    vec![a.into()],
                ),
                2 | 3 => g.add(
                    PrimKind::Elementwise(EwFn::Binary(BinaryOp::Add)),
                    vec![a.into(), b.into()],
                ),
                4 => {
                    let r = g
                        .add(
                            PrimKind::Reduce {
                                kind: ReduceKind::Sum,
                                axis: 1,
                            },
                            vec![a.into()],
                        )
                        .unwrap();
                    g.add(PrimKind::Broadcast { axis: 1, size: 8 }, vec![r.into()])
                }
                _ => g.add(
                    PrimKind::Linear(LinearFn::MatMul {
                        spec: MatMulSpec::new(),
                    }),
                    vec![a.into(), b.into()],
                ),
            };
            ids.push(id.unwrap());
            if next(5) == 0 {
                g.mark_output(*ids.last().unwrap()).unwrap();
            }
        }
        g.mark_output(*ids.last().unwrap()).unwrap();
        g
    }

    #[test]
    fn dp_over_candidate_edges_matches_all_pairs() {
        let profiler = Profiler::new(Device::v100());
        let backends = [Backend::Generated, Backend::Vendor];
        let mut found = 0;
        for seed in 0..40 {
            let g = random_dag(seed, 4 + (seed as usize % 9));
            // The whole state space, and truncated ones whose full state
            // is missing or only reachable through gaps.
            for max_states in [10_000, 40, 7, 2] {
                let space = enumerate_states(&g, max_states);
                let cands =
                    identify_kernels(&g, &space, &profiler, &IdentifyConfig::default(), &backends);
                let by_members = full_output_by_members(&cands.kernels);
                let fast = dp_incumbent(&cands.kernels, &by_members, &space, g.len());
                let reference = dp_all_pairs(&cands.kernels, &by_members, &space);
                assert_eq!(fast, reference, "seed {seed}, max_states {max_states}");
                found += usize::from(fast.is_some());
            }
        }
        assert!(found > 40, "the chain-DP found a chain only {found} times");
    }

    #[test]
    fn objective_equals_sum_of_kernel_latencies() {
        // Paper Eq. 2 / §5.3: end-to-end latency is the sum of selected
        // kernels' latencies.
        let g = softmax_prims(64, 128);
        let (plan, _) = run(&g, &OptimizeConfig::default());
        let sum: f64 = plan.kernels.iter().map(|k| k.latency.0).sum();
        assert!((plan.total_latency.0 - sum).abs() < 1e-9);
    }

    /// Node 0 is an input and node `i + 1` is `exp(node reads[i])`;
    /// `outputs` are marked.
    fn exps(reads: &[usize], outputs: &[usize]) -> PrimGraph {
        let mut g = PrimGraph::new();
        g.add(PrimKind::Input { shape: vec![8, 8] }, vec![])
            .unwrap();
        for &r in reads {
            let exp = PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp));
            g.add(exp, vec![NodeId(r).into()]).unwrap();
        }
        for &o in outputs {
            g.mark_output(NodeId(o)).unwrap();
        }
        g
    }

    /// A full-output candidate executing `members`, materializing
    /// `outputs`, at `cost` µs.
    fn cand(members: &[usize], outputs: &[usize], cost: f64) -> CandidateKernel {
        CandidateKernel {
            members: members.iter().map(|&m| NodeId(m)).collect(),
            full_output: true,
            seeded: false,
            output_nodes: outputs.iter().map(|&o| NodeId(o)).collect(),
            outputs: outputs.iter().map(|&o| NodeId(o).into()).collect(),
            spec: KernelSpec {
                n_prims: members.len(),
                input_bytes: 0,
                output_bytes: 0,
                pointwise_flops: 0,
                linear: vec![],
                passes: 1,
                pattern_classes: 1,
                has_opaque: false,
            },
            backend: Backend::Generated,
            latency: Micros(cost),
            tuning_s: 0.0,
        }
    }

    fn candidates(kernels: Vec<CandidateKernel>, seeds: &[&[&[usize]]]) -> Candidates {
        let ids = |members: &[usize]| members.iter().map(|&m| NodeId(m)).collect();
        Candidates {
            priced: kernels.len(),
            skipped: 0,
            kernels,
            seed_selections: seeds
                .iter()
                .map(|s| s.iter().map(|m| ids(m)).collect())
                .collect(),
        }
    }

    #[test]
    fn equal_specs_are_tuned_once() {
        // x -> 1 -> 2: both singletons have one spec on one backend, so
        // the second reuses the first's schedule; the same spec on the
        // vendor backend is a second schedule.
        let g = exps(&[0, 1], &[2]);
        let priced = |mut k: CandidateKernel, backend: Backend, tuning_s: f64| {
            k.backend = backend;
            k.tuning_s = tuning_s;
            k
        };
        let kernels = vec![
            priced(cand(&[1], &[1], 1.0), Backend::Generated, 3.0),
            priced(cand(&[2], &[2], 1.0), Backend::Generated, 3.0),
            priced(cand(&[2], &[2], 1.0), Backend::Vendor, 2.0),
            priced(cand(&[1, 2], &[2], 1.5), Backend::Generated, 5.0),
        ];
        let cands = candidates(kernels, &[]);
        let (_, report) = optimize(&g, &cands, None, &OptimizeConfig::default()).unwrap();
        assert_eq!(report.num_candidates, 4);
        let tuned: Vec<_> = report
            .tuned
            .iter()
            .map(|t| (t.backend, t.tuning_s))
            .collect();
        assert_eq!(
            tuned,
            [
                (Backend::Generated, 3.0),
                (Backend::Vendor, 2.0),
                (Backend::Generated, 5.0)
            ]
        );
    }

    #[test]
    fn rows_follow_outputs_then_candidate_reads() {
        // x -> 1 -> 2 -> 3 as singletons plus one fusion of {2, 3}.
        let g = exps(&[0, 1, 2], &[3]);
        let kernels = |fused: f64| {
            vec![
                cand(&[3], &[3], 1.0),
                cand(&[1], &[1], 1.0),
                cand(&[2], &[2], 1.0),
                cand(&[2, 3], &[3], fused),
            ]
        };
        let ks = kernels(1.5);
        let problem = Cover::new(&g, &ks).problem(&[NodeId(3)]).unwrap();
        let rows: Vec<_> = problem.constraints.iter().map(|c| &c.coeffs).collect();
        assert_eq!(
            rows,
            [
                &vec![(0, 1.0), (3, 1.0)],  // Eq. 3: primitive 3
                &vec![(2, 1.0), (0, -1.0)], // Eq. 4: candidate 0 reads 2
                &vec![(1, 1.0), (2, -1.0)], // candidate 2 reads 1
                &vec![(1, 1.0), (3, -1.0)], // candidate 3 reads 1
            ]
        );
        // The warm start the search begins from is the cheaper of the
        // greedy singletons (3.0) and the seed selection {1}, {2, 3}; here
        // it is also the optimum.
        for (fused, warm, kernels_run) in [(1.5, 2.5, 2), (2.5, 3.0, 3)] {
            let cands = candidates(kernels(fused), &[&[&[1], &[2, 3]]]);
            let (plan, report) = optimize(&g, &cands, None, &OptimizeConfig::default()).unwrap();
            assert_eq!(report.warm_objective_us, warm, "fused at {fused}");
            assert_eq!(report.num_constraints, 4);
            assert_eq!(plan.total_latency.0, warm);
            assert_eq!(plan.kernels.len(), kernels_run);
        }
    }

    #[test]
    fn mutual_wait_is_repaired_with_singletons() {
        // 1 and 2 read the input, 3 reads 2 and 4 reads 1. Candidate 0
        // executes {1, 3}, outputs 1 and reads 2; candidate 1 executes
        // {2, 4}, outputs 2 and reads 1: each waits for the other. The
        // cheapest singleton of 2 (reading nothing), the first of the two
        // at 4 µs, breaks the cycle.
        let g = exps(&[0, 0, 2, 1], &[3, 4]);
        let pair = vec![cand(&[1, 3], &[1], 1.0), cand(&[2, 4], &[2], 1.0)];
        let mut kernels = pair.clone();
        kernels.extend([
            cand(&[1], &[1], 5.0),
            cand(&[2], &[2], 6.0),
            cand(&[2], &[2], 4.0),
            cand(&[2], &[2], 4.0),
        ]);
        assert_eq!(Cover::new(&g, &kernels).order(&[0, 1]).unwrap(), [4, 0, 1]);
        // Without singletons the pair cannot be ordered at all.
        let err = Cover::new(&g, &pair).order(&[0, 1]).unwrap_err();
        assert_eq!(err, OrchError::Unschedulable);
    }

    #[test]
    fn unproduced_outputs_and_reads_are_infeasible() {
        // x -> 1 -> 2; the output 2 or the read 1 has no producer.
        let g = exps(&[0, 1], &[2]);
        for kernel in [cand(&[1], &[1], 1.0), cand(&[2], &[2], 1.0)] {
            let cands = candidates(vec![kernel], &[]);
            let err = optimize(&g, &cands, None, &OptimizeConfig::default()).unwrap_err();
            assert!(matches!(err, OrchError::Infeasible(_)), "{err:?}");
        }
    }
}
