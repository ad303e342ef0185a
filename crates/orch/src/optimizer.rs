//! The kernel orchestration optimizer (paper §4.2): the binary linear
//! program of Eqs. 2–4 over the identified candidate kernels — the
//! cover problem (`cover.rs`) with one key per primitive — plus the
//! chain-DP and seed warm starts and the no-redundancy ablation rows.

use crate::cover::{CoverProblem, CoverVar};
use crate::kernel::{required_outputs, CandidateKernel};
use crate::plan::Plan;
use crate::state::{BitSet, StateSpace};
use korch_blp::Constraint;
use korch_ir::{NodeId, PrimGraph};
use std::collections::{BTreeMap, HashMap};
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
    /// Selected kernels could not be scheduled (would indicate a bug in the
    /// dependency constraints).
    Unschedulable,
}

impl fmt::Display for OrchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchError::Infeasible(what) => write!(f, "no feasible orchestration: {what}"),
            OrchError::SolverBudget => write!(f, "solver budget exhausted without incumbent"),
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

/// Statistics of one orchestration solve.
#[derive(Debug, Clone, Default)]
pub struct SolveReport {
    /// Number of candidate kernels (BLP variables).
    pub num_candidates: usize,
    /// Simulated tuning time of the profiled candidates, seconds.
    pub tuning_time_s: f64,
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
/// [`Plan`]: the cover problem (`cover.rs`) keyed by primitive, warm-started
/// by the chain-DP and greedy-fusion seed incumbents.
///
/// Every kernel in `cands` is a variable: `optimize` solves over what it is
/// given. [`identify_kernels`](crate::identify_kernels) hands it at most
/// 220, unless the singletons and seeds alone are more.
///
/// # Errors
///
/// See [`OrchError`].
pub fn optimize(
    g: &PrimGraph,
    cands: &crate::kernel::Candidates,
    space: Option<&StateSpace>,
    config: &OptimizeConfig,
) -> Result<(Plan, SolveReport), OrchError> {
    let candidates = &cands.kernels;
    let n = candidates.len();
    let vars = candidates
        .iter()
        .map(|k| CoverVar {
            produces: k.output_nodes.clone(),
            requires: k.external_inputs(g),
            cost: k.latency.0,
            singleton: k.members.len() == 1,
        })
        .collect();
    let mut problem = CoverProblem::new(vars, required_outputs(g).collect())?;

    // Optional disjointness (no-redundancy ablation): each primitive is
    // *executed* by at most one selected kernel.
    if !config.allow_redundancy {
        let mut executed_by: BTreeMap<NodeId, Vec<(usize, f64)>> = BTreeMap::new();
        for (i, k) in candidates.iter().enumerate() {
            for &m in &k.members {
                executed_by.entry(m).or_default().push((i, 1.0));
            }
        }
        for ks in executed_by.into_values().filter(|ks| ks.len() > 1) {
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
    let warm_starts = dp.into_iter().chain(seeds).collect();

    let solution = problem.solve(warm_starts, config.solver_max_nodes)?;
    let plan = Plan::from_kernels(solution.order.iter().map(|&i| candidates[i].selected()));
    let report = SolveReport {
        tuning_time_s: candidates.iter().map(|k| k.tuning_s).sum(),
        ..solution.report
    };
    Ok((plan, report))
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
    use korch_cost::{Backend, Device, Profiler};
    use korch_ir::{EwFn, LinearFn, PrimKind};
    use korch_tensor::{BinaryOp, MatMulSpec, ReduceKind, UnaryOp};
    use std::collections::HashSet;

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
}
