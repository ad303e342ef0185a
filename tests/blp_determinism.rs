//! The orchestration BLP is a function of its input: solving the same
//! `Candidates` twice builds the same rows in the same order, so the solver
//! explores the same nodes, takes the same pivots and returns the same
//! plan. Rows emitted in hash iteration order break this — the pivot count
//! of two solves in one process differs, which e2e-bench records as
//! `blp.pivots_spread` above 1 and a compile whose time varies by the
//! program's own doing. `Orchestrator::orchestrate` is that same solve
//! behind the stages e2e-bench times one by one.

use korch::core::partition;
use korch::cost::{Backend, Device, Profiler};
use korch::fission::fission;
use korch::ir::OpGraph;
use korch::models::subgraphs;
use korch::orch::{
    enumerate_states, identify_kernels, optimize, IdentifyConfig, OptimizeConfig, Orchestrator,
    Plan, SolveReport, DEFAULT_MAX_STATES,
};

/// What must repeat exactly: the problem size, the search, the plan.
fn fingerprint(plan: &Plan, report: &SolveReport) -> String {
    let kernels: Vec<_> = plan
        .kernels
        .iter()
        .map(|k| (&k.members, &k.outputs, k.latency.0.to_bits()))
        .collect();
    format!(
        "{} rows, {} nodes, {} pivots, {kernels:?}",
        report.num_constraints, report.solver_nodes, report.solver_pivots
    )
}

fn assert_solves_repeat(name: &str, model: &OpGraph) {
    let profiler = Profiler::new(Device::v100());
    // Repeatability does not need the search finished: a hundred nodes
    // re-bound one dictionary a few hundred times and rebuild it a few
    // dozen, which is simplex work enough to differ when rows are
    // reordered; a solve out of nodes returns its incumbent.
    let config = OptimizeConfig {
        solver_max_nodes: 96,
        ..OptimizeConfig::default()
    };
    let prims = fission(model).unwrap().prim_graph;
    let mut pivots = 0;
    for (i, part) in partition(&prims, 28).unwrap().iter().enumerate() {
        let g = &part.graph;
        let space = enumerate_states(g, DEFAULT_MAX_STATES);
        let cands = identify_kernels(
            g,
            &space,
            &profiler,
            &IdentifyConfig::default(),
            &[Backend::Generated, Backend::Vendor],
        );
        let mut standard = || {
            let (plan, report) = optimize(g, &cands, Some(&space), &config).unwrap();
            pivots += report.solver_pivots;
            fingerprint(&plan, &report)
        };
        assert_eq!(standard(), standard(), "{name} partition {i}: optimize");
    }
    // The claim is about simplex work, so the inputs must cause some.
    assert!(pivots > 0, "{name}: every solve was trivial");
}

#[test]
fn efficientvit_attention_solves_repeat_exactly() {
    assert_solves_repeat(
        "efficientvit_attention",
        &subgraphs::efficientvit_attention(64, 16),
    );
}

#[test]
fn segformer_attention_solves_repeat_exactly() {
    assert_solves_repeat(
        "segformer_attention",
        &subgraphs::segformer_attention(64, 64, 2),
    );
}

/// `Orchestrator::orchestrate` is the composition e2e-bench replays stage
/// by stage (`orch.states`, `orch.identify`, `orch.blp`): the same kernels
/// to the latency bit and the same pivots, so those layer metrics time
/// what the pipeline runs.
#[test]
fn orchestrate_is_the_per_layer_composition() {
    let device = Device::v100();
    let orchestrator = Orchestrator::new(device.clone());
    let profiler = Profiler::new(device);
    let prims = fission(&subgraphs::efficientvit_attention(64, 16))
        .unwrap()
        .prim_graph;
    for (i, part) in partition(&prims, 28).unwrap().iter().enumerate() {
        let g = &part.graph;
        let space = enumerate_states(g, DEFAULT_MAX_STATES);
        let cands = identify_kernels(
            g,
            &space,
            &profiler,
            &IdentifyConfig::default(),
            &[Backend::Generated, Backend::Vendor],
        );
        let (plan, report) = optimize(g, &cands, Some(&space), &OptimizeConfig::default()).unwrap();
        let whole = orchestrator.orchestrate(g).unwrap();
        assert_eq!(
            fingerprint(&whole.plan, &whole.report),
            fingerprint(&plan, &report),
            "partition {i}"
        );
    }
}
