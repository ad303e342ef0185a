//! The plan verifier: checks a compiled artifact's dependency edges and
//! tile decompositions against the plan and graph they were compiled
//! from.
//!
//! The artifact ([`PlanArtifact`]) is an owned, mutable mirror of what
//! `PlanExecutor` compiled — mutation tests corrupt it programmatically
//! (drop a dep edge, overlap two tile ranges, mark a multi-output kernel
//! tile-eligible) and assert the verifier rejects each corruption with a
//! violation naming the kernel/buffer involved.

use crate::{port_name, Rule, Violation};
use korch_exec::{prim_tilability, Tilability};
use korch_ir::{NodeId, PortRef, PrimGraph, PrimKind};
use korch_orch::{plan_dependencies, Plan};
use korch_runtime::{PlanExecutor, SlotTable, TileBodyKind, TileLayout};

/// The verifiable artifact one `PlanExecutor` compiled: dependency
/// counters, tile decompositions and the slot table (its lifetime
/// program). Extracted via the runtime's introspection API so the
/// verifier checks what will run, not a re-derivation of it.
#[derive(Debug, Clone)]
pub struct PlanArtifact {
    /// Dependency edges per kernel (who must retire before it starts).
    pub deps: Vec<Vec<usize>>,
    /// Compiled tile decomposition per kernel (`None` = runs whole).
    pub tiles: Vec<Option<TileLayout>>,
    /// The value-slot table the scheduler counts down and the arena
    /// books ([`crate::LifetimeProgram::from_slots`] unrolls it).
    pub slots: SlotTable,
    /// Members the executor folded at compile (run by no kernel), as
    /// [`PlanExecutor::folded`] lists them.
    pub folded: Vec<NodeId>,
    /// Lanes a run is scheduled over ([`PlanExecutor::lane_count`]): at
    /// one, a run is plan order.
    pub workers: usize,
}

impl PlanArtifact {
    /// Extracts the artifact from a compiled executor.
    pub fn from_executor(exec: &PlanExecutor) -> Self {
        Self {
            deps: exec.kernel_dependencies(),
            tiles: exec.tile_layouts(),
            slots: exec.slot_table().clone(),
            folded: exec.folded().to_vec(),
            workers: exec.lane_count(),
        }
    }
}

/// Statically verifies a compiled artifact against its plan and graph.
/// Returns every broken invariant (empty = verified). See the crate docs
/// for the full check list and the dynamic tests each check mirrors.
pub fn verify_plan(g: &PrimGraph, plan: &Plan, artifact: &PlanArtifact) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = plan.kernels.len();
    for (field, len) in [
        ("deps", artifact.deps.len()),
        ("tiles", artifact.tiles.len()),
        ("slots.reads", artifact.slots.reads.len()),
        ("slots.writes", artifact.slots.writes.len()),
    ] {
        if len != n {
            out.push(Violation::new(
                Rule::MalformedArtifact,
                None,
                None,
                format!("artifact.{field} has {len} entries for a {n}-kernel plan"),
            ));
        }
    }
    if !out.is_empty() {
        return out;
    }

    check_dependencies(g, plan, artifact, &mut out);
    check_producers(g, plan, &mut out);
    for (i, layout) in artifact.tiles.iter().enumerate() {
        if let Some(layout) = layout {
            check_tiling(g, plan, i, layout, &artifact.folded, &mut out);
        }
    }
    out
}

/// Dependency edges: well-formed (in range, strictly backward), acyclic,
/// and a superset of the data dependencies the plan implies.
fn check_dependencies(
    g: &PrimGraph,
    plan: &Plan,
    artifact: &PlanArtifact,
    out: &mut Vec<Violation>,
) {
    let n = plan.kernels.len();
    for (i, deps) in artifact.deps.iter().enumerate() {
        for &d in deps {
            if d >= n {
                out.push(Violation::new(
                    Rule::MalformedDependency,
                    Some(i),
                    None,
                    format!("dependency on kernel {d} outside the {n}-kernel plan"),
                ));
            } else if d == i {
                out.push(Violation::new(
                    Rule::MalformedDependency,
                    Some(i),
                    None,
                    "kernel depends on itself".to_string(),
                ));
            }
        }
    }

    // Kahn's algorithm over the artifact edges — corrupted artifacts may
    // contain forward edges, so acyclicity is checked generally instead
    // of relying on the lower-index convention.
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, deps) in artifact.deps.iter().enumerate() {
        for &d in deps {
            if d < n && d != i {
                dependents[d].push(i);
                indegree[i] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut retired = 0usize;
    while let Some(k) = queue.pop() {
        retired += 1;
        for &next in &dependents[k] {
            indegree[next] -= 1;
            if indegree[next] == 0 {
                queue.push(next);
            }
        }
    }
    if retired < n {
        let stuck: Vec<usize> = (0..n).filter(|&i| indegree[i] > 0).collect();
        out.push(Violation::new(
            Rule::CyclicDependency,
            stuck.first().copied(),
            None,
            format!("kernels {stuck:?} form a dependency cycle and can never become ready"),
        ));
    }

    // Ground truth: the independent derivation in korch-orch. Every
    // required edge must be present (extra edges only over-synchronize
    // and are not unsound).
    match plan_dependencies(g, plan) {
        Err(mp) => out.push(Violation::new(
            Rule::MissingProducer,
            Some(mp.kernel),
            Some(port_name(mp.port)),
            mp.to_string(),
        )),
        Ok(expected) => {
            for (i, required) in expected.iter().enumerate() {
                for &d in required {
                    if !artifact.deps[i].contains(&d) {
                        out.push(Violation::new(
                            Rule::MissingDependency,
                            Some(i),
                            None,
                            format!(
                                "kernel {i} reads kernel {d}'s output but carries no \
                                 dependency edge on it — the scheduler could start {i} \
                                 before {d} retires"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Producer soundness: the first producer of every consumed port is
/// ordered before all readers (covered by `plan_dependencies`), and every
/// *redundant* producer actually contains the member node computing the
/// port — first-writer-wins adoption is only bit-stable when every writer
/// computes identical bytes.
fn check_producers(g: &PrimGraph, plan: &Plan, out: &mut Vec<Violation>) {
    for (i, k) in plan.kernels.iter().enumerate() {
        for o in &k.outputs {
            if g.node(o.node).kind.is_source() {
                continue;
            }
            if !k.members.contains(&o.node) {
                out.push(Violation::new(
                    Rule::ForeignOutput,
                    Some(i),
                    Some(port_name(*o)),
                    format!(
                        "kernel {i} declares output {} but node {} is not among its \
                         members — its bytes would not match the computing producer's",
                        port_name(*o),
                        o.node.0
                    ),
                ));
            }
        }
    }
}

/// Tile soundness for one kernel: eligibility (single output, members
/// form a bit-stable split shape), partition exactness (disjoint,
/// covering, in tile order, grain-aligned), and the determinism lint
/// (reduce tilings must never split or double-accumulate one output
/// element).
///
/// The runtime may execute either body kind through a *compiled* fast
/// path — a fused elementwise chain becomes a pre-bound closure, a
/// single matmul packs its RHS panel once and contracts row ranges
/// directly — but compilation is an implementation detail below this
/// layer: it applies the same tile kernels to the same member order
/// (chains) or performs a pure loop interchange with ascending-k
/// accumulation (matmul), so the bit-identity obligations checked here
/// are exactly the ones the compiled bodies must also satisfy. The
/// `TileBodyKind` variants and their eligibility rules are unchanged by
/// compilation. A member the executor folded ([`PlanArtifact::folded`])
/// reaches the tiles as a constant operand, so the chain check skips it
/// like a source.
fn check_tiling(
    g: &PrimGraph,
    plan: &Plan,
    kernel: usize,
    layout: &TileLayout,
    folded: &[NodeId],
    out: &mut Vec<Violation>,
) {
    let k = &plan.kernels[kernel];
    let [out_port] = k.outputs.as_slice() else {
        out.push(Violation::new(
            Rule::TileEligibilityUnsound,
            Some(kernel),
            k.outputs.first().map(|o| port_name(*o)),
            format!(
                "kernel {kernel} exports {} outputs but is marked tile-eligible — \
                 tiles write disjoint slices of exactly one buffer",
                k.outputs.len()
            ),
        ));
        return;
    };
    let out_shape = g.meta(*out_port).shape().to_vec();
    if layout.out_shape != out_shape {
        out.push(Violation::new(
            Rule::TileEligibilityUnsound,
            Some(kernel),
            Some(port_name(*out_port)),
            format!(
                "tile layout assumes output shape {:?} but the graph says {:?}",
                layout.out_shape, out_shape
            ),
        ));
        return;
    }
    let total: usize = out_shape.iter().product();

    // Body soundness → the tilability classification the ranges must obey.
    let (tilability, reduce_body) = match layout.body {
        TileBodyKind::Single(m) => {
            if !k.members.contains(&m) {
                out.push(Violation::new(
                    Rule::TileEligibilityUnsound,
                    Some(kernel),
                    Some(port_name(*out_port)),
                    format!("tile body node {} is not a member of kernel {kernel}", m.0),
                ));
                return;
            }
            if *out_port != PortRef::from(m) {
                out.push(Violation::new(
                    Rule::TileEligibilityUnsound,
                    Some(kernel),
                    Some(port_name(*out_port)),
                    format!(
                        "tile body node {} does not produce the kernel's output port",
                        m.0
                    ),
                ));
                return;
            }
            let kind = &g.node(m).kind;
            let t = prim_tilability(kind, &out_shape);
            let Some(grain) = t.grain() else {
                out.push(Violation::new(
                    Rule::TileEligibilityUnsound,
                    Some(kernel),
                    Some(port_name(*out_port)),
                    format!(
                        "member node {} is monolithic ({kind:?}) — no bit-stable split \
                         exists, yet kernel {kernel} is marked tile-eligible",
                        m.0
                    ),
                ));
                return;
            };
            if grain != layout.grain {
                out.push(Violation::new(
                    Rule::TileEligibilityUnsound,
                    Some(kernel),
                    Some(port_name(*out_port)),
                    format!(
                        "tile layout grain {} disagrees with the classifier's grain \
                         {grain} for node {}",
                        layout.grain, m.0
                    ),
                ));
            }
            (t, matches!(kind, PrimKind::Reduce { .. }))
        }
        TileBodyKind::ElementwiseChain => {
            let mut sound = true;
            for &m in &k.members {
                let node = g.node(m);
                if node.kind.is_source() || folded.contains(&m) {
                    continue;
                }
                let uniform = matches!(node.kind, PrimKind::Elementwise(_))
                    && node.out_metas.len() == 1
                    && node.out_metas[0].shape() == out_shape.as_slice()
                    && node
                        .inputs
                        .iter()
                        .all(|r| g.meta(*r).shape() == out_shape.as_slice());
                if !uniform {
                    out.push(Violation::new(
                        Rule::TileEligibilityUnsound,
                        Some(kernel),
                        Some(port_name(*out_port)),
                        format!(
                            "chain-tiled kernel {kernel} has member node {} that is not \
                             elementwise over the output shape {:?}",
                            m.0, out_shape
                        ),
                    ));
                    sound = false;
                }
            }
            if out_port.port != 0 || !k.members.contains(&out_port.node) {
                out.push(Violation::new(
                    Rule::TileEligibilityUnsound,
                    Some(kernel),
                    Some(port_name(*out_port)),
                    "chain-tiled kernel's output port is not produced by a member".to_string(),
                ));
                sound = false;
            }
            if !sound {
                return;
            }
            (Tilability::Pointwise, false)
        }
    };

    // Partition exactness. For reduce bodies a broken partition is also a
    // determinism hazard: an overlapping or over-covering range would
    // accumulate some output element twice (or re-associate its
    // accumulation across tiles), so those cases are reported under the
    // determinism lint by name.
    let part_rule = if reduce_body {
        Rule::NonDeterministicReduceTile
    } else {
        Rule::TilePartitionBroken
    };
    let buf = || Some(port_name(*out_port));
    if layout.tiles.is_empty() {
        out.push(Violation::new(
            part_rule,
            Some(kernel),
            buf(),
            "tile layout has no tiles".to_string(),
        ));
        return;
    }
    let mut expected_start = 0usize;
    for (t, r) in layout.tiles.iter().enumerate() {
        if r.start != expected_start {
            let what = if r.start < expected_start {
                "overlaps the previous tile"
            } else {
                "leaves a gap after the previous tile"
            };
            out.push(Violation::new(
                part_rule,
                Some(kernel),
                buf(),
                format!(
                    "tile {t} range {:?} {what} (expected start {expected_start}) — \
                     the partition is not disjoint-and-covering in tile order",
                    r
                ),
            ));
        }
        if !tilability.accepts(r) {
            out.push(Violation::new(
                part_rule,
                Some(kernel),
                buf(),
                format!(
                    "tile {t} range {:?} is empty or not aligned to grain {} — a \
                     split element would lose its sequential arithmetic",
                    r,
                    layout.grain.max(1)
                ),
            ));
        }
        expected_start = expected_start.max(r.end);
    }
    let covered = layout.tiles.last().map(|r| r.end).unwrap_or(0);
    if covered != total {
        let what = if covered < total {
            "leaves output elements unwritten"
        } else {
            "extends past the output (a reduction-axis split re-associates accumulation)"
        };
        out.push(Violation::new(
            part_rule,
            Some(kernel),
            buf(),
            format!("tile partition covers 0..{covered} of a {total}-element output: {what}"),
        ));
    }
}
