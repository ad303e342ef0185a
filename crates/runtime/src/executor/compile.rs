//! Plan compilation: [`PlanExecutor::new`] in three steps — value-slot
//! assignment (folding run-invariant members into constants on the way),
//! per-kernel lowering (reads, dependencies, body), and tile
//! classification under the [`Tiling`] mode.

use super::body::{kernel_reads, KernelBody};
use super::emit::ExecTelemetry;
use super::{
    not_materialized, pool, Core, KernelTask, PlanExecutor, RuntimeConfig, TileBodyKind,
    TileLayout, Tiling,
};
use crate::arena::{BufferArena, SlotInfo, SlotTable};
use crate::profiler::RuntimeProfile;
use korch_exec::{eval_prim, materialize_const, ExecError};
use korch_ir::{LinearFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch_orch::{Plan, SelectedKernel};
use korch_tensor::Tensor;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// The slot table under construction: one slot per graph input and per
/// port a kernel reads or materializes.
#[derive(Default)]
struct Slots {
    index: HashMap<PortRef, usize>,
    table: SlotTable,
}

impl Slots {
    fn slot_of(&mut self, g: &PrimGraph, port: PortRef) -> usize {
        *self.index.entry(port).or_insert_with(|| {
            self.table.slots.push(SlotInfo {
                port,
                numel: g.meta(port).numel(),
                readers: 0,
                pinned: false,
                source: false,
                buffer: None,
            });
            self.table.slots.len() - 1
        })
    }

    /// The pinned slot of source `port`.
    fn source_slot(&mut self, g: &PrimGraph, port: PortRef) -> usize {
        let s = self.slot_of(g, port);
        let slot = &mut self.table.slots[s];
        (slot.source, slot.pinned) = (true, true);
        s
    }
}

/// Input slots in feed order with their expected shapes, and constant
/// slots — constants and folded ports — with their tensors computed once.
type Sources = (Vec<(usize, Vec<usize>)>, Vec<(usize, Arc<Tensor>)>);

/// Per node, whether it is *run-invariant*: a plan member, neither a
/// source nor `Opaque`, reading only constants and other run-invariant
/// nodes, and neither exported by a kernel nor a graph output. Every run
/// would compute such a node to the same value, so compile folds it once
/// and no kernel runs it. The export rule keeps every kernel non-empty
/// and every kernel output and dependency edge where the plan put it.
fn run_invariant(g: &PrimGraph, plan: &Plan) -> Vec<bool> {
    // Plan members that are no kernel output and no graph output.
    let mut candidate = vec![false; g.len()];
    for m in plan.kernels.iter().flat_map(|k| &k.members) {
        candidate[m.0] = true;
    }
    for p in plan
        .kernels
        .iter()
        .flat_map(|k| &k.outputs)
        .chain(g.outputs())
    {
        candidate[p.node.0] = false;
    }
    let mut folded = vec![false; g.len()];
    for (id, node) in g.iter() {
        folded[id.0] = candidate[id.0]
            && !node.kind.is_source()
            && !matches!(node.kind, PrimKind::Opaque { .. })
            && node.inputs.iter().all(|r| {
                folded[r.node.0] || matches!(g.node(r.node).kind, PrimKind::Constant { .. })
            });
    }
    folded
}

/// Fills the source slots in node order: every graph input; and every
/// constant or folded port a kernel reads or the graph outputs, its value
/// materialized — or, for a folded node, evaluated by `eval_prim` — once.
/// A constant that only folded nodes read (or nothing reads) gets no
/// slot, so no run fills it.
fn assign_sources(
    g: &PrimGraph,
    folded: &[bool],
    read: &HashSet<PortRef>,
    slots: &mut Slots,
) -> Result<Sources, ExecError> {
    let mut input_slots = Vec::new();
    let mut const_slots = Vec::new();
    let mut values: HashMap<PortRef, Arc<Tensor>> = HashMap::new();
    for (id, node) in g.iter() {
        let outs = match &node.kind {
            PrimKind::Input { shape } => {
                input_slots.push((slots.source_slot(g, id.into()), shape.clone()));
                continue;
            }
            PrimKind::Constant { shape, init } => vec![materialize_const(shape, init)],
            kind if folded[id.0] => {
                let ins: Vec<&Tensor> = node.inputs.iter().map(|r| values[r].as_ref()).collect();
                eval_prim(kind, &ins, id.0)?
            }
            _ => continue,
        };
        for (port, t) in outs.into_iter().enumerate() {
            let port = PortRef { node: id, port };
            let t = Arc::new(t);
            if read.contains(&port) || g.outputs().contains(&port) {
                const_slots.push((slots.source_slot(g, port), Arc::clone(&t)));
            }
            values.insert(port, t);
        }
    }
    Ok((input_slots, const_slots))
}

/// Lowers every plan kernel over its `members` that run (folded ones
/// removed) and the ports they read from memory (counted as readers of
/// their slots): the earlier kernels that materialize those ports, its
/// output slots and its body.
fn compile_kernels(
    g: &PrimGraph,
    plan: &Plan,
    lowered: Vec<(Vec<NodeId>, Vec<PortRef>)>,
    folded: &[bool],
    slots: &mut Slots,
) -> Result<Vec<KernelTask>, ExecError> {
    // First (in plan order) kernel materializing each port.
    let mut first_producer: HashMap<PortRef, usize> = HashMap::new();
    for (i, k) in plan.kernels.iter().enumerate() {
        for o in &k.outputs {
            first_producer.entry(*o).or_insert(i);
        }
    }
    let mut kernels = Vec::with_capacity(plan.kernels.len());
    for (i, (k, (members, read_ports))) in plan.kernels.iter().zip(lowered).enumerate() {
        let mut deps: BTreeSet<usize> = BTreeSet::new();
        for port in &read_ports {
            if g.node(port.node).kind.is_source() || folded[port.node.0] {
                continue;
            }
            match first_producer.get(port) {
                Some(&p) if p < i => {
                    deps.insert(p);
                }
                Some(&p) if p == i => {}
                _ => {
                    return Err(ExecError::Input(format!(
                        "plan kernel {i} reads port {}:{} that no earlier \
                         kernel materializes",
                        port.node.0, port.port
                    )))
                }
            }
        }
        let body = KernelBody::compile(g, &members, &read_ports, &k.outputs)?;
        let mut with_slots = |ports: &[PortRef]| -> Vec<usize> {
            ports.iter().map(|p| slots.slot_of(g, *p)).collect()
        };
        let (reads, writes) = (with_slots(&read_ports), with_slots(&k.outputs));
        let table = &mut slots.table;
        for &s in &reads {
            table.slots[s].readers += 1;
        }
        table.reads.push(reads);
        table.writes.push(writes);
        kernels.push(KernelTask {
            deps: deps.into_iter().collect(),
            body,
        });
    }
    Ok(kernels)
}

/// Per kernel `p`, which kernels retire before it starts under every
/// schedule the executor can pick: every earlier kernel when a run is
/// plan order (one worker), else exactly its strict ancestors in the
/// dependency DAG.
fn retired_before(kernels: &[KernelTask], workers: usize) -> Vec<Vec<bool>> {
    let mut before: Vec<Vec<bool>> = Vec::with_capacity(kernels.len());
    for (p, k) in kernels.iter().enumerate() {
        let mut row: Vec<bool> = (0..kernels.len()).map(|r| workers <= 1 && r < p).collect();
        for &d in &k.deps {
            row[d] = true;
            row.iter_mut().zip(&before[d]).for_each(|(r, &b)| *r |= b);
        }
        before.push(row);
    }
    before
}

impl PlanExecutor {
    /// Compiles `plan` over `g` for repeated parallel execution.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Input`] if the plan reads a port no earlier
    /// kernel materializes and [`ExecError::NotMaterialized`] if a kernel
    /// declares an output none of its members computes (such plans would
    /// also fail under `execute_plan`), and the error of a run-invariant
    /// member that does not evaluate.
    pub fn new(g: &PrimGraph, plan: &Plan, config: RuntimeConfig) -> Result<Self, ExecError> {
        let lanes = config.lanes.max(1);
        let folded = run_invariant(g, plan);
        // Each kernel's members that run, and the ports they read.
        let lowered: Vec<(Vec<NodeId>, Vec<PortRef>)> = (plan.kernels.iter())
            .map(|k| {
                let mut members: Vec<NodeId> =
                    k.members.iter().copied().filter(|m| !folded[m.0]).collect();
                members.sort_unstable();
                let reads = kernel_reads(g, &members);
                (members, reads)
            })
            .collect();
        let read: HashSet<PortRef> = lowered.iter().flat_map(|(_, r)| r).copied().collect();
        let mut slots = Slots::default();
        let (input_slots, const_slots) = assign_sources(g, &folded, &read, &mut slots)?;
        let kernels = compile_kernels(g, plan, lowered, &folded, &mut slots)?;
        let Slots { index, mut table } = slots;

        let mut const_slot = vec![false; table.slots.len()];
        for (s, _) in &const_slots {
            const_slot[*s] = true;
        }
        let mut output_slots = Vec::new();
        for o in g.outputs() {
            let s = *index.get(o).ok_or(not_materialized(o))?;
            table.slots[s].pinned = true;
            output_slots.push((*o, s));
        }

        // Reverse dependency edges: who to unblock on retirement. Since
        // every dependency points at a lower kernel index, the relation is
        // acyclic by construction — no lane order needs validating.
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); kernels.len()];
        for (i, k) in kernels.iter().enumerate() {
            for &d in &k.deps {
                dependents[d].push(i);
            }
        }

        // Intra-kernel tiling: under `Auto` a kernel is split-worthy when
        // it alone exceeds one lane's fair share of the plan's own cost
        // estimates; ranges are cut for the range-bodied kernels the mode
        // admits.
        let auto = config.tiling == Tiling::Auto;
        let lane_share_us = plan.total_latency.0 / lanes as f64;
        let tile_specs: Vec<Option<TileLayout>> = kernels
            .iter()
            .zip(&plan.kernels)
            .map(|(task, k)| {
                if lanes < 2
                    || config.tiling == Tiling::Off
                    || (auto && k.latency.0 <= lane_share_us)
                {
                    return None;
                }
                // Cut first: the overhead floor prices the partition the
                // kernel would actually get (its grain decides how
                // assembly traffic is charged).
                let spec = Self::classify_tiling(g, &task.body, k, &config)?;
                if auto && !Self::clears_tile_floor(&spec, k, lanes) {
                    return None;
                }
                Some(spec)
            })
            .collect();

        let roots: Vec<usize> = (0..kernels.len())
            .filter(|&k| kernels[k].deps.is_empty())
            .collect();
        // A run needs the scheduler only if two tasks can ever be ready at
        // once: two roots, a kernel that releases two dependents, or a
        // kernel that may split into tiles (`tile_specs` is empty of
        // layouts below two lanes). Anything else is a chain, and a chain
        // runs in plan order on the calling thread.
        let forks = dependents.iter().any(|d| d.len() >= 2);
        let may_tile = tile_specs.iter().any(Option::is_some);
        let workers = if lanes >= 2 && (roots.len() >= 2 || forks || may_tile) {
            lanes
        } else {
            1
        };
        pool::reserve(workers - 1);
        let staged: Vec<usize> = (input_slots.iter())
            .map(|&(s, _)| s)
            .filter(|s| !output_slots.iter().any(|(_, o)| o == s))
            .collect();
        // What each kernel holds while it runs: a walk its locals, a
        // tiled kernel its chunks.
        let holds: Vec<Vec<usize>> = (kernels.iter().zip(&tile_specs))
            .map(|(task, spec)| match &task.body {
                KernelBody::Walk(walk) => walk.locals.clone(),
                _ => spec.iter().flat_map(|l| &l.tiles).map(Range::len).collect(),
            })
            .collect();
        table.place_buffers(&staged, &holds, &retired_before(&kernels, workers));
        let memory_report = table.memory_report();
        let telemetry = config.telemetry.as_ref().map(ExecTelemetry::new);
        let kernel_classes = plan
            .kernels
            .iter()
            .map(|k| {
                let members: BTreeSet<NodeId> = k.members.iter().copied().collect();
                let spec = korch_cost::kernel_spec(g, &members, &k.outputs);
                (spec.class(), spec.total_flops() as f64)
            })
            .collect();
        let core = Core {
            graph: g.clone(),
            plan: plan.clone(),
            memory_report,
            table,
            kernels,
            dependents,
            input_slots,
            const_slots,
            const_slot,
            folded: (0..g.len()).filter(|&i| folded[i]).map(NodeId).collect(),
            output_slots,
            arena: BufferArena::default(),
            telemetry,
            profile: Mutex::new(RuntimeProfile::new(plan.kernels.len())),
            tile_specs,
            kernel_classes,
            roots,
            workers,
            free_runs: Mutex::new(Vec::new()),
            #[cfg(test)]
            panic_at: std::sync::atomic::AtomicUsize::new(usize::MAX),
        };
        Ok(Self {
            core: Arc::new(core),
        })
    }

    /// Kernel launch cost of the default pricing target (the V100 the
    /// optimizer prices plans for), µs: the share of a plan-priced
    /// latency that is not body time, and the unit a tile's dispatch
    /// slice is cut from.
    const TILE_LAUNCH_US: f64 = 5.0;

    /// Memory bandwidth of the default pricing target, GB/s: what the
    /// assembly pass of a split kernel streams its chunks back at.
    const TILE_MEM_BW_GBPS: f64 = 900.0;

    /// Per-tile overhead floor of [`Tiling::Auto`]: splitting a kernel
    /// across the lanes only pays when one lane's share of the kernel body
    /// outweighs the fixed cost every tile adds — a slice of the
    /// launch/dispatch overhead plus the assembly pass
    /// that streams the chunks back into one buffer.
    ///
    /// The assembly charge is split by **body kind** (the partition's
    /// grain). Pointwise bodies (`grain == 1`: elementwise chains, reduce,
    /// broadcast) are memory-bound — the lanes already saturate the
    /// shared bus, so the assembly pass re-streams the *full* output
    /// serialized behind all of them and the floor charges every byte.
    /// Row-grain bodies (`grain > 1`: matmul) are compute-bound —
    /// assembly traffic hides behind sibling tiles still computing, so
    /// only the lane's own chunk counts. Mispricing this made a 768²
    /// elementwise chain look split-worthy when the measured split ran
    /// 0.96× the whole compiled kernel; a dim-192 matmul similarly ran
    /// 0.91× when split. Both now sit under their floors and run whole.
    fn clears_tile_floor(spec: &TileLayout, k: &SelectedKernel, lanes: usize) -> bool {
        // The body divides over the lanes the caller asked for (at least
        // two, or nothing is classified). The host enters in one place:
        // `RuntimeConfig::default()` clamps that request to its cores.
        let par = lanes as f64;
        let out_bytes = (spec.out_shape.iter().product::<usize>() * 4) as f64;
        let per_tile_body = (k.latency.0 - Self::TILE_LAUNCH_US).max(0.0) / par;
        let assembly_bytes = if spec.grain == 1 {
            out_bytes
        } else {
            out_bytes / par
        };
        // Per-tile fixed cost: a fraction of one kernel launch (tiles are
        // enqueue+steal, far cheaper than a driver launch) plus the
        // assembly traffic (bytes / bandwidth; 1 GB/s = 1000 bytes/µs).
        let floor = Self::TILE_LAUNCH_US / 8.0 + assembly_bytes / (Self::TILE_MEM_BW_GBPS * 1000.0);
        per_tile_body > floor
    }

    /// Cuts a range-bodied kernel's flat output into grain-aligned tile
    /// ranges covering it exactly; `None` for walk bodies (which never
    /// tile), empty outputs, and auto-sized partitions of a single tile.
    fn classify_tiling(
        g: &PrimGraph,
        body: &KernelBody,
        k: &SelectedKernel,
        config: &RuntimeConfig,
    ) -> Option<TileLayout> {
        let (body, grain) = body.tile_kind(g)?;
        let out_shape = g.meta(k.outputs[0]).shape().to_vec();
        let total: usize = out_shape.iter().product();
        if total == 0 {
            return None;
        }
        let rows_total = total / grain;
        let pinned_rows = match config.tiling {
            Tiling::Forced { tile_rows } => tile_rows,
            Tiling::Auto | Tiling::Off => None,
        };
        let tile_rows = pinned_rows
            .unwrap_or_else(|| {
                let fair = rows_total.div_ceil(config.lanes.max(1));
                // Matmul tiles run korch-tensor's MR×NR microkernel; grains
                // aligned to the MR row group keep every tile (bar the last)
                // full-group-only, so no tile pays the single-row remainder
                // path more than once. Alignment is performance-only —
                // bit-identity holds for any partition.
                match body {
                    TileBodyKind::Single(m)
                        if matches!(g.node(m).kind, PrimKind::Linear(LinearFn::MatMul { .. })) =>
                    {
                        fair.div_ceil(korch_tensor::MATMUL_MR) * korch_tensor::MATMUL_MR
                    }
                    _ => fair,
                }
            })
            .clamp(1, rows_total);
        let n_tiles = rows_total.div_ceil(tile_rows);
        // Auto-sized partitions only pay off with real parallelism; a
        // pinned `tile_rows` is honored even at one tile so tests can
        // sweep degenerate partitions through the tile path.
        if n_tiles < 2 && pinned_rows.is_none() {
            return None;
        }
        let tiles = (0..n_tiles)
            .map(|t| {
                let start = t * tile_rows * grain;
                let end = ((t + 1) * tile_rows * grain).min(total);
                start..end
            })
            .collect();
        Some(TileLayout {
            body,
            tiles,
            out_shape,
            grain,
        })
    }
}
