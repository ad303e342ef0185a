//! Plan compilation: [`PlanExecutor::new`] in three steps — value-slot
//! assignment, per-kernel lowering (reads, dependencies, body), and tile
//! classification against the split threshold and its overhead floor.

use super::body::{kernel_reads, KernelBody};
use super::emit::ExecTelemetry;
use super::{
    not_materialized, pool, Core, KernelTask, PlanExecutor, RuntimeConfig, TileBodyKind, TileLayout,
};
use crate::arena::{BufferArena, SlotInfo, SlotTable};
use crate::profiler::RuntimeProfile;
use korch_cost::Device;
use korch_exec::{materialize_const, ExecError};
use korch_ir::{LinearFn, NodeId, PortRef, PrimGraph, PrimKind};
use korch_orch::{Plan, SelectedKernel};
use korch_tensor::Tensor;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// The slot table under construction: one slot per source and per port a
/// kernel reads or materializes.
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
                pooled: true,
            });
            self.table.slots.len() - 1
        })
    }

    /// The pinned slot of source `port`. A staged input copy is the
    /// runtime's own buffer (`pooled`); a constant is shared across runs
    /// and never booked.
    fn source_slot(&mut self, g: &PrimGraph, port: PortRef, pooled: bool) -> usize {
        let s = self.slot_of(g, port);
        let slot = &mut self.table.slots[s];
        (slot.source, slot.pinned, slot.pooled) = (true, true, pooled);
        s
    }
}

/// Input slots in feed order with their expected shapes, and constant
/// slots with their tensors materialized once.
type Sources = (Vec<(usize, Vec<usize>)>, Vec<(usize, Arc<Tensor>)>);

fn assign_sources(g: &PrimGraph, slots: &mut Slots) -> Sources {
    let mut input_slots = Vec::new();
    let mut const_slots = Vec::new();
    for (id, node) in g.iter() {
        match &node.kind {
            PrimKind::Input { shape } => {
                input_slots.push((slots.source_slot(g, id.into(), true), shape.clone()));
            }
            PrimKind::Constant { shape, init } => {
                let t = Arc::new(materialize_const(shape, init));
                const_slots.push((slots.source_slot(g, id.into(), false), t));
            }
            _ => {}
        }
    }
    (input_slots, const_slots)
}

/// Lowers every plan kernel: the ports it reads from memory (counted as
/// readers of their slots), the earlier kernels that materialize them,
/// its output slots and its body.
fn compile_kernels(
    g: &PrimGraph,
    plan: &Plan,
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
    for (i, k) in plan.kernels.iter().enumerate() {
        let mut members = k.members.clone();
        members.sort_unstable();
        let read_ports = kernel_reads(g, &members);
        let mut deps: BTreeSet<usize> = BTreeSet::new();
        for port in &read_ports {
            if g.node(port.node).kind.is_source() {
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
        // A range body evaluates into a buffer the runtime took itself;
        // a slot any walk writes may hold a buffer that was moved in.
        for &s in &writes {
            table.slots[s].pooled &= !matches!(body, KernelBody::Walk { .. });
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

impl PlanExecutor {
    /// Compiles `plan` over `g` for repeated parallel execution.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Input`] if the plan reads a port no earlier
    /// kernel materializes and [`ExecError::NotMaterialized`] if a kernel
    /// declares an output none of its members computes (such plans would
    /// also fail under `execute_plan`).
    pub fn new(g: &PrimGraph, plan: &Plan, config: RuntimeConfig) -> Result<Self, ExecError> {
        let lanes = config.lanes.max(1);
        let mut slots = Slots::default();
        let (input_slots, const_slots) = assign_sources(g, &mut slots);
        let kernels = compile_kernels(g, plan, &mut slots)?;
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

        // Intra-kernel tiling: price the split threshold from the plan's
        // own cost estimates (a kernel is split-worthy when it alone
        // exceeds one lane's fair share of the plan), then cut ranges for
        // the range-bodied kernels above it.
        let split_threshold_us = config
            .split_threshold_us
            .unwrap_or(plan.total_latency.0 / lanes as f64);
        let derived_threshold = config.split_threshold_us.is_none();
        let tile_specs: Vec<Option<TileLayout>> = kernels
            .iter()
            .zip(&plan.kernels)
            .map(|(task, k)| {
                if lanes < 2 || k.latency.0 <= split_threshold_us {
                    return None;
                }
                // Cut first: the overhead floor prices the partition the
                // kernel would actually get (its grain decides how
                // assembly traffic is charged). Plan-derived thresholds
                // enforce the floor; explicit thresholds bypass it so
                // tests can sweep degenerate splits.
                let spec = Self::classify_tiling(g, &task.body, k, &config)?;
                if derived_threshold && !Self::clears_tile_floor(&spec, k, &config.device, lanes) {
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
            timing_enabled: config.profile || telemetry.is_some(),
            profiling: config.profile,
            memory_report: table.memory_report(),
            table,
            kernels,
            dependents,
            input_slots,
            const_slots,
            const_slot,
            output_slots,
            arena: BufferArena::new(),
            telemetry,
            profile: Mutex::new(RuntimeProfile::new(plan.kernels.len())),
            tile_specs,
            kernel_classes,
            split_threshold_us,
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

    /// Per-tile overhead floor applied to plan-derived split thresholds:
    /// splitting a kernel across the lanes only pays when one lane's
    /// share of the kernel body outweighs the fixed cost every tile adds
    /// — a slice of the launch/dispatch overhead plus the assembly pass
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
    fn clears_tile_floor(
        spec: &TileLayout,
        k: &SelectedKernel,
        device: &Device,
        lanes: usize,
    ) -> bool {
        // The body divides over the lanes the caller asked for (at least
        // two, or nothing is classified). The host enters in one place:
        // `RuntimeConfig::default()` clamps that request to its cores.
        let par = lanes as f64;
        let out_bytes = (spec.out_shape.iter().product::<usize>() * 4) as f64;
        let per_tile_body = (k.latency.0 - device.launch_overhead_us).max(0.0) / par;
        let assembly_bytes = if spec.grain == 1 {
            out_bytes
        } else {
            out_bytes / par
        };
        // Per-tile fixed cost: a fraction of one kernel launch (tiles are
        // enqueue+steal, far cheaper than a driver launch) plus the
        // assembly traffic (bytes / bandwidth; 1 GB/s = 1000 bytes/µs).
        let floor =
            device.launch_overhead_us / 8.0 + assembly_bytes / (device.mem_bw_gbps * 1000.0);
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
        let tile_rows = config
            .tile_rows
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
        // Auto-sized partitions only pay off with real parallelism; an
        // explicit `tile_rows` is honored even at one tile so tests can
        // sweep degenerate partitions through the tile path.
        if n_tiles < 2 && config.tile_rows.is_none() {
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
