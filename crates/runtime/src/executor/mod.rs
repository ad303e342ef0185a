//! The parallel plan executor: runs an orchestrated [`Plan`] for real,
//! with a work-stealing scheduler over lanes, kernel-level dependency
//! tracking, intra-kernel tile decomposition, and eager buffer
//! reclamation.
//!
//! The seed's `korch_exec::execute_plan` interprets kernels sequentially.
//! [`PlanExecutor`] overlaps them, scheduling from the dependency DAG it
//! compiles and from nothing else — it is a pure function of
//! `(graph, plan, RuntimeConfig)` — and its outputs are **bit-identical**
//! to `execute_plan`'s whichever lane runs what.
//!
//! # Compile (`compile.rs`, `body.rs`)
//!
//! [`PlanExecutor::new`] first folds the plan's *run-invariant* members
//! ([`PlanExecutor::folded`]): a member that is neither a source nor
//! `Opaque`, reads only constants and other run-invariant members, and
//! that no kernel exports and the graph does not output — a bias, a norm
//! scale, `sqrt(var + ε)`, the broadcasts that stretch them over a feature
//! map. Each is evaluated once, in node order, by `korch_exec::eval_prim`
//! (the interpreter's arithmetic, so runs stay bit-identical), and no
//! kernel runs it again; a kernel that read it reads it from memory, like
//! a constant. It then assigns every graph input, every constant or folded
//! port a kernel reads or the graph outputs, and every port a kernel
//! materializes a *value slot* — the [`SlotTable`], the one lifetime
//! program a run executes, `korch-verify` interprets and the
//! [`MemoryReport`] is folded from — derives kernel dependencies from the
//! reads, and lowers each kernel's remaining members to one `KernelBody`:
//!
//! - **walk** — the general body and most of the traffic: every
//!   non-source member, in ascending order, evaluated whole with operands
//!   resolved at compile time to either a read slot or an earlier step's
//!   output (`execute_plan`'s rule), so a run indexes vectors and builds
//!   no maps. Every step runs `korch_exec::eval_prim_into` — the one
//!   interpreter of every primitive, which `execute_plan` runs over
//!   fresh outputs, so the same bits — into planned buffers (see below),
//!   one per output port. Compile places a walk's locals by step: a dead
//!   local's buffer goes to the next local of its size, so a long
//!   row-wise kernel cycles through a few cache-hot blocks, and a
//!   `Reshape` of a local that dies at it relabels that buffer. An
//!   `Opaque` step fails the run, as it fails `execute_plan`;
//! - **chain** — a single-output fused elementwise chain (down to one
//!   member) compiled to a [`korch_exec::CompiledChain`] register
//!   program;
//! - **prim** — one matmul, reduce or broadcast exporting its port 0;
//!   matmul packs its right operand once per run
//!   ([`korch_tensor::PackedB`]) and contracts row ranges through the
//!   blocked microkernel.
//!
//! Chain and prim are *range* bodies: they evaluate any grain-aligned
//! flat range of their single output with exactly the arithmetic the
//! interpreter performs for those elements, in the same order. Run
//! whole, such a kernel is the range `0..total` written straight into
//! its planned buffer, which becomes the published tensor; decomposed, it
//! is the same call per tile. A walk runs whole only, and its output *is*
//! the buffer its exporting member wrote, moved into the slot.
//!
//! # Schedule (`sched.rs`, `pool.rs`)
//!
//! No thread is started per `execute`. **The caller is a lane**: it works
//! the run itself and can finish all of it alone. The other lanes are
//! long-lived *helper* threads of one process-wide pool, grown at
//! executor construction to the largest `lanes − 1` any executor asked
//! for and shared by every executor and request in the process.
//! Helpers are called **for a surplus only**: the root kernels are dealt
//! round-robin over the lanes' ready deques in kernel order (the first on
//! lane 0, the caller's), the caller offers the pool one lane per root
//! kernel beyond the one it pops first, and from then on whichever lane
//! retires a kernel pushes the dependents that became ready onto its own
//! deque, pops one of them itself, and wakes a parked lane — or, while
//! the run has lanes it has not offered yet, calls a helper — for each
//! *further* one. A chain-shaped stretch of a plan (most of a transformer
//! block) therefore stays on the thread that entered it: no wake, no lost
//! steal race, no re-park per kernel. A lane that is never offered work
//! costs a recycled deque, not a thread.
//!
//! Whether a run is scheduled at all is read off the DAG at compile: two
//! tasks can be ready at once only if the plan has two root kernels, a
//! kernel with two dependents, or a kernel that may tile. Such a plan is
//! scheduled over every requested lane; any other plan is a chain and
//! runs in plan order on the calling thread, as does every plan at one
//! lane — no deques, no counters.
//!
//! Execution order is derived from the kernel dependency DAG alone — a
//! kernel becomes ready the moment its last dependency retires (atomic
//! dependency counters), and a lane whose own deque is empty *steals*
//! ready tasks from other lanes instead of blocking behind a lane
//! predecessor. No scheduler interaction takes a lock: ready tasks live
//! in per-lane Chase–Lev deques (`deque::WorkStealDeque` documents the
//! memory-ordering recipe) and idle lanes park futex-style against a
//! versioned work-epoch counter. `RunState`'s docs walk the full
//! producer/consumer handshake and why a lost wakeup is impossible.
//!
//! **The hand-off.** An offer carries `Arc`s to the executor's internals
//! and to the run's state — helpers are `'static` threads, nothing is
//! borrowed through a scope. A helper claims an offer and attaches to the
//! run in one critical section of the pool's lock, works its lane until
//! the run is over, and detaches. When the run is over the caller
//! withdraws the offers nobody claimed (same lock), waits for the
//! helpers that *did* attach — never for one that has not — and only
//! then reads the outputs and settles. The settled `RunState` (slot
//! locks, deques, dependency counters, `OnceLock`s) goes on the
//! executor's free list and the next `execute` re-arms it instead of
//! rebuilding it; re-arming takes `Arc::get_mut`, so a state some lane
//! still holds is never the one reused.
//!
//! All three protocols are exhaustively explored as `korch_verify`
//! models: `chase-lev-deque`, `park-unpark-epoch` (with the surplus-only
//! wakes) and `run-handoff`.
//!
//! A kernel body that panics is caught where it ran
//! ([`korch_exec::ExecError::KernelPanicked`]): the run fails and settles
//! like any failed run, and the lane — caller or helper — lives on.
//!
//! # Intra-kernel data parallelism
//!
//! Inter-kernel overlap saturates only when enough *independent* kernels
//! are ready; a single large kernel runs on one lane while its siblings
//! idle. The executor therefore decomposes such a kernel into
//! **row-range tiles**:
//!
//! - at compile time [`RuntimeConfig::tiling`] decides which range-bodied
//!   kernels are *tile-eligible*. Under [`Tiling::Auto`] (the default) a
//!   kernel is when its plan-priced latency exceeds one lane's fair share
//!   of the plan, `total_latency / lanes` — re-derived whenever a
//!   recalibration re-prices the plan — and it clears a per-tile overhead
//!   floor: splitting must buy more body time per lane than it spends on
//!   tile dispatch and chunk assembly. [`Tiling::Off`] cuts none and
//!   [`Tiling::Forced`] every one. Its [`TileLayout`] is cut then;
//! - at run time, a popped tile-eligible kernel is split **only when the
//!   ready queues cannot keep the other workers busy**. Its operands are
//!   prepared once and its tiles enter the decomposing worker's own
//!   deque as subtasks (idle lanes steal the oldest ones), so the
//!   work-stealing machinery schedules them like everything else;
//! - each tile computes its flat output range into its planned chunk
//!   buffer — the **disjoint-slice contract**: tile ranges
//!   partition the output exactly, every element written by exactly one
//!   tile with the arithmetic of the whole kernel — and a per-kernel
//!   atomic countdown re-assembles completion: the last tile concatenates
//!   the chunks (in tile order) into the output buffer and retires the
//!   kernel;
//! - tile intervals are profiled with the parent kernel's index and a
//!   tile tag ([`crate::KernelInterval::tile`]): per-kernel stats sum a
//!   run's tiles into one whole-kernel sample (what the calibration fit
//!   needs).
//!
//! # Memory and observation (`emit.rs`)
//!
//! Every buffer a run materializes is booked in the arena and leaves the
//! books when its slot's last reader retires — pinned input copies when
//! the run settles — on success and on every failure path alike.
//! Constants and folded ports are not: compile computed them once, every
//! run shares them, and they cost memory for the executor's life (on
//! segformer32 the folded ports hold 90 KB against 37 KB of weights; each
//! is a tensor every run used to materialize, briefly).
//!
//! Buffers are placed once, at compile, by one placer
//! (`SlotTable::place_buffers`): each staged input copy, kernel output,
//! tile chunk and walk local gets a planned buffer index. Two share an
//! index only when they hold as many elements and every kernel that may
//! release one — its slot's readers and its writer, or the kernel that
//! holds a chunk or local — retires before the other's producer starts
//! under every schedule: plan order at one worker, strict reachability in
//! the dependency DAG above, so two chunks of one kernel never share
//! (`korch-verify` checks it). Redundant writers of a slot each have
//! their own buffer, and so does each graph output. Each run state owns
//! one buffer per index, allocated on its first run and kept
//! ([`crate::MemoryReport::state_bytes`]). A kernel takes its buffers by
//! index; the retiring last reader, a losing redundant writer, the
//! kernel itself (chunks, locals) or `settle` puts them back, and a
//! buffer that is not in its place — a graph output handed to the
//! caller, one lost to a panic — is allocated afresh by the next take,
//! which never waits. So a warm run, failed or not, allocates only the
//! outputs it *moves* out to the caller
//! ([`crate::ArenaStats::fresh_bytes`]). Lanes log kernel/tile intervals
//! lane-locally against one clock origin per run; once every lane has
//! detached the run folds them into the [`RuntimeProfile`] and, when a
//! telemetry hub is configured, rebases them onto its shared origin.

mod body;
mod compile;
mod emit;
mod pool;
mod sched;

use crate::arena::{BufferArena, MemoryReport, SlotTable};
use crate::profiler::RuntimeProfile;
use body::KernelBody;
use emit::{ExecTelemetry, RunCtx};
use korch_cost::KernelClass;
use korch_exec::ExecError;
use korch_ir::{NodeId, PortRef, PrimGraph};
use korch_orch::Plan;
use korch_tensor::Tensor;
use sched::{RunState, Value};
use std::sync::atomic::Ordering;
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Locks `m`, recovering the inner value if a panicking worker poisoned
/// it. Every mutex the executor shares across lanes guards data that is
/// either discarded on the failure path (profiling samples, tile
/// chunks awaiting `settle`) or overwritten before reuse (the error
/// slot), so a poisoned guard's contents are always safe to adopt —
/// recovering keeps the orderly failure unwind from turning into a
/// second panic and lets `settle` drive `live_bytes` back to zero.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_recover`] for slot read locks.
fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_recover`] for slot write locks.
fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// The error for a port read or exported before anything materialized it.
fn not_materialized(port: &PortRef) -> ExecError {
    ExecError::NotMaterialized {
        node: port.node.0,
        port: port.port,
    }
}

/// Which range-bodied kernels the executor cuts into row-range tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tiling {
    /// A kernel is cut when its plan-priced latency exceeds one lane's
    /// fair share of the plan (`total_latency / lanes`) and one lane's
    /// share of its body clears the per-tile overhead floor (a launch
    /// slice plus the chunk assembly traffic) — splitting it must save
    /// more than it costs. Both are priced in the plan's own units
    /// (simulated device time at compile, calibrated host time after a
    /// recalibration), so `recalibrate()` re-decides eligibility in the
    /// units it re-priced the plan in. Tiles are one per lane.
    Auto,
    /// No kernel is cut: every kernel runs whole.
    Off,
    /// Every range-bodied kernel is cut, latency and floor unchecked — how
    /// tests and `korch-verify` reach every partition a plan can get.
    /// `tile_rows` pins the rows (grain units) per tile and is honoured
    /// even at one tile; `None` cuts one tile per lane and keeps a kernel
    /// whole below two tiles.
    Forced {
        /// Rows (grain units) per tile; `None` = one tile per lane.
        tile_rows: Option<usize>,
    },
}

/// Configuration of the runtime executor.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Lanes a run may occupy: the calling thread plus `lanes − 1` pooled
    /// helpers (1 = sequential in-thread execution).
    pub lanes: usize,
    /// Which kernels may split into tiles (with two lanes or more).
    pub tiling: Tiling,
    /// Tracing + metrics sink shared with the serving stack. `None` (the
    /// default) is the zero-cost path: the executor records no timestamps
    /// beyond profiling, allocates nothing for telemetry, and touches no
    /// atomics. When set, kernel/tile intervals are rebased onto the
    /// recorder's shared clock origin after every run and the executor
    /// registers its steal/tile counters with the bundle's registry.
    pub telemetry: Option<Arc<korch_telemetry::Telemetry>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            lanes: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            tiling: Tiling::Auto,
            telemetry: None,
        }
    }
}

impl RuntimeConfig {
    /// Config with an explicit lane count.
    pub fn with_lanes(lanes: usize) -> Self {
        Self {
            lanes: lanes.max(1),
            ..Self::default()
        }
    }
}

/// One kernel, preprocessed for repeated execution; its read and output
/// slots are rows of the [`SlotTable`].
struct KernelTask {
    /// Kernels that must retire before this one starts.
    deps: Vec<usize>,
    body: KernelBody,
}

/// How a tile-decomposed kernel evaluates its restricted output ranges —
/// the public mirror of the executor's internal tile body, exposed for
/// static verification ([`PlanExecutor::tile_layouts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileBodyKind {
    /// Exactly one non-source member, a reduce, broadcast or matmul;
    /// tiles run its range kernel (`reduce_tile`, `broadcast_tile`, or
    /// the packed/blocked row kernel for matmul rows — a pure loop
    /// interchange of the same contraction, so still bit-identical).
    Single(NodeId),
    /// Every non-source member is elementwise over one shared shape; the
    /// fused chain evaluates per flat index on range-restricted operand
    /// windows via the kernel's compiled register program
    /// ([`korch_exec::CompiledChain`] — same member order, same tile
    /// kernels as the interpreter, so bit-identical by construction).
    ElementwiseChain,
}

/// The compiled tile decomposition of one kernel, exactly as the
/// executor will run it: the artifact `korch-verify` checks the
/// disjoint-slice contract (tiles partition the flat output range,
/// grain-aligned, in tile order) and tilability soundness against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileLayout {
    /// How tiles evaluate their ranges.
    pub body: TileBodyKind,
    /// Flat output ranges, one per tile, in assembly order.
    pub tiles: Vec<std::ops::Range<usize>>,
    /// Shape of the kernel's single output.
    pub out_shape: Vec<usize>,
    /// Split granularity in flat output elements.
    pub grain: usize,
}

/// A compiled, repeatedly executable parallel plan.
pub struct PlanExecutor {
    /// Shared with the pooled helper lanes of a run in flight, which
    /// outlive no borrow: everything a lane needs sits behind this `Arc`.
    core: Arc<Core>,
}

/// Everything [`PlanExecutor::new`] compiled, plus the executor's books,
/// profile and recycled run states.
struct Core {
    graph: PrimGraph,
    plan: Plan,
    kernels: Vec<KernelTask>,
    /// Kernels unblocked when each kernel retires (reverse dependency
    /// edges).
    dependents: Vec<Vec<usize>>,
    /// Input slots in feed order, with expected shapes.
    input_slots: Vec<(usize, Vec<usize>)>,
    /// Constant and folded tensors, computed once and shared across runs.
    const_slots: Vec<(usize, Arc<Tensor>)>,
    /// Slots backed by shared constants or folded ports (never
    /// arena-tracked).
    const_slot: Vec<bool>,
    /// Run-invariant members, ascending: evaluated once at compile, run
    /// by no kernel.
    folded: Vec<NodeId>,
    /// Graph output ports → slots.
    output_slots: Vec<(PortRef, usize)>,
    /// The lifetime program: per slot its size, reader countdown and pin
    /// facts; per kernel the slots it reads and writes; and the buffer
    /// plan placed on it.
    table: SlotTable,
    memory_report: MemoryReport,
    arena: BufferArena,
    /// Tracing handles, present only when the config carries a telemetry
    /// bundle. The hot path never consults this — workers time intervals
    /// exactly as for profiling and the spans are emitted once per run,
    /// after the workers have joined.
    telemetry: Option<ExecTelemetry>,
    profile: Mutex<RuntimeProfile>,
    /// Per-kernel tile decompositions (None = runs whole).
    tile_specs: Vec<Option<TileLayout>>,
    /// Each kernel's roofline class and total FLOPs, indexed like
    /// `kernels` — the lookup table behind the `executor.gflops.<class>`
    /// telemetry gauges. Built once at compile; unused (but cheap) when
    /// telemetry is off.
    kernel_classes: Vec<(KernelClass, f64)>,
    /// Dependency-free kernels in kernel order — the run's initial ready
    /// set, dealt round-robin over the lanes' deques.
    roots: Vec<usize>,
    /// Lanes a run is scheduled over, the caller's (lane 0) first: every
    /// requested lane when two tasks can ever be ready at once, else 1 —
    /// plan order on the calling thread, no deques.
    workers: usize,
    /// Settled run states awaiting reuse ([`Core::feed`]).
    free_runs: Mutex<Vec<Arc<RunState>>>,
    /// Test seam: the kernel whose body panics (`usize::MAX` = none).
    #[cfg(test)]
    panic_at: std::sync::atomic::AtomicUsize,
}

impl PlanExecutor {
    /// The primitive graph this executor was compiled over.
    pub fn graph(&self) -> &PrimGraph {
        &self.core.graph
    }

    /// The plan this executor runs.
    pub fn plan(&self) -> &Plan {
        &self.core.plan
    }

    /// The compiled dependency edges, indexed like `plan.kernels`:
    /// `kernel_dependencies()[i]` lists the kernels whose retirement
    /// decrements kernel `i`'s atomic dependency counter. Every edge
    /// points at a strictly lower index (acyclic by construction); the
    /// static verifier cross-checks this against the independent
    /// derivation in `korch_orch::plan_dependencies`.
    pub fn kernel_dependencies(&self) -> Vec<Vec<usize>> {
        self.core.kernels.iter().map(|k| k.deps.clone()).collect()
    }

    /// The compiled tile decomposition of each kernel (`None` = the
    /// kernel always runs whole). This is the exact partition tiles will
    /// write at run time, exposed so `korch-verify` can check the
    /// disjoint-slice contract on the artifact rather than re-deriving it.
    pub fn tile_layouts(&self) -> Vec<Option<TileLayout>> {
        self.core.tile_specs.clone()
    }

    /// The compiled lifetime program, exactly as every run executes it:
    /// the scheduler counts these readers down and releases by them, the
    /// arena books these sizes, [`PlanExecutor::memory_report`] is folded
    /// from it, and `korch-verify` proves `live_bytes → 0` and no
    /// read-after-release on it rather than on a re-derivation.
    pub fn slot_table(&self) -> &SlotTable {
        &self.core.table
    }

    /// The run-invariant members compile folded, ascending: plan members
    /// that read only constants and each other, and that no kernel
    /// exports and the graph does not output. Each was evaluated once by
    /// `eval_prim`; no kernel runs it, and a port of one that a kernel
    /// reads is a constant slot of [`PlanExecutor::slot_table`].
    pub fn folded(&self) -> &[NodeId] {
        &self.core.folded
    }

    /// Lanes a run is scheduled over: every requested lane when two
    /// tasks can ever be ready at once (two root kernels, a kernel with
    /// two dependents, or a tile-eligible kernel), else 1 — the plan is a
    /// chain and runs in plan order on the calling thread.
    pub fn lane_count(&self) -> usize {
        self.core.workers
    }

    /// Number of kernels eligible for tile decomposition (a tilable
    /// member shape the [`RuntimeConfig::tiling`] mode cuts). Whether an
    /// eligible kernel actually splits in a given run depends on sibling
    /// lanes being idle when it turns ready.
    pub fn tileable_kernels(&self) -> usize {
        self.core.tile_specs.iter().filter(|t| t.is_some()).count()
    }

    /// Static memory report of the compiled plan, folded from
    /// [`PlanExecutor::slot_table`].
    pub fn memory_report(&self) -> &MemoryReport {
        &self.core.memory_report
    }

    /// Live arena counters (peak-resident bytes, reuse hits).
    pub fn arena_stats(&self) -> crate::arena::ArenaStats {
        self.core.arena.stats()
    }

    /// Snapshot of the accumulated wall-time profile.
    pub fn profile(&self) -> RuntimeProfile {
        lock_recover(&self.core.profile).clone()
    }

    /// Clears the accumulated profile.
    pub fn reset_profile(&self) {
        let mut p = lock_recover(&self.core.profile);
        *p = RuntimeProfile::new(self.core.kernels.len());
    }

    /// Executes the plan on `inputs`, overlapping independent kernels
    /// across lanes. Produces exactly `execute_plan`'s outputs, bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on input mismatches or kernel failures; a
    /// kernel body that panics is contained as
    /// [`ExecError::KernelPanicked`] and the run settles like any other
    /// failed run.
    pub fn execute(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.core.execute(inputs)
    }

    /// Test seam: makes kernel `k`'s body panic from now on
    /// (`usize::MAX` heals it).
    #[cfg(test)]
    pub(crate) fn panic_at_kernel(&self, k: usize) {
        self.core.panic_at.store(k, Ordering::Relaxed);
    }
}

impl Core {
    fn validate_inputs(&self, inputs: &[Tensor]) -> Result<(), ExecError> {
        if inputs.len() != self.input_slots.len() {
            return Err(ExecError::Input(format!(
                "graph has {} inputs but {} tensors were fed",
                self.input_slots.len(),
                inputs.len()
            )));
        }
        for (fed, ((_, shape), t)) in self.input_slots.iter().zip(inputs).enumerate() {
            if t.shape() != shape.as_slice() {
                return Err(ExecError::Input(format!(
                    "input {fed} has shape {:?}, expected {shape:?}",
                    t.shape()
                )));
            }
        }
        Ok(())
    }

    fn execute(self: &Arc<Self>, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        let state = self.feed(inputs)?;
        if self.workers <= 1 {
            self.run_sequential(&state);
        } else {
            self.run_lanes(&state);
        }
        // Every lane has detached and merged its log; fold the run into
        // the shared profile under one lock hold.
        let run = &state.ctx;
        let log = std::mem::take(&mut *lock_recover(&run.log));
        let failed = state.failed.load(Ordering::Acquire);
        if let Some(et) = &self.telemetry {
            et.emit_run(run, &log, &self.kernel_classes);
        }
        let mut profile = lock_recover(&self.profile);
        profile.merge_run(&log.samples, log.steals, log.parks);
        if !failed {
            profile.record_run();
        }
        drop(profile);
        let result = if failed {
            let e = lock_recover(&state.error).take();
            Err(e.unwrap_or_else(|| ExecError::Input("executor failed".into())))
        } else {
            (0..self.output_slots.len())
                .map(|o| self.take_output(o, &state))
                .collect()
        };
        self.settle(&state);
        if let Some(et) = &self.telemetry {
            et.emit_arena(&self.arena.stats());
        }
        lock_recover(&self.free_runs).push(state);
        result
    }

    /// Hands graph output `o` to the caller. The lanes are done, so the
    /// slot holds the only handle and the tensor is *moved* out — its
    /// bytes leave the arena's books, and the next run allocates the
    /// slot afresh. Only a handle that is genuinely shared is cloned: an
    /// output that is also a constant, or a port the graph lists as an
    /// output twice (every listing but the last).
    fn take_output(&self, o: usize, state: &RunState) -> Result<Tensor, ExecError> {
        let (port, s) = self.output_slots[o];
        let listed_again = self.output_slots[o + 1..]
            .iter()
            .any(|&(_, later)| later == s);
        let mut value = write_recover(&state.values[s]);
        let (arc, buf) = value.take().ok_or(not_materialized(&port))?;
        if listed_again {
            return Ok(value.insert((arc, buf)).0.as_ref().clone());
        }
        match Arc::try_unwrap(arc) {
            Ok(t) => {
                if !self.const_slot[s] {
                    self.arena.release(self.table.slots[s].numel);
                }
                Ok(t)
            }
            Err(shared) => Ok(value.insert((shared, buf)).0.as_ref().clone()),
        }
    }

    /// Releases every booked buffer still held by the run state (pinned
    /// inputs, outputs the caller did not take, or whatever a failed run
    /// left behind), putting each back in its planned place. Constants
    /// are shared across runs and only dropped. A failed run's tile
    /// operands go first: they still hold `Arc`s into the slots, and
    /// dropping them lets the sweep recover sole ownership.
    fn settle(&self, state: &RunState) {
        for tr in state.tiles.iter().filter_map(OnceLock::get) {
            write_recover(&tr.prepared).take();
        }
        for (s, value) in state.values.iter().enumerate() {
            if let Some(held) = write_recover(value).take() {
                if !self.const_slot[s] {
                    self.reclaim(s, held, state);
                }
            }
        }
    }

    /// Takes slot `s`'s dead buffer off the arena's books and puts its
    /// storage back in the planned place it came from — unless a handle
    /// is still shared, in which case the next take of that place
    /// allocates afresh.
    fn reclaim(&self, s: usize, (arc, buf): Value, state: &RunState) {
        self.arena.release(self.table.slots[s].numel);
        if let Ok(t) = Arc::try_unwrap(arc) {
            state.give_back(buf, t);
        }
    }

    /// Validates inputs and arms a run state — a settled one from the
    /// free list when no lane of its last run still holds it, else a
    /// fresh one — with the counters reset, the sources filled and, for
    /// a multi-lane run, the root kernels dealt over the per-lane ready
    /// deques.
    fn feed(&self, inputs: &[Tensor]) -> Result<Arc<RunState>, ExecError> {
        self.validate_inputs(inputs)?;
        // A helper lane that has detached from a state's last run but not
        // yet let go of its handle keeps that state (on the list, for a
        // later run); nothing else holds one, so a count of one is a sole
        // handle for good.
        let recycled = {
            let mut free = lock_recover(&self.free_runs);
            let sole = free.iter().rposition(|s| Arc::strong_count(s) == 1);
            sole.map(|i| free.swap_remove(i))
        };
        let mut state = recycled.unwrap_or_else(|| Arc::new(RunState::new(self)));
        let armed = Arc::get_mut(&mut state).expect("sole handle: fresh, or just checked");
        armed.rearm(self, RunCtx::new(self.telemetry.as_ref()));
        for ((s, _), t) in self.input_slots.iter().zip(inputs) {
            let buf = self.table.slots[*s].buffer;
            let mut copy = self.take(armed, buf, t.numel(), true);
            copy.set_shape(t.shape()).expect("sized to the input");
            copy.as_mut_slice().copy_from_slice(t.as_slice());
            self.arena.adopt(t.numel());
            *armed.slot_mut(*s) = Some((Arc::new(copy), buf));
        }
        for (s, t) in &self.const_slots {
            *armed.slot_mut(*s) = Some((Arc::clone(t), None));
        }
        Ok(state)
    }

    /// Storage of `numel` elements for planned buffer `buf` of `state`,
    /// in any shape, counted as a reuse hit when `counted` (every take
    /// but a walk local's). A buffer that is not in its place — a graph output's
    /// after a successful run handed it out, or one lost to a panic or a
    /// handle still shared — is allocated afresh and counted in
    /// [`crate::ArenaStats::fresh_bytes`]; a take never waits. Contents
    /// are unspecified; every user overwrites the whole buffer.
    fn take(&self, state: &RunState, buf: Option<usize>, numel: usize, counted: bool) -> Tensor {
        if let Some(storage) = buf.and_then(|b| lock_recover(&state.bufs[b]).take()) {
            debug_assert_eq!(storage.numel(), numel, "planned buffer {buf:?}");
            if counted {
                self.arena.note_reuse();
            }
            return storage;
        }
        self.arena.note_fresh((numel * 4) as u64);
        Tensor::zeros(vec![numel])
    }
}
