//! The scheduler: per-run shared state, the worker loop over the
//! lock-free ready deques (pop / steal / park), kernel retirement, and
//! tile decomposition and re-assembly.

use super::body::{KernelBody, Prepared};
use super::emit::{LaneLog, RunCtx};
use super::pool::{self, Offer};
use super::{lock_recover, not_materialized, read_recover, write_recover, Core};
use crate::deque::{Steal, WorkStealDeque};
use crate::profiler::KernelInterval;
use korch_exec::ExecError;
use korch_tensor::Tensor;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// Per-run completion state of one decomposed kernel: tiles write their
/// chunks in their planned places and count down here; the last tile
/// assembles the full output and retires the kernel.
pub(super) struct TileRun {
    remaining: AtomicUsize,
    /// The kernel's operands, prepared **once** at decomposition and read
    /// by every tile (no per-tile slot locking, one matmul pack). Taken
    /// before the kernel retires: an `Arc` still parked here would make
    /// the last-reader reclamation's `Arc::try_unwrap` fail and the
    /// storage would not go back to its planned place.
    pub(super) prepared: RwLock<Option<Prepared>>,
}

/// What a value slot holds during a run: the tensor, and the planned
/// buffer its storage goes back to (`None`: a constant, or an input the
/// graph outputs) — of redundant writers, whichever landed first.
pub(super) type Value = (Arc<Tensor>, Option<usize>);

/// One schedulable unit in the ready deques.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Task {
    /// A whole kernel.
    Kernel(usize),
    /// One row-range tile of a decomposed kernel.
    Tile { kernel: usize, tile: usize },
}

/// Tag bit distinguishing tile tasks in the deques' `u64` encoding.
const TILE_TAG: u64 = 1 << 63;

impl Task {
    /// Encodes the task for the lock-free deques: kernels are their
    /// index, tiles set [`TILE_TAG`] and pack `kernel << 31 | tile`
    /// (plans stay far below 2³¹ kernels or tiles).
    pub(super) fn encode(self) -> u64 {
        match self {
            Task::Kernel(k) => k as u64,
            Task::Tile { kernel, tile } => {
                debug_assert!(kernel < (1 << 31) && tile < (1 << 31));
                TILE_TAG | ((kernel as u64) << 31) | tile as u64
            }
        }
    }

    fn decode(raw: u64) -> Self {
        if raw & TILE_TAG == 0 {
            Task::Kernel(raw as usize)
        } else {
            Task::Tile {
                kernel: ((raw & !TILE_TAG) >> 31) as usize,
                tile: (raw & ((1 << 31) - 1)) as usize,
            }
        }
    }
}

/// Shared state of one `execute` call, reused across calls: `feed`
/// re-arms a settled state from the executor's free list instead of
/// rebuilding the slot locks, deques and counters per request.
///
/// # The lock-free scheduler core
///
/// Ready tasks live in one Chase–Lev deque per lane
/// ([`WorkStealDeque`]): a worker pushes the tasks *it* makes ready
/// (retired dependents, decomposition tiles) onto its **own** deque's
/// bottom and pops LIFO from there; idle lanes steal FIFO from other
/// lanes' tops. Single-owner pushes are what make the deque's lock-free
/// recipe sound — the root kernels are dealt over the deques while the
/// state is being armed, before any lane is called.
///
/// Idleness is futex-style parking against a versioned **work epoch**
/// instead of a global condvar, and wakes go out for the **surplus**
/// only. Producer side, per made-ready batch: push the tasks; the pusher
/// pops one of them itself on its next turn, so a batch of one — every
/// link of a chain-shaped plan — touches neither the epoch nor another
/// lane. With a surplus: `fetch_add` [`RunState::epoch`] (SeqCst), wake
/// at most one parked lane per surplus task (CAS its [`RunState::parked`]
/// flag true→false, `Thread::unpark`), and call a pooled helper for each
/// surplus task no parked lane took ([`Core::call_helpers`]) while the
/// run has lanes left to offer. Consumer side: read the epoch, sweep
/// **all** deques (pop + steal until every one observes empty), publish
/// the parked flag (SeqCst), then re-check the epoch and the
/// failed/finished flags — only if nothing changed does the lane
/// actually `thread::park()`. The SeqCst total order makes a lost wakeup
/// impossible: either the consumer's re-check sees the bump (it retries,
/// and having read the bumped epoch synchronizes-with the producer so
/// the next sweep sees the push), or its parked-flag store precedes the
/// bump — and therefore precedes the producer's wake scan, which then
/// sees the flag. The protocol is the `park-unpark-epoch` model
/// `korch_verify` explores exhaustively; the deque recipe is its
/// `chase-lev-deque` model.
///
/// Termination and failure wake **everyone**: the worker whose
/// retirement takes [`RunState::n_finished`] to the kernel count, and
/// [`Core::fail`], both sweep every parked flag — a lane parked mid-run
/// unwinds promptly instead of waiting for a timeout.
pub(super) struct RunState {
    pub(super) values: Vec<RwLock<Option<Value>>>,
    /// Unretired dependencies per kernel; the transition to zero pushes
    /// the kernel onto the retiring worker's own deque.
    remaining_deps: Vec<AtomicUsize>,
    remaining_readers: Vec<AtomicUsize>,
    /// Per-lane Chase–Lev deques of ready tasks, sized to the run's
    /// total task count so indices never wrap.
    ready: Vec<WorkStealDeque>,
    /// Tasks currently enqueued across all deques (the split heuristic's
    /// "would sibling lanes idle?" signal).
    ready_count: AtomicUsize,
    /// Per-kernel tile completion state, initialized by the worker that
    /// decomposes the kernel (before its tile tasks are enqueued).
    pub(super) tiles: Vec<OnceLock<TileRun>>,
    /// Retired kernels; reaching the kernel count ends the run.
    n_finished: AtomicUsize,
    /// Work epoch: bumped (SeqCst) after every made-ready push batch
    /// with a surplus. A lane only parks if the epoch is unchanged across
    /// its confirmed-empty sweep — the versioned handshake that closes
    /// the push-vs-park race.
    epoch: AtomicU64,
    /// Per-lane parked flags. Set (SeqCst) by the lane itself before
    /// its final epoch re-check; cleared by a waker's CAS (which then
    /// unparks the thread) or by the lane's own failed re-check.
    parked: Vec<AtomicBool>,
    /// Each attached lane's thread handle, registered when the lane
    /// starts working so producers can `Thread::unpark` it.
    lane_threads: Vec<OnceLock<std::thread::Thread>>,
    /// Helper lanes offered to the pool so far: lanes `1..=called`.
    called: AtomicUsize,
    /// Pooled helpers attached to this run. A helper attaches under the
    /// pool lock, in the critical section that claims its offer, and the
    /// caller withdraws unclaimed offers under the same lock — so once
    /// the withdrawal is done this counts every lane that can still
    /// touch the state, and the caller waits for it to reach zero.
    attached: AtomicUsize,
    pub(super) failed: AtomicBool,
    pub(super) error: Mutex<Option<ExecError>>,
    /// The run's clock origin, trace ids and merged lane logs.
    pub(super) ctx: RunCtx,
    /// The planned buffers ([`crate::SlotTable::buffers`]), `None` while
    /// held or handed out; the plan gives each to one holder at a time.
    pub(super) bufs: Vec<Mutex<Option<Tensor>>>,
}

impl RunState {
    /// A state shaped for `core`'s plan; [`RunState::rearm`] makes it
    /// runnable. Any single deque can receive every task of the run (a
    /// worker pushes all the work *it* makes ready onto its own deque),
    /// so each is sized to the total: kernels plus every possible tile.
    /// Bottom indices never wrap, which is what rules out ABA. The
    /// single-lane path walks the plan in order and gets no deque. Its
    /// planned buffers are allocated here and kept, but the graph
    /// outputs': a run hands those out.
    pub(super) fn new(core: &Core) -> Self {
        let tiles: usize = core
            .tile_specs
            .iter()
            .flatten()
            .map(|s| s.tiles.len())
            .sum();
        let capacity = core.kernels.len() + tiles;
        // What only a scheduled run touches — deques, parking, dependency
        // counters, tile state — stays empty on the single-lane path.
        let (lanes, kernels) = if core.workers > 1 {
            (core.workers, core.kernels.len())
        } else {
            (0, 0)
        };
        let zeros = |n: usize| (0..n).map(|_| AtomicUsize::new(0)).collect();
        core.arena.note_fresh(core.memory_report.state_bytes);
        Self {
            values: (0..core.table.slots.len())
                .map(|_| RwLock::new(None))
                .collect(),
            remaining_deps: zeros(kernels),
            remaining_readers: zeros(core.table.slots.len()),
            ready: (0..lanes).map(|_| WorkStealDeque::new(capacity)).collect(),
            ready_count: AtomicUsize::new(0),
            tiles: (0..kernels).map(|_| OnceLock::new()).collect(),
            n_finished: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            parked: (0..lanes).map(|_| AtomicBool::new(false)).collect(),
            lane_threads: (0..lanes).map(|_| OnceLock::new()).collect(),
            called: AtomicUsize::new(0),
            attached: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
            ctx: RunCtx::new(None),
            bufs: (core.table.buffers.iter().zip(core.table.handed_out()))
                .map(|(&n, handed)| Mutex::new((!handed).then(|| Tensor::zeros(vec![n]))))
                .collect(),
        }
    }

    /// Resets every counter and flag for a new run under `ctx` and deals
    /// the root kernels round-robin over the lanes' deques in kernel
    /// order, the first on lane 0 (the caller's). Workers pop LIFO from
    /// their own bottom, so dealing in *reverse* makes each lane work
    /// through its roots in kernel order before stealing. A single-lane
    /// state has no deques and is dealt nothing. `&mut self`: no lane of
    /// an earlier run holds this state any more, so the owner-only push
    /// contract holds. The value slots are already empty — `settle` took
    /// everything.
    pub(super) fn rearm(&mut self, core: &Core, ctx: RunCtx) {
        for (left, k) in self.remaining_deps.iter_mut().zip(&core.kernels) {
            *left.get_mut() = k.deps.len();
        }
        for (left, slot) in self.remaining_readers.iter_mut().zip(&core.table.slots) {
            *left.get_mut() = slot.readers;
        }
        for tile_run in &mut self.tiles {
            tile_run.take();
        }
        for (l, deque) in self.ready.iter_mut().enumerate() {
            deque.reset();
            *self.parked[l].get_mut() = false;
            self.lane_threads[l].take();
        }
        *self.ready_count.get_mut() = 0;
        let lanes = self.ready.len();
        if lanes > 0 {
            for (i, &k) in core.roots.iter().enumerate().rev() {
                self.ready[i % lanes].push(Task::Kernel(k).encode());
            }
            *self.ready_count.get_mut() = core.roots.len();
        }
        *self.n_finished.get_mut() = 0;
        *self.epoch.get_mut() = 0;
        *self.called.get_mut() = 0;
        *self.attached.get_mut() = 0;
        *self.failed.get_mut() = false;
        *self.error.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
        self.ctx = ctx;
    }

    /// Puts `storage` back in planned buffer `buf`; storage without a
    /// place (a copy of an input the graph outputs) is dropped.
    pub(super) fn give_back(&self, buf: Option<usize>, storage: Tensor) {
        if let Some(b) = buf {
            let mut place = lock_recover(&self.bufs[b]);
            debug_assert!(place.is_none(), "planned buffer {b} has two holders");
            *place = Some(storage);
        }
    }

    /// Value slot `s`, for filling the sources while the state is being
    /// armed.
    pub(super) fn slot_mut(&mut self, s: usize) -> &mut Option<Value> {
        self.values[s]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A pooled helper joins the run (under the pool lock, see
    /// [`RunState::attached`]).
    pub(super) fn attach(&self) {
        self.attached.fetch_add(1, Ordering::SeqCst);
    }
}

impl Core {
    /// In-thread execution for single-lane and chain-shaped plans: kernel
    /// indices ascend in dependency order (every dependency points at a
    /// lower index), so plan order is a valid schedule.
    pub(super) fn run_sequential(self: &Arc<Self>, state: &Arc<RunState>) {
        let mut log = LaneLog::default();
        for k in 0..self.kernels.len() {
            if !self.run_task(Task::Kernel(k), 0, state, &mut log) {
                break;
            }
        }
        state.ctx.merge(log);
    }

    /// A multi-lane run, from the calling thread: the caller works as
    /// lane 0 and can finish the whole run alone. The other lanes are
    /// long-lived helper threads of the process-wide pool (`pool.rs`),
    /// called one per surplus task — here for the root kernels beyond the
    /// caller's own first pop, later by whichever lane makes a surplus
    /// ready — so no thread is started per run and a chain-shaped plan
    /// never leaves the caller. The hand-off back is `korch_verify`'s
    /// `run-handoff` model: once the run is over the caller withdraws the
    /// offers no helper claimed, then waits for the helpers that attached
    /// — never for one that has not — to detach.
    pub(super) fn run_lanes(self: &Arc<Self>, state: &Arc<RunState>) {
        self.call_helpers(self.roots.len().saturating_sub(1), state);
        self.run_worker(0, state);
        if state.called.load(Ordering::Relaxed) > 0 {
            pool::withdraw(state);
            while state.attached.load(Ordering::SeqCst) != 0 {
                // The last helper to detach unparks this lane's thread.
                std::thread::park();
            }
        }
    }

    /// Offers up to `n` more of the run's lanes to the helper pool.
    fn call_helpers(self: &Arc<Self>, n: usize, state: &Arc<RunState>) {
        for _ in 0..n {
            // Relaxed: the counter hands out lane indices, nothing else.
            // (Checked first so it stops climbing once every lane is out.)
            if state.called.load(Ordering::Relaxed) + 1 >= self.workers {
                return;
            }
            let lane = state.called.fetch_add(1, Ordering::Relaxed) + 1;
            if lane >= self.workers {
                return;
            }
            pool::offer(Offer {
                core: Arc::clone(self),
                state: Arc::clone(state),
                lane,
            });
        }
    }

    /// A pooled helper's whole part in a run it has attached to: work as
    /// lane `lane` until the run is over, then detach — the last helper
    /// out wakes the caller, which may be parked waiting for exactly
    /// that. The helper lets go of the state as it detaches, so the
    /// caller's next run finds it free to re-arm, buffers and all.
    pub(super) fn run_helper(self: &Arc<Self>, lane: usize, state: Arc<RunState>) {
        self.run_worker(lane, &state);
        let caller = state.lane_threads[0].get().cloned();
        let last = state.attached.fetch_sub(1, Ordering::SeqCst) == 1;
        drop(state);
        if let Some(caller) = caller.filter(|_| last) {
            caller.unpark();
        }
    }

    /// Worker body: drain the own lane's deque (LIFO), steal when it
    /// runs dry, park only after a confirmed-empty sweep of every deque
    /// with the work epoch unchanged across it. A popped kernel that is
    /// tile-eligible is decomposed in place — its tiles go onto this
    /// worker's own deque, where idle lanes steal them — when sibling
    /// lanes would otherwise idle.
    fn run_worker(self: &Arc<Self>, w: usize, state: &Arc<RunState>) {
        // Register the handle producers will unpark.
        let _ = state.lane_threads[w].set(std::thread::current());
        let mut log = LaneLog::default();
        while let Some((task, stolen)) = self.next_task(w, state, &mut log.parks) {
            if stolen {
                log.steals += 1;
            }
            let ok = match task {
                Task::Kernel(k) if self.should_split(k, state) => self.decompose(k, w, state),
                task => self.run_task(task, w, state, &mut log),
            };
            if !ok {
                break;
            }
        }
        state.ctx.merge(log);
    }

    /// Splits kernel `k` iff it was classified tile-eligible and the
    /// tasks currently queued cannot keep the other workers busy — the
    /// "sibling lanes idle" condition: with enough whole ready kernels,
    /// inter-kernel parallelism already fills the lanes and splitting
    /// would only pay assembly overhead.
    fn should_split(&self, k: usize, state: &RunState) -> bool {
        self.tile_specs[k].is_some()
            && self.workers > 1
            && state.ready_count.load(Ordering::Acquire) + 1 < self.workers
    }

    /// Decomposes kernel `k`: prepares its operands once, initializes its
    /// completion state, and pushes one tile task per partition range
    /// onto the decomposing worker's **own** deque (the single-owner
    /// contract of the Chase–Lev deques — idle lanes steal the oldest
    /// tiles from the top). Tiles are pushed in reverse so the owner's
    /// LIFO pops run them in range order. Returns `false` (after flagging
    /// the run failed) if the operands cannot be prepared.
    fn decompose(self: &Arc<Self>, k: usize, w: usize, state: &Arc<RunState>) -> bool {
        let spec = self.tile_specs[k].as_ref().expect("checked by caller");
        let prepared = match self.prepare(k, state) {
            Ok(p) => p,
            Err(e) => return self.fail(e, state),
        };
        let n = spec.tiles.len();
        state.tiles[k]
            .set(TileRun {
                remaining: AtomicUsize::new(n),
                prepared: RwLock::new(Some(prepared)),
            })
            .unwrap_or_else(|_| panic!("kernel {k} decomposed twice in one run"));
        for t in (0..n).rev() {
            state.ready[w].push(Task::Tile { kernel: k, tile: t }.encode());
        }
        state.ready_count.fetch_add(n, Ordering::AcqRel);
        self.announce(n, state);
        true
    }

    /// Runs one task on worker lane `lane` — a whole kernel, or one tile
    /// of a decomposed one — timing its (start, end) interval against
    /// the run's shared clock origin (a tile's interval carries the
    /// parent kernel's index and its tile tag), and retires the kernel
    /// once its output is published. A body that panics is
    /// contained here and fails the run like a body that errs. On failure
    /// stores the error, flags the run failed, and wakes every parked
    /// worker so all lanes unwind (a no-op when running sequentially);
    /// returns `false` so the caller stops.
    fn run_task(
        self: &Arc<Self>,
        task: Task,
        lane: usize,
        state: &Arc<RunState>,
        log: &mut LaneLog,
    ) -> bool {
        let run = &state.ctx;
        let start_us = run.origin.elapsed().as_secs_f64() * 1e6;
        let (kernel, tile) = match task {
            Task::Kernel(k) => (k, None),
            Task::Tile { kernel, tile } => (kernel, Some(tile)),
        };
        let published = catch_unwind(AssertUnwindSafe(|| match tile {
            None => self.run_whole(kernel, state).map(|()| true),
            Some(tile) => self.run_tile(kernel, tile, state),
        }))
        .unwrap_or_else(|payload| {
            Err(ExecError::KernelPanicked {
                kernel,
                message: crate::panic_message(&*payload),
            })
        });
        match published {
            Ok(published) => {
                log.samples.push(KernelInterval {
                    kernel,
                    lane,
                    start_us,
                    end_us: run.origin.elapsed().as_secs_f64() * 1e6,
                    tile,
                });
                if published {
                    self.retire(kernel, lane, state);
                }
                true
            }
            Err(e) => self.fail(e, state),
        }
    }

    /// Marks the run failed and wakes every parked worker so all lanes
    /// unwind (a no-op when running sequentially). The `SeqCst` store of
    /// `failed` slots into the parking handshake exactly like an epoch
    /// bump: a lane's post-flag re-check either sees it, or its parked
    /// flag is visible to this wake-all sweep. Returns `false`, the
    /// "stop this lane" answer of every caller.
    fn fail(&self, e: ExecError, state: &RunState) -> bool {
        *lock_recover(&state.error) = Some(e);
        state.failed.store(true, Ordering::SeqCst);
        self.wake_lanes(usize::MAX, state);
        false
    }

    /// Snapshots kernel `k`'s reads from their value slots and binds its
    /// body to them. A missing read would indicate a dependency-tracking
    /// bug.
    fn prepare(&self, k: usize, state: &RunState) -> Result<Prepared, ExecError> {
        let reads = self.table.reads[k]
            .iter()
            .map(|&s| {
                let value = read_recover(&state.values[s]);
                let read = value.as_ref().map(|(t, _)| Arc::clone(t));
                read.ok_or(not_materialized(&self.table.slots[s].port))
            })
            .collect::<Result<_, _>>()?;
        self.kernels[k].body.prepare(&self.graph, reads)
    }

    /// Evaluates the flat output `range` of range-bodied kernel `k` into
    /// planned buffer `buf`, put back again on failure.
    fn run_range(
        &self,
        k: usize,
        range: Range<usize>,
        prepared: &Prepared,
        buf: usize,
        state: &RunState,
    ) -> Result<Tensor, ExecError> {
        let mut out = self.take(state, Some(buf), range.len(), true);
        #[cfg(test)]
        assert!(
            self.panic_at.load(Ordering::Relaxed) != k,
            "injected panic in kernel {k}"
        );
        let body = &self.kernels[k].body;
        match body.run(&self.graph, range, prepared, out.as_mut_slice()) {
            Ok(()) => Ok(out),
            Err(e) => {
                state.give_back(Some(buf), out);
                Err(e)
            }
        }
    }

    /// Executes kernel `k` whole and publishes its outputs. A range body
    /// evaluates `0..total` straight into its planned buffer, which
    /// becomes the published tensor; a walk body runs in its planned
    /// buffers, taken here: it writes each distinct export into one and
    /// its locals into the others, which go back after.
    fn run_whole(&self, k: usize, state: &RunState) -> Result<(), ExecError> {
        let (writes, bufs) = (&self.table.writes[k], &self.table.write_bufs[k]);
        let prepared = self.prepare(k, state)?;
        let KernelBody::Walk(walk) = &self.kernels[k].body else {
            let (s, buf) = (writes[0], bufs[0].expect("a first listing is planned"));
            let shape = self.graph.meta(self.table.slots[s].port).shape();
            let mut t = self.run_range(k, 0..shape.iter().product(), &prepared, buf, state)?;
            (t.set_shape(shape)).expect("the full range covers the output");
            self.publish_output(s, Some(buf), t, state);
            return Ok(());
        };
        let exports = walk.firsts.iter().map(|&i| (bufs[i], true));
        let locals = self.table.kernel_bufs[k].iter().map(|&b| (Some(b), false));
        let mut held: Vec<Option<Tensor>> = (exports.chain(locals))
            .map(|(buf, counted)| {
                let numel = self.table.buffers[buf.expect("a first listing is planned")];
                Some(self.take(state, buf, numel, counted))
            })
            .collect();
        #[cfg(test)]
        assert!(
            self.panic_at.load(Ordering::Relaxed) != k,
            "injected panic in kernel {k}"
        );
        let ran = walk.run(&self.graph, &prepared, &mut held);
        let mut held = (held.into_iter()).map(|t| t.expect("every buffer is back in its place"));
        for (&i, t) in walk.firsts.iter().zip(held.by_ref()) {
            match ran {
                Ok(()) => self.publish_output(writes[i], bufs[i], t, state),
                Err(_) => state.give_back(bufs[i], t),
            }
        }
        for (&b, t) in self.table.kernel_bufs[k].iter().zip(held) {
            state.give_back(Some(b), t);
        }
        ran
    }

    /// Runs tile `t_idx` of decomposed kernel `k`: evaluates its range
    /// into its planned chunk, against the operands prepared at
    /// decomposition, and puts the chunk back in place; the last tile of
    /// the countdown assembles and publishes the full output, returning
    /// `true`. Chunks, like walk locals, are never booked.
    fn run_tile(&self, k: usize, t_idx: usize, state: &RunState) -> Result<bool, ExecError> {
        let spec = self.tile_specs[k].as_ref().expect("tiled kernel");
        let tr = state.tiles[k].get().expect("tiled kernel state");
        let buf = self.table.kernel_bufs[k][t_idx];
        let chunk = {
            let prepared = read_recover(&tr.prepared);
            let prepared = prepared
                .as_ref()
                .expect("parked until the last tile landed");
            self.run_range(k, spec.tiles[t_idx].clone(), prepared, buf, state)?
        };
        state.give_back(Some(buf), chunk);
        // The countdown's AcqRel pairs with the chunk stores: the
        // final decrementer observes every sibling's chunk in place.
        let last = tr.remaining.fetch_sub(1, Ordering::AcqRel) == 1;
        if last {
            self.assemble(k, state);
        }
        Ok(last)
    }

    /// Concatenates a decomposed kernel's chunks, in tile order, into the
    /// kernel's planned output buffer and publishes it — the one copy
    /// tiling adds over a whole run of the same range body.
    fn assemble(&self, k: usize, state: &RunState) {
        let spec = self.tile_specs[k].as_ref().expect("tiled kernel");
        let (s, buf) = (self.table.writes[k][0], self.table.write_bufs[k][0]);
        let mut full = self.take(state, buf, spec.out_shape.iter().product(), true);
        for (range, &b) in spec.tiles.iter().zip(&self.table.kernel_bufs[k]) {
            let chunk = lock_recover(&state.bufs[b]);
            let chunk = chunk.as_ref().expect("every tile put its chunk in place");
            full.as_mut_slice()[range.clone()].copy_from_slice(chunk.as_slice());
        }
        // Drop the operand snapshot before retiring: last-reader
        // reclamation must see sole ownership to put the storage back.
        let tr = state.tiles[k].get().expect("tiled kernel state");
        write_recover(&tr.prepared).take();
        (full.set_shape(&spec.out_shape)).expect("tile ranges cover the output exactly");
        self.publish_output(s, buf, full, state);
    }

    /// Next ready task for worker `w`, or `None` when the run is over
    /// (all kernels retired, or another lane failed). Parks while
    /// kernels are in flight but none is ready, counting each actual
    /// park in `parks`.
    fn next_task(&self, w: usize, state: &RunState, parks: &mut u64) -> Option<(Task, bool)> {
        loop {
            if state.failed.load(Ordering::SeqCst) {
                return None;
            }
            if state.n_finished.load(Ordering::SeqCst) == self.kernels.len() {
                return None;
            }
            // The confirmed-empty sweep: read the epoch first, then
            // inspect every deque. try_pop returning None means each
            // deque was *observed* empty (a racing steal retries inside
            // try_pop until it resolves).
            let epoch = state.epoch.load(Ordering::SeqCst);
            if let Some(t) = self.try_pop(w, state) {
                return Some(t);
            }
            // Publish the parked flag, then re-check. SeqCst makes the
            // Dekker handshake airtight: a producer bumps the epoch
            // after its push and scans the flags after the bump, so
            // either our re-check sees the bump (retry — and having
            // read it, the next sweep sees the push) or our flag store
            // precedes the bump and the producer's scan wakes us. The
            // finished/failed wake-alls plug into the same handshake.
            state.parked[w].store(true, Ordering::SeqCst);
            if state.epoch.load(Ordering::SeqCst) != epoch
                || state.failed.load(Ordering::SeqCst)
                || state.n_finished.load(Ordering::SeqCst) == self.kernels.len()
            {
                state.parked[w].store(false, Ordering::SeqCst);
                continue;
            }
            *parks += 1;
            std::thread::park();
            // Cleared by the waker's CAS; clear again in case the park
            // returned spuriously with the flag still up (benign: a
            // waker that raced the clear banked an unpark token, which
            // only costs one extra loop — as does a token a long-lived
            // thread carries over from an earlier run).
            state.parked[w].store(false, Ordering::SeqCst);
        }
    }

    /// Pops the next task: own deque first (LIFO — the freshest work
    /// this lane made ready), then steal from the other lanes' tops,
    /// round-robin from `w + 1`. A contended steal ([`Steal::Retry`])
    /// retries the same victim until it resolves, so `None` means every
    /// deque was genuinely observed empty.
    fn try_pop(&self, w: usize, state: &RunState) -> Option<(Task, bool)> {
        if let Some(raw) = state.ready[w].pop() {
            state.ready_count.fetch_sub(1, Ordering::AcqRel);
            return Some((Task::decode(raw), false));
        }
        let n = state.ready.len();
        for off in 1..n {
            let victim = (w + off) % n;
            loop {
                match state.ready[victim].steal() {
                    Steal::Success(raw) => {
                        state.ready_count.fetch_sub(1, Ordering::AcqRel);
                        return Some((Task::decode(raw), true));
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    /// Makes a batch of `pushed` freshly pushed tasks visible to the
    /// other lanes. The pushing worker pops one of them itself on its
    /// next turn, so only the **surplus** needs another lane: bump the
    /// work epoch (SeqCst — the other half of the Dekker handshake in
    /// [`Core::next_task`]), wake at most one parked lane per surplus
    /// task, and call a pooled helper for each one left over while the
    /// run has lanes to offer. A batch of one does none of it.
    fn announce(self: &Arc<Self>, pushed: usize, state: &Arc<RunState>) {
        let surplus = pushed.saturating_sub(1);
        if surplus == 0 || self.workers <= 1 {
            return;
        }
        state.epoch.fetch_add(1, Ordering::SeqCst);
        let woken = self.wake_lanes(surplus, state);
        self.call_helpers(surplus - woken, state);
    }

    /// Wakes up to `budget` parked lanes, returning how many: CAS each
    /// raised flag down and unpark the lane's thread. A flag claimed
    /// here is matched by exactly one unpark — a lane never loses a
    /// wakeup to a racing waker.
    fn wake_lanes(&self, budget: usize, state: &RunState) -> usize {
        let mut woken = 0;
        for (flag, thread) in state.parked.iter().zip(&state.lane_threads) {
            if woken == budget {
                break;
            }
            if flag
                .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                if let Some(th) = thread.get() {
                    th.unpark();
                }
                woken += 1;
            }
        }
        woken
    }

    /// Marks `k` retired: reclaims dead buffers, pushes newly ready
    /// dependents onto worker `w`'s own deque (idle lanes steal them),
    /// and wakes lanes for the surplus — everyone when this was the last
    /// kernel.
    fn retire(self: &Arc<Self>, k: usize, w: usize, state: &Arc<RunState>) {
        // Last-reader reclamation: ports only this kernel still needed.
        for &s in &self.table.reads[k] {
            if state.remaining_readers[s].fetch_sub(1, Ordering::AcqRel) == 1
                && !self.table.slots[s].pinned
            {
                let taken = write_recover(&state.values[s]).take();
                if let Some(held) = taken {
                    self.reclaim(s, held, state);
                }
            }
        }
        if self.workers > 1 {
            let mut made_ready = 0usize;
            for &j in &self.dependents[k] {
                if state.remaining_deps[j].fetch_sub(1, Ordering::AcqRel) == 1 {
                    state.ready[w].push(Task::Kernel(j).encode());
                    made_ready += 1;
                }
            }
            if made_ready > 0 {
                state.ready_count.fetch_add(made_ready, Ordering::AcqRel);
            }
            self.announce(made_ready, state);
        }
        if state.n_finished.fetch_add(1, Ordering::SeqCst) + 1 == self.kernels.len() {
            // Last kernel out: every parked lane must unwind.
            self.wake_lanes(usize::MAX, state);
        }
    }

    /// Books output tensor `t` of planned buffer `buf` and publishes it
    /// into slot `s`, handling the two special cases shared by
    /// whole-kernel and tiled execution: a redundant producer (the first
    /// writer's identical bytes won — reclaim the loser's copy) and a
    /// dead-on-arrival output (nothing reads it — reclaim immediately).
    fn publish_output(&self, s: usize, buf: Option<usize>, t: Tensor, state: &RunState) {
        self.arena.adopt(t.numel());
        let mut w = write_recover(&state.values[s]);
        if w.is_some() {
            drop(w);
            self.reclaim(s, (Arc::new(t), buf), state);
            return;
        }
        *w = Some((Arc::new(t), buf));
        if !self.table.slots[s].pinned && state.remaining_readers[s].load(Ordering::Acquire) == 0 {
            if let Some(held) = w.take() {
                self.reclaim(s, held, state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlanExecutor, RuntimeConfig};
    use korch_cost::{Backend, Micros};
    use korch_ir::{EwFn, PrimGraph, PrimKind};
    use korch_orch::{Plan, SelectedKernel};
    use korch_tensor::UnaryOp;

    /// The root kernels are the run's only initial work, and where they
    /// start is decided here and nowhere else: dealt round-robin over the
    /// requested lanes in kernel order, so three roots at two lanes seed
    /// lanes 0, 1, 0 — and each lane pops its own in kernel order.
    #[test]
    fn roots_are_dealt_round_robin_in_kernel_order() {
        let mut g = PrimGraph::new();
        let mut kernels = Vec::new();
        for _ in 0..3 {
            let x = g
                .add(PrimKind::Input { shape: vec![4, 4] }, vec![])
                .unwrap();
            let e = g
                .add(
                    PrimKind::Elementwise(EwFn::Unary(UnaryOp::Tanh)),
                    vec![x.into()],
                )
                .unwrap();
            g.mark_output(e).unwrap();
            kernels.push(SelectedKernel {
                members: vec![e],
                outputs: vec![e.into()],
                latency: Micros(1.0),
                backend: Backend::Generated,
            });
        }
        let plan = Plan {
            kernels,
            total_latency: Micros(3.0),
        };
        let exec = PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(2)).unwrap();
        let core = &exec.core;
        assert_eq!((core.workers, core.roots.as_slice()), (2, &[0, 1, 2][..]));
        let inputs: Vec<Tensor> = (0..3).map(|i| Tensor::random(vec![4, 4], i)).collect();
        let state = core.feed(&inputs).unwrap();
        let drain = |lane: usize| -> Vec<Task> {
            std::iter::from_fn(|| state.ready[lane].pop().map(Task::decode)).collect()
        };
        assert_eq!(drain(0), [Task::Kernel(0), Task::Kernel(2)]);
        assert_eq!(drain(1), [Task::Kernel(1)]);
        core.settle(&state);
        assert_eq!(core.arena.stats().live_bytes, 0);
    }
}
