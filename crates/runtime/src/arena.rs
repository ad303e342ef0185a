//! Buffer arena: the executor's compiled lifetime program, the buffer
//! plan placed on it, and the books a run keeps against both.
//!
//! The sequential interpreter in `korch-exec` keeps every materialized
//! tensor alive until the program ends (allocate-everything). The runtime
//! instead counts, for every value slot, the kernels that read it; once
//! the last of them retires the slot's buffer is dead and leaves the
//! arena's books, which report peak-resident bytes. On real accelerators
//! this discipline is what keeps activation memory flat as plans grow
//! (cf. AraOS: management overheads dominate once kernels go parallel);
//! on the CPU runtime it bounds the working set the same way.
//!
//! [`SlotTable`] is that program, compiled once by `PlanExecutor::new`:
//! the scheduler counts its readers down, [`MemoryReport`] is folded from
//! it, and `korch-verify` interprets it — there is no second derivation.
//! Its *source* slots are filled before kernel 0 and pinned: graph
//! inputs (a staged copy per run), and constants and folded ports —
//! run-invariant members compile evaluated once — shared by every run
//! and never booked.
//!
//! Every buffer a run writes is placed on the table at compile, by one
//! [`Placer`]: a walk places its locals in buffers it holds while it
//! runs, and [`SlotTable::place_buffers`] places those with every other
//! booking — staged inputs, kernel outputs, tile chunks. Each run state
//! owns one buffer per planned index, and nothing is placed at run time
//! (the executor's module docs say how); a graph output's buffer is its
//! own, and empty again once a run hands its storage out. [`BufferArena`] only keeps the books:
//! [`ArenaStats::fresh_bytes`] counts every byte allocated outside a
//! state's plan — once warm, the outputs a run hands its caller.

use korch_ir::PortRef;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Memory behavior of one plan, folded from its [`SlotTable`] alone (no
/// execution needed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryReport {
    /// Bytes if every materialized tensor lives to the end (the
    /// `execute_plan` interpreter's behavior).
    pub allocate_everything_bytes: u64,
    /// Peak-resident bytes under last-reader reclamation, assuming the
    /// plan's sequential kernel order.
    pub peak_resident_bytes: u64,
    /// Bytes of the pinned slots, which are never reclaimed mid-run:
    /// graph inputs, constants, folded ports and graph outputs.
    pub pinned_bytes: u64,
    /// Number of materialized buffers that die before the plan ends.
    pub reclaimable_buffers: usize,
    /// Bytes one run state holds for its whole life: its planned buffers
    /// ([`SlotTable::buffers`]) but the places of the graph outputs, which
    /// a run hands out ([`SlotTable::handed_out`]). Allocated on the
    /// state's first run and kept.
    pub state_bytes: u64,
}

impl MemoryReport {
    /// Fraction of the allocate-everything footprint the runtime saves.
    pub fn savings(&self) -> f64 {
        if self.allocate_everything_bytes == 0 {
            return 0.0;
        }
        1.0 - self.peak_resident_bytes as f64 / self.allocate_everything_bytes as f64
    }
}

/// One value slot of a compiled plan: a source, or a port some kernel
/// reads or materializes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotInfo {
    /// The materialized port the slot holds.
    pub port: PortRef,
    /// Element count of the slot's tensor.
    pub numel: usize,
    /// Kernels reading the slot: the countdown a run starts from. The
    /// reader that takes it to zero releases an unpinned slot's buffer.
    pub readers: usize,
    /// The slot survives the whole run (graph input, constant, folded
    /// port, output).
    pub pinned: bool,
    /// The slot is filled before kernel 0: a graph input, a constant or
    /// a folded port (the output of a run-invariant member compile
    /// evaluated once).
    pub source: bool,
    /// The planned buffer a graph input is staged in. `None` for every
    /// other slot: constants and folded ports are shared across runs, an
    /// input the graph outputs is copied for the caller, and a kernel's
    /// output lands in its writer's buffer ([`SlotTable::write_bufs`]).
    pub buffer: Option<usize>,
}

impl SlotInfo {
    /// Payload size of the slot's tensor (`f32` elements).
    pub fn bytes(&self) -> u64 {
        (self.numel * 4) as u64
    }
}

/// The lifetime program `PlanExecutor::new` compiles and every run
/// executes: who reads and writes which slot, how many readers each slot
/// waits for, and which planned buffer each booking lands in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotTable {
    /// Every slot, sources first.
    pub slots: Vec<SlotInfo>,
    /// Per kernel, the distinct slots it reads from materialized memory.
    pub reads: Vec<Vec<usize>>,
    /// Per kernel, the slot of each declared output, in output order (a
    /// port exported twice is listed twice).
    pub writes: Vec<Vec<usize>>,
    /// Per kernel, the planned buffer each entry of `writes` lands in:
    /// `None` for a port the kernel listed before (published once). A
    /// graph output's buffer is its own: a successful run hands it out
    /// and the next allocates it afresh, a failed one puts it back.
    /// Redundant writers of one slot each have their own buffer; the run
    /// records whose copy the slot kept.
    pub write_bufs: Vec<Vec<Option<usize>>>,
    /// Per kernel, the planned buffers it holds only while it runs: each
    /// tile chunk in tile order, or a walk's local buffers.
    pub kernel_bufs: Vec<Vec<usize>>,
    /// Element count of each planned buffer.
    pub buffers: Vec<usize>,
}

impl SlotTable {
    /// Per kernel in plan order, the slots whose buffers die as it
    /// retires, by the rule the scheduler runs: an unpinned slot is
    /// released by the reader that takes its countdown from one to zero,
    /// or — when nothing reads it — by its first writer (dead on
    /// arrival). A redundant writer's copy is freed where it lands and
    /// never shows here.
    pub fn releases(&self) -> Vec<Vec<usize>> {
        let mut left: Vec<usize> = self.slots.iter().map(|s| s.readers).collect();
        let mut written = vec![false; self.slots.len()];
        let mut releases = vec![Vec::new(); self.reads.len()];
        for (k, dead) in releases.iter_mut().enumerate() {
            for &s in &self.writes[k] {
                if !std::mem::replace(&mut written[s], true)
                    && self.slots[s].readers == 0
                    && !self.slots[s].pinned
                {
                    dead.push(s);
                }
            }
            for &s in &self.reads[k] {
                // `fetch_sub` semantics: a count already at zero wraps
                // and never releases again.
                if left[s] == 1 && !self.slots[s].pinned {
                    dead.push(s);
                }
                left[s] = left[s].wrapping_sub(1);
            }
        }
        releases
    }

    /// Sweeps the program in plan order, tracking resident bytes (see
    /// [`MemoryReport`]).
    pub fn memory_report(&self) -> MemoryReport {
        let bytes = |s: usize| self.slots[s].bytes();
        // Sources exist up front; everything else from its first writer.
        let (mut everything, mut pinned, mut resident) = (0, 0, 0);
        for slot in &self.slots {
            everything += slot.bytes();
            pinned += if slot.pinned { slot.bytes() } else { 0 };
            resident += if slot.source { slot.bytes() } else { 0 };
        }
        let releases = self.releases();
        let mut written: Vec<bool> = self.slots.iter().map(|slot| slot.source).collect();
        let mut peak = resident;
        for (writes, dead) in self.writes.iter().zip(&releases) {
            for &s in writes {
                if !std::mem::replace(&mut written[s], true) {
                    resident += bytes(s);
                }
            }
            peak = peak.max(resident);
            resident = resident.saturating_sub(dead.iter().map(|&s| bytes(s)).sum());
        }
        MemoryReport {
            allocate_everything_bytes: everything,
            peak_resident_bytes: peak,
            pinned_bytes: pinned,
            reclaimable_buffers: releases.iter().map(Vec::len).sum(),
            state_bytes: (self.buffers.iter().zip(self.handed_out()))
                .map(|(&n, handed)| if handed { 0 } else { n as u64 * 4 })
                .sum(),
        }
    }

    /// Per planned buffer, whether it is a graph output's, whose storage
    /// a successful run hands the caller.
    pub fn handed_out(&self) -> Vec<bool> {
        let mut handed = vec![false; self.buffers.len()];
        let listed = (self.writes.iter().flatten()).zip(self.write_bufs.iter().flatten());
        for b in listed.filter_map(|(&s, &b)| b.filter(|_| self.slots[s].pinned)) {
            handed[b] = true;
        }
        handed
    }

    /// Places every buffer a run writes, kernel by kernel in plan order,
    /// given `before[p][r]`: kernel `r` retires before `p` starts under
    /// every schedule. The `staged` input slots live all run, and so does
    /// a graph output's buffer: the caller keeps its storage. Kernel `k`
    /// then places its distinct other outputs (released by the writer or
    /// any reader of the slot) and the buffers it `holds` while it runs
    /// (element counts, released by `k`).
    pub fn place_buffers(&mut self, staged: &[usize], holds: &[Vec<usize>], before: &[Vec<bool>]) {
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); self.slots.len()];
        for (k, reads) in self.reads.iter().enumerate() {
            for &s in reads {
                readers[s].push(k);
            }
        }
        let mut placer = Placer::default();
        for &s in staged {
            self.slots[s].buffer = Some(placer.own(self.slots[s].numel));
        }
        let before = |p: usize, r: usize| before[p][r];
        for (k, writes) in self.writes.iter().enumerate() {
            let mut bufs = Vec::with_capacity(writes.len());
            for (i, &s) in writes.iter().enumerate() {
                let slot = &self.slots[s];
                bufs.push(if writes[..i].contains(&s) {
                    None
                } else if slot.pinned {
                    Some(placer.own(slot.numel))
                } else {
                    let frees = readers[s].iter().copied().chain([k]).collect();
                    Some(placer.place(slot.numel, k, frees, before))
                });
            }
            self.write_bufs.push(bufs);
            let held = (holds[k].iter()).map(|&n| placer.place(n, k, vec![k], before));
            self.kernel_bufs.push(held.collect());
        }
        self.buffers = placer.sizes;
    }
}

/// Places buffers by size and lifetime, in the order it is asked. A
/// booking is made at an event and released by any of a set of events;
/// `before(at, r)` says event `r` is over before event `at` starts.
/// Events are kernels for [`SlotTable::place_buffers`] and a walk's steps
/// for its locals.
#[derive(Debug, Default)]
pub(crate) struct Placer {
    /// Element count of each buffer placed so far.
    pub(crate) sizes: Vec<usize>,
    /// Per size, the buffers that may take another occupant, each with
    /// every event that may release one of its occupants.
    open: HashMap<usize, Vec<(usize, Vec<usize>)>>,
}

impl Placer {
    /// Places a booking of `numel` elements made at `at` and released by
    /// any of `frees`: in the most recently freed buffer of its size whose
    /// every occupant is released before `at`, else in a new one.
    pub(crate) fn place(
        &mut self,
        numel: usize,
        at: usize,
        frees: Vec<usize>,
        before: impl Fn(usize, usize) -> bool,
    ) -> usize {
        let fits = self.open.entry(numel).or_default();
        let free = (fits.iter_mut()).filter(|(_, f)| f.iter().all(|&r| before(at, r)));
        if let Some((b, f)) = free.max_by_key(|(b, f)| (f.iter().max().copied(), *b)) {
            f.extend(frees);
            return *b;
        }
        fits.push((self.sizes.len(), frees));
        self.own(numel)
    }

    /// Releases of the occupant of buffer `b` may also come from `frees`.
    pub(crate) fn extend(&mut self, b: usize, frees: impl IntoIterator<Item = usize>) {
        let mut open = self.open.get_mut(&self.sizes[b]).into_iter().flatten();
        if let Some((_, f)) = open.find(|(o, _)| *o == b) {
            f.extend(frees);
        }
    }

    /// A new buffer of `numel` elements that no other booking takes.
    pub(crate) fn own(&mut self, numel: usize) -> usize {
        self.sizes.push(numel);
        self.sizes.len() - 1
    }
}

/// The books every run of one executor keeps, as lock-free counters (see
/// [`ArenaStats`]).
#[derive(Debug, Default)]
pub(crate) struct BufferArena {
    live_bytes: AtomicU64,
    peak_bytes: AtomicU64,
    total_allocs: AtomicU64,
    reuse_hits: AtomicU64,
    fresh_bytes: AtomicU64,
}

/// Snapshot of the arena counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes of live (booked, unreleased) buffers.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
    /// Buffers booked in total.
    pub total_allocs: u64,
    /// Bookings and tile chunks taken from a state's plan (a walk's
    /// locals are not counted).
    pub reuse_hits: u64,
    /// Bytes allocated outside a state's plan — the outputs a run hands
    /// out, and a planned buffer lost to a panic — plus what a state
    /// allocates on its first run.
    pub fresh_bytes: u64,
}

impl BufferArena {
    /// Books a buffer of `numel` elements the run now holds.
    pub(crate) fn adopt(&self, numel: usize) {
        let bytes = (numel * 4) as u64;
        self.total_allocs.fetch_add(1, Ordering::Relaxed);
        let live = self.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(live, Ordering::Relaxed);
    }

    /// Takes a dead buffer of `numel` elements off the books. Releasing
    /// more than is live is a double release — the static lifetime proof
    /// says it cannot happen, and debug builds hold the books to that.
    pub(crate) fn release(&self, numel: usize) {
        let bytes = (numel * 4) as u64;
        let live = self.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(bytes <= live, "books underflow: {bytes} B of {live} B");
    }

    /// Counts a take served from a state's plan.
    pub(crate) fn note_reuse(&self) {
        self.reuse_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `bytes` allocated outside a state's plan (see
    /// [`ArenaStats::fresh_bytes`]).
    pub(crate) fn note_fresh(&self, bytes: u64) {
        self.fresh_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> ArenaStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ArenaStats {
            live_bytes: load(&self.live_bytes),
            peak_bytes: load(&self.peak_bytes),
            total_allocs: load(&self.total_allocs),
            reuse_hits: load(&self.reuse_hits),
            fresh_bytes: load(&self.fresh_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_ir::NodeId;

    #[test]
    fn arena_books_live_and_peak() {
        let a = BufferArena::default();
        a.adopt(1024);
        a.adopt(1024);
        assert_eq!(a.stats().peak_bytes, 2 * 4096);
        a.release(1024);
        assert_eq!(a.stats().live_bytes, 4096);
        a.note_reuse();
        a.adopt(1024);
        let s = a.stats();
        assert_eq!((s.reuse_hits, s.total_allocs), (1, 3));
        assert_eq!(s.live_bytes, 2 * 4096);
        assert_eq!(
            s.peak_bytes,
            2 * 4096,
            "a reused buffer must not raise the peak"
        );
    }

    /// `k0 → s0 → k1 → s1 → k3` and `k2 → s2 → k3`: in plan order `s0`
    /// is dead (`k1` retired) before `k2` makes `s2`, so the two share a
    /// buffer; scheduled over lanes `k2` is a root that may run beside
    /// `k0`, so they do not.
    #[test]
    fn buffers_share_only_when_the_first_dies_before_the_second_is_made() {
        let slot = |n: usize| SlotInfo {
            port: PortRef::from(NodeId(n)),
            numel: 16,
            readers: 1,
            pinned: false,
            source: false,
            buffer: None,
        };
        let table = SlotTable {
            slots: vec![slot(0), slot(1), slot(2)],
            reads: vec![vec![], vec![0], vec![], vec![1, 2]],
            writes: vec![vec![0], vec![1], vec![2], vec![]],
            ..SlotTable::default()
        };
        let no_chunks = vec![vec![]; 4];
        let plan_order: Vec<Vec<bool>> = (0..4).map(|p| (0..4).map(|r| r < p).collect()).collect();
        let mut serial = table.clone();
        serial.place_buffers(&[], &no_chunks, &plan_order);
        assert_eq!(
            serial.write_bufs,
            [vec![Some(0)], vec![Some(1)], vec![Some(0)], vec![]]
        );
        assert_eq!(serial.buffers, [16, 16]);
        // Strict ancestors in the DAG: k1 after k0, k3 after all.
        let mut dag = vec![vec![false; 4]; 4];
        dag[1][0] = true;
        dag[3] = vec![true, true, true, false];
        let mut parallel = table;
        parallel.place_buffers(&[], &no_chunks, &dag);
        assert_eq!(parallel.buffers.len(), 3);
    }
}
