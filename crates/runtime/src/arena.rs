//! Buffer arena: the executor's compiled lifetime program plus the
//! recycling pool that books it.
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
//! The **pool** serves every buffer a run books: staged input copies,
//! range-body outputs, tile chunks and their assembly, and walk exports.
//! What a walk keeps to itself lives in the run state's *scratch*
//! instead — buffers assigned at compile by lifetime, shared by every
//! walk a lane runs, and never booked here: a lane takes no lock per
//! step. [`ArenaStats::fresh_bytes`] counts every byte allocated because
//! neither the pool nor the scratch had a buffer; once warm, that is the
//! outputs a run hands its caller.

use korch_ir::PortRef;
use std::collections::btree_map::Entry as BTreeEntry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
    /// Walk scratch one run state holds at most: one lane's buffers (every
    /// walk's locals, placed by lifetime and shared by size between
    /// walks) times the lanes a run is scheduled over. Never booked;
    /// allocated on a state's first run and kept. `PlanExecutor::new`
    /// sets it; [`SlotTable::memory_report`], which knows no walk, reads 0.
    pub scratch_bytes: u64,
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
    /// The runtime allocates the slot's storage itself — a staged input
    /// copy, a range body's or a walk's output — so a dead buffer goes
    /// back to the pool, where the next run takes it. `false` only for
    /// constants and folded ports (shared across runs, never booked).
    pub pooled: bool,
}

impl SlotInfo {
    /// Payload size of the slot's tensor (`f32` elements).
    pub fn bytes(&self) -> u64 {
        (self.numel * 4) as u64
    }
}

/// The lifetime program `PlanExecutor::new` compiles and every run
/// executes: who reads and writes which slot, and how many readers each
/// slot waits for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotTable {
    /// Every slot, sources first.
    pub slots: Vec<SlotInfo>,
    /// Per kernel, the distinct slots it reads from materialized memory.
    pub reads: Vec<Vec<usize>>,
    /// Per kernel, the slot of each declared output, in output order (a
    /// port exported twice is listed twice).
    pub writes: Vec<Vec<usize>>,
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
            scratch_bytes: 0,
        }
    }
}

/// Live accounting + size-classed recycling pool shared by the executor's
/// worker threads.
#[derive(Debug, Default)]
pub struct BufferArena {
    inner: Mutex<ArenaInner>,
    /// See [`ArenaStats::fresh_bytes`]; outside the lock, so a lane
    /// counts the scratch it allocates without taking it.
    fresh_bytes: AtomicU64,
}

#[derive(Debug, Default)]
struct ArenaInner {
    live_bytes: u64,
    peak_bytes: u64,
    total_allocs: u64,
    reuse_hits: u64,
    /// Freed `f32` storage by element count, kept for reuse.
    free: BTreeMap<usize, Vec<Vec<f32>>>,
    free_bytes: u64,
}

/// Snapshot of the arena counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes of live (adopted, unreleased) buffers.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
    /// Buffers adopted in total.
    pub total_allocs: u64,
    /// Buffers genuinely recycled through [`BufferArena::take`].
    pub reuse_hits: u64,
    /// Bytes parked in the free pool.
    pub free_bytes: u64,
    /// Bytes allocated because neither the pool nor a walk's scratch had
    /// a buffer: pool misses (a warm run's are the outputs it hands the
    /// caller) and the scratch a run state allocates on its first run.
    pub fresh_bytes: u64,
}

impl ArenaInner {
    /// Takes `bytes` off the live books. Releasing more than is live is
    /// a double release — the static lifetime proof says it cannot
    /// happen, and debug builds hold the run-time books to that.
    fn unbook(&mut self, bytes: u64) {
        debug_assert!(
            bytes <= self.live_bytes,
            "arena books underflow: releasing {bytes} B with {} B live",
            self.live_bytes
        );
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }
}

impl BufferArena {
    /// Fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts for a newly materialized buffer of `numel` elements.
    pub fn adopt(&self, numel: usize) {
        let bytes = (numel * 4) as u64;
        let mut inner = self.inner.lock().expect("arena poisoned");
        inner.total_allocs += 1;
        inner.live_bytes += bytes;
        inner.peak_bytes = inner.peak_bytes.max(inner.live_bytes);
    }

    /// Releases a dead runtime-allocated buffer: its bytes leave the
    /// books and its storage is parked for [`BufferArena::take`].
    pub fn release(&self, storage: Vec<f32>) {
        let numel = storage.len();
        let bytes = (numel * 4) as u64;
        let mut inner = self.inner.lock().expect("arena poisoned");
        inner.unbook(bytes);
        inner.free_bytes += bytes;
        inner.free.entry(numel).or_default().push(storage);
    }

    /// Parks storage that was never booked — the export buffers a walk
    /// took before it failed — for [`BufferArena::take`].
    pub fn recycle(&self, storage: Vec<f32>) {
        let bytes = (storage.len() * 4) as u64;
        let mut inner = self.inner.lock().expect("arena poisoned");
        inner.free_bytes += bytes;
        inner.free.entry(storage.len()).or_default().push(storage);
    }

    /// Takes a dead buffer off the books without parking its storage: a
    /// tensor moved out to the caller, or a handle that is still shared.
    pub fn release_untracked(&self, numel: usize) {
        let mut inner = self.inner.lock().expect("arena poisoned");
        inner.unbook((numel * 4) as u64);
    }

    /// Takes a recycled buffer of exactly `numel` elements, if one is
    /// parked. This is the genuine reuse path: the executor stages run
    /// inputs and evaluates range bodies and tiles into buffers recovered
    /// here, so storage freed by earlier kernels (and earlier runs) backs
    /// new tensors instead of fresh allocations. Each successful take is
    /// a reuse hit.
    pub fn take(&self, numel: usize) -> Option<Vec<f32>> {
        let mut inner = self.inner.lock().expect("arena poisoned");
        let inner = &mut *inner;
        let BTreeEntry::Occupied(mut bucket) = inner.free.entry(numel) else {
            return None;
        };
        let buf = bucket.get_mut().pop();
        if bucket.get().is_empty() {
            bucket.remove();
        }
        if buf.is_some() {
            inner.reuse_hits += 1;
            inner.free_bytes -= (numel * 4) as u64;
        }
        buf
    }

    /// Storage of exactly `numel` elements for a buffer the caller books
    /// itself: a parked one ([`BufferArena::take`]), else a fresh
    /// allocation counted in [`ArenaStats::fresh_bytes`]. Contents are
    /// unspecified; every user overwrites the whole buffer.
    pub fn take_or_alloc(&self, numel: usize) -> Vec<f32> {
        self.take(numel).unwrap_or_else(|| {
            self.note_fresh((numel * 4) as u64);
            vec![0.0; numel]
        })
    }

    /// Counts `bytes` the executor allocated outside the pool (see
    /// [`ArenaStats::fresh_bytes`]).
    pub fn note_fresh(&self, bytes: u64) {
        self.fresh_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ArenaStats {
        let inner = self.inner.lock().expect("arena poisoned");
        ArenaStats {
            live_bytes: inner.live_bytes,
            peak_bytes: inner.peak_bytes,
            total_allocs: inner.total_allocs,
            reuse_hits: inner.reuse_hits,
            free_bytes: inner.free_bytes,
            fresh_bytes: self.fresh_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_counts_reuse_and_peak() {
        let a = BufferArena::new();
        a.adopt(1024);
        a.adopt(1024);
        assert_eq!(a.stats().peak_bytes, 2 * 4096);
        a.release(vec![0.0; 1024]);
        assert_eq!(a.stats().live_bytes, 4096);
        let buf = a.take(1024).expect("parked buffer");
        assert_eq!(buf.len(), 1024);
        a.adopt(1024); // the recycled buffer backs a new tensor
        let s = a.stats();
        assert_eq!(s.reuse_hits, 1);
        assert_eq!(s.live_bytes, 2 * 4096);
        assert_eq!(s.free_bytes, 0);
        assert_eq!(s.peak_bytes, 2 * 4096, "reuse must not raise the peak");
    }

    #[test]
    fn take_returns_exact_class_only() {
        let a = BufferArena::new();
        a.adopt(64);
        a.release(vec![1.0; 64]);
        assert!(a.take(128).is_none());
        let buf = a.take(64).expect("parked buffer");
        assert_eq!(buf.len(), 64);
        assert!(a.take(64).is_none(), "pool is drained");
        assert_eq!(a.stats().reuse_hits, 1);
    }
}
