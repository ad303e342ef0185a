//! Arena-lifetime abstract interpreter: symbolically executes the
//! buffer lifetime program the executor compiled — its slot table: adopt
//! on first write, release when the reader countdown reaches zero, settle
//! on completion or failure — and proves `live_bytes` returns to 0 on
//! every success *and* failure-unwind path, with no buffer read after its
//! release.
//!
//! The dynamic twin is the runtime's arena conservation proptests, which
//! check the same property on the runs they happen to see; here the
//! whole path space (one failure prefix per kernel) is walked.
//!
//! [`verify_buffer_sharing`] checks the buffer plan placed on the same
//! table: no two bookings that share a planned buffer can be live at
//! once under any schedule the executor may pick.

use crate::{port_name, PlanArtifact, Rule, Violation};
use korch_ir::PortRef;
use korch_runtime::SlotTable;
use std::collections::{BTreeMap, HashSet};

/// One abstract buffer the lifetime program touches.
#[derive(Debug, Clone)]
pub struct PortInfo {
    /// The materialized port this buffer backs.
    pub port: PortRef,
    /// Buffer payload size in bytes.
    pub bytes: u64,
    /// Pinned buffers (graph inputs/outputs) outlive the plan and must
    /// never be released mid-run.
    pub pinned: bool,
    /// The buffer exists before kernel 0 (graph input / constant).
    pub source: bool,
}

/// The lifetime effect of retiring one kernel, in plan order. Indices
/// refer to [`LifetimeProgram::ports`].
#[derive(Debug, Clone, Default)]
pub struct LifetimeStep {
    /// Buffers the kernel reads from device memory.
    pub reads: Vec<usize>,
    /// Buffers the kernel materializes (first writer adopts; a redundant
    /// writer's copy is dead on arrival and freed immediately).
    pub writes: Vec<usize>,
    /// Buffers whose last reader just retired — released back to the
    /// arena once this step completes.
    pub releases: Vec<usize>,
}

/// A plan's buffer lifetime program: the adopt/read/release schedule of
/// the slot table a `PlanExecutor` compiled and runs
/// (`PlanExecutor::slot_table`), unrolled per kernel — the releases are
/// the table's own reader countdown, not a second derivation of it.
#[derive(Debug, Clone)]
pub struct LifetimeProgram {
    /// Every abstract buffer the program touches, indexed like the
    /// table's slots.
    pub ports: Vec<PortInfo>,
    /// Per-kernel lifetime effects, in plan order.
    pub steps: Vec<LifetimeStep>,
}

impl LifetimeProgram {
    /// Unrolls the executor's slot table into per-kernel steps.
    pub fn from_slots(table: &SlotTable) -> Self {
        let ports = table
            .slots
            .iter()
            .map(|slot| PortInfo {
                port: slot.port,
                bytes: slot.bytes(),
                pinned: slot.pinned,
                source: slot.source,
            })
            .collect();
        let steps = (table.reads.iter().zip(&table.writes))
            .zip(table.releases())
            .map(|((reads, writes), releases)| LifetimeStep {
                reads: reads.clone(),
                writes: writes.clone(),
                releases,
            })
            .collect();
        Self { ports, steps }
    }
}

/// Abstract state of one buffer during interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BufState {
    Unmaterialized,
    Live,
    Released,
}

/// Interprets `program` over the success path and every failure-unwind
/// prefix (kernel `f` fails ⇒ steps `0..f` retired, then settle), and
/// returns every lifetime invariant broken on any path, deduplicated
/// across paths.
pub fn verify_lifetimes(program: &LifetimeProgram) -> Vec<Violation> {
    let (n, ports) = (program.steps.len(), &program.ports);
    let mut out: Vec<Violation> = Vec::new();
    let mut seen: HashSet<(Rule, Option<usize>, Option<String>)> = HashSet::new();
    // Path `n` is the success path; path `f < n` unwinds after kernel
    // `f` fails (steps 0..f retired normally, step f never runs).
    for retired in (0..=n).rev() {
        let path = if retired == n {
            "success path".to_string()
        } else {
            format!("failure-unwind path (kernel {retired} fails)")
        };
        let name = |b: usize| port_name(ports[b].port);
        let mut flag = |rule, kernel: Option<usize>, buffer: Option<usize>, detail: String| {
            let v = Violation::new(rule, kernel, buffer.map(name), format!("{detail} ({path})"));
            if seen.insert((v.rule, v.kernel, v.buffer.clone())) {
                out.push(v);
            }
        };
        let mut state: Vec<BufState> = (ports.iter())
            .map(|p| match p.source {
                true => BufState::Live,
                false => BufState::Unmaterialized,
            })
            .collect();
        let sources = ports.iter().filter(|p| p.source);
        let mut live: i64 = sources.map(|p| p.bytes as i64).sum();
        for (i, step) in program.steps.iter().take(retired).enumerate() {
            for &r in &step.reads {
                let (rule, what) = match state[r] {
                    BufState::Released => (Rule::UseAfterRelease, "after its release"),
                    BufState::Unmaterialized => {
                        (Rule::ReadUnmaterialized, "before anything materializes it")
                    }
                    BufState::Live => continue,
                };
                let what = format!("kernel {i} reads {} {what}", name(r));
                flag(rule, Some(i), Some(r), what);
            }
            for &w in &step.writes {
                // The first writer adopts the buffer; a redundant
                // producer's copy is freed on arrival — net zero.
                if state[w] == BufState::Unmaterialized {
                    state[w] = BufState::Live;
                    live += ports[w].bytes as i64;
                }
            }
            for &r in &step.releases {
                if ports[r].pinned {
                    let what = format!("step {i} releases pinned buffer {} mid-run", name(r));
                    flag(Rule::ReleasePinned, Some(i), Some(r), what);
                } else if state[r] == BufState::Live {
                    state[r] = BufState::Released;
                    live -= ports[r].bytes as i64;
                } else {
                    let what = format!("step {i} releases {} which is not live", name(r));
                    flag(Rule::DoubleRelease, Some(i), Some(r), what);
                }
            }
        }
        // Settle: the arena frees everything still live (pinned buffers
        // are handed back to the caller — also leaving the arena).
        for (p, s) in ports.iter().zip(&state) {
            if *s == BufState::Live {
                live -= p.bytes as i64;
            }
        }
        if live != 0 {
            let what = format!("live_bytes is {live} (not 0) after settle");
            flag(Rule::LifetimeLeak, None, None, what);
        }
    }
    out
}

/// One booking of a planned buffer: its name, element count, producer
/// (`None`: a staged input, filled before kernel 0) and the kernels whose
/// retirement may release it (`None`: it lives all run).
type Booking = (String, usize, Option<usize>, Option<Vec<usize>>);

/// Checks the buffer plan placed on `artifact`'s slot table
/// ([`SlotTable::buffers`]): every booking of a planned buffer — a staged
/// input, a kernel output, a buffer a kernel holds while it runs (a tile
/// chunk, a walk's locals) — holds its element count, and of two
/// bookings that share one, one is dead before the other is produced
/// under every schedule the executor can pick. That is, every kernel that
/// may release it (its slot's readers and its writer; a held buffer's
/// own kernel) strictly reaches the other's producer in `artifact.deps`
/// or, when a run is plan order (one worker), precedes it in the plan. A
/// staged input or a graph output lives all run and shares with nothing.
pub fn verify_buffer_sharing(artifact: &PlanArtifact) -> Vec<Violation> {
    let (table, n) = (&artifact.slots, artifact.deps.len());
    // before[p][r]: kernel r retires before kernel p starts.
    let mut before = vec![vec![false; n]; n];
    for (p, row) in before.iter_mut().enumerate() {
        row[..p].fill(artifact.workers <= 1);
        let mut stack = artifact.deps[p].clone();
        while let Some(d) = stack.pop() {
            if d < n && !std::mem::replace(&mut row[d], true) {
                stack.extend(&artifact.deps[d]);
            }
        }
    }
    let mut readers = vec![Vec::new(); table.slots.len()];
    for (k, reads) in table.reads.iter().enumerate() {
        reads.iter().for_each(|&s| readers[s].push(k));
    }
    let mut bookings: BTreeMap<usize, Vec<Booking>> = BTreeMap::new();
    let mut book = |b: usize, booking: Booking| bookings.entry(b).or_default().push(booking);
    for (slot, b) in table.slots.iter().filter_map(|s| Some((s, s.buffer?))) {
        book(b, (port_name(slot.port), slot.numel, None, None));
    }
    for (k, (writes, bufs)) in table.writes.iter().zip(&table.write_bufs).enumerate() {
        let planned = (writes.iter().zip(bufs)).filter_map(|(s, b)| b.map(|b| (s, b)));
        for (&s, b) in planned {
            let (slot, releasers) = (&table.slots[s], [&readers[s][..], &[k]].concat());
            let releasers = (!slot.pinned).then_some(releasers);
            book(b, (port_name(slot.port), slot.numel, Some(k), releasers));
        }
    }
    for (k, bufs) in table.kernel_bufs.iter().enumerate() {
        // A chunk holds its tile's range; a walk's locals have no other
        // record of their size than the buffer's own.
        let tiles = artifact.tiles.get(k).into_iter().flatten();
        let lens: Vec<usize> = tiles.flat_map(|l| &l.tiles).map(|r| r.len()).collect();
        for (t, &b) in bufs.iter().enumerate() {
            let numel = lens.get(t).or(table.buffers.get(b)).copied().unwrap_or(0);
            let name = format!("#{t} held by kernel {k}");
            book(b, (name, numel, Some(k), Some(vec![k])));
        }
    }
    let ordered = |r: usize, p: usize| before.get(p).is_some_and(|row| row.get(r) == Some(&true));
    let dead_before = |a: &Booking, c: &Booking| match (&a.3, c.2) {
        (Some(releasers), Some(p)) => releasers.iter().all(|&r| ordered(r, p)),
        _ => false,
    };
    let mut out = Vec::new();
    for (b, list) in &bookings {
        for (i, a) in list.iter().enumerate() {
            let conflict =
                |detail| Violation::new(Rule::BufferConflict, a.2, Some(a.0.clone()), detail);
            if table.buffers.get(*b) != Some(&a.1) {
                let detail = format!("{} of {} elements is in buffer {b} of other size", a.0, a.1);
                out.push(conflict(detail));
            }
            let live_together = |c: &&Booking| !dead_before(a, c) && !dead_before(c, a);
            for c in list[..i].iter().filter(live_together) {
                let detail = format!("{} shares buffer {b} with {}: both may be live", a.0, c.0);
                out.push(conflict(detail));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use korch_ir::NodeId;
    use korch_runtime::{SlotInfo, TileBodyKind, TileLayout};

    /// `k0 → s0` and `k1 → s1`, two roots both read by `k2`, which runs
    /// in two tiles: placed by hand with `s0` and `s1` in one buffer and
    /// both chunks in another, the plan is flagged at `k1` (two unordered
    /// writers) and at `k2` (two chunks of one kernel); placed apart, it
    /// passes.
    #[test]
    fn shared_buffers_of_unordered_bookings_are_flagged() {
        let slot = |n: usize| SlotInfo {
            port: PortRef::from(NodeId(n)),
            numel: 16,
            readers: 1,
            pinned: false,
            source: false,
            buffer: None,
        };
        let tiled = TileLayout {
            body: TileBodyKind::ElementwiseChain,
            tiles: vec![0..8, 8..16],
            out_shape: vec![16],
            grain: 1,
        };
        let mut artifact = PlanArtifact {
            deps: vec![vec![], vec![], vec![0, 1]],
            tiles: vec![None, None, Some(tiled)],
            slots: SlotTable {
                slots: vec![slot(0), slot(1), slot(2)],
                reads: vec![vec![], vec![], vec![0, 1]],
                writes: vec![vec![0], vec![1], vec![2]],
                write_bufs: vec![vec![Some(0)], vec![Some(0)], vec![Some(2)]],
                kernel_bufs: vec![vec![], vec![], vec![1, 1]],
                buffers: vec![16, 8, 16],
            },
            folded: vec![],
            workers: 2,
        };
        let flagged: Vec<(Rule, Option<usize>)> = verify_buffer_sharing(&artifact)
            .iter()
            .map(|v| (v.rule, v.kernel))
            .collect();
        assert_eq!(
            flagged,
            [
                (Rule::BufferConflict, Some(1)),
                (Rule::BufferConflict, Some(2))
            ]
        );
        artifact.slots.write_bufs[1] = vec![Some(3)];
        artifact.slots.kernel_bufs[2] = vec![1, 4];
        artifact.slots.buffers.extend([16, 8]);
        assert!(verify_buffer_sharing(&artifact).is_empty());
        // `k2`'s output may reuse `s0`'s buffer only if both readers of
        // `s0` — `k2` itself among them — retire before `k2` starts.
        artifact.slots.write_bufs[2] = vec![Some(0)];
        assert_eq!(verify_buffer_sharing(&artifact).len(), 1);
    }
}
