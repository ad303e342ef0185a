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

use crate::{port_name, Rule, Violation};
use korch_ir::PortRef;
use korch_runtime::SlotTable;
use std::collections::HashSet;

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
    let n = program.steps.len();
    let mut out: Vec<Violation> = Vec::new();
    let mut seen: HashSet<(Rule, Option<usize>, Option<String>)> = HashSet::new();
    let push = |out: &mut Vec<Violation>,
                seen: &mut HashSet<(Rule, Option<usize>, Option<String>)>,
                v: Violation| {
        if seen.insert((v.rule, v.kernel, v.buffer.clone())) {
            out.push(v);
        }
    };

    // Path `n` is the success path; path `f < n` unwinds after kernel
    // `f` fails (steps 0..f retired normally, step f never runs).
    for retired in (0..=n).rev() {
        let path = if retired == n {
            "success path".to_string()
        } else {
            format!("failure-unwind path (kernel {retired} fails)")
        };
        let mut state = vec![BufState::Unmaterialized; program.ports.len()];
        let mut live: i64 = 0;
        for (i, p) in program.ports.iter().enumerate() {
            if p.source {
                state[i] = BufState::Live;
                live += p.bytes as i64;
            }
        }
        for (i, step) in program.steps.iter().take(retired).enumerate() {
            for &r in &step.reads {
                let p = &program.ports[r];
                match state[r] {
                    BufState::Released => push(
                        &mut out,
                        &mut seen,
                        Violation::new(
                            Rule::UseAfterRelease,
                            Some(i),
                            Some(port_name(p.port)),
                            format!(
                                "kernel {i} reads {} after its release ({path})",
                                port_name(p.port)
                            ),
                        ),
                    ),
                    BufState::Unmaterialized => push(
                        &mut out,
                        &mut seen,
                        Violation::new(
                            Rule::ReadUnmaterialized,
                            Some(i),
                            Some(port_name(p.port)),
                            format!(
                                "kernel {i} reads {} before anything materializes it ({path})",
                                port_name(p.port)
                            ),
                        ),
                    ),
                    BufState::Live => {}
                }
            }
            for &w in &step.writes {
                let p = &program.ports[w];
                match state[w] {
                    BufState::Unmaterialized => {
                        // First writer: the arena adopts the buffer.
                        state[w] = BufState::Live;
                        live += p.bytes as i64;
                    }
                    // Redundant producer: first-writer-wins, the loser's
                    // copy is freed on arrival — net zero.
                    BufState::Live | BufState::Released => {}
                }
            }
            for &r in &step.releases {
                let p = &program.ports[r];
                if p.pinned {
                    push(
                        &mut out,
                        &mut seen,
                        Violation::new(
                            Rule::ReleasePinned,
                            Some(i),
                            Some(port_name(p.port)),
                            format!(
                                "step {i} releases pinned buffer {} mid-run ({path})",
                                port_name(p.port)
                            ),
                        ),
                    );
                    continue;
                }
                match state[r] {
                    BufState::Live => {
                        state[r] = BufState::Released;
                        live -= p.bytes as i64;
                    }
                    _ => push(
                        &mut out,
                        &mut seen,
                        Violation::new(
                            Rule::DoubleRelease,
                            Some(i),
                            Some(port_name(p.port)),
                            format!(
                                "step {i} releases {} which is not live ({path})",
                                port_name(p.port)
                            ),
                        ),
                    ),
                }
            }
        }
        // Settle: the arena frees everything still live (pinned buffers
        // are handed back to the caller — also leaving the arena).
        for (i, p) in program.ports.iter().enumerate() {
            if state[i] == BufState::Live {
                state[i] = BufState::Released;
                live -= p.bytes as i64;
            }
        }
        if live != 0 {
            push(
                &mut out,
                &mut seen,
                Violation::new(
                    Rule::LifetimeLeak,
                    None,
                    None,
                    format!("live_bytes is {live} (not 0) after settle on the {path}"),
                ),
            );
        }
    }
    out
}
