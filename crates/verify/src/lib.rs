//! Static verification of compiled Korch artifacts: a plan
//! verifier, an arena-lifetime abstract interpreter, and a loom-lite
//! exploration checker for the scheduler's atomic protocols.
//!
//! The runtime's correctness story so far is *dynamic* — differential
//! tests against the sequential interpreter, conservation proptests,
//! trace validators. Every one of those checks a property on the runs it
//! happened to see. This crate proves the same invariants on the
//! **compiled artifacts themselves** (the dependency edges, tile layouts
//! and lifetime programs the executor will actually run), and — for the
//! scheduler's atomic protocols — over *every* bounded interleaving, so
//! the planned lock-free executor rewrite can land its protocols here
//! before touching the runtime.
//!
//! # Static checks and the dynamic tests that mirror them
//!
//! | Static check (this crate) | Dynamic twin |
//! |---|---|
//! | [`verify_plan`]: dependency acyclicity, producer-before-reader, redundant producers compute their own bytes | `tests/runtime_workstealing.rs` `random_dag_plans_are_bit_identical` |
//! | [`verify_plan`]: tile decompositions partition the output exactly (disjoint + covering + in tile order, grain-aligned); monolithic/multi-output kernels never tile-eligible; reduce tilings never re-associate one output element | `tests/runtime_tiling.rs` differential matrix (tile sizes × lanes, bit-identical to `execute_plan`) |
//! | [`verify_lifetimes`] over the executor's own slot table: `live_bytes` returns to 0 on every success *and* failure-unwind path, no buffer read after release | `tests/runtime_workstealing.rs` `redundant_producer_conserves_the_buffer_plan`, `failed_runs_settle_the_arena` (conservation tests) |
//! | [`verify_buffer_sharing`] over the buffer plan on that table: two bookings share a planned buffer only when one is dead before the other is produced under every schedule (plan order at one worker, DAG reachability above), at the buffer's size | `korch-runtime`'s debug assert that a planned buffer never has two holders; `tests/compiled_differential.rs` `warm_runs_allocate_only_handed_outputs` |
//! | [`explore`]: dep-counter release fires exactly once | executor dependency-counter tests (`runtime_workstealing.rs`) |
//! | [`explore`]: tile-assembly countdown assembles once, after every chunk landed | `runtime_tiling.rs` assembly tests |
//! | [`explore`]: `Server::stop` sets the shutdown flag under the queue lock, so an idle request worker's check-then-wait never loses the wakeup | `korch-runtime` `serving::tests::idle_shutdown_never_loses_the_wakeup` |
//! | [`explore`]: admission dispatch answers every request exactly once and leaves none queued beside an idle worker | `tests/serving_stress.rs` latch, saturation and shutdown-race tests; `tests/serving_sharded.rs` request-conservation proptest |
//! | [`explore`]: run hand-off — no lane touches a recycled run state, the caller waits only on attached helpers | `tests/runtime_workstealing.rs`, `tests/runtime_parallel.rs` repeated runs on one executor at 2/4/8 lanes |
//!
//! The verifier consumes artifacts through the runtime's introspection
//! API (`PlanExecutor::kernel_dependencies`, `tile_layouts`,
//! `slot_table`, `folded`) rather than re-deriving them: what is checked
//! is what will run.
//! [`check_executor`] bundles every static analysis over one compiled
//! executor; `CompiledModel::recalibrate` runs it (in debug builds) on
//! each freshly orchestrated plan before the atomic swap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
mod lifetime;
pub mod models;
mod plan;

pub use lifetime::{
    verify_buffer_sharing, verify_lifetimes, LifetimeProgram, LifetimeStep, PortInfo,
};
pub use plan::{verify_plan, PlanArtifact};

use korch_runtime::PlanExecutor;
use std::fmt;

/// The invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A kernel reads a port no kernel ordered before it materializes.
    MissingProducer,
    /// A required dependency edge is absent from the compiled artifact.
    MissingDependency,
    /// A dependency edge points at itself, forward, or out of range.
    MalformedDependency,
    /// The compiled dependency relation contains a cycle.
    CyclicDependency,
    /// A kernel declares an output whose producing node is not among its
    /// members (its bytes would differ from the first producer's).
    ForeignOutput,
    /// A kernel is marked tile-eligible though its shape forbids it
    /// (monolithic member, multiple outputs, foreign body node…).
    TileEligibilityUnsound,
    /// Tile ranges fail the disjoint-slice contract (gap, overlap, out
    /// of order, misaligned, or not covering the output exactly).
    TilePartitionBroken,
    /// A reduce tiling would re-associate (or double-accumulate) a
    /// single output element.
    NonDeterministicReduceTile,
    /// A buffer is read after its release.
    UseAfterRelease,
    /// A buffer is read before anything materializes it.
    ReadUnmaterialized,
    /// A buffer is released twice (or released while unmaterialized).
    DoubleRelease,
    /// A pinned buffer (graph input/output) is released mid-run.
    ReleasePinned,
    /// `live_bytes` does not return to 0 after a path settles.
    LifetimeLeak,
    /// Two bookings share a planned buffer though both may be live at
    /// once, or one does not hold the buffer's element count.
    BufferConflict,
    /// The artifact's shape disagrees with the plan (length mismatches).
    MalformedArtifact,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::MissingProducer => "missing-producer",
            Rule::MissingDependency => "missing-dependency",
            Rule::MalformedDependency => "malformed-dependency",
            Rule::CyclicDependency => "cyclic-dependency",
            Rule::ForeignOutput => "foreign-output",
            Rule::TileEligibilityUnsound => "tile-eligibility-unsound",
            Rule::TilePartitionBroken => "tile-partition-broken",
            Rule::NonDeterministicReduceTile => "non-deterministic-reduce-tile",
            Rule::UseAfterRelease => "use-after-release",
            Rule::ReadUnmaterialized => "read-unmaterialized",
            Rule::DoubleRelease => "double-release",
            Rule::ReleasePinned => "release-pinned",
            Rule::LifetimeLeak => "lifetime-leak",
            Rule::BufferConflict => "buffer-conflict",
            Rule::MalformedArtifact => "malformed-artifact",
        };
        f.write_str(s)
    }
}

/// One broken invariant, naming the kernel and/or buffer involved so a
/// rejection is actionable (and so mutation tests can assert the
/// verifier blamed the corrupted site, not just "something").
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub rule: Rule,
    /// Index of the offending kernel in `plan.kernels`, when one exists.
    pub kernel: Option<usize>,
    /// The buffer (port `node:port`) involved, when one exists.
    pub buffer: Option<String>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.rule)?;
        if let Some(k) = self.kernel {
            write!(f, " kernel {k}")?;
        }
        if let Some(b) = &self.buffer {
            write!(f, " buffer {b}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl Violation {
    pub(crate) fn new(
        rule: Rule,
        kernel: Option<usize>,
        buffer: Option<String>,
        detail: String,
    ) -> Self {
        Self {
            rule,
            kernel,
            buffer,
            detail,
        }
    }
}

/// A non-empty set of [`Violation`]s, as a `std::error::Error`.
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// Every invariant the artifact broke.
    pub violations: Vec<Violation>,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violation(s)", self.violations.len())?;
        for v in &self.violations {
            write!(f, "; {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Formats a port as `node:port` for [`Violation::buffer`].
pub(crate) fn port_name(p: korch_ir::PortRef) -> String {
    format!("{}:{}", p.node.0, p.port)
}

/// Runs every static analysis over one compiled executor: the
/// plan verifier on the artifact the executor actually compiled
/// (dependency counters, tile layouts), the arena lifetime abstract
/// interpreter over the slot table it runs, and the buffer-sharing
/// check of the buffer plan placed on that table.
pub fn verify_executor(exec: &PlanExecutor) -> Vec<Violation> {
    let artifact = PlanArtifact::from_executor(exec);
    let mut violations = verify_plan(exec.graph(), exec.plan(), &artifact);
    let program = LifetimeProgram::from_slots(&artifact.slots);
    violations.extend(verify_lifetimes(&program));
    violations.extend(verify_buffer_sharing(&artifact));
    violations
}

/// [`verify_executor`] as a `Result`: `Err` carries every violation.
///
/// # Errors
///
/// Returns [`VerifyError`] when any static invariant is broken.
pub fn check_executor(exec: &PlanExecutor) -> Result<(), VerifyError> {
    let violations = verify_executor(exec);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(VerifyError { violations })
    }
}
