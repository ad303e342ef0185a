//! Kernel orchestration (paper §4): maps a primitive graph to an optimal
//! set of GPU kernels.
//!
//! The pipeline inside this crate mirrors the paper exactly:
//!
//! 1. [`enumerate_states`] — DFS over execution states (Definition 2,
//!    Algorithm 1);
//! 2. [`identify_kernels`] — every pair of states yields a convex candidate
//!    subgraph (Theorem 1); possible-output sets (Definition 3) expand each
//!    into candidate kernels, priced by the `korch-cost` profiler with the
//!    §6.5 rejection heuristics;
//! 3. [`optimize`] — the binary linear program of Eqs. 2–4 (with the
//!    redundant-computation relaxation) solved by `korch-blp`;
//! 4. [`Plan`] — the selected kernels scheduled sequentially (§5.3), with
//!    [`plan_dependencies`] the port-level readiness relation between them
//!    that the `korch-runtime` executor runs its lanes by.
//!
//! [`optimize`] builds the BLP straight from the candidates, keyed by
//! primitive: Eq. 3 rows for the primitives that must be produced, Eq. 4
//! rows per primitive a candidate reads, the one-kernel-per-primitive,
//! chain-DP and seed warm starts, the branch-and-bound call and the
//! dependency-respecting kernel order with singleton deadlock repair. Its
//! variables are the candidates [`identify_kernels`] keeps: at most 220,
//! unless the singletons and seeds alone are more. Rows are emitted in a
//! fixed order (must-produce primitives ascending, then candidates in
//! order, each one's reads ascending) and no hash iteration reaches the
//! solver, so the same [`Candidates`] always cost the same pivots and
//! yield the same [`Plan`]. [`optimize`] also keeps the one simulated
//! tuning clock (Table 2): the tuning database is a set of the distinct
//! `(spec, backend)` pairs among the variables, each charged once.
//!
//! [`Orchestrator`] bundles the four steps, and
//! [`Orchestrator::orchestrate_all`] runs them on many graphs at once,
//! one job per graph on every core:
//!
//! ```
//! use korch_cost::Device;
//! use korch_ir::{PrimGraph, PrimKind, EwFn};
//! use korch_orch::Orchestrator;
//! use korch_tensor::UnaryOp;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = PrimGraph::new();
//! let x = g.add(PrimKind::Input { shape: vec![64, 64] }, vec![])?;
//! let e = g.add(PrimKind::Elementwise(EwFn::Unary(UnaryOp::Exp)), vec![x.into()])?;
//! let r = g.add(PrimKind::Elementwise(EwFn::Unary(UnaryOp::Relu)), vec![e.into()])?;
//! g.mark_output(r)?;
//! let orch = Orchestrator::new(Device::v100());
//! let outcome = orch.orchestrate(&g)?;
//! assert_eq!(outcome.plan.kernel_count(), 1); // exp+relu fuse
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod optimizer;
mod plan;
mod state;

pub use kernel::{
    backend_applicable, greedy_seed_groups, identify_kernels, CandidateKernel, Candidates,
    IdentifyConfig,
};
pub use optimizer::{optimize, OptimizeConfig, OrchError, SolveReport};
pub use plan::{plan_dependencies, MissingProducer, Plan, SelectedKernel};
pub use state::{enumerate_states, BitSet, StateSpace};

use korch_cost::{Backend, Device, Profiler};
use korch_ir::PrimGraph;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The execution-state enumeration cap [`Orchestrator`] applies when
/// [`OrchestratorConfig::max_states`] is `None`.
pub const DEFAULT_MAX_STATES: usize = 1_500;

/// Configuration of the whole orchestration stage.
#[derive(Debug, Clone, Default)]
pub struct OrchestratorConfig {
    /// Execution-state enumeration cap ([`DEFAULT_MAX_STATES`] when `None`).
    pub max_states: Option<usize>,
    /// Kernel identification options.
    pub identify: IdentifyConfig,
    /// BLP construction and solver settings.
    pub optimize: OptimizeConfig,
}

/// Everything produced by one orchestration run.
#[derive(Debug, Clone)]
pub struct Orchestration {
    /// The executable kernel plan.
    pub plan: Plan,
    /// Number of execution states enumerated.
    pub num_states: usize,
    /// Solver statistics; `report.tuning_time_s` is the one simulated
    /// tuning clock: every distinct `(spec, backend)` among the BLP's
    /// variables charged once, seconds (Table 2 column; mirrors the
    /// paper's TVM-database caching).
    pub report: SolveReport,
}

/// The backends every candidate kernel is priced on, tried in this order
/// (the cheapest applicable wins, the first on ties).
const BACKENDS: [Backend; 2] = [Backend::Generated, Backend::Vendor];

/// Bundles state enumeration, kernel identification and BLP optimization.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    profiler: Profiler,
    config: OrchestratorConfig,
}

impl Orchestrator {
    /// Orchestrator pricing kernels on `device` with the default
    /// configuration. Candidates are priced on the generated and the
    /// vendor backend; another backend list composes
    /// [`enumerate_states`], [`identify_kernels`] and [`optimize`]
    /// directly.
    pub fn new(device: Device) -> Self {
        Self {
            profiler: Profiler::new(device),
            config: OrchestratorConfig::default(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: OrchestratorConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the kernel profiler — typically with one carrying a
    /// fitted [`korch_cost::Calibration`], so candidate identification
    /// and the BLP price kernels in measured host time (the runtime's
    /// closed calibration loop).
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// The profiler in use.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Runs the full §4 pipeline on one primitive graph.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] when no feasible kernel cover exists or the
    /// solver budget is exhausted without an incumbent.
    pub fn orchestrate(&self, g: &PrimGraph) -> Result<Orchestration, OrchError> {
        let max_states = self.config.max_states.unwrap_or(DEFAULT_MAX_STATES);
        let space = enumerate_states(g, max_states);
        let identify = &self.config.identify;
        let cands = identify_kernels(g, &space, &self.profiler, identify, &BACKENDS);
        let (plan, report) = optimize(g, &cands, Some(&space), &self.config.optimize)?;
        Ok(Orchestration {
            plan,
            num_states: space.states.len(),
            report,
        })
    }

    /// [`Orchestrator::orchestrate`] on every graph, one job per graph, on
    /// `available_parallelism().min(graphs.len())` scoped threads (the
    /// caller is one of them) that pull jobs from one atomic index. The
    /// jobs share nothing but `self`, so each result is the one a
    /// sequential call returns; results come back in input order, each
    /// error at its own position. A panicking job panics the caller.
    pub fn orchestrate_all(&self, graphs: &[&PrimGraph]) -> Vec<Result<Orchestration, OrchError>> {
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(graphs.len());
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                // Relaxed: the index hands out job numbers and publishes
                // nothing; the results travel back through `join`.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(g) = graphs.get(i) else {
                    return done;
                };
                done.push((i, self.orchestrate(g)));
            }
        };
        let mut done = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
            let mut done = work();
            for h in helpers {
                done.extend(
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            done
        });
        done.sort_unstable_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}
