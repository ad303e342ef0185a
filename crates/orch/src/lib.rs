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
//! yield the same [`Plan`]. It is [`OrchestrationBlp::build`] (rows and
//! warm start) then [`OrchestrationBlp::solve`], which may take a cutoff.
//! Each solve also reports its graph's tuning database (Table 2): the
//! distinct `(spec, backend)` pairs among the variables, each charged
//! once.
//!
//! [`Orchestrator`] bundles the four steps, and
//! [`Orchestrator::orchestrate_all`] runs them on many graphs at once,
//! one job per graph on every core, each graph after the first of its
//! group cut off at the cheapest warm start of the graphs before it:
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
pub use optimizer::{
    optimize, OptimizeConfig, OrchError, OrchestrationBlp, SolveReport, TunedKernel,
};
pub use plan::{plan_dependencies, MissingProducer, Plan, SelectedKernel};
pub use state::{enumerate_states, BitSet, StateSpace};

use korch_cost::{Backend, Device, Profiler};
use korch_ir::PrimGraph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
    /// Solver statistics; `report.tuned` is this graph's tuning database
    /// (every distinct `(spec, backend)` among the BLP's variables, with
    /// its simulated tuning seconds), which a model-wide clock unions.
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
        self.orchestrate_below(g, |_| None)
    }

    /// [`Orchestrator::orchestrate`], solved with the cutoff `cutoff`
    /// returns once it is handed the built BLP's warm-start objective
    /// (`None` when it has no warm start).
    fn orchestrate_below(
        &self,
        g: &PrimGraph,
        cutoff: impl FnOnce(Option<f64>) -> Option<f64>,
    ) -> Result<Orchestration, OrchError> {
        let max_states = self.config.max_states.unwrap_or(DEFAULT_MAX_STATES);
        let space = enumerate_states(g, max_states);
        let identify = &self.config.identify;
        let cands = identify_kernels(g, &space, &self.profiler, identify, &BACKENDS);
        let blp = OrchestrationBlp::build(g, &cands, Some(&space), &self.config.optimize)?;
        let cutoff = cutoff(blp.warm_objective_us());
        let (plan, report) = blp.solve(cutoff)?;
        Ok(Orchestration {
            plan,
            num_states: space.states.len(),
            report,
        })
    }

    /// [`Orchestrator::orchestrate`] on every graph of every group, one
    /// job per graph, on `available_parallelism()` scoped threads at most
    /// (the caller is one of them) that pull jobs from one atomic index in
    /// (group, graph) order. Results come back grouped as given, each
    /// error at its own position. A panicking job panics the caller.
    ///
    /// A group holds alternatives for one partition — its transform
    /// variants — of which only the cheapest plan matters. Graph `k` of a
    /// group is solved with a cutoff: the cheapest warm start among graphs
    /// `0..k`, which each job publishes as soon as its BLP is built, and
    /// which job `k` waits for. A graph's plan costs no more than its warm
    /// start, so a plan the cutoff prunes is never strictly cheaper than
    /// an earlier graph's: the first strictly cheapest plan of a group is
    /// the one uncut solves choose. A cut-off graph returns its warm start
    /// (or [`OrchError::Cutoff`] without one). The cutoffs are warm
    /// starts, functions of the graphs alone, so every result is the same
    /// on one thread or many; only the waiting depends on timing. Since
    /// jobs are taken in order, every graph a job waits for is already
    /// running, and a job that fails or panics publishes "no bound".
    pub fn orchestrate_all(
        &self,
        groups: &[Vec<&PrimGraph>],
    ) -> Vec<Vec<Result<Orchestration, OrchError>>> {
        let jobs: Vec<(usize, usize)> = (groups.iter().enumerate())
            .flat_map(|(p, graphs)| (0..graphs.len()).map(move |k| (p, k)))
            .collect();
        let boards: Vec<WarmStarts> = groups.iter().map(|g| WarmStarts::new(g.len())).collect();
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(jobs.len());
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                // Relaxed: the index hands out job numbers and publishes
                // nothing; warm starts travel through the boards' mutexes
                // and results through `join`.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(p, k)) = jobs.get(i) else {
                    return done;
                };
                let slot = Publication {
                    board: &boards[p],
                    k,
                };
                let result = self.orchestrate_below(groups[p][k], |warm| {
                    slot.board.publish(k, warm.unwrap_or(f64::INFINITY));
                    slot.board.cheapest_before(k)
                });
                done.push((i, result));
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
        let mut grouped: Vec<Vec<_>> = groups.iter().map(|g| Vec::with_capacity(g.len())).collect();
        for (i, result) in done {
            grouped[jobs[i].0].push(result);
        }
        grouped
    }
}

/// The warm-start objectives of one group's graphs (µs), each published
/// once by its job: `None` while pending, infinity for "no bound".
struct WarmStarts {
    published: Mutex<Vec<Option<f64>>>,
    changed: Condvar,
}

impl WarmStarts {
    fn new(graphs: usize) -> Self {
        Self {
            published: Mutex::new(vec![None; graphs]),
            changed: Condvar::new(),
        }
    }

    /// The slots; no code panics while holding them, so a poisoned lock
    /// still holds whole values.
    fn lock(&self) -> MutexGuard<'_, Vec<Option<f64>>> {
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes graph `k`'s warm start unless it already has one, and
    /// wakes the waiters.
    fn publish(&self, k: usize, warm: f64) {
        let mut published = self.lock();
        if published[k].is_none() {
            published[k] = Some(warm);
            drop(published);
            self.changed.notify_all();
        }
    }

    /// Waits until graphs `0..k` have published, then returns the
    /// cheapest of their warm starts, `None` when none has a bound.
    fn cheapest_before(&self, k: usize) -> Option<f64> {
        let mut published = self.lock();
        loop {
            let cheapest =
                (published[..k].iter()).try_fold(f64::INFINITY, |c, w| Some(c.min((*w)?)));
            if let Some(c) = cheapest {
                return Some(c).filter(|c| c.is_finite());
            }
            published = (self.changed.wait(published)).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Graph `k`'s slot on its group's board. Dropping it publishes "no
/// bound" unless the job published a warm start, so a job that fails or
/// panics before publishing never leaves a later graph waiting.
struct Publication<'a> {
    board: &'a WarmStarts,
    k: usize,
}

impl Drop for Publication<'_> {
    fn drop(&mut self) {
        self.board.publish(self.k, f64::INFINITY);
    }
}
