//! Wall-time profiling of executed plans, and the feedback path that fits
//! the analytical cost model (`korch_cost`) to the host.
//!
//! The paper's profiler measures candidate kernels on real GPUs; the
//! reproduction replaced it with an analytical model. The runtime closes
//! the loop in the other direction: every kernel execution is timed, the
//! accumulated means become [`CalibrationSample`]s, and
//! [`Calibration::fit`] turns them into per-roofline-component scale
//! factors, so the optimizer's cost model can be re-fitted to whatever
//! host actually runs the plan.

use korch_cost::{Calibration, CalibrationSample, KernelSpec, Micros, Profiler};
use korch_ir::{NodeId, PrimGraph};
use korch_orch::Plan;
use std::collections::{BTreeMap, BTreeSet};

/// Aggregated wall-time statistics of one kernel across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Executions recorded.
    pub count: u64,
    /// Total wall time, µs.
    pub total_us: f64,
    /// Fastest execution, µs.
    pub min_us: f64,
    /// Slowest execution, µs.
    pub max_us: f64,
}

impl KernelStats {
    /// Mean wall time per execution, µs.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us / self.count as f64
        }
    }
}

/// One kernel (or kernel-tile) execution's wall-clock interval within a
/// run.
///
/// **Clock-origin invariant:** `start_us` and `end_us` are offsets from
/// *one* monotonic origin captured once per `execute` call (a single
/// `Instant` shared by every worker lane of that run). Per-lane origins
/// would shift the lanes against each other on the trace timeline the
/// intervals are rebased onto. Intervals are therefore only comparable
/// *within* one run's set, never across runs.
///
/// **Tile tagging:** when the executor decomposes a kernel into row-range
/// tiles, each tile records its own interval with `tile: Some(i)` and the
/// parent's `kernel` index; [`RuntimeProfile::merge_run`] sums a run's
/// tiles into one whole-kernel sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelInterval {
    /// Index into `plan.kernels`.
    pub kernel: usize,
    /// Worker lane that actually executed the kernel (after any steal).
    pub lane: usize,
    /// Offset of the kernel's start from the run's clock origin, µs.
    pub start_us: f64,
    /// Offset of the kernel's completion from the run's clock origin, µs.
    pub end_us: f64,
    /// Tile index within a decomposed kernel execution (`None` when the
    /// kernel ran whole).
    pub tile: Option<usize>,
}

impl KernelInterval {
    /// Wall time of the execution, µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Accumulated profile of a [`crate::PlanExecutor`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeProfile {
    /// Per-kernel statistics, indexed like `plan.kernels`.
    pub per_kernel: Vec<KernelStats>,
    /// Completed `execute` calls.
    pub runs: u64,
    /// Total end-to-end wall time across runs, µs.
    pub total_wall_us: f64,
    /// Tasks (kernels or tiles) a lane took from the top of another
    /// lane's ready deque — counted at the deque, so a task made ready by
    /// one lane and run by another is one steal.
    pub steals: u64,
    /// Times a worker lane actually parked its thread after a
    /// confirmed-empty sweep of every deque (see the scheduler docs in
    /// `executor/sched.rs`). High parks relative to kernel count means the
    /// plan starves lanes; zero parks on a parallel run means the deques
    /// kept every lane fed.
    pub parks: u64,
    /// Kernel executions that were decomposed into row-range tiles
    /// (counted once per decomposed kernel per run; derived from
    /// tile-tagged intervals, so profiling must be enabled to count).
    pub tiled_kernels: u64,
    /// Individual tile tasks executed across all decomposed kernels.
    pub tile_tasks: u64,
}

impl RuntimeProfile {
    /// Empty profile for `n` kernels.
    pub fn new(n: usize) -> Self {
        Self {
            per_kernel: vec![KernelStats::default(); n],
            runs: 0,
            total_wall_us: 0.0,
            steals: 0,
            parks: 0,
            tiled_kernels: 0,
            tile_tasks: 0,
        }
    }

    /// Folds one run's measurements — every lane's kernel intervals (all
    /// offsets from the run's shared clock origin) plus the run's total
    /// steal and park counts — into the profile. Workers buffer locally
    /// and the run merges once, so profiling does not serialize the lanes
    /// it measures.
    ///
    /// A kernel that ran as tiles contributes **one** per-kernel sample:
    /// the sum of its tiles' durations — the sequential-equivalent body
    /// time, which is what [`RuntimeProfile::calibration_samples`] must
    /// compare against the whole-kernel cost estimate (recording each tile
    /// separately would divide the kernel's measured time by the tile
    /// count and wreck the fit).
    pub fn merge_run(&mut self, intervals: &[KernelInterval], steals: u64, parks: u64) {
        let mut tiled: BTreeMap<usize, f64> = BTreeMap::new();
        for iv in intervals {
            if iv.tile.is_some() {
                *tiled.entry(iv.kernel).or_insert(0.0) += iv.duration_us();
                self.tile_tasks += 1;
            } else {
                self.record_kernel(iv.kernel, iv.duration_us());
            }
        }
        self.tiled_kernels += tiled.len() as u64;
        for (kernel, total_us) in tiled {
            self.record_kernel(kernel, total_us);
        }
        self.steals += steals;
        self.parks += parks;
    }

    /// Records one kernel execution.
    pub fn record_kernel(&mut self, kernel: usize, wall_us: f64) {
        let s = &mut self.per_kernel[kernel];
        if s.count == 0 {
            s.min_us = wall_us;
            s.max_us = wall_us;
        } else {
            s.min_us = s.min_us.min(wall_us);
            s.max_us = s.max_us.max(wall_us);
        }
        s.count += 1;
        s.total_us += wall_us;
    }

    /// Records one completed run.
    pub fn record_run(&mut self, wall_us: f64) {
        self.runs += 1;
        self.total_wall_us += wall_us;
    }

    /// Σ mean kernel times, µs: the sequential-execution estimate of the
    /// measured plan (Eq. 2 over wall clocks).
    pub fn sequential_us(&self) -> f64 {
        self.per_kernel.iter().map(KernelStats::mean_us).sum()
    }

    /// Mean end-to-end wall time per run, µs.
    pub fn mean_run_us(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.total_wall_us / self.runs as f64
        }
    }

    /// Measured speedup of overlapped execution over the sum of kernel
    /// times (> 1 when lanes genuinely overlap).
    pub fn overlap_speedup(&self) -> f64 {
        let run = self.mean_run_us();
        if run <= 0.0 {
            return 1.0;
        }
        self.sequential_us() / run
    }

    /// Turns the profile into cost-model calibration samples: one per
    /// kernel that has measurements, with the kernel's spec extracted from
    /// the plan and the mean measured wall time.
    pub fn calibration_samples(&self, g: &PrimGraph, plan: &Plan) -> Vec<CalibrationSample> {
        plan.kernels
            .iter()
            .zip(&self.per_kernel)
            .filter(|(_, s)| s.count > 0)
            .map(|(k, s)| {
                let members: BTreeSet<NodeId> = k.members.iter().copied().collect();
                CalibrationSample {
                    spec: korch_cost::kernel_spec(g, &members, &k.outputs),
                    backend: k.backend,
                    measured: Micros(s.mean_us()),
                }
            })
            .collect()
    }

    /// Fits a [`Calibration`] of `cost_profiler` from this profile (see
    /// [`Calibration::fit`]).
    pub fn fit_calibration(
        &self,
        g: &PrimGraph,
        plan: &Plan,
        cost_profiler: &Profiler,
    ) -> Calibration {
        Calibration::fit(cost_profiler, &self.calibration_samples(g, plan))
    }

    /// Prediction error of a cost model against this profile: mean of
    /// `|predicted - measured| / measured` over profiled kernels. Useful
    /// to confirm a fitted calibration actually tightened the model.
    pub fn model_error(&self, g: &PrimGraph, plan: &Plan, cost_profiler: &Profiler) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (k, s) in plan.kernels.iter().zip(&self.per_kernel) {
            if s.count == 0 || s.mean_us() <= 0.0 {
                continue;
            }
            let members: BTreeSet<NodeId> = k.members.iter().copied().collect();
            let spec: KernelSpec = korch_cost::kernel_spec(g, &members, &k.outputs);
            let predicted = cost_profiler.latency(&spec, k.backend).0;
            sum += (predicted - s.mean_us()).abs() / s.mean_us();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_track_extrema_and_mean() {
        let mut p = RuntimeProfile::new(2);
        p.record_kernel(0, 10.0);
        p.record_kernel(0, 30.0);
        p.record_kernel(1, 5.0);
        p.record_run(40.0);
        assert_eq!(p.per_kernel[0].count, 2);
        assert_eq!(p.per_kernel[0].min_us, 10.0);
        assert_eq!(p.per_kernel[0].max_us, 30.0);
        assert_eq!(p.per_kernel[0].mean_us(), 20.0);
        assert_eq!(p.sequential_us(), 25.0);
        assert_eq!(p.mean_run_us(), 40.0);
    }

    /// A run whose kernel 0 executed as three tiles must record ONE
    /// per-kernel sample summing the tile durations (the
    /// sequential-equivalent body time the calibration fit needs), while
    /// the counters expose the decomposition.
    #[test]
    fn tiled_run_sums_tiles_into_one_kernel_sample() {
        let mut p = RuntimeProfile::new(2);
        let iv = |kernel, lane, start_us: f64, end_us: f64, tile| KernelInterval {
            kernel,
            lane,
            start_us,
            end_us,
            tile,
        };
        p.merge_run(
            &[
                iv(0, 0, 0.0, 4.0, Some(0)),
                iv(0, 1, 0.0, 5.0, Some(1)),
                iv(0, 2, 1.0, 4.0, Some(2)),
                iv(1, 0, 4.0, 6.0, None),
            ],
            0,
            0,
        );
        assert_eq!(p.per_kernel[0].count, 1);
        assert_eq!(p.per_kernel[0].total_us, 12.0);
        assert_eq!(p.per_kernel[1].count, 1);
        assert_eq!(p.tiled_kernels, 1);
        assert_eq!(p.tile_tasks, 3);
    }

    #[test]
    fn empty_profile_is_neutral() {
        let p = RuntimeProfile::new(3);
        assert_eq!(p.sequential_us(), 0.0);
        assert_eq!(p.overlap_speedup(), 1.0);
    }
}
