//! Fitting [`StreamContention`] sharing rates from measured kernel
//! intervals — the second half of the runtime's feedback loop.
//!
//! [`crate::RuntimeProfile::fit_calibration`] fits *per-kernel* costs; this
//! module fits the *inter-kernel* knob: how strongly same-resource-class
//! kernel bodies contend when co-scheduled on different lanes. The
//! executor records each kernel's (start, end) wall-clock interval against
//! one shared clock origin per run ([`crate::KernelInterval`]); for every
//! same-class pair that ran on different lanes within a run, the pair's
//! overlap fraction (`overlap / min(duration)`) is evidence:
//!
//! - intervals that **fully overlap** mean the host genuinely co-ran both
//!   bodies — the shared resource was not a bottleneck, so the fitted
//!   sharing rate approaches `0.0`;
//! - intervals that **never overlap** mean co-scheduling bought nothing —
//!   full processor sharing, rate `1.0` (the simulator's default).
//!
//! Pairs that ran on the *same* worker lane are excluded: a lane executes
//! its kernels serially, so their non-overlap says nothing about the
//! resource. Pairs with the *same* kernel index are excluded too: those
//! are sibling row-range tiles of one decomposed kernel
//! ([`crate::KernelInterval::tile`]), whose cross-lane overlap is
//! intra-kernel data parallelism by construction — counting it would
//! flood the evidence with near-1 overlap fractions that say nothing
//! about how *independent* kernels share the resource. A class with no
//! cross-lane pair anywhere keeps its fallback rate — no evidence is
//! different from evidence of serialization.
//!
//! # The slowdown clamp
//!
//! Wall-clock co-residency alone is too optimistic on a time-sliced
//! host: two kernels whose intervals fully overlap while the scheduler
//! interleaves them at half speed would fit rate ≈ 0 ("no contention")
//! even though co-scheduling bought nothing. The fit therefore collects
//! a second signal wherever the window holds both kinds of sample: for
//! each kernel observed **co-running** (its interval overlaps a
//! cross-lane, same-class, different-kernel interval in the same run)
//! *and* **solo** (no such overlap in some other run), the ratio of its
//! mean co-run duration to its mean solo duration measures how much
//! co-residency dilated the body. A mean ratio of `s` clamps the class's
//! fitted rate to at least `(s − 1)` (capped at 1): full overlap with
//! 2× dilation fits rate 1, not 0. Sibling tiles are excluded from the
//! slowdown buckets — a tile interval times a *fraction* of the kernel,
//! so its duration is not comparable to a whole-kernel solo sample.
//! Kernels never seen both ways contribute nothing, and without any
//! slowdown observation the clamp is a no-op (pure wall-clock fit).
//!
//! The fitted rates feed `schedule_streams_with` through
//! `CompiledModel::recalibrate`, which re-orchestrates with both the
//! fitted cost [`korch_cost::Calibration`] and the fitted contention, so
//! lane placement reflects measured co-residency instead of hand-set
//! defaults.

use crate::profiler::RuntimeProfile;
use korch_ir::PrimGraph;
use korch_orch::{kernel_classes, Plan, ResourceClass, StreamContention};
use std::collections::HashMap;

/// Accumulated pairwise-overlap evidence, mergeable across shards (each
/// shard has its own profile of the same plan; the fit wants all of it).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapEvidence {
    /// Σ overlap fractions of memory/memory cross-lane pairs.
    pub memory_overlap_sum: f64,
    /// Number of memory/memory cross-lane pairs observed.
    pub memory_pairs: u64,
    /// Σ overlap fractions of compute/compute cross-lane pairs.
    pub compute_overlap_sum: f64,
    /// Number of compute/compute cross-lane pairs observed.
    pub compute_pairs: u64,
    /// Σ co-run/solo mean-duration ratios of memory-class kernels
    /// observed both co-running and solo (the slowdown clamp's evidence).
    pub memory_slowdown_sum: f64,
    /// Number of memory-class kernels contributing a slowdown ratio.
    pub memory_slowdown_obs: u64,
    /// Σ co-run/solo mean-duration ratios of compute-class kernels.
    pub compute_slowdown_sum: f64,
    /// Number of compute-class kernels contributing a slowdown ratio.
    pub compute_slowdown_obs: u64,
}

impl OverlapEvidence {
    /// Collects evidence from every run recorded in `profile`'s interval
    /// window. `classes` maps kernel index → [`ResourceClass`], indexed
    /// like the plan (see [`korch_orch::kernel_classes`]).
    pub fn collect(profile: &RuntimeProfile, classes: &[ResourceClass]) -> Self {
        let mut ev = Self::default();
        // Slowdown buckets, per kernel: (co-run duration sum, co-run
        // samples, solo duration sum, solo samples). Whole-kernel
        // intervals only — a tile times a fraction of the kernel, so its
        // duration is not comparable to a solo whole-kernel sample.
        let mut buckets: HashMap<usize, (f64, u64, f64, u64)> = HashMap::new();
        for run in &profile.intervals {
            for (i, a) in run.iter().enumerate() {
                for b in &run[i + 1..] {
                    if a.lane == b.lane
                        || a.kernel == b.kernel
                        || classes[a.kernel] != classes[b.kernel]
                    {
                        continue;
                    }
                    let denom = a.duration_us().min(b.duration_us());
                    if denom <= 0.0 {
                        continue;
                    }
                    let fraction = (a.overlap_us(b) / denom).clamp(0.0, 1.0);
                    match classes[a.kernel] {
                        ResourceClass::Memory => {
                            ev.memory_overlap_sum += fraction;
                            ev.memory_pairs += 1;
                        }
                        ResourceClass::Compute => {
                            ev.compute_overlap_sum += fraction;
                            ev.compute_pairs += 1;
                        }
                    }
                }
            }
            for a in run {
                if a.tile.is_some() || a.duration_us() <= 0.0 {
                    continue;
                }
                let co_run = run.iter().any(|b| {
                    b.lane != a.lane
                        && b.kernel != a.kernel
                        && classes[b.kernel] == classes[a.kernel]
                        && a.overlap_us(b) > 0.0
                });
                let e = buckets.entry(a.kernel).or_insert((0.0, 0, 0.0, 0));
                if co_run {
                    e.0 += a.duration_us();
                    e.1 += 1;
                } else {
                    e.2 += a.duration_us();
                    e.3 += 1;
                }
            }
        }
        for (kernel, (co_sum, co_n, solo_sum, solo_n)) in buckets {
            if co_n == 0 || solo_n == 0 {
                continue;
            }
            let solo_mean = solo_sum / solo_n as f64;
            if solo_mean <= 0.0 {
                continue;
            }
            let ratio = (co_sum / co_n as f64) / solo_mean;
            match classes[kernel] {
                ResourceClass::Memory => {
                    ev.memory_slowdown_sum += ratio;
                    ev.memory_slowdown_obs += 1;
                }
                ResourceClass::Compute => {
                    ev.compute_slowdown_sum += ratio;
                    ev.compute_slowdown_obs += 1;
                }
            }
        }
        ev
    }

    /// Folds another shard's evidence into this one.
    pub fn merge(&mut self, other: &Self) {
        self.memory_overlap_sum += other.memory_overlap_sum;
        self.memory_pairs += other.memory_pairs;
        self.compute_overlap_sum += other.compute_overlap_sum;
        self.compute_pairs += other.compute_pairs;
        self.memory_slowdown_sum += other.memory_slowdown_sum;
        self.memory_slowdown_obs += other.memory_slowdown_obs;
        self.compute_slowdown_sum += other.compute_slowdown_sum;
        self.compute_slowdown_obs += other.compute_slowdown_obs;
    }

    /// Mean overlap fraction of memory/memory pairs (`None` without
    /// evidence).
    pub fn memory_overlap(&self) -> Option<f64> {
        (self.memory_pairs > 0).then(|| self.memory_overlap_sum / self.memory_pairs as f64)
    }

    /// Mean overlap fraction of compute/compute pairs (`None` without
    /// evidence).
    pub fn compute_overlap(&self) -> Option<f64> {
        (self.compute_pairs > 0).then(|| self.compute_overlap_sum / self.compute_pairs as f64)
    }

    /// Mean co-run/solo duration ratio of memory-class kernels (`None`
    /// without a kernel observed both ways).
    pub fn memory_slowdown(&self) -> Option<f64> {
        (self.memory_slowdown_obs > 0)
            .then(|| self.memory_slowdown_sum / self.memory_slowdown_obs as f64)
    }

    /// Mean co-run/solo duration ratio of compute-class kernels (`None`
    /// without a kernel observed both ways).
    pub fn compute_slowdown(&self) -> Option<f64> {
        (self.compute_slowdown_obs > 0)
            .then(|| self.compute_slowdown_sum / self.compute_slowdown_obs as f64)
    }

    /// Turns the evidence into sharing rates. Classes without evidence
    /// keep their `fallback` rate; returns `None` when *no* class has any
    /// (nothing measured, nothing to fit).
    pub fn fit(&self, fallback: &StreamContention) -> Option<ContentionFit> {
        if self.memory_pairs == 0 && self.compute_pairs == 0 {
            return None;
        }
        // The slowdown clamp (module docs): a class whose co-run bodies
        // dilated by a mean factor `s` fits a rate of at least `s − 1`
        // (capped at 1), however cleanly its intervals overlapped.
        // Expressed as a cap on the overlap fraction so
        // `StreamContention::from_overlap` stays the one rate formula.
        let capped = |overlap: Option<f64>, slowdown: Option<f64>| {
            overlap.map(|f| match slowdown {
                Some(s) => f.min(1.0 - (s - 1.0).clamp(0.0, 1.0)),
                None => f,
            })
        };
        Some(ContentionFit {
            contention: StreamContention::from_overlap(
                capped(self.memory_overlap(), self.memory_slowdown()),
                capped(self.compute_overlap(), self.compute_slowdown()),
                fallback,
            ),
            evidence: *self,
        })
    }
}

/// Outcome of one contention fit: the rates plus the evidence behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionFit {
    /// The fitted sharing rates (measured classes) / fallback rates
    /// (unmeasured classes).
    pub contention: StreamContention,
    /// The pairwise-overlap evidence the rates were fitted from.
    pub evidence: OverlapEvidence,
}

/// Fits [`StreamContention`] sharing rates for one plan from its
/// accumulated [`RuntimeProfile`]. Returns `None` when the profile holds
/// no cross-lane same-class pair (single-lane runs, single-kernel plans,
/// or profiling disabled) — callers should keep their current rates.
pub fn fit_contention(
    profile: &RuntimeProfile,
    g: &PrimGraph,
    plan: &Plan,
    fallback: &StreamContention,
) -> Option<ContentionFit> {
    OverlapEvidence::collect(profile, &kernel_classes(g, plan)).fit(fallback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::KernelInterval;

    fn profile_with(runs: Vec<Vec<KernelInterval>>, n: usize) -> RuntimeProfile {
        let mut p = RuntimeProfile::new(n);
        for run in runs {
            p.merge_run(run, 0, 0);
        }
        p
    }

    fn iv(kernel: usize, lane: usize, start_us: f64, end_us: f64) -> KernelInterval {
        KernelInterval {
            kernel,
            lane,
            start_us,
            end_us,
            tile: None,
        }
    }

    #[test]
    fn serial_intervals_fit_full_sharing() {
        let p = profile_with(vec![vec![iv(0, 0, 0.0, 10.0), iv(1, 1, 10.0, 20.0)]], 2);
        let ev = OverlapEvidence::collect(&p, &[ResourceClass::Memory, ResourceClass::Memory]);
        assert_eq!(ev.memory_pairs, 1);
        assert!(ev.memory_overlap().unwrap() < 1e-9);
        let fit = ev.fit(&StreamContention::default()).unwrap();
        assert!((fit.contention.memory_rate - 1.0).abs() < 1e-9);
        // No compute evidence: fallback rate survives.
        assert!((fit.contention.compute_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_intervals_fit_no_sharing() {
        let p = profile_with(vec![vec![iv(0, 0, 0.0, 10.0), iv(1, 1, 0.0, 10.0)]], 2);
        let fit = fit_like_memory(&p);
        assert!((fit.evidence.memory_overlap().unwrap() - 1.0).abs() < 1e-9);
        assert!(fit.contention.memory_rate < 1e-9);
    }

    fn fit_like_memory(p: &RuntimeProfile) -> ContentionFit {
        OverlapEvidence::collect(p, &[ResourceClass::Memory, ResourceClass::Memory])
            .fit(&StreamContention::default())
            .unwrap()
    }

    #[test]
    fn same_lane_and_cross_class_pairs_are_not_evidence() {
        let p = profile_with(
            vec![vec![
                iv(0, 0, 0.0, 10.0),
                iv(1, 0, 10.0, 20.0), // same lane as kernel 0
                iv(2, 1, 0.0, 10.0),  // compute, different class from 0
            ]],
            3,
        );
        let ev = OverlapEvidence::collect(
            &p,
            &[
                ResourceClass::Memory,
                ResourceClass::Memory,
                ResourceClass::Compute,
            ],
        );
        assert_eq!(ev.memory_pairs, 0);
        assert_eq!(ev.compute_pairs, 0);
        assert!(ev.fit(&StreamContention::default()).is_none());
    }

    /// Sibling tiles of one decomposed kernel fully overlap across lanes
    /// by design; they must contribute zero pairs — only the genuinely
    /// independent kernel pair counts.
    #[test]
    fn sibling_tiles_are_not_overlap_evidence() {
        let tile = |kernel, lane, t| KernelInterval {
            kernel,
            lane,
            start_us: 0.0,
            end_us: 10.0,
            tile: Some(t),
        };
        let p = profile_with(
            vec![vec![
                tile(0, 0, 0),
                tile(0, 1, 1),
                tile(0, 2, 2),
                iv(1, 3, 0.0, 10.0),
            ]],
            2,
        );
        let ev = OverlapEvidence::collect(&p, &[ResourceClass::Memory, ResourceClass::Memory]);
        // 3 tile×kernel-1 pairs, never tile×tile.
        assert_eq!(ev.memory_pairs, 3);
        assert!((ev.memory_overlap().unwrap() - 1.0).abs() < 1e-9);
    }

    /// Time-sliced "overlap": intervals co-reside perfectly but each
    /// body takes twice its solo duration. Pure wall-clock evidence
    /// would fit rate ≈ 0.5 here (one fully-overlapped run, one serial
    /// run); the slowdown clamp sees the 2× dilation and forces rate 1.
    #[test]
    fn dilated_corun_durations_clamp_the_rate_up() {
        let p = profile_with(
            vec![
                // Co-run: both kernels dilate to 20 µs.
                vec![iv(0, 0, 0.0, 20.0), iv(1, 1, 0.0, 20.0)],
                // Solo: the same kernels take 10 µs each.
                vec![iv(0, 0, 0.0, 10.0), iv(1, 1, 100.0, 110.0)],
            ],
            2,
        );
        let ev = OverlapEvidence::collect(&p, &[ResourceClass::Memory, ResourceClass::Memory]);
        assert_eq!(ev.memory_slowdown_obs, 2);
        assert!((ev.memory_slowdown().unwrap() - 2.0).abs() < 1e-9);
        // Overlap evidence alone: (1.0 + 0.0) / 2 = 0.5 → rate 0.5.
        assert!((ev.memory_overlap().unwrap() - 0.5).abs() < 1e-9);
        let fit = ev.fit(&StreamContention::default()).unwrap();
        assert!((fit.contention.memory_rate - 1.0).abs() < 1e-9);
    }

    /// Genuine parallelism: co-run durations equal solo durations, so the
    /// clamp is a no-op and the wall-clock fit stands.
    #[test]
    fn undilated_corun_durations_leave_the_rate_alone() {
        let p = profile_with(
            vec![
                vec![iv(0, 0, 0.0, 10.0), iv(1, 1, 0.0, 10.0)],
                vec![iv(0, 0, 0.0, 10.0), iv(1, 1, 100.0, 110.0)],
            ],
            2,
        );
        let ev = OverlapEvidence::collect(&p, &[ResourceClass::Memory, ResourceClass::Memory]);
        assert!((ev.memory_slowdown().unwrap() - 1.0).abs() < 1e-9);
        let fit = ev.fit(&StreamContention::default()).unwrap();
        // Mean overlap 0.5 → rate 0.5, untouched by the clamp.
        assert!((fit.contention.memory_rate - 0.5).abs() < 1e-9);
    }

    /// Tile intervals time fractions of a kernel; they must never land in
    /// the slowdown buckets (their durations are not comparable to a
    /// whole-kernel solo sample).
    #[test]
    fn tiles_contribute_no_slowdown_evidence() {
        let tile = |kernel, lane, t, s: f64, e: f64| KernelInterval {
            kernel,
            lane,
            start_us: s,
            end_us: e,
            tile: Some(t),
        };
        let p = profile_with(
            vec![
                vec![
                    tile(0, 0, 0, 0.0, 20.0),
                    tile(0, 1, 1, 0.0, 20.0),
                    iv(1, 2, 0.0, 20.0),
                ],
                vec![iv(1, 0, 100.0, 110.0)],
            ],
            2,
        );
        let ev = OverlapEvidence::collect(&p, &[ResourceClass::Memory, ResourceClass::Memory]);
        // Kernel 1 was co-run (with kernel 0's tiles) and solo, so it
        // contributes; kernel 0 only ever appears as tiles and does not.
        assert_eq!(ev.memory_slowdown_obs, 1);
        assert!((ev.memory_slowdown().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn evidence_merges_across_shards() {
        let a = OverlapEvidence {
            memory_overlap_sum: 1.0,
            memory_pairs: 1,
            ..Default::default()
        };
        let mut b = OverlapEvidence {
            memory_overlap_sum: 0.0,
            memory_pairs: 1,
            compute_overlap_sum: 0.5,
            compute_pairs: 1,
            ..Default::default()
        };
        b.merge(&a);
        assert_eq!(b.memory_pairs, 2);
        assert!((b.memory_overlap().unwrap() - 0.5).abs() < 1e-9);
        let fit = b.fit(&StreamContention::default()).unwrap();
        assert!((fit.contention.memory_rate - 0.5).abs() < 1e-9);
        assert!((fit.contention.compute_rate - 0.5).abs() < 1e-9);
    }
}
