//! The self-tuning loop, locked down: auto-recalibration mid-serving must
//! never change computed bytes (differential vs the sequential
//! interpreter at 1/2/4 lanes), in-flight requests must complete on the
//! plan they started with during a swap, and the contention fit must obey
//! its contract (rates in [0, 1], serial ↦ overlap ~0, parallel ↦ overlap
//! ~1, simulated makespan monotone in the rates).
//!
//! Runs on the 1-core CI container: every assertion is structural
//! (bit-equality, counters, bounds), never wall-clock.

use korch::core::{Korch, KorchConfig};
use korch::cost::Device;
use korch::orch::{kernel_classes, schedule_streams_with, ResourceClass, StreamContention};
use korch::runtime::{
    BatchConfig, KernelInterval, OverlapEvidence, RecalibrationPolicy, RuntimeConfig, SelfTune,
    Server,
};
use korch::tensor::Tensor;
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{assert_bit_identical, independent_plan, model_graph, profile_of_runs};

/// Drift-triggered auto-recalibration fires mid-serving and the served
/// bytes never change: every response (before, during and after the swap)
/// is bit-identical to the `Optimized` interpreter reference.
#[test]
fn auto_recalibration_is_bit_identical_mid_serving() {
    let g = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let optimized = korch.optimize(&g).unwrap();
    let inputs = vec![Tensor::random(vec![16, 32], 4)];
    let reference = optimized.execute(&inputs).unwrap();
    for lanes in [1usize, 2, 4] {
        let tuned = Arc::new(
            korch
                .compile_tuned(&g, &RuntimeConfig::with_lanes(lanes))
                .unwrap(),
        );
        let server = Server::start_tuned(
            Arc::clone(&tuned),
            BatchConfig {
                max_batch: 4,
                shards: 1,
                recalibration: Some(RecalibrationPolicy {
                    every_n_requests: 4,
                    // CPU wall times dwarf simulated GPU micros, so the
                    // uncalibrated drift is far above this: the trigger
                    // fires deterministically.
                    model_error_threshold: 0.05,
                }),
                ..Default::default()
            },
        );
        // Serve in waves so drift checks (one per four requests) interleave with
        // the background swap.
        for _ in 0..8 {
            let handles: Vec<_> = (0..8).map(|_| server.submit(inputs.clone())).collect();
            for h in handles {
                let out = h.wait().expect("served response");
                assert_bit_identical(
                    &reference,
                    &out,
                    &format!("lanes={lanes}: serving across recalibration"),
                );
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests, 64);
        assert_eq!(stats.errors, 0);
        assert!(
            stats.recalibrations >= 1,
            "lanes={lanes}: drift above threshold must trigger at least one \
             auto-recalibration, stats: {stats:?}"
        );
        let (mem, cmp) = stats
            .fitted_contention
            .expect("a completed recalibration must report fitted rates");
        assert!((0.0..=1.0).contains(&mem) && (0.0..=1.0).contains(&cmp));
        assert_eq!(
            stats.fitted_contention,
            Some((
                tuned.model().applied_contention().memory_rate,
                tuned.model().applied_contention().compute_rate
            )),
            "stats must report the rates the live plans actually use"
        );
        // The aggressive threshold guarantees the trigger; the *residual*
        // error after fitting is asserted against a realistic threshold in
        // examples/serving.rs. Here: drift must have been sampled and sane.
        let drift = stats
            .last_model_error
            .expect("drift must have been sampled");
        assert!(
            drift.is_finite() && drift >= 0.0,
            "bad drift sample {drift}"
        );
    }
}

/// A program snapshot taken before `recalibrate` keeps serving the old
/// plan, bit-identically — the atomic-swap contract in-flight requests
/// rely on.
#[test]
fn in_flight_snapshot_survives_the_swap() {
    let g = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let compiled = korch
        .compile_with(&g, &RuntimeConfig::with_lanes(2))
        .unwrap();
    let inputs = vec![Tensor::random(vec![16, 32], 9)];
    let reference = compiled.execute(&inputs).unwrap();
    // An in-flight request holds exactly this snapshot.
    let old_parts = compiled.partitions();
    assert_eq!(
        old_parts.len(),
        1,
        "a compiled model is one stitched program"
    );
    for _ in 0..3 {
        compiled.execute(&inputs).unwrap();
    }
    let report = korch.recalibrate(&compiled).unwrap();
    assert!(report.model_error_after <= report.model_error_before + 1e-9);
    // The old executor still runs, producing the old (identical) bytes...
    let old_out = old_parts[0].executor.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &old_out, "old plan after swap");
    // ...and the swapped-in plan computes the same function.
    let new_out = compiled.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &new_out, "new plan after swap");
    assert!(
        !Arc::ptr_eq(&old_parts[0].executor, &compiled.partitions()[0].executor),
        "recalibrate must swap the executor"
    );
}

/// `SelfTuningModel` surfaces drift exactly like the underlying model and
/// refuses to retune unprofiled models without touching them.
#[test]
fn self_tuning_model_contract() {
    let g = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let tuned = korch
        .compile_tuned(&g, &RuntimeConfig::with_lanes(2))
        .unwrap();
    assert!(tuned.model_error().is_none(), "no drift before any run");
    assert!(tuned.retune().is_err(), "retune needs a profiled run");
    let inputs = vec![Tensor::random(vec![16, 32], 1)];
    let reference = tuned.model().execute(&inputs).unwrap();
    tuned.model().execute(&inputs).unwrap();
    let drift = tuned.model_error().expect("drift after profiled runs");
    assert!(drift > 0.0);
    let outcome = tuned.retune().expect("profiled model retunes");
    assert!(outcome.model_error_after <= outcome.model_error_before + 1e-9);
    assert!((0.0..=1.0).contains(&outcome.memory_rate));
    assert!((0.0..=1.0).contains(&outcome.compute_rate));
    // Post-retune drift is measured against the *applied* calibration, so
    // a freshly tuned model reports the residual fit error, not the raw
    // uncalibrated gap. Pinned on the profile itself — the fit came from
    // two cold runs and the drift below from one warm run, so comparing
    // their sizes is comparing the host's mood (a preempted kernel in the
    // fitted runs once made the "residual" 239 against a gap of 0.99).
    tuned.model().execute(&inputs).unwrap();
    let residual = tuned.model_error().expect("drift after retune");
    let applied = tuned.model().applied_calibration();
    assert_ne!(
        applied,
        korch::cost::Calibration::default(),
        "the retune's fit must be the calibration in force"
    );
    let program = &tuned.model().partitions()[0].executor;
    let profiles = tuned.model().profiles();
    let profile = korch::runtime::RuntimeProfile::merged(&profiles.iter().collect::<Vec<_>>());
    let under = |calibration| {
        let cost = korch::cost::Profiler::new(Device::v100()).with_calibration(calibration);
        profile.model_error(program.graph(), program.plan(), &cost)
    };
    assert_eq!(
        residual,
        under(applied),
        "drift must be priced with the applied calibration (uncalibrated it is {})",
        under(korch::cost::Calibration::default())
    );
    let out = tuned.model().execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "retune changed the function");
}

// ---------------------------------------------------------------------------
// Contention-fit properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary interval sets: fitted rates always land in [0, 1], with
    /// or without evidence for each class.
    #[test]
    fn fitted_rates_always_in_unit_range(
        spans in prop::collection::vec(
            (0usize..4, 0.0f64..100.0, 0.0f64..100.0, 0u8..2),
            1..12,
        )
    ) {
        let intervals: Vec<KernelInterval> = spans
            .iter()
            .enumerate()
            .map(|(i, &(lane, a, b, _))| KernelInterval {
                kernel: i,
                lane,
                start_us: a.min(b),
                end_us: a.max(b),
                tile: None,
            })
            .collect();
        let classes: Vec<ResourceClass> = spans
            .iter()
            .map(|&(_, _, _, c)| if c == 0 { ResourceClass::Memory } else { ResourceClass::Compute })
            .collect();
        let profile = profile_of_runs(vec![intervals], spans.len());
        let ev = OverlapEvidence::collect(&profile, &classes);
        if let Some(fit) = ev.fit(&StreamContention::default()) {
            prop_assert!((0.0..=1.0).contains(&fit.contention.memory_rate));
            prop_assert!((0.0..=1.0).contains(&fit.contention.compute_rate));
            for overlap in [ev.memory_overlap(), ev.compute_overlap()].into_iter().flatten() {
                prop_assert!((0.0..=1.0).contains(&overlap));
            }
        }
    }

    /// Fully serial cross-lane interval sets measure ~0 overlap and fit
    /// full sharing; fully parallel sets measure ~1 and fit no sharing.
    #[test]
    fn serial_fits_one_parallel_fits_zero(n in 2usize..8, dur in 1.0f64..50.0) {
        // Serial: lane i runs [i*dur, (i+1)*dur) back to back.
        let serial: Vec<KernelInterval> = (0..n)
            .map(|i| KernelInterval {
                kernel: i,
                lane: i,
                start_us: i as f64 * dur,
                end_us: (i + 1) as f64 * dur,
                tile: None,
            })
            .collect();
        let classes = vec![ResourceClass::Memory; n];
        let profile = profile_of_runs(vec![serial], n);
        let ev = OverlapEvidence::collect(&profile, &classes);
        prop_assert!(ev.memory_overlap().unwrap() < 1e-9, "serial sets measure ~0 overlap");
        let fit = ev.fit(&StreamContention::default()).unwrap();
        prop_assert!((fit.contention.memory_rate - 1.0).abs() < 1e-9);

        // Parallel: every lane runs [0, dur) simultaneously.
        let parallel: Vec<KernelInterval> = (0..n)
            .map(|i| KernelInterval {
                kernel: i,
                lane: i,
                start_us: 0.0,
                end_us: dur,
                tile: None,
            })
            .collect();
        let profile = profile_of_runs(vec![parallel], n);
        let ev = OverlapEvidence::collect(&profile, &classes);
        prop_assert!((ev.memory_overlap().unwrap() - 1.0).abs() < 1e-9,
            "parallel sets measure ~1 overlap");
        let fit = ev.fit(&StreamContention::default()).unwrap();
        prop_assert!(fit.contention.memory_rate < 1e-9);
    }

    /// With enough streams for every kernel, `schedule_streams_with`'s
    /// makespan is monotone non-decreasing in the sharing rates — so a
    /// fit that moves rates toward 0 can only promise a faster simulated
    /// schedule, never mask a slower one.
    #[test]
    fn makespan_is_monotone_in_fitted_rates(
        branches in 2usize..6,
        lo in 0.0f64..1.0,
        hi in 0.0f64..1.0,
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let (g, plan) = independent_plan(branches);
        let device = Device::v100();
        let streams = branches;
        let low = schedule_streams_with(&g, &plan, streams, &device,
            &StreamContention { memory_rate: lo, compute_rate: lo });
        let high = schedule_streams_with(&g, &plan, streams, &device,
            &StreamContention { memory_rate: hi, compute_rate: hi });
        prop_assert!(
            low.makespan.0 <= high.makespan.0 + 1e-6,
            "lower sharing rates must not slow the simulated schedule: \
             rate {} -> {} µs vs rate {} -> {} µs",
            lo, low.makespan.0, hi, high.makespan.0
        );
    }
}

/// The measured-overlap path end to end on a real executor: multi-lane
/// runs record intervals off one clock origin, every interval is sane,
/// and the fit (when cross-lane pairs exist) lands in range.
#[test]
fn executor_intervals_share_one_origin_and_fit() {
    let (g, plan) = independent_plan(6);
    let exec = korch::runtime::PlanExecutor::new(&g, &plan, RuntimeConfig::with_lanes(3)).unwrap();
    let inputs: Vec<Tensor> = (0..6).map(|i| Tensor::random(vec![64, 64], i)).collect();
    for _ in 0..4 {
        exec.execute(&inputs).unwrap();
    }
    let profile = exec.profile();
    assert_eq!(profile.runs, 4);
    assert_eq!(profile.intervals.len(), 4, "one interval set per run");
    for run in &profile.intervals {
        assert_eq!(run.len(), plan.kernel_count());
        let mut seen: Vec<usize> = run.iter().map(|iv| iv.kernel).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..plan.kernel_count()).collect::<Vec<_>>());
        for iv in run {
            // One shared origin per run: every offset is non-negative and
            // bounded by the run's wall time (generous slack for merging).
            assert!(
                iv.start_us >= 0.0 && iv.end_us >= iv.start_us,
                "bad interval {iv:?}"
            );
            assert!(iv.lane < 3);
        }
    }
    let classes = kernel_classes(&g, &plan);
    let ev = OverlapEvidence::collect(&profile, &classes);
    if let Some(fit) = ev.fit(&StreamContention::default()) {
        assert!((0.0..=1.0).contains(&fit.contention.memory_rate));
        assert!((0.0..=1.0).contains(&fit.contention.compute_rate));
    }
}
