//! The self-tuning loop, locked down: auto-recalibration mid-serving must
//! never change computed bytes (differential vs the sequential
//! interpreter at 1/2/4 lanes), in-flight requests must complete on the
//! plan they started with during a swap, and drift is priced with the
//! calibration in force.
//!
//! Runs on the 1-core CI container: every assertion is structural
//! (bit-equality, counters, bounds), never wall-clock.

use korch::core::{CompiledModel, Korch, KorchConfig};
use korch::cost::{Device, Profiler};
use korch::runtime::{BatchConfig, RecalibrationPolicy, RuntimeConfig, SelfTune, Server};
use korch::tensor::Tensor;
use std::sync::Arc;

mod common;
use common::{assert_bit_identical, model_graph};

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
                .compile_with(&g, &RuntimeConfig::with_lanes(lanes))
                .unwrap(),
        );
        let server = Server::start_tuned(
            Arc::clone(&tuned),
            BatchConfig {
                shards: 4,
                recalibration: RecalibrationPolicy {
                    every_n_requests: 4,
                    // CPU wall times dwarf simulated GPU micros, so the
                    // uncalibrated drift is far above this: the trigger
                    // fires deterministically.
                    model_error_threshold: 0.05,
                },
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

/// `BatchConfig::default()` carries a live policy: a self-tuning server
/// started with it samples drift every 32 requests and recalibrates a
/// model whose drift exceeds 0.25.
#[test]
fn default_policy_recalibrates_a_drifting_model() {
    let g = model_graph();
    // Priced with a 1 ms launch, every kernel of this tiny model is
    // predicted far slower than any host runs it, and the fit leaves
    // launch overhead alone: the drift stays above the threshold at every
    // check, cold or warm, before and after a recalibration.
    let device = Device {
        launch_overhead_us: 1000.0,
        ..Device::v100()
    };
    let korch = Korch::new(device, KorchConfig::default());
    let model = Arc::new(
        korch
            .compile_with(&g, &RuntimeConfig::with_lanes(2))
            .unwrap(),
    );
    let inputs = vec![Tensor::random(vec![16, 32], 5)];
    let reference = model.execute(&inputs).unwrap();
    model.execute(&inputs).unwrap();
    let policy = RecalibrationPolicy::default();
    let drift = model.model_error().expect("drift after profiled runs");
    assert!(
        drift > policy.model_error_threshold,
        "warmed-up drift {drift} must exceed the default threshold"
    );
    let server = Server::start_tuned(Arc::clone(&model), BatchConfig::default());
    let requests = 2 * policy.every_n_requests;
    for _ in 0..requests / 8 {
        let handles: Vec<_> = (0..8).map(|_| server.submit(inputs.clone())).collect();
        for h in handles {
            let out = h.wait().expect("served response");
            assert_bit_identical(&reference, &out, "default policy");
        }
    }
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.errors), (requests, 0));
    let last = stats
        .last_model_error
        .expect("drift must have been sampled");
    assert!(
        last > policy.model_error_threshold,
        "the drift must hold by construction: {stats:?}"
    );
    assert!(
        stats.recalibrations >= 1,
        "the default policy must recalibrate a drifting model: {stats:?}"
    );
    assert_eq!(model.plan_generation(), stats.recalibrations);
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
    let report = compiled.recalibrate().unwrap();
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

/// A compiled model's `SelfTune` drift is its own drift under the
/// calibration in force, and it refuses to retune before it was profiled
/// without touching anything.
#[test]
fn self_tuning_model_contract() {
    let g = model_graph();
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let tuned = korch
        .compile_with(&g, &RuntimeConfig::with_lanes(2))
        .unwrap();
    assert!(tuned.model_error().is_none(), "no drift before any run");
    assert!(tuned.retune().is_err(), "retune needs a profiled run");
    let inputs = vec![Tensor::random(vec![16, 32], 1)];
    let reference = tuned.execute(&inputs).unwrap();
    tuned.execute(&inputs).unwrap();
    let drift = tuned.model_error().expect("drift after profiled runs");
    assert!(drift > 0.0);
    let report = tuned.recalibrate().expect("profiled model retunes");
    assert!(report.model_error_after <= report.model_error_before + 1e-9);
    // Post-retune drift is measured against the *applied* calibration, so
    // a freshly tuned model reports the residual fit error, not the raw
    // uncalibrated gap. Pinned on the profile itself — the fit came from
    // two cold runs and the drift below from one warm run, so comparing
    // their sizes is comparing the host's mood (a preempted kernel in the
    // fitted runs once made the "residual" 239 against a gap of 0.99).
    tuned.execute(&inputs).unwrap();
    let residual = tuned.model_error().expect("drift after retune");
    // The fit itself may be the default: `Calibration::fit` skips every
    // sample at or under the launch term, and on a fast host no kernel of
    // this model takes longer.
    let applied = tuned.applied_calibration();
    assert_eq!(
        applied, report.calibration,
        "the retune's fit must be the calibration in force"
    );
    let program = &tuned.partitions()[0].executor;
    let profile = program.profile();
    let under = |calibration| {
        let cost = Profiler::new(Device::v100()).with_calibration(calibration);
        profile.model_error(program.graph(), program.plan(), &cost)
    };
    assert_eq!(
        Some(residual),
        under(applied),
        "drift must be priced with the applied calibration (uncalibrated it is {:?})",
        under(korch::cost::Calibration::default())
    );
    let out = tuned.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "retune changed the function");
}

/// A model built straight from an optimizer result owns its pricing:
/// optimized for an A100 over several partitions, it reads its drift
/// against the A100 profiler — not a default device — and, served with
/// `Server::start_tuned`, recalibrates itself hands-free. Every
/// recalibration is one plan generation and every response stays
/// bit-identical to `Optimized::execute`.
#[test]
fn from_optimized_model_tunes_itself_against_its_own_device() {
    let g = model_graph();
    let config = KorchConfig {
        partition_max_prims: 5,
        ..Default::default()
    };
    let optimized = Korch::new(Device::a100(), config).optimize(&g).unwrap();
    assert!(optimized.partitions().len() >= 2, "want several partitions");
    let inputs = vec![Tensor::random(vec![16, 32], 6)];
    let reference = optimized.execute(&inputs).unwrap();
    let model =
        Arc::new(CompiledModel::from_optimized(&optimized, &RuntimeConfig::with_lanes(2)).unwrap());
    assert_eq!(model.model_error(), None, "no drift before any run");
    let out = model.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "first run");
    let drift = model.model_error();
    assert!(drift.is_some(), "drift after a profiled run");
    assert_eq!(
        drift,
        model.current_model_error(&Profiler::new(Device::a100()))
    );
    assert_ne!(
        drift,
        model.current_model_error(&Profiler::new(Device::v100())),
        "drift must be priced on the device the model was optimized for"
    );
    let server = Server::start_tuned(
        Arc::clone(&model),
        BatchConfig {
            shards: 2,
            recalibration: RecalibrationPolicy {
                every_n_requests: 4,
                // CPU wall times dwarf simulated GPU micros: the trigger
                // fires deterministically.
                model_error_threshold: 0.05,
            },
            ..Default::default()
        },
    );
    for wave in 0..8 {
        let handles: Vec<_> = (0..8).map(|_| server.submit(inputs.clone())).collect();
        for h in handles {
            let out = h.wait().expect("served response");
            assert_bit_identical(&reference, &out, &format!("wave {wave}"));
        }
    }
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.errors), (64, 0));
    assert!(
        stats.recalibrations >= 1,
        "drift above threshold must trigger a hands-free recalibration: {stats:?}"
    );
    assert_eq!(model.plan_generation(), stats.recalibrations);
    let out = model.execute(&inputs).unwrap();
    assert_bit_identical(&reference, &out, "after the last swap");
}
