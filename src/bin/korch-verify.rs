//! `korch-verify`: the static verification gate for the test-model
//! corpus.
//!
//! Compiles every graph in the corpus (the five evaluation models at
//! `tiny()` scale plus the case-study subgraphs), then runs the static
//! plan verifier and arena-lifetime abstract interpreter over
//! every optimized partition **and** each model's stitched whole program
//! (the one artifact a `CompiledModel` executes) × lane count {1, 2, 4},
//! with the split threshold forced to zero so every tile partition these
//! plans can get is cut and checked (under the derived threshold's
//! overhead floor these small plans cut none). Finishes with the exhaustive
//! schedule-exploration suite over the scheduler's atomic protocol
//! models. Exits non-zero on any violation — or if the corpus yields no
//! tile layout at all, which would make the tiling checks vacuous — so CI
//! can gate on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use korch::core::{stitch, Korch, KorchConfig};
use korch::cost::Device;
use korch::ir::OpGraph;
use korch::models::{
    candy, efficientvit, segformer, subgraphs, yolov4, yolox_nano, CandyConfig, EfficientVitConfig,
    SegformerConfig, YoloConfig,
};
use korch::runtime::{PlanExecutor, RuntimeConfig};
use korch::verify::{models::verify_protocols, verify_executor};
use std::collections::BTreeSet;
use std::process::ExitCode;

/// Protocol models the exploration suite must cover: dep-counter release,
/// tile-assembly countdown, chase-lev-deque, park-unpark-epoch,
/// server-shutdown-handshake, admission-dispatch, run-handoff.
const PROTOCOL_MODELS: usize = 7;

fn corpus() -> Vec<(&'static str, OpGraph)> {
    vec![
        ("candy-tiny", candy(CandyConfig::tiny())),
        ("yolox-tiny", yolox_nano(YoloConfig::tiny())),
        ("yolov4-tiny", yolov4(YoloConfig::tiny())),
        ("segformer-tiny", segformer(SegformerConfig::tiny())),
        (
            "efficientvit-tiny",
            efficientvit(EfficientVitConfig::tiny()),
        ),
        ("softmax-attention", subgraphs::softmax_attention(64, 64)),
        (
            "segformer-attention",
            subgraphs::segformer_attention(64, 32, 2),
        ),
        (
            "efficientvit-attention",
            subgraphs::efficientvit_attention(64, 32),
        ),
        ("instance-norm", subgraphs::instance_norm_block(4, 16)),
    ]
}

fn main() -> ExitCode {
    let korch = Korch::new(Device::v100(), KorchConfig::default());
    let mut artifacts = 0usize;
    let mut stitched_artifacts = 0usize;
    let mut layouts = 0usize;
    let mut bad = 0usize;

    for (name, graph) in corpus() {
        let optimized = match korch.optimize(&graph) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("FAIL {name}: pipeline error: {e}");
                bad += 1;
                continue;
            }
        };
        // What the optimizer emits (one artifact per partition), then what
        // the runtime actually executes: the stitched whole program.
        let stitched = match stitch(&optimized) {
            Ok(program) => Some(program),
            Err(e) => {
                eprintln!("FAIL {name}: stitch error: {e}");
                bad += 1;
                None
            }
        };
        let partitions = optimized.partitions().iter().enumerate();
        let programs = partitions
            .map(|(pi, p)| (format!("partition {pi}"), &p.part.graph, &p.plan))
            .chain(
                stitched
                    .iter()
                    .map(|(g, p)| ("stitched program".into(), g, p)),
            );
        for (nth, (what, graph, plan)) in programs.enumerate() {
            let is_stitched = nth == optimized.partitions().len();
            for lanes in [1usize, 2, 4] {
                let config = RuntimeConfig {
                    split_threshold_us: Some(0.0),
                    profile: false,
                    ..RuntimeConfig::with_lanes(lanes)
                };
                let exec = match PlanExecutor::new(graph, plan, config) {
                    Ok(e) => e,
                    Err(e) => {
                        eprintln!("FAIL {name} {what} lanes {lanes}: compile error: {e}");
                        bad += 1;
                        continue;
                    }
                };
                artifacts += 1;
                stitched_artifacts += usize::from(is_stitched);
                layouts += exec.tileable_kernels();
                for v in verify_executor(&exec) {
                    eprintln!("FAIL {name} {what} lanes {lanes}: {v}");
                    bad += 1;
                }
            }
        }
    }
    println!(
        "plan verifier: {artifacts} artifacts checked ({stitched_artifacts} of them stitched \
         whole programs), {layouts} tile layouts among them"
    );
    if layouts == 0 {
        eprintln!("FAIL corpus compiled no tile layout: the tiling checks verified nothing");
        bad += 1;
    }

    match verify_protocols() {
        Ok(results) => {
            let states: usize = results.iter().map(|(_, s)| s.states).sum();
            let models: BTreeSet<&str> = results.iter().map(|(name, _)| *name).collect();
            println!(
                "exploration: {} instances of {} protocol models exhausted ({} states)",
                results.len(),
                models.len(),
                states
            );
            if models.len() < PROTOCOL_MODELS {
                eprintln!(
                    "FAIL exploration covered {} protocol models, expected {PROTOCOL_MODELS}: \
                     {models:?}",
                    models.len()
                );
                bad += 1;
            }
        }
        Err(e) => {
            eprintln!("FAIL exploration: {e}");
            bad += 1;
        }
    }

    if bad == 0 {
        println!("korch-verify: all checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("korch-verify: {bad} failure(s)");
        ExitCode::FAILURE
    }
}
