//! Table 3 (beyond-paper extension): the §8 "tuning time acceleration"
//! study. A lightweight cost bound (`Profiler::quick_latency`) discards
//! candidate kernels *before* they are tuned whenever
//! `bound × margin ≥ singleton cover`. At margin 1.0 the filter is provably
//! sound (the bound lower-bounds every backend, so exact profiling would
//! reject the candidate too); larger margins trade optimality for tuning
//! time. The table sweeps the margin per evaluation model and reports the
//! identification-stage tuning clock and the end-to-end latency drift.

use korch_bench::report;
use korch_core::{Korch, KorchConfig};
use korch_cost::Device;
use korch_models::evaluation_suite;

const MARGINS: [f64; 3] = [1.0, 1.5, 2.5];

fn main() {
    println!("Table 3: quick-prune tuning-time study (paper §8 future work; V100 pipeline)\n");
    let widths = [14, 10, 13, 10, 12, 12];
    report::header(
        &[
            "Model",
            "margin",
            "profiling(h)",
            "saved",
            "pruned cand",
            "lat drift",
        ],
        &widths,
    );
    let mut worst_sound_drift = 0.0f64;
    for (name, graph) in evaluation_suite() {
        let base = Korch::new(Device::v100(), KorchConfig::default());
        let off = base.optimize(&graph).expect("pipeline (no pruning)");
        let (t_off, lat_off) = (off.stats().profile_tuning_s, off.latency_ms());
        report::row(
            &[
                name.to_string(),
                "off".into(),
                format!("{:.2}", t_off / 3600.0),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
            &widths,
        );
        for margin in MARGINS {
            let mut cfg = KorchConfig::default();
            cfg.orchestrator.identify.quick_prune = Some(margin);
            let on = Korch::new(Device::v100(), cfg)
                .optimize(&graph)
                .expect("pipeline");
            let t_on = on.stats().profile_tuning_s;
            let drift = (on.latency_ms() - lat_off) / lat_off;
            if margin == 1.0 {
                worst_sound_drift = worst_sound_drift.max(drift);
            }
            report::row(
                &[
                    String::new(),
                    format!("{margin:.1}"),
                    format!("{:.2}", t_on / 3600.0),
                    format!("{:.0}%", (1.0 - t_on / t_off.max(1e-9)) * 100.0),
                    on.stats().quick_pruned.to_string(),
                    format!("{:+.1}%", drift * 100.0),
                ],
                &widths,
            );
        }
    }
    println!(
        "\nAt margin 1.0 the filter is sound: worst observed latency drift {:.2}% \n\
         (must be ~0; any residual comes from B&B tie-breaking inside its 2% gap).\n\
         Larger margins discard more candidates untuned at bounded latency cost —\n\
         the lightweight-cost-model direction the paper sketches in §8.\n\
         Where the candidate cap binds (YOLOv4), pruning does not *save* clock:\n\
         it redirects the same tuning budget to candidates deeper in the\n\
         enumeration that the capped search never reached before — coverage,\n\
         not savings, is the win there.",
        worst_sound_drift * 100.0
    );
    assert!(
        worst_sound_drift < 0.021,
        "sound margin regressed the objective"
    );
}
