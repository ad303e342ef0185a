//! Perf-record diff gate: compares a freshly generated `BENCH_runtime.json`
//! against the committed baseline and fails (exit 1) when the new record
//! drops a tracked entry, regresses a `speedup_vs_sequential` ratio, or —
//! for the microkernel headlines — regresses an absolute median.
//!
//! Two classes of comparison:
//!
//! * **Ratios** (`speedup_vs_sequential`) transfer across hosts: they
//!   compare one binary against its own sequential baseline in the same
//!   process. Enforced whenever the two records come from hosts with the
//!   same core count; downgraded to warnings otherwise (4 lanes on 1 core
//!   time-slice — the ratio is noise).
//! * **Absolute medians** (`median_ns`) do NOT transfer across hosts, but
//!   for the `microkernel/*` headlines they are the whole point — those
//!   benches isolate the register-blocked matmul and the compiled chain
//!   closure from every scheduling layer, so a ratio cannot catch a
//!   kernel-level regression. When `host_cores` match, the gate holds
//!   each microkernel median to `new <= old * (1 + tolerance)`; on
//!   mismatched hosts it warns instead.
//!
//! The `REQUIRED_HEADLINES` list is enforced against the *new* record
//! unconditionally: a rearranged suite may rename exploratory benches,
//! but the headline kernels this PR series tunes must never silently
//! drop out of the perf record.
//!
//! Usage: `bench_diff <baseline.json> <new.json>`. The tolerated
//! fractional drop defaults to 0.10 and can be overridden with the
//! `BENCH_DIFF_TOLERANCE` environment variable (e.g. `0.05`).

use korch_bench::report::read_bench_json;
use std::collections::HashMap;
use std::process::ExitCode;

/// Default largest tolerated drop: `new >= old * (1 - tol)` for ratios,
/// `new <= old * (1 + tol)` for absolute medians.
const DEFAULT_TOLERANCE: f64 = 0.10;

/// Entries that must be present in every new perf record, whatever the
/// baseline tracked. These are the cross-PR headline benches.
const REQUIRED_HEADLINES: &[&str] = &[
    "microkernel/matmul_gflops",
    "microkernel/matmul_n16_gflops",
    "microkernel/conv2d_gflops",
    "microkernel/conv_depthwise_gflops",
    "microkernel/conv_patch_embed_gflops",
    "microkernel/transpose_gbps",
    "microkernel/broadcast_gbps",
    "microkernel/ew_binary_gbps",
    "microkernel/exp_gbps",
    "microkernel/chain6_blocked",
    "tiled_single_kernel/sequential/matmul",
    "tiled_single_kernel/sequential/matmul_320",
    "tiled_single_kernel/compiled_whole/chain6",
];

/// Headline prefix whose absolute `median_ns` is gated (same-host only).
const MEDIAN_GATED_PREFIX: &str = "microkernel/";

fn tolerance() -> f64 {
    match std::env::var("BENCH_DIFF_TOLERANCE") {
        Ok(v) => match v.trim().parse::<f64>() {
            Ok(t) if t.is_finite() && (0.0..1.0).contains(&t) => t,
            _ => {
                eprintln!(
                    "bench_diff: ignoring BENCH_DIFF_TOLERANCE={v:?} (want a fraction in \
                     [0, 1)); using {DEFAULT_TOLERANCE}"
                );
                DEFAULT_TOLERANCE
            }
        },
        Err(_) => DEFAULT_TOLERANCE,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <baseline.json> <new.json>");
        return ExitCode::from(2);
    };
    let baseline = match read_bench_json(baseline_path.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_diff: cannot read baseline {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let fresh = match read_bench_json(new_path.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_diff: cannot read new record {new_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let tol = tolerance();
    let comparable = baseline.host_cores == fresh.host_cores;
    if !comparable {
        println!(
            "bench_diff: baseline host has {} cores, new host {} — ratios and absolute \
             medians are incomparable across core counts; checking entry presence only",
            baseline.host_cores, fresh.host_cores
        );
    }
    let fresh_map: HashMap<&str, (f64, Option<f64>)> = fresh
        .benches
        .iter()
        .map(|b| (b.name.as_str(), (b.median_ns, b.speedup_vs_sequential)))
        .collect();
    let mut failed = false;
    // Headline presence first: enforced against the new record even for
    // entries the (older) baseline never tracked.
    for name in REQUIRED_HEADLINES {
        if !fresh_map.contains_key(name) {
            eprintln!("MISSING   {name}: required headline absent from new record");
            failed = true;
        }
    }
    for b in &baseline.benches {
        let Some((new_median, new_speedup)) = fresh_map.get(b.name.as_str()) else {
            eprintln!(
                "MISSING   {}: tracked in baseline, absent from new record",
                b.name
            );
            failed = true;
            continue;
        };
        // Absolute-median floor for the microkernel headlines.
        if b.name.starts_with(MEDIAN_GATED_PREFIX) && b.median_ns > 0.0 && *new_median > 0.0 {
            let ok = *new_median <= b.median_ns * (1.0 + tol);
            if !comparable {
                println!(
                    "{:<9} {}: median {:.0} ns -> {:.0} ns (not enforced: host core \
                     counts differ)",
                    if ok { "ok" } else { "warn" },
                    b.name,
                    b.median_ns,
                    new_median
                );
            } else if ok {
                println!(
                    "ok        {}: {:.0} ns -> {:.0} ns (absolute, gated)",
                    b.name, b.median_ns, new_median
                );
            } else {
                eprintln!(
                    "REGRESSED {}: median {:.0} ns -> {:.0} ns (more than {:.0}% above \
                     baseline on a same-core-count host)",
                    b.name,
                    b.median_ns,
                    new_median,
                    tol * 100.0
                );
                failed = true;
            }
        }
        match (b.speedup_vs_sequential, new_speedup) {
            (Some(old), Some(new)) => {
                let ok = *new >= old * (1.0 - tol);
                if ok {
                    println!("ok        {}: {:.3}x -> {:.3}x", b.name, old, new);
                } else if comparable {
                    eprintln!(
                        "REGRESSED {}: {:.3}x -> {:.3}x (more than {:.0}% below baseline)",
                        b.name,
                        old,
                        new,
                        tol * 100.0
                    );
                    failed = true;
                } else {
                    println!(
                        "warn      {}: {:.3}x -> {:.3}x (not enforced: host core \
                         counts differ)",
                        b.name, old, new
                    );
                }
            }
            (Some(old), None) => {
                // A headline can legitimately turn sequential (no
                // speedup ratio) when the suite is rearranged; entry
                // presence is still enforced above, so note the
                // ratio's disappearance instead of failing.
                println!(
                    "skip      {}: baseline tracked {:.3}x, new record has no ratio \
                     (sequential headline) — not compared",
                    b.name, old
                );
            }
            (None, _) => {
                if !b.name.starts_with(MEDIAN_GATED_PREFIX) {
                    println!("ok        {}: present (no ratio tracked)", b.name);
                }
            }
        }
    }
    if failed {
        eprintln!(
            "bench_diff: FAILED — new record at {new_path} regresses the committed \
             baseline {baseline_path}"
        );
        ExitCode::from(1)
    } else {
        println!(
            "bench_diff: ok — {} baseline entries covered, tolerance {:.0}%",
            baseline.benches.len(),
            tol * 100.0
        );
        ExitCode::SUCCESS
    }
}
