//! The untraced run: set-up repeated and timed, the correctness gate, then
//! the timed windows the end-to-end metrics come from.

use crate::metrics::Measured;
use crate::stats::{iqr, median, quiet_low, summarise, Summary, Window};
use crate::trace::Tracer;
use crate::workload::{closed_loop, Kind, Params, Pool, Rig, Scenario, Tally, PAR_LANES};
use crate::yardstick;
use korch::runtime::RuntimeConfig;
use std::time::Instant;

/// Generates every model's input pool and references. This is the
/// benchmark's own preparation, not the system's set-up, and is not timed.
pub fn pools(scenario: &Scenario, params: &Params) -> Result<Vec<Pool>, String> {
    scenario
        .models
        .iter()
        .zip(0u64..)
        .map(|(&(_, build), i)| {
            Pool::generate(
                &build(),
                params.seed.wrapping_add(i << 32),
                params.pool_sets,
            )
        })
        .collect()
}

/// Times whole passes of `compile_with` over the workload's models until
/// the next pass would overrun `seconds`; a pass is one window holding one
/// operation. Passes are counted, not assumed equal: the BLP's work
/// differs from pass to pass on identical input.
fn compile_passes(
    rig: &Rig,
    pools: &[Pool],
    params: &Params,
    tally: &mut Tally,
    yardsticks: &mut Vec<f64>,
) -> Vec<Window> {
    let runtime = RuntimeConfig::with_lanes(PAR_LANES);
    let mut passes = Vec::new();
    let start = Instant::now();
    let mut longest_pass = 0f64;
    while passes.is_empty() || start.elapsed().as_secs_f64() + longest_pass <= params.seconds {
        let pass = Instant::now();
        yardsticks.push(yardstick::reading_ms());
        let mut compile_ms = 0.0;
        for (m, pool) in rig.models.iter().zip(pools) {
            let began = Instant::now();
            let compiled = rig.korch.compile_with(&m.graph, &runtime);
            compile_ms += began.elapsed().as_secs_f64() * 1e3;
            // Outside the timer: the freshly compiled model answers right.
            let set = passes.len() % pool.sets();
            let got = compiled
                .map_err(|e| e.to_string())
                .and_then(|c| c.execute(&pool.inputs[set]).map_err(|e| e.to_string()));
            tally.check(&got, &pool.refs[set]);
        }
        passes.push(Window::single(compile_ms));
        longest_pass = longest_pass.max(pass.elapsed().as_secs_f64());
    }
    passes
}

/// Back-to-back windows of the workload's request for `seconds`; the first
/// window is dropped.
fn request_windows(
    rig: &Rig,
    kind: Kind,
    pool: &Pool,
    params: &Params,
    tally: &mut Tally,
    yardsticks: &mut Vec<f64>,
) -> Vec<Window> {
    let run = rig.run_model();
    let count = ((params.seconds / params.window.as_secs_f64()) as usize).max(2);
    let mut windows = Vec::with_capacity(count);
    for i in 0..count {
        yardsticks.push(yardstick::reading_ms());
        let (window, t) = match kind {
            Kind::Execute => closed_loop(params.window, 1, pool, i, &|_, x| {
                run.seq.execute(x).map_err(|e| e.to_string())
            }),
            _ => closed_loop(params.window, params.callers, pool, i, &|_, x| {
                rig.server.infer(x.to_vec()).map_err(|e| e.to_string())
            }),
        };
        tally.merge(t);
        if i > 0 {
            windows.push(window);
        }
    }
    windows
}

/// What the untraced run found.
pub struct EndToEnd {
    pub metrics: Vec<Measured>,
    pub tally: Tally,
    /// The timed windows as measured, before any scaling.
    pub op: Summary,
    /// How much slower than nominal the host ran, by the yardstick: during
    /// the set-ups, and in the quiet decile of the timed windows.
    pub slowdown: [f64; 2],
}

pub fn end_to_end(scenario: &Scenario, params: &Params) -> Result<EndToEnd, String> {
    let pools = pools(scenario, params)?;
    let tracer = Tracer::new();
    let mut setups = Vec::with_capacity(params.setup_reps);
    let mut rig = None;
    // A reading before, between and after the set-ups; the best one is the
    // host's speed while they ran.
    let mut setup_yardstick = yardstick::reading_ms();
    for _ in 0..params.setup_reps.max(1) {
        drop(rig.take());
        let began = Instant::now();
        rig = Some(Rig::build(scenario, &pools, &tracer, None, false)?);
        setups.push(began.elapsed().as_secs_f64());
        setup_yardstick = setup_yardstick.min(yardstick::reading_ms());
    }
    let rig = rig.expect("at least one set-up ran");

    let mut tally = Tally::default();
    rig.gate(&pools, &mut tally);
    let mut yardsticks = Vec::new();
    let windows = match scenario.kind {
        Kind::Compile => compile_passes(&rig, &pools, params, &mut tally, &mut yardsticks),
        kind => {
            let pool = pools.last().expect("Rig::build checked there is a model");
            request_windows(&rig, kind, pool, params, &mut tally, &mut yardsticks)
        }
    };
    let op = summarise(&windows).ok_or("no operation completed in any window")?;
    // The windows' quiet decile against the yardstick's: both are the run
    // at its least disturbed, so their ratio is the program's.
    let slowdown = [
        setup_yardstick / yardstick::NOMINAL_MS,
        quiet_low(&yardsticks).expect("a reading precedes every window") / yardstick::NOMINAL_MS,
    ];
    let measured = |name: &str, value: f64, iqr: Option<f64>| {
        let spec = crate::metrics::spec(name).expect("the names below are in END_TO_END");
        spec.measured(value, iqr)
    };
    let metrics = vec![
        measured(
            "setup_s",
            median(&setups).expect("at least one set-up ran") / slowdown[0],
            Some(iqr(&setups) / slowdown[0]),
        ),
        measured(
            "op_ms_p50",
            op.p50_ms / slowdown[1],
            Some(op.p50_iqr_ms / slowdown[1]),
        ),
        measured("ops_per_s", op.per_s * slowdown[1], None),
    ];
    Ok(EndToEnd {
        metrics,
        tally,
        op,
        slowdown,
    })
}
