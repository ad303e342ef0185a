//! The four workloads: which models they compile, how the system under
//! test is set up for them, the pre-generated inputs with their reference
//! outputs, and the closed-loop caller every timed window uses.

use crate::stats::Window;
use crate::trace::{SpanId, Tracer};
use korch::core::{CompiledModel, Korch, KorchConfig, Optimized};
use korch::cost::Device;
use korch::exec::{execute_ops, ExecError};
use korch::ir::{OpGraph, OpKind};
use korch::models::{candy, segformer, subgraphs, CandyConfig, SegformerConfig};
use korch::runtime::{BatchConfig, Model, RuntimeConfig, Server, ShardControl, ShardStats};
use korch::tensor::Tensor;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Lanes of the parallel configuration: what `Korch::compile` gives on the
/// 2-core host the workloads were sized on. Requests are timed on the other
/// configuration, 1 lane, the executor's inline sequential path: at 2 lanes
/// every `PlanExecutor::execute` wakes a thread on the other core, and on a
/// shared 2-vCPU host those wake-ups added 0.3 to 1.9 ms to a 1.0 ms request
/// from one run to the next of the same binary. The traced run reports the 2-lane
/// numbers, ungated.
pub const PAR_LANES: usize = 2;

/// An output differs from the reference when any element is further off.
pub const TOLERANCE: f32 = 1e-4;

/// What a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One pass of `Korch::compile_with` over every model of the workload.
    Compile,
    /// `CompiledModel::execute`, one caller, on the model compiled at
    /// 1 lane.
    Execute,
    /// `Server::infer`, closed loop, all callers.
    Serve,
}

/// `(short name, builder)` of a model.
pub type ModelSpec = (&'static str, fn() -> OpGraph);

/// A workload: named models and what is timed on them.
pub struct Scenario {
    pub name: &'static str,
    pub kind: Kind,
    /// Requests run on the last one.
    pub models: Vec<ModelSpec>,
}

fn segformer64() -> OpGraph {
    segformer(SegformerConfig {
        resolution: 64,
        batch: 1,
        dims: vec![16, 32],
        blocks: 1,
        sr_ratios: vec![2, 1],
        decoder_dim: 32,
    })
}

fn segformer32() -> OpGraph {
    segformer(SegformerConfig::tiny())
}

impl Scenario {
    pub fn named(name: &str) -> Option<Self> {
        let (kind, models): (Kind, Vec<ModelSpec>) = match name {
            "compile_suite" => (
                Kind::Compile,
                vec![
                    ("candy32", || {
                        candy(CandyConfig {
                            resolution: 32,
                            width: 8,
                            residual_blocks: 0,
                        })
                    }),
                    ("effvit64", || subgraphs::efficientvit_attention(64, 16)),
                ],
            ),
            "exec_compute" => (Kind::Execute, vec![("segformer64", segformer64)]),
            "exec_dispatch" => (Kind::Execute, vec![("segformer32", segformer32)]),
            "serve_closed" => (Kind::Serve, vec![("segformer32", segformer32)]),
            _ => return None,
        };
        let name = crate::metrics::WORKLOADS.iter().find(|w| w.0 == name)?.0;
        Some(Self { name, kind, models })
    }

    /// The same code paths on a graph that compiles in milliseconds, for
    /// the unit tests.
    #[cfg(test)]
    pub fn smoke(kind: Kind) -> Self {
        let attn: ModelSpec = ("softattn32", || subgraphs::softmax_attention(32, 16));
        Self {
            name: "smoke",
            kind,
            models: vec![attn],
        }
    }
}

/// How long and how wide a run is.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Seconds of measurement, after set-up.
    pub seconds: f64,
    /// Length of one timed window.
    pub window: Duration,
    /// Closed-loop callers of the server; never more than the host's cores.
    pub callers: usize,
    /// Times the whole set-up is repeated; `setup_s` is their median.
    pub setup_reps: usize,
    /// Input sets generated per model.
    pub pool_sets: usize,
}

/// Pre-generated input sets of one model and what the independent
/// `execute_ops` interpreter makes of each.
pub struct Pool {
    pub inputs: Vec<Vec<Tensor>>,
    pub refs: Vec<Vec<Tensor>>,
}

impl Pool {
    pub fn generate(graph: &OpGraph, seed: u64, sets: usize) -> Result<Self, String> {
        let shapes: Vec<Vec<usize>> = graph
            .nodes()
            .iter()
            .filter_map(|n| match &n.kind {
                OpKind::Input { shape } => Some(shape.clone()),
                _ => None,
            })
            .collect();
        let inputs: Vec<Vec<Tensor>> = (0..sets as u64)
            .map(|set| {
                shapes
                    .iter()
                    .zip(0u64..)
                    .map(|(shape, i)| {
                        let stream = seed.wrapping_mul(1_000_003).wrapping_add(set * 64 + i);
                        Tensor::random(shape.clone(), stream)
                    })
                    .collect()
            })
            .collect();
        let refs = inputs
            .iter()
            .map(|set| execute_ops(graph, set).map_err(|e| format!("reference run: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Self { inputs, refs })
    }

    pub fn sets(&self) -> usize {
        self.inputs.len()
    }
}

/// Operations attempted, operations that errored or answered wrongly, and
/// the largest deviation from the reference seen.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub max_abs_err: f32,
}

impl Tally {
    /// Counts one operation: failed when it errored, returned another
    /// number of outputs, another shape, or a value off by more than
    /// [`TOLERANCE`].
    pub fn check<E>(&mut self, got: &Result<Vec<Tensor>, E>, refs: &[Tensor]) {
        self.attempted += 1;
        let worst = match got {
            Ok(outs) if outs.len() == refs.len() => outs
                .iter()
                .zip(refs)
                .map(|(a, b)| a.max_abs_diff(b).ok())
                .try_fold(0f32, |acc, d| Some(acc.max(d?))),
            _ => None,
        };
        match worst {
            Some(err) if err <= TOLERANCE => self.max_abs_err = self.max_abs_err.max(err),
            Some(err) => {
                self.max_abs_err = self.max_abs_err.max(err);
                self.failed += 1;
            }
            None => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.max_abs_err = self.max_abs_err.max(other.max_abs_err);
    }
}

/// When the server handed a request to the model and when the model was
/// done with it, µs on the tracer's clock.
pub type Stamp = (f64, f64);

struct Stamps {
    origin: Instant,
    /// Pool set by the bits of its first input's first element: the shim
    /// sees tensors, not request ids.
    set_of: HashMap<u32, usize>,
    last: Vec<Mutex<Option<Stamp>>>,
}

/// The model the server serves: the compiled model behind a shim that, in
/// the traced run, stamps entry and exit of every request. A closed-loop
/// caller owns the pool sets it sends, so the stamp it finds under its set
/// after `infer` returns is its own request's.
pub struct Shim {
    model: CompiledModel,
    stamps: Option<Stamps>,
}

impl Shim {
    fn new(model: CompiledModel, pool: &Pool, clock: Option<&Tracer>) -> Self {
        let stamps = clock.map(|t| Stamps {
            origin: t.origin(),
            set_of: pool
                .inputs
                .iter()
                .enumerate()
                .filter_map(|(i, set)| Some((set.first()?.as_slice().first()?.to_bits(), i)))
                .collect(),
            last: pool.inputs.iter().map(|_| Mutex::new(None)).collect(),
        });
        Self { model, stamps }
    }

    /// Takes the stamp of the last request that carried pool set `set`.
    pub fn take(&self, set: usize) -> Option<Stamp> {
        let slot = self.stamps.as_ref()?.last.get(set)?;
        slot.lock().expect("stamp slot poisoned").take()
    }

    pub fn model(&self) -> &CompiledModel {
        &self.model
    }
}

impl Model for Shim {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        let Some(stamps) = &self.stamps else {
            return self.model.execute(inputs);
        };
        let entry = stamps.origin.elapsed().as_secs_f64() * 1e6;
        let out = self.model.execute(inputs);
        let exit = stamps.origin.elapsed().as_secs_f64() * 1e6;
        let set = inputs
            .first()
            .and_then(|t| t.as_slice().first())
            .and_then(|v| stamps.set_of.get(&v.to_bits()));
        if let Some(&set) = set {
            *stamps.last[set].lock().expect("stamp slot poisoned") = Some((entry, exit));
        }
        out
    }
}

impl ShardControl for Shim {
    fn set_shards(&self, n: usize) -> Result<(), ExecError> {
        self.model.set_shards(n)
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.model.shard_stats()
    }
}

/// One model, compiled every way the benchmark runs it.
pub struct Compiled {
    pub graph: OpGraph,
    pub optimized: Optimized,
    /// At [`PAR_LANES`] lanes.
    pub par: CompiledModel,
    /// At 1 lane.
    pub seq: CompiledModel,
}

/// The batching policy of every server the benchmark starts.
pub fn batch_config() -> BatchConfig {
    BatchConfig {
        max_batch: 8,
        max_wait: Duration::from_millis(1),
        shards: 2,
        ..BatchConfig::default()
    }
}

/// The system under test, set up: every model of the workload compiled,
/// and a sharded server over the last one.
pub struct Rig {
    pub korch: Korch,
    pub models: Vec<Compiled>,
    pub served: Arc<Shim>,
    pub server: Server,
}

impl Rig {
    /// Graph build, compile, executor and server start, warm-up: what
    /// `setup_s` times. Each call into a crate gets a span under `parent`.
    /// `stamp_requests` turns the server-side shim's stamping on.
    pub fn build(
        scenario: &Scenario,
        pools: &[Pool],
        tracer: &Tracer,
        parent: Option<SpanId>,
        stamp_requests: bool,
    ) -> Result<Self, String> {
        let korch = Korch::new(Device::v100(), KorchConfig::default());
        let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
        let mut models = Vec::with_capacity(scenario.models.len());
        for &(_, build) in &scenario.models {
            let graph = tracer.scope("models.build", parent, None, |_| build());
            let optimized = tracer
                .scope("core.optimize", parent, None, |_| korch.optimize(&graph))
                .map_err(|e| fail("optimize", &e))?;
            let compile = |lanes: usize| {
                tracer
                    .scope("runtime.build", parent, None, |_| {
                        CompiledModel::from_optimized(&optimized, &RuntimeConfig::with_lanes(lanes))
                    })
                    .map_err(|e| fail("compile onto the runtime", &e))
            };
            let (par, seq) = (compile(PAR_LANES)?, compile(1)?);
            models.push(Compiled {
                graph,
                optimized,
                par,
                seq,
            });
        }
        let (run, pool) = models
            .last()
            .zip(pools.last())
            .ok_or("a workload needs a model")?;
        // The server gets a model of its own: sharding it must not change
        // the 1-lane model the direct calls run.
        let served = tracer
            .scope("runtime.build", parent, None, |_| {
                CompiledModel::from_optimized(&run.optimized, &RuntimeConfig::with_lanes(1))
            })
            .map_err(|e| fail("compile onto the runtime", &e))?;
        let served = Arc::new(Shim::new(served, pool, stamp_requests.then_some(tracer)));
        let server = tracer
            .scope("serving.start", parent, None, |_| {
                Server::start_sharded(Arc::clone(&served), batch_config())
            })
            .map_err(|e| fail("server start", &e))?;
        tracer.scope("warmup", parent, None, |_| -> Result<(), String> {
            for (m, pool) in models.iter().zip(pools) {
                for set in pool.inputs.iter().take(3) {
                    m.par.execute(set).map_err(|e| fail("warm-up", &e))?;
                    m.seq.execute(set).map_err(|e| fail("warm-up", &e))?;
                }
            }
            for set in pool.inputs.iter().take(3) {
                server.infer(set.clone()).map_err(|e| fail("warm-up", &e))?;
            }
            Ok(())
        })?;
        Ok(Self {
            korch,
            models,
            served,
            server,
        })
    }

    /// The model requests run on.
    pub fn run_model(&self) -> &Compiled {
        self.models
            .last()
            .expect("Rig::build refuses a workload without models")
    }

    /// Compares, for every model and every pooled input set, both compiled
    /// forms with the reference.
    pub fn gate(&self, pools: &[Pool], tally: &mut Tally) {
        for (m, pool) in self.models.iter().zip(pools) {
            for (set, refs) in pool.inputs.iter().zip(&pool.refs) {
                tally.check(&m.par.execute(set), refs);
                tally.check(&m.seq.execute(set), refs);
            }
        }
    }
}

/// How a caller gets one request answered: `(pool set, its inputs)` to
/// outputs.
pub type Request<'a> = dyn Fn(usize, &[Tensor]) -> Result<Vec<Tensor>, String> + Sync + 'a;

/// One timed window of a closed loop: `callers` threads each send their
/// next request as soon as the previous one answered, until `window` has
/// passed. Caller `c` sends pool sets `first_set + c`, `+ callers`, … so
/// no two callers ever have the same set in flight. Every answer is
/// compared with its reference after its latency is taken.
pub fn closed_loop(
    window: Duration,
    callers: usize,
    pool: &Pool,
    first_set: usize,
    op: &Request,
) -> (Window, Tally) {
    let start = Instant::now();
    let deadline = start + window;
    let caller = |c: usize| {
        let mut latencies_ms = Vec::new();
        let mut tally = Tally::default();
        let mut set = (first_set + c) % pool.sets();
        while Instant::now() < deadline {
            let sent = Instant::now();
            let got = op(set, &pool.inputs[set]);
            latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            tally.check(&got, &pool.refs[set]);
            set = (set + callers) % pool.sets();
        }
        (latencies_ms, tally)
    };
    let per_caller: Vec<(Vec<f64>, Tally)> = if callers == 1 {
        vec![caller(0)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..callers).map(|c| s.spawn(move || caller(c))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a caller thread panicked"))
                .collect()
        })
    };
    let secs = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut latencies_ms = Vec::new();
    for (l, t) in per_caller {
        latencies_ms.extend(l);
        tally.merge(t);
    }
    (Window { latencies_ms, secs }, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_errors_and_wrong_answers() {
        let refs = vec![Tensor::full(vec![2], 1.0)];
        let mut t = Tally::default();
        t.check(
            &Ok::<_, String>(vec![Tensor::full(vec![2], 1.00005)]),
            &refs,
        );
        assert_eq!((t.attempted, t.failed), (1, 0));
        assert!(t.max_abs_err > 0.0 && t.max_abs_err <= TOLERANCE);
        t.check(&Ok::<_, String>(vec![Tensor::full(vec![2], 1.01)]), &refs);
        t.check(&Ok::<_, String>(vec![Tensor::full(vec![3], 1.0)]), &refs);
        t.check(&Ok::<_, String>(vec![]), &refs);
        t.check(&Err("refused".to_string()), &refs);
        assert_eq!((t.attempted, t.failed), (5, 4));
        let mut sum = Tally::default();
        sum.merge(t);
        sum.merge(t);
        assert_eq!((sum.attempted, sum.failed), (10, 8));
    }

    #[test]
    fn pools_repeat_for_a_seed_and_differ_between_seeds() {
        let g = subgraphs::softmax_attention(32, 16);
        let a = Pool::generate(&g, 3, 4).unwrap();
        let b = Pool::generate(&g, 3, 4).unwrap();
        let c = Pool::generate(&g, 4, 4).unwrap();
        assert_eq!(a.sets(), 4);
        assert_eq!(a.inputs[2][0].as_slice(), b.inputs[2][0].as_slice());
        assert_ne!(a.inputs[2][0].as_slice(), c.inputs[2][0].as_slice());
        assert_ne!(a.inputs[0][0].as_slice(), a.inputs[1][0].as_slice());
        assert_eq!(a.refs.len(), 4);
    }

    #[test]
    fn closed_loop_keeps_callers_on_their_own_sets() {
        let g = subgraphs::softmax_attention(32, 16);
        let pool = Pool::generate(&g, 1, 4).unwrap();
        let seen = Mutex::new(Vec::new());
        let (window, tally) = closed_loop(Duration::from_millis(20), 2, &pool, 1, &|set, x| {
            seen.lock()
                .unwrap()
                .push((std::thread::current().id(), set));
            execute_ops(&g, x).map_err(|e| e.to_string())
        });
        assert_eq!(tally.failed, 0);
        assert_eq!(tally.attempted as usize, window.latencies_ms.len());
        assert!(window.secs >= 0.02);
        let seen = seen.into_inner().unwrap();
        let mut parity: HashMap<std::thread::ThreadId, usize> = HashMap::new();
        for (thread, set) in seen {
            assert_eq!(*parity.entry(thread).or_insert(set % 2), set % 2);
        }
        assert_eq!(parity.len(), 2);
    }
}
