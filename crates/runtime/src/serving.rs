//! Batched serving front-end: a request queue with dynamic batching over
//! a compiled model.
//!
//! Requests are submitted from any thread and enqueued; a batcher thread
//! drains the queue into batches of up to `max_batch` requests, waiting at
//! most `max_wait` for stragglers once the first request of a batch
//! arrives. The batch then executes as one unit over the shared compiled
//! model: all of its requests run **concurrently** (one thread each, on
//! top of the executor's own lane parallelism), constants stay
//! materialized, the executor's buffer arena stays warm, and per-kernel
//! profiles accumulate across requests. Every response is delivered
//! through its request's channel; throughput and latency percentiles are
//! tracked over a sliding window.
//!
//! A server started over a [`SelfTune`] model ([`Server::start_tuned`])
//! additionally *tunes itself*: every [`RecalibrationPolicy::every_n_requests`]
//! served requests the batcher samples the model's drift (prediction error
//! of the cost model its current plans were priced with, against the
//! profile measured since), and when drift exceeds the policy threshold it
//! triggers a recalibration on a background thread. Serving never stalls —
//! the model swaps its plans atomically, in-flight requests finish on the
//! plan they started with — and [`ServerStats`] reports the recalibration
//! count, the last sampled drift, and the fitted contention rates.
//!
//! A server started over a [`ShardControl`] model ([`Server::start_sharded`]
//! / [`Server::start_tuned_sharded`]) is additionally *sharded*: at start
//! it provisions [`BatchConfig::shards`] independent executor replicas of
//! the model's current plan snapshot, each request is routed to the
//! least-loaded live shard and retried on a sibling when a shard's run
//! fails (see [`crate::ShardRouter::route`] for why this preserves
//! exactly-once response delivery), and [`ServerStats::shards`] reports
//! per-shard serving counters.

use crate::shard::{ShardControl, ShardStats};
use korch_exec::ExecError;
use korch_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Anything the server can serve: a thread-safe "run inputs to outputs"
/// model. Implemented by `korch_runtime::PlanExecutor` and by
/// `korch_core`'s `CompiledModel`.
pub trait Model: Send + Sync + 'static {
    /// Runs one request.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on invalid inputs or kernel failures.
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError>;
}

/// Dynamic-batching policy.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum requests stacked into one batch.
    pub max_batch: usize,
    /// How long to hold an open batch for more requests.
    pub max_wait: Duration,
    /// Drift-triggered auto-recalibration. Only consulted by servers
    /// started over a [`SelfTune`] model ([`Server::start_tuned`]);
    /// `None` disables the check entirely.
    pub recalibration: Option<RecalibrationPolicy>,
    /// Independent executor replicas to provision at server start
    /// (clamped to ≥ 1; 1 = unsharded). Only consulted by servers started
    /// over a [`ShardControl`] model ([`Server::start_sharded`] /
    /// [`Server::start_tuned_sharded`]) — a plain [`Model`] carries no
    /// replication handle, so [`Server::start`] serves it as-is.
    pub shards: usize,
    /// Shared telemetry hub for request tracing and serving metrics.
    /// `None` (the default) keeps the serving path telemetry-free: no
    /// trace ids are allocated, no events recorded, no metrics
    /// registered. Pass the *same* hub to the executor's
    /// `RuntimeConfig::telemetry` so server-side and executor-side events
    /// share one clock origin and one trace-id space.
    pub telemetry: Option<Arc<korch_telemetry::Telemetry>>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            recalibration: None,
            shards: 1,
            telemetry: None,
        }
    }
}

/// When a self-tuning server re-fits its model (see [`SelfTune`]).
#[derive(Debug, Clone)]
pub struct RecalibrationPolicy {
    /// Sample drift after at least this many requests since the last
    /// check (clamped to ≥ 1). Checking is cheap (a scan of the
    /// accumulated profile) but not free, so it is amortized over batches.
    pub every_n_requests: u64,
    /// Recalibrate when the sampled drift ([`SelfTune::model_error`],
    /// mean relative prediction error) exceeds this.
    pub model_error_threshold: f64,
}

impl Default for RecalibrationPolicy {
    fn default() -> Self {
        Self {
            every_n_requests: 32,
            model_error_threshold: 0.25,
        }
    }
}

/// Fitted rates and errors reported by one [`SelfTune::retune`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneOutcome {
    /// Drift of the uncalibrated cost model against the profile the pass
    /// fitted from.
    pub model_error_before: f64,
    /// The same error under the freshly fitted calibration — the model
    /// the swapped-in plans were priced with.
    pub model_error_after: f64,
    /// Fitted memory-class contention sharing rate.
    pub memory_rate: f64,
    /// Fitted compute-class contention sharing rate.
    pub compute_rate: f64,
}

/// A model that can measure its own prediction drift and re-tune itself
/// in place — `korch-core`'s `SelfTuningModel` (a `CompiledModel` bundled
/// with its pipeline) is the canonical implementation. The server calls
/// [`SelfTune::retune`] from a background thread while requests keep
/// flowing, so implementations must swap state atomically rather than
/// lock it across the re-fit.
pub trait SelfTune: Send + Sync {
    /// Current drift: prediction error of the cost model the live plans
    /// were priced with, against the profile measured since the last
    /// (re)compilation. `None` while nothing has been measured.
    fn model_error(&self) -> Option<f64>;

    /// Re-fits the model from its accumulated measurements and swaps the
    /// result in.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when nothing was measured yet or
    /// re-fitting failed; the live model must stay untouched.
    fn retune(&self) -> Result<TuneOutcome, String>;
}

/// Error returned to a waiting client.
#[derive(Debug)]
pub enum ServeError {
    /// The model failed on this request.
    Exec(ExecError),
    /// The server shut down before the request ran.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Exec(e) => write!(f, "execution: {e}"),
            ServeError::Shutdown => write!(f, "server shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

struct Request {
    inputs: Vec<Tensor>,
    enqueued: Instant,
    /// Trace id allocated at admission (0 when the server is untraced).
    trace: korch_telemetry::TraceId,
    /// Admission time on the recorder's shared clock, µs (0.0 untraced).
    admitted_us: f64,
    reply: mpsc::Sender<Result<Vec<Tensor>, ServeError>>,
}

/// Serving-side telemetry handle: the shared hub plus the serving
/// metrics registered once at server start. Cheap to clone (all handles
/// are `Arc`-backed).
#[derive(Clone)]
struct ServingTelemetry {
    shared: Arc<korch_telemetry::Telemetry>,
    queue_depth: korch_telemetry::Gauge,
    batch_occupancy: korch_telemetry::Histogram,
    queue_wait_us: korch_telemetry::Histogram,
    retunes_ok: korch_telemetry::Counter,
    retunes_failed: korch_telemetry::Counter,
}

impl ServingTelemetry {
    fn new(shared: &Arc<korch_telemetry::Telemetry>) -> Self {
        let m = shared.metrics();
        Self {
            shared: Arc::clone(shared),
            queue_depth: m.gauge("serving.queue_depth"),
            batch_occupancy: m.histogram("serving.batch_occupancy"),
            queue_wait_us: m.histogram("serving.queue_wait_us"),
            retunes_ok: m.counter("serving.retunes_ok"),
            retunes_failed: m.counter("serving.retunes_failed"),
        }
    }
}

/// Pending response of a submitted request.
pub struct ResponseHandle {
    rx: mpsc::Receiver<Result<Vec<Tensor>, ServeError>>,
}

impl ResponseHandle {
    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] if the model failed or the server stopped.
    pub fn wait(self) -> Result<Vec<Tensor>, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<Vec<Tensor>, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            // Sender gone without a reply: the server shut down.
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Shutdown)),
        }
    }
}

/// Latency samples kept for percentile queries (sliding window, so a
/// long-lived server stays O(1) in memory).
const LATENCY_WINDOW: usize = 4096;

#[derive(Default)]
struct StatsInner {
    requests: u64,
    errors: u64,
    batches: u64,
    batched_requests: u64,
    /// Ring buffer of the most recent end-to-end latencies, µs.
    latencies_us: Vec<f64>,
    latency_cursor: usize,
    recalibrations: u64,
    last_model_error: Option<f64>,
    fitted_contention: Option<(f64, f64)>,
}

impl StatsInner {
    fn record_latency(&mut self, us: f64) {
        if self.latencies_us.len() < LATENCY_WINDOW {
            self.latencies_us.push(us);
        } else {
            self.latencies_us[self.latency_cursor] = us;
            self.latency_cursor = (self.latency_cursor + 1) % LATENCY_WINDOW;
        }
    }
}

/// Snapshot of serving statistics.
///
/// **Empty-window contract:** every latency statistic (`mean_latency_us`,
/// `p50_latency_us`, `p95_latency_us`) is computed over the sliding
/// window of recently completed requests. While that window is empty —
/// `stats()` before the first request completes, or a server shut down
/// unused — they all return exactly `0.0`. The nearest-rank rule is only
/// defined for a non-empty sample set (`ceil(p·0) = 0` would underflow
/// the 1-based rank), so the empty case is special-cased rather than
/// extrapolated.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests completed (including failures).
    pub requests: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Batches executed.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// Mean end-to-end latency over the sliding latency window (the most
    /// recent `LATENCY_WINDOW` requests), not over all requests ever
    /// served, µs. `0.0` while the window is empty.
    pub mean_latency_us: f64,
    /// Median end-to-end latency over the sliding window, µs
    /// (nearest-rank). `0.0` while the window is empty.
    pub p50_latency_us: f64,
    /// 95th-percentile end-to-end latency over the sliding window, µs
    /// (nearest-rank). `0.0` while the window is empty.
    pub p95_latency_us: f64,
    /// Completed requests per second since the server started.
    pub throughput_rps: f64,
    /// Automatic recalibrations completed (0 unless the server was started
    /// via [`Server::start_tuned`] with a [`RecalibrationPolicy`]).
    pub recalibrations: u64,
    /// Most recent drift sample — either a periodic check's
    /// [`SelfTune::model_error`] or, right after a recalibration, the
    /// post-fit error the new plans were priced with. `None` until the
    /// first check.
    pub last_model_error: Option<f64>,
    /// `(memory_rate, compute_rate)` contention sharing rates fitted by
    /// the most recent recalibration; `None` until one completes.
    pub fitted_contention: Option<(f64, f64)>,
    /// Per-shard serving counters of a sharded server ([`Server::start_sharded`]
    /// / [`Server::start_tuned_sharded`]); empty for unsharded servers.
    pub shards: Vec<ShardStats>,
    /// Snapshot of the shared metrics registry — serving gauges and
    /// histograms plus whatever the executor and router registered on the
    /// same hub. `None` unless the server was started with
    /// [`BatchConfig::telemetry`].
    pub metrics: Option<korch_telemetry::MetricsSnapshot>,
}

struct Queue {
    requests: Mutex<VecDeque<Request>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A serving front-end around a shared [`Model`].
pub struct Server {
    queue: Arc<Queue>,
    stats: Arc<Mutex<StatsInner>>,
    /// Shard facet of a sharded server; consulted by [`Server::stats`]
    /// for per-shard counters.
    shard: Option<Arc<dyn ShardControl>>,
    /// Telemetry facet; `None` keeps submission telemetry-free.
    telemetry: Option<ServingTelemetry>,
    started: Instant,
    batcher: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a server (and its batcher thread) over `model`. Any
    /// [`BatchConfig::recalibration`] policy is ignored — a plain
    /// [`Model`] cannot re-tune itself; use [`Server::start_tuned`].
    /// Likewise [`BatchConfig::shards`] is ignored — a plain model
    /// carries no replication handle; use [`Server::start_sharded`].
    pub fn start(model: Arc<dyn Model>, config: BatchConfig) -> Self {
        Self::start_inner(model, None, None, config)
    }

    /// Starts a self-tuning server: `model` serves requests *and* is
    /// consulted for drift / recalibration per
    /// [`BatchConfig::recalibration`] (defaulted when `None` — passing a
    /// tunable model opts into tuning).
    pub fn start_tuned<M: Model + SelfTune>(model: Arc<M>, mut config: BatchConfig) -> Self {
        if config.recalibration.is_none() {
            config.recalibration = Some(RecalibrationPolicy::default());
        }
        let tuner: Arc<dyn SelfTune> = Arc::clone(&model) as Arc<dyn SelfTune>;
        Self::start_inner(model, Some(tuner), None, config)
    }

    /// Starts a sharded server: provisions [`BatchConfig::shards`]
    /// independent executor replicas of `model`'s current plan snapshot
    /// before the batcher starts, then routes every request to the
    /// least-loaded live shard with retry-on-sibling failover.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when a shard replica cannot be compiled; no
    /// server is started and the model's shard set stays untouched.
    pub fn start_sharded<M: Model + ShardControl>(
        model: Arc<M>,
        config: BatchConfig,
    ) -> Result<Self, ExecError> {
        model.set_shards(config.shards)?;
        let shard: Arc<dyn ShardControl> = Arc::clone(&model) as Arc<dyn ShardControl>;
        Ok(Self::start_inner(model, None, Some(shard), config))
    }

    /// [`Server::start_sharded`] + [`Server::start_tuned`] combined: the
    /// server shards the model *and* drives drift-triggered
    /// recalibration — each recalibration swap re-plans every shard
    /// atomically while in-flight requests finish on their old per-shard
    /// snapshots.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when a shard replica cannot be compiled.
    pub fn start_tuned_sharded<M: Model + SelfTune + ShardControl>(
        model: Arc<M>,
        mut config: BatchConfig,
    ) -> Result<Self, ExecError> {
        model.set_shards(config.shards)?;
        if config.recalibration.is_none() {
            config.recalibration = Some(RecalibrationPolicy::default());
        }
        let tuner: Arc<dyn SelfTune> = Arc::clone(&model) as Arc<dyn SelfTune>;
        let shard: Arc<dyn ShardControl> = Arc::clone(&model) as Arc<dyn ShardControl>;
        Ok(Self::start_inner(model, Some(tuner), Some(shard), config))
    }

    fn start_inner(
        model: Arc<dyn Model>,
        tuner: Option<Arc<dyn SelfTune>>,
        shard: Option<Arc<dyn ShardControl>>,
        config: BatchConfig,
    ) -> Self {
        let queue = Arc::new(Queue {
            requests: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let stats = Arc::new(Mutex::new(StatsInner::default()));
        let telemetry = config.telemetry.as_ref().map(ServingTelemetry::new);
        let batcher = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let telemetry = telemetry.clone();
            std::thread::spawn(move || {
                batcher_loop(&queue, &stats, &*model, tuner, &config, telemetry.as_ref());
            })
        };
        Self {
            queue,
            stats,
            shard,
            telemetry,
            started: Instant::now(),
            batcher: Some(batcher),
        }
    }

    /// Enqueues a request; the handle resolves when its batch executes.
    pub fn submit(&self, inputs: Vec<Tensor>) -> ResponseHandle {
        let (tx, rx) = mpsc::channel();
        // The shutdown check happens under the queue lock: the batcher
        // only exits after observing the flag with the (then empty) queue
        // locked, so a request is either enqueued before that observation
        // (and served or drained) or rejected here — never orphaned.
        let mut q = self.queue.requests.lock().expect("queue poisoned");
        if self.queue.shutdown.load(Ordering::Acquire) {
            drop(q);
            let _ = tx.send(Err(ServeError::Shutdown));
            return ResponseHandle { rx };
        }
        let (trace, admitted_us) = match &self.telemetry {
            Some(t) => {
                let trace = t.shared.next_trace_id();
                let rec = t.shared.recorder();
                let admitted_us = rec.now_us();
                let depth = q.len() + 1;
                t.queue_depth.set(depth as i64);
                if rec.is_enabled() {
                    rec.record(korch_telemetry::TraceEvent {
                        trace,
                        start_us: admitted_us,
                        dur_us: 0.0,
                        kind: korch_telemetry::EventKind::Admitted { queue_depth: depth },
                    });
                }
                (trace, admitted_us)
            }
            None => (0, 0.0),
        };
        q.push_back(Request {
            inputs,
            enqueued: Instant::now(),
            trace,
            admitted_us,
            reply: tx,
        });
        drop(q);
        self.queue.available.notify_one();
        ResponseHandle { rx }
    }

    /// Convenience: submit and block for the response.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] if the model failed or the server stopped.
    pub fn infer(&self, inputs: Vec<Tensor>) -> Result<Vec<Tensor>, ServeError> {
        self.submit(inputs).wait()
    }

    /// Current statistics.
    pub fn stats(&self) -> ServerStats {
        let inner = self.stats.lock().expect("stats poisoned");
        let mut sorted = inner.latencies_us.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        // Nearest-rank percentile: the smallest sample ≥ p of the window.
        // Rounding the interpolated index under-reports p95 on small
        // windows (e.g. 12 samples: round(10.45) picks the 11th sample,
        // nearest-rank the 12th). An empty window is special-cased to the
        // documented 0.0 (see [`ServerStats`]): `ceil(p·0)` is rank 0,
        // which has no sample — clamping it to 1 would index out of
        // bounds (and `clamp(1, 0)` itself panics on min > max).
        let pct = |p: f64| -> f64 {
            let n = sorted.len();
            if n == 0 {
                return 0.0;
            }
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            sorted[rank - 1]
        };
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        ServerStats {
            requests: inner.requests,
            errors: inner.errors,
            batches: inner.batches,
            mean_batch: if inner.batches == 0 {
                0.0
            } else {
                inner.batched_requests as f64 / inner.batches as f64
            },
            mean_latency_us: if sorted.is_empty() {
                0.0
            } else {
                sorted.iter().sum::<f64>() / sorted.len() as f64
            },
            p50_latency_us: pct(0.50),
            p95_latency_us: pct(0.95),
            throughput_rps: inner.requests as f64 / elapsed,
            recalibrations: inner.recalibrations,
            last_model_error: inner.last_model_error,
            fitted_contention: inner.fitted_contention,
            shards: self
                .shard
                .as_ref()
                .map(|s| s.shard_stats())
                .unwrap_or_default(),
            metrics: self
                .telemetry
                .as_ref()
                .map(|t| t.shared.metrics().snapshot()),
        }
    }

    /// Drains the queue, stops the batcher, and returns final statistics.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        // The flag is set under the queue lock: the batcher checks it and
        // enters `available.wait` under that lock, so the store cannot
        // land between its check and its wait, where the notify below
        // would find no waiter and the join would block forever
        // (`korch_verify::models::ShutdownHandshake`).
        {
            let _q = self.queue.requests.lock().expect("queue poisoned");
            self.queue.shutdown.store(true, Ordering::Release);
        }
        self.queue.available.notify_all();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        // The batcher drains on its way out; this second sweep only
        // defends against future exit paths forgetting to.
        let mut q = self.queue.requests.lock().expect("queue poisoned");
        while let Some(r) = q.pop_front() {
            let _ = r.reply.send(Err(ServeError::Shutdown));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Drift-check state of a self-tuning server, owned by the batcher.
/// Dropping it joins any in-flight background recalibration, so every
/// batcher exit path waits the tune thread out.
struct TuneState {
    tuner: Arc<dyn SelfTune>,
    policy: RecalibrationPolicy,
    stats: Arc<Mutex<StatsInner>>,
    since_check: u64,
    in_flight: Option<std::thread::JoinHandle<()>>,
    telemetry: Option<ServingTelemetry>,
}

impl TuneState {
    /// Called after every executed batch with the number of requests it
    /// served. Samples drift every `every_n_requests` requests and, when
    /// it exceeds the threshold, kicks off [`SelfTune::retune`] on a
    /// background thread — the batcher (and every in-flight request)
    /// keeps running; at most one recalibration is in flight at a time.
    fn after_batch(&mut self, served: u64) {
        self.since_check += served;
        if self.since_check < self.policy.every_n_requests.max(1) {
            return;
        }
        self.since_check = 0;
        if let Some(h) = &self.in_flight {
            if !h.is_finished() {
                return;
            }
        }
        if let Some(h) = self.in_flight.take() {
            let _ = h.join();
        }
        let Some(drift) = self.tuner.model_error() else {
            return;
        };
        self.stats.lock().expect("stats poisoned").last_model_error = Some(drift);
        if drift <= self.policy.model_error_threshold {
            return;
        }
        let tuner = Arc::clone(&self.tuner);
        let stats = Arc::clone(&self.stats);
        let telemetry = self.telemetry.clone();
        self.in_flight = Some(std::thread::spawn(move || {
            // A failed retune (e.g. nothing profiled yet) leaves the live
            // model untouched; the next drift check simply tries again.
            match tuner.retune() {
                Ok(outcome) => {
                    let mut s = stats.lock().expect("stats poisoned");
                    s.recalibrations += 1;
                    s.last_model_error = Some(outcome.model_error_after);
                    s.fitted_contention = Some((outcome.memory_rate, outcome.compute_rate));
                    drop(s);
                    if let Some(t) = &telemetry {
                        t.retunes_ok.inc();
                    }
                }
                Err(_) => {
                    if let Some(t) = &telemetry {
                        t.retunes_failed.inc();
                    }
                }
            }
        }));
    }
}

impl Drop for TuneState {
    fn drop(&mut self) {
        if let Some(h) = self.in_flight.take() {
            let _ = h.join();
        }
    }
}

fn batcher_loop(
    queue: &Queue,
    stats: &Arc<Mutex<StatsInner>>,
    model: &dyn Model,
    tuner: Option<Arc<dyn SelfTune>>,
    config: &BatchConfig,
    telemetry: Option<&ServingTelemetry>,
) {
    let max_batch = config.max_batch.max(1);
    let mut tune = match (&config.recalibration, tuner) {
        (Some(policy), Some(tuner)) => Some(TuneState {
            tuner,
            policy: policy.clone(),
            stats: Arc::clone(stats),
            since_check: 0,
            in_flight: None,
            telemetry: telemetry.cloned(),
        }),
        _ => None,
    };
    loop {
        // Block for the first request of the next batch.
        let mut batch: Vec<Request> = Vec::with_capacity(max_batch);
        {
            let mut q = queue.requests.lock().expect("queue poisoned");
            loop {
                if let Some(r) = q.pop_front() {
                    batch.push(r);
                    break;
                }
                if queue.shutdown.load(Ordering::Acquire) {
                    while let Some(r) = q.pop_front() {
                        let _ = r.reply.send(Err(ServeError::Shutdown));
                    }
                    return;
                }
                q = queue.available.wait(q).expect("queue poisoned");
            }
            // Opportunistically take whatever is already queued.
            while batch.len() < max_batch {
                match q.pop_front() {
                    Some(r) => batch.push(r),
                    None => break,
                }
            }
        }
        // Hold the batch open briefly for stragglers: one lock hold per
        // wakeup drains *everything* queued (re-acquiring the mutex per
        // popped request would ping-pong the lock against submitters
        // exactly when the queue is busiest).
        if batch.len() < max_batch {
            let deadline = Instant::now() + config.max_wait;
            let mut q = queue.requests.lock().expect("queue poisoned");
            loop {
                while batch.len() < max_batch {
                    match q.pop_front() {
                        Some(r) => batch.push(r),
                        None => break,
                    }
                }
                if batch.len() >= max_batch || queue.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = queue
                    .available
                    .wait_timeout(q, deadline - now)
                    .expect("queue poisoned");
                q = guard;
                if timeout.timed_out() {
                    // Final drain of anything that slipped in with the
                    // timeout's wakeup, then close the batch.
                    while batch.len() < max_batch {
                        match q.pop_front() {
                            Some(r) => batch.push(r),
                            None => break,
                        }
                    }
                    break;
                }
            }
        }

        // Execute the batch as one unit: every request runs concurrently
        // over the shared warm model (one thread per request on top of the
        // executor's own lane parallelism), which is what makes grouping
        // requests pay off beyond FIFO dispatch.
        let n = batch.len() as u64;
        if let Some(t) = telemetry {
            t.batch_occupancy.observe(n);
            t.queue_depth
                .set(queue.requests.lock().expect("queue poisoned").len() as i64);
            let rec = t.shared.recorder();
            if rec.is_enabled() {
                rec.record(korch_telemetry::TraceEvent {
                    trace: 0,
                    start_us: rec.now_us(),
                    dur_us: 0.0,
                    kind: korch_telemetry::EventKind::BatchFormed { size: n as usize },
                });
            }
        }
        std::thread::scope(|scope| {
            for req in batch {
                scope.spawn(move || {
                    let result = match telemetry {
                        Some(t) => {
                            let rec = t.shared.recorder();
                            let wait_us = (rec.now_us() - req.admitted_us).max(0.0);
                            // The request span must start exactly where the
                            // queue-wait span ends on the exported timeline.
                            // The exporter computes that end as
                            // `admitted_us + wait_us`; reuse the identical
                            // f64 expression (rather than the raw clock
                            // reading) so the two timestamps tie bit-exactly
                            // and emission order keeps E-before-B at the tie.
                            let pickup_us = req.admitted_us + wait_us;
                            t.queue_wait_us.observe(wait_us as u64);
                            if rec.is_enabled() {
                                rec.record(korch_telemetry::TraceEvent {
                                    trace: req.trace,
                                    start_us: req.admitted_us,
                                    dur_us: wait_us,
                                    kind: korch_telemetry::EventKind::QueueWait,
                                });
                            }
                            // The trace id rides the request thread so the
                            // router and executor tag their events with it.
                            let result = korch_telemetry::with_trace(req.trace, || {
                                model.run(&req.inputs).map_err(ServeError::Exec)
                            });
                            if rec.is_enabled() {
                                rec.record(korch_telemetry::TraceEvent {
                                    trace: req.trace,
                                    start_us: pickup_us,
                                    dur_us: (rec.now_us() - pickup_us).max(0.0),
                                    kind: korch_telemetry::EventKind::Request,
                                });
                            }
                            result
                        }
                        None => model.run(&req.inputs).map_err(ServeError::Exec),
                    };
                    let latency_us = req.enqueued.elapsed().as_secs_f64() * 1e6;
                    let mut s = stats.lock().expect("stats poisoned");
                    s.requests += 1;
                    if result.is_err() {
                        s.errors += 1;
                    }
                    s.record_latency(latency_us);
                    drop(s);
                    let _ = req.reply.send(result);
                });
            }
        });
        let mut s = stats.lock().expect("stats poisoned");
        s.batches += 1;
        s.batched_requests += n;
        drop(s);
        if let Some(t) = tune.as_mut() {
            t.after_batch(n);
        }

        if queue.shutdown.load(Ordering::Acquire) {
            // Fail whatever is still queued, then exit.
            let mut q = queue.requests.lock().expect("queue poisoned");
            while let Some(r) = q.pop_front() {
                let _ = r.reply.send(Err(ServeError::Shutdown));
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles its single input; counts concurrent entries.
    struct Doubler {
        concurrent: std::sync::atomic::AtomicUsize,
    }

    impl Model for Doubler {
        fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
            self.concurrent.fetch_add(1, Ordering::SeqCst);
            let out = inputs[0].map(|v| v * 2.0);
            self.concurrent.fetch_sub(1, Ordering::SeqCst);
            Ok(vec![out])
        }
    }

    #[test]
    fn serves_requests_and_tracks_stats() {
        let model = Arc::new(Doubler {
            concurrent: std::sync::atomic::AtomicUsize::new(0),
        });
        let server = Server::start(
            model,
            BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                ..Default::default()
            },
        );
        let handles: Vec<ResponseHandle> = (0..10)
            .map(|i| server.submit(vec![Tensor::full(vec![4], i as f32)]))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let out = h.wait().expect("response");
            assert_eq!(out[0].as_slice(), &[2.0 * i as f32; 4]);
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests, 10);
        assert_eq!(stats.errors, 0);
        assert!(
            stats.batches >= 3,
            "4-cap batching of 10: {}",
            stats.batches
        );
        assert!(stats.mean_batch >= 1.0 && stats.mean_batch <= 4.0);
        assert!(stats.p95_latency_us >= stats.p50_latency_us);
        assert!(stats.throughput_rps > 0.0);
    }

    #[test]
    fn batch_requests_run_concurrently() {
        use std::sync::atomic::AtomicUsize;
        struct Tracker {
            cur: AtomicUsize,
            max: AtomicUsize,
        }
        impl Model for Tracker {
            fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
                let now = self.cur.fetch_add(1, Ordering::SeqCst) + 1;
                self.max.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(10));
                self.cur.fetch_sub(1, Ordering::SeqCst);
                Ok(inputs.to_vec())
            }
        }
        let model = Arc::new(Tracker {
            cur: AtomicUsize::new(0),
            max: AtomicUsize::new(0),
        });
        let server = Server::start(
            Arc::clone(&model) as Arc<dyn Model>,
            BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(50),
                ..Default::default()
            },
        );
        let handles: Vec<ResponseHandle> = (0..4)
            .map(|_| server.submit(vec![Tensor::zeros(vec![2])]))
            .collect();
        for h in handles {
            h.wait().expect("response");
        }
        server.shutdown();
        assert!(
            model.max.load(Ordering::SeqCst) >= 2,
            "a batch must overlap its requests, max concurrency {}",
            model.max.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn every_handle_resolves_across_shutdown() {
        struct Echo;
        impl Model for Echo {
            fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
                Ok(inputs.to_vec())
            }
        }
        for _ in 0..10 {
            let server = Server::start(Arc::new(Echo), BatchConfig::default());
            let handles: Vec<ResponseHandle> = (0..8)
                .map(|_| server.submit(vec![Tensor::zeros(vec![1])]))
                .collect();
            server.shutdown();
            // Every handle must resolve (served or Shutdown), never hang,
            // and try_wait must agree rather than reporting in-flight.
            for h in handles {
                assert!(h.try_wait().is_some(), "handle unresolved after shutdown");
            }
        }
    }

    #[test]
    fn idle_shutdown_never_loses_the_wakeup() {
        // `stop` racing a batcher that has checked the flag but not yet
        // entered its wait: with the flag stored outside the queue lock
        // about 1 cycle in 70 hung in `join`.
        struct Echo;
        impl Model for Echo {
            fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
                Ok(inputs.to_vec())
            }
        }
        let (done, finished) = mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for cycle in 0..500 {
                let server = Server::start(Arc::new(Echo), BatchConfig::default());
                // Sweep `stop` across the batcher's start-up, where the
                // window between its flag check and its wait lies.
                for _ in 0..cycle % 50 * 40 {
                    std::hint::spin_loop();
                }
                server.shutdown();
            }
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(30))
            .expect("a start → idle → shutdown cycle hung");
        cycles.join().expect("cycle thread panicked");
    }

    #[test]
    fn shutdown_fails_pending_requests() {
        struct Slow;
        impl Model for Slow {
            fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
                std::thread::sleep(Duration::from_millis(20));
                Ok(inputs.to_vec())
            }
        }
        let server = Server::start(
            Arc::new(Slow),
            BatchConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
                ..Default::default()
            },
        );
        let slow: Vec<ResponseHandle> = (0..5)
            .map(|_| server.submit(vec![Tensor::zeros(vec![2])]))
            .collect();
        let stats = server.shutdown();
        let outcomes: Vec<bool> = slow.into_iter().map(|h| h.wait().is_ok()).collect();
        assert!(
            outcomes.iter().any(|ok| !ok) || stats.requests == 5,
            "either some requests were shut down or all completed"
        );
    }

    /// The documented empty-window contract: latency statistics are
    /// exactly 0.0 (not a panic, not garbage) while no request has
    /// completed — both on a freshly started server and across a shutdown
    /// that never served.
    #[test]
    fn empty_latency_window_stats_are_documented_zeros() {
        struct Echo;
        impl Model for Echo {
            fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
                Ok(inputs.to_vec())
            }
        }
        let server = Server::start(Arc::new(Echo), BatchConfig::default());
        let before = server.stats();
        assert_eq!(before.requests, 0);
        assert_eq!(before.mean_latency_us, 0.0);
        assert_eq!(before.p50_latency_us, 0.0);
        assert_eq!(before.p95_latency_us, 0.0);
        assert_eq!(before.mean_batch, 0.0);
        assert!(
            before.shards.is_empty(),
            "unsharded server reports no shards"
        );
        let after = server.shutdown();
        assert_eq!(after.requests, 0);
        assert_eq!(after.mean_latency_us, 0.0);
        assert_eq!(after.p50_latency_us, 0.0);
        assert_eq!(after.p95_latency_us, 0.0);
    }

    #[test]
    fn model_errors_are_delivered() {
        struct Failing;
        impl Model for Failing {
            fn run(&self, _: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
                Err(ExecError::Input("nope".into()))
            }
        }
        let server = Server::start(Arc::new(Failing), BatchConfig::default());
        let err = server.infer(vec![Tensor::zeros(vec![1])]).unwrap_err();
        assert!(matches!(err, ServeError::Exec(_)));
        let stats = server.shutdown();
        assert_eq!(stats.errors, 1);
    }
}
