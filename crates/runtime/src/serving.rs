//! Serving front-end: an admission queue drained by a fixed set of
//! long-lived request workers over a compiled model.
//!
//! Requests are submitted from any thread into one FIFO queue. A fixed
//! set of worker threads, started with the server and joined at shutdown,
//! pops it directly — one request per pop, no timer anywhere: a request
//! starts the moment a worker is free and waits only while every worker
//! is busy (*work conservation*; `korch_verify`'s `admission-dispatch`
//! model is the protocol). [`BatchConfig::shards`] is the worker count,
//! and with it the in-flight cap, whichever constructor started the
//! server. Every worker calls the **one** model: a `PlanExecutor` (or a
//! `CompiledModel` over one) serves concurrent runs itself — each run
//! arms its own recycled run state, helper lanes come from one
//! process-wide pool, and the runs share one buffer arena and one profile
//! — so the workers coordinate through nothing but the admission queue.
//! Constants stay materialized, the arena stays warm, and per-kernel
//! profiles accumulate across requests. Every response is delivered
//! through its request's one-shot slot *before* the worker touches the
//! statistics; throughput and latency percentiles are tracked over a
//! sliding window.
//!
//! Nothing is stacked: each request runs the plan compiled for its own
//! shape, so holding requests back to "batch" them bought only latency
//! and the hold is gone. Real batching — requests stacked along the
//! batch dimension into a plan compiled for batch N — is a different
//! mechanism and comes back only when a traced run shows a queue deep
//! enough to stack.
//!
//! **Fault containment.** A panic inside [`Model::run`] is caught on the
//! worker: that request answers [`ServeError::Panicked`],
//! [`ServerStats::errors`] ticks, and the worker serves the next request.
//! A failed request is answered once with its error and never retried:
//! the plan is a pure function of its inputs, so a second run could only
//! repeat the failure.
//!
//! A server started over a [`SelfTune`] model ([`Server::start_tuned`])
//! additionally *tunes itself*: the worker whose completion takes the
//! served-request count across a multiple of
//! [`RecalibrationPolicy::every_n_requests`] samples the model's drift
//! (prediction error of the cost model its current plans were priced
//! with, against the profile measured since), and when drift exceeds the
//! policy threshold it triggers a recalibration on a background thread.
//! Serving never stalls — the model swaps its plans atomically, in-flight
//! requests finish on the plan they started with — and [`ServerStats`]
//! reports the recalibration count and the last sampled drift.
//!
//! [`Server::start_sharded`], [`ShardControl`], [`ShardStats`] and
//! [`ServerStats::shards`] are names `src/bin/e2e-bench` compiles against;
//! they replicate nothing and stay until ROADMAP item 1 deletes them.

use korch_exec::ExecError;
use korch_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

/// Serving policy. The name and three of the fields date from the
/// batching and replicated front-ends this server replaced;
/// `src/bin/e2e-bench` constructs the struct by field, so they stay until
/// ROADMAP item 1 deletes them.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Not consulted: no request is stacked with another.
    pub max_batch: usize,
    /// Not consulted: no request is ever held back for another.
    pub max_wait: Duration,
    /// Drift-triggered auto-recalibration. Only consulted by servers
    /// started over a [`SelfTune`] model ([`Server::start_tuned`]);
    /// `None` disables the check entirely.
    pub recalibration: Option<RecalibrationPolicy>,
    /// Request workers, clamped to ≥ 1, for every constructor: the
    /// in-flight cap. A request is dispatched the moment a worker is free
    /// and queues only while none is. All of them run the one model.
    /// Defaults to 8.
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
            shards: 8,
            telemetry: None,
        }
    }
}

/// When a self-tuning server re-fits its model (see [`SelfTune`]).
#[derive(Debug, Clone)]
pub struct RecalibrationPolicy {
    /// Sample drift every this many served requests (clamped to ≥ 1).
    /// Checking is cheap (a scan of the accumulated profile) but not
    /// free, so it is amortized over requests.
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

/// Errors reported by one [`SelfTune::retune`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneOutcome {
    /// Drift of the uncalibrated cost model against the profile the pass
    /// fitted from.
    pub model_error_before: f64,
    /// The same error under the freshly fitted calibration — the model
    /// the swapped-in plans were priced with.
    pub model_error_after: f64,
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
    /// The model panicked on this request (the payload's message). The
    /// panic was contained: the worker that caught it keeps serving.
    Panicked(String),
    /// The server shut down before the request ran.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Exec(e) => write!(f, "execution: {e}"),
            ServeError::Panicked(msg) => write!(f, "model panicked: {msg}"),
            ServeError::Shutdown => write!(f, "server shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

type Reply = Result<Vec<Tensor>, ServeError>;

/// One-shot reply slot shared by a request and its [`ResponseHandle`]:
/// one mutex, one condvar, no per-request channel.
struct ReplySlot {
    reply: Mutex<Option<Reply>>,
    ready: Condvar,
}

/// The request's end of its [`ReplySlot`]. Dropping it unanswered — a
/// request still queued at shutdown, one rejected at admission — answers
/// [`ServeError::Shutdown`], so a handle resolves exactly once whichever
/// way its request leaves the server.
struct ReplySender {
    slot: Arc<ReplySlot>,
    sent: bool,
}

impl ReplySender {
    fn send(mut self, reply: Reply) {
        self.fill(reply);
    }

    fn fill(&mut self, reply: Reply) {
        if std::mem::replace(&mut self.sent, true) {
            return;
        }
        *self.slot.reply.lock().expect("reply slot poisoned") = Some(reply);
        self.slot.ready.notify_one();
    }
}

impl Drop for ReplySender {
    fn drop(&mut self) {
        self.fill(Err(ServeError::Shutdown));
    }
}

struct Request {
    inputs: Vec<Tensor>,
    enqueued: Instant,
    /// Trace id allocated at admission (0 when the server is untraced).
    trace: korch_telemetry::TraceId,
    /// Admission time on the recorder's shared clock, µs (0.0 untraced).
    admitted_us: f64,
    reply: ReplySender,
}

/// Serving-side telemetry handle: the shared hub plus the serving
/// metrics registered once at server start.
struct ServingTelemetry {
    shared: Arc<korch_telemetry::Telemetry>,
    queue_depth: korch_telemetry::Gauge,
    in_flight: korch_telemetry::Gauge,
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
            in_flight: m.gauge("serving.in_flight"),
            queue_wait_us: m.histogram("serving.queue_wait_us"),
            retunes_ok: m.counter("serving.retunes_ok"),
            retunes_failed: m.counter("serving.retunes_failed"),
        }
    }
}

/// Pending response of a submitted request.
pub struct ResponseHandle {
    slot: Arc<ReplySlot>,
}

impl ResponseHandle {
    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] if the model failed or the server stopped.
    pub fn wait(self) -> Result<Vec<Tensor>, ServeError> {
        let mut reply = self.slot.reply.lock().expect("reply slot poisoned");
        loop {
            if let Some(r) = reply.take() {
                return r;
            }
            reply = self.slot.ready.wait(reply).expect("reply slot poisoned");
        }
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    /// The response is handed over once: the poll that returns it empties
    /// the slot.
    pub fn try_wait(&self) -> Option<Result<Vec<Tensor>, ServeError>> {
        self.slot.reply.lock().expect("reply slot poisoned").take()
    }
}

/// Latency samples kept for percentile queries (sliding window, so a
/// long-lived server stays O(1) in memory).
const LATENCY_WINDOW: usize = 4096;

#[derive(Default)]
struct StatsInner {
    requests: u64,
    errors: u64,
    /// Ring buffer of the most recent end-to-end latencies, µs.
    latencies_us: Vec<f64>,
    latency_cursor: usize,
    recalibrations: u64,
    last_model_error: Option<f64>,
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
///
/// A worker answers its request *before* it counts it, so a snapshot
/// taken the instant a response arrives may not include that request
/// yet; [`Server::shutdown`] joins the workers first and is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests completed (including failures).
    pub requests: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Dispatches — one per request, so equal to `requests`. Kept (with
    /// `mean_batch`) because the frozen benchmark reads it.
    pub batches: u64,
    /// Requests per dispatch: `1.0` once anything was served (`0.0`
    /// before) — nothing is stacked.
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
    /// One entry, folded from `requests` and `errors`: kept because the
    /// frozen benchmark reads it.
    pub shards: Vec<ShardStats>,
    /// Snapshot of the shared metrics registry — serving gauges and
    /// histograms plus whatever the executor registered on the same hub.
    /// `None` unless the server was started with
    /// [`BatchConfig::telemetry`].
    pub metrics: Option<korch_telemetry::MetricsSnapshot>,
}

/// The serving counters [`ServerStats::shards`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests answered successfully.
    pub served: u64,
    /// Requests answered with an error.
    pub failures: u64,
    /// Always 0: no request is retried.
    pub adopted: u64,
}

/// Implemented by `korch_core`'s `CompiledModel` as a no-op; nothing in
/// the workspace calls it.
pub trait ShardControl: Send + Sync {
    /// Does nothing: every request worker runs the one executor.
    ///
    /// # Errors
    ///
    /// Never fails.
    fn set_shards(&self, n: usize) -> Result<(), ExecError>;

    /// Empty: there are no replicas to report on.
    fn shard_stats(&self) -> Vec<ShardStats>;
}

/// Everything the admission lock guards.
#[derive(Default)]
struct Admission {
    requests: VecDeque<Request>,
    /// Workers waiting for a request, most recently idled last: `submit`
    /// wakes the top of the stack — the worker whose stack and caches
    /// are warmest — not an arbitrary waiter.
    idle: Vec<usize>,
    /// Set by [`Server::stop`], under the lock like every read of it: a
    /// worker checks it and enters its wait in one critical section, so
    /// the store cannot land between the check and the wait, where the
    /// notify would find no waiter and the join would block forever
    /// (`korch_verify::models::ShutdownHandshake`).
    shutdown: bool,
}

/// What the request workers, the submitting threads and a background
/// retune share.
struct Shared {
    model: Arc<dyn Model>,
    admission: Mutex<Admission>,
    /// One condvar per worker, all over `admission`, so a wake goes to
    /// exactly the worker popped off [`Admission::idle`].
    wake: Vec<Condvar>,
    stats: Mutex<StatsInner>,
    tuning: Option<Tuning>,
    telemetry: Option<ServingTelemetry>,
}

/// A serving front-end around a shared [`Model`].
pub struct Server {
    shared: Arc<Shared>,
    started: Instant,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a server over `model` with [`BatchConfig::shards`] request
    /// workers. Any [`BatchConfig::recalibration`] policy is ignored — a
    /// plain [`Model`] cannot re-tune itself; use [`Server::start_tuned`].
    pub fn start(model: Arc<dyn Model>, config: BatchConfig) -> Self {
        Self::start_inner(model, None, config)
    }

    /// Starts a self-tuning server: `model` serves requests *and* is
    /// consulted for drift / recalibration per
    /// [`BatchConfig::recalibration`] (defaulted when `None` — passing a
    /// tunable model opts into tuning).
    pub fn start_tuned<M: Model + SelfTune>(model: Arc<M>, config: BatchConfig) -> Self {
        let tuner: Arc<dyn SelfTune> = Arc::clone(&model) as Arc<dyn SelfTune>;
        Self::start_inner(model, Some(tuner), config)
    }

    /// [`Server::start`], under the name the frozen benchmark calls.
    ///
    /// # Errors
    ///
    /// Never fails.
    pub fn start_sharded<M: Model>(model: Arc<M>, config: BatchConfig) -> Result<Self, ExecError> {
        Ok(Self::start(model, config))
    }

    fn start_inner(
        model: Arc<dyn Model>,
        tuner: Option<Arc<dyn SelfTune>>,
        config: BatchConfig,
    ) -> Self {
        let cap = config.shards.max(1);
        let shared = Arc::new(Shared {
            model,
            admission: Mutex::default(),
            wake: (0..cap).map(|_| Condvar::new()).collect(),
            stats: Mutex::default(),
            tuning: tuner.map(|tuner| Tuning {
                tuner,
                policy: config.recalibration.unwrap_or_default(),
                served: AtomicU64::new(0),
                in_flight: Mutex::new(None),
            }),
            telemetry: config.telemetry.as_ref().map(ServingTelemetry::new),
        });
        let workers = (0..cap)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.work(me))
            })
            .collect();
        Self {
            shared,
            started: Instant::now(),
            workers,
        }
    }

    /// Enqueues a request; the handle resolves when a worker has run it.
    pub fn submit(&self, inputs: Vec<Tensor>) -> ResponseHandle {
        let slot = Arc::new(ReplySlot {
            reply: Mutex::new(None),
            ready: Condvar::new(),
        });
        let handle = ResponseHandle {
            slot: Arc::clone(&slot),
        };
        let reply = ReplySender { slot, sent: false };
        // The shutdown check happens under the admission lock, like the
        // store: a request is either enqueued before `stop` drains the
        // queue (and served or drained) or rejected here — never
        // orphaned. Rejecting is dropping `reply`.
        let mut q = self.shared.lock_admission();
        if q.shutdown {
            return handle;
        }
        let (trace, admitted_us) = match &self.shared.telemetry {
            Some(t) => {
                let trace = t.shared.next_trace_id();
                let rec = t.shared.recorder();
                let admitted_us = rec.now_us();
                let depth = q.requests.len() + 1;
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
        q.requests.push_back(Request {
            inputs,
            enqueued: Instant::now(),
            trace,
            admitted_us,
            reply,
        });
        // An idle worker implies an empty queue (a worker idles only on
        // an empty queue, and every push takes one off the stack), so
        // one wake per push keeps the server work-conserving.
        let idle = q.idle.pop();
        drop(q);
        if let Some(w) = idle {
            self.shared.wake[w].notify_one();
        }
        handle
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
        let inner = self.shared.stats.lock().expect("stats poisoned");
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
            batches: inner.requests,
            mean_batch: if inner.requests == 0 { 0.0 } else { 1.0 },
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
            shards: vec![ShardStats {
                served: inner.requests - inner.errors,
                failures: inner.errors,
                adopted: 0,
            }],
            metrics: self
                .shared
                .telemetry
                .as_ref()
                .map(|t| t.shared.metrics().snapshot()),
        }
    }

    /// Answers everything still queued with [`ServeError::Shutdown`],
    /// lets the workers finish the requests they hold, joins them and any
    /// background recalibration, and returns final statistics.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        let pending = {
            let mut q = self.shared.lock_admission();
            q.shutdown = true;
            std::mem::take(&mut q.requests)
        };
        // Outside the lock: each drop answers `Shutdown`.
        drop(pending);
        for wake in &self.shared.wake {
            wake.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(tuning) = &self.shared.tuning {
            let retune = tuning.in_flight.lock().expect("tuning poisoned").take();
            if let Some(h) = retune {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Drift-check state of a self-tuning server.
struct Tuning {
    tuner: Arc<dyn SelfTune>,
    policy: RecalibrationPolicy,
    /// Requests served so far, whatever their outcome.
    served: AtomicU64,
    /// The background recalibration, if one was started; its lock doubles
    /// as "a drift check is running". [`Server::stop`] joins it.
    in_flight: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Tuning {
    /// Called by a worker after every request it answered. The completion
    /// that takes [`Tuning::served`] across a multiple of
    /// `every_n_requests` samples drift and, when it exceeds the
    /// threshold, kicks off [`SelfTune::retune`] on a background thread —
    /// the workers (and every in-flight request) keep running; at most
    /// one check and one recalibration are in flight at a time, and a
    /// worker that finds either busy skips its turn.
    fn after_request(&self, shared: &Arc<Shared>) {
        // Relaxed: the count publishes nothing but itself.
        let served = self.served.fetch_add(1, Ordering::Relaxed) + 1;
        if !served.is_multiple_of(self.policy.every_n_requests.max(1)) {
            return;
        }
        let Ok(mut in_flight) = self.in_flight.try_lock() else {
            return;
        };
        if in_flight.as_ref().is_some_and(|h| !h.is_finished()) {
            return;
        }
        if let Some(h) = in_flight.take() {
            let _ = h.join();
        }
        let Some(drift) = self.tuner.model_error() else {
            return;
        };
        shared
            .stats
            .lock()
            .expect("stats poisoned")
            .last_model_error = Some(drift);
        if drift <= self.policy.model_error_threshold {
            return;
        }
        let shared = Arc::clone(shared);
        let tuner = Arc::clone(&self.tuner);
        *in_flight = Some(std::thread::spawn(move || {
            // A failed retune (e.g. nothing profiled yet) leaves the live
            // model untouched; the next drift check simply tries again.
            let outcome = tuner.retune();
            if let Ok(outcome) = &outcome {
                let mut s = shared.stats.lock().expect("stats poisoned");
                s.recalibrations += 1;
                s.last_model_error = Some(outcome.model_error_after);
            }
            if let Some(t) = &shared.telemetry {
                match outcome {
                    Ok(_) => t.retunes_ok.inc(),
                    Err(_) => t.retunes_failed.inc(),
                }
            }
        }));
    }
}

impl Shared {
    fn lock_admission(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().expect("admission queue poisoned")
    }

    /// Body of request worker `me`: serve until shutdown.
    fn work(self: &Arc<Self>, me: usize) {
        let mut next = self.next_request(me);
        while let Some(request) = next {
            let claimed = self.serve(request, me);
            if let Some(tuning) = &self.tuning {
                tuning.after_request(self);
            }
            next = claimed.or_else(|| self.next_request(me));
        }
    }

    /// Pops the oldest queued request.
    fn pop(&self, q: &mut Admission) -> Option<Request> {
        let request = q.requests.pop_front()?;
        if let Some(t) = &self.telemetry {
            t.queue_depth.set(q.requests.len() as i64);
        }
        Some(request)
    }

    /// What worker `me` does after the request it has just run, decided
    /// *before* that request is answered: the oldest queued request if
    /// there is one, else a place on top of the idle stack. By the time
    /// the answered caller can submit again this worker is therefore the
    /// one its request goes to — the worker that is awake, warm and on
    /// the caller's core — rather than a sibling that would be woken
    /// onto that core beside it (measured: answering first left every
    /// request of a two-caller closed loop waiting one model run behind
    /// the other caller's, with a worker runnable but off-core).
    fn claim(&self, me: usize) -> Option<Request> {
        let mut q = self.lock_admission();
        let request = self.pop(&mut q);
        if request.is_none() && !q.shutdown {
            q.idle.push(me);
        }
        request
    }

    /// The oldest queued request, waiting on this worker's own condvar
    /// while there is none; `None` once the server is shutting down.
    fn next_request(&self, me: usize) -> Option<Request> {
        let mut q = self.lock_admission();
        loop {
            // On the stack from `claim` or the last turn of this loop,
            // unless a submitter took this worker off it: off either way
            // before looking at the queue again.
            q.idle.retain(|&w| w != me);
            if let Some(request) = self.pop(&mut q) {
                return Some(request);
            }
            if q.shutdown {
                return None;
            }
            q.idle.push(me);
            q = self.wake[me].wait(q).expect("admission queue poisoned");
        }
    }

    /// Runs one request, [claims](Shared::claim) this worker's next move,
    /// answers the request, then counts it. Returns the claimed request.
    fn serve(&self, request: Request, me: usize) -> Option<Request> {
        let Request {
            inputs,
            enqueued,
            trace,
            admitted_us,
            reply,
        } = request;
        // A panicking model must cost one request, not one worker.
        let run = || {
            catch_unwind(AssertUnwindSafe(|| self.model.run(&inputs)))
                .map_err(|payload| ServeError::Panicked(crate::panic_message(&*payload)))
                .and_then(|ran| ran.map_err(ServeError::Exec))
        };
        let mut span = None;
        let result = match &self.telemetry {
            Some(t) => {
                let rec = t.shared.recorder();
                let wait_us = (rec.now_us() - admitted_us).max(0.0);
                // The request span must start exactly where the
                // queue-wait span ends on the exported timeline. The
                // exporter computes that end as `admitted_us + wait_us`;
                // reuse the identical f64 expression (rather than the raw
                // clock reading) so the two timestamps tie bit-exactly
                // and emission order keeps E-before-B at the tie.
                let pickup_us = admitted_us + wait_us;
                t.queue_wait_us.observe(wait_us as u64);
                t.in_flight.add(1);
                if rec.is_enabled() {
                    rec.record(korch_telemetry::TraceEvent {
                        trace,
                        start_us: admitted_us,
                        dur_us: wait_us,
                        kind: korch_telemetry::EventKind::QueueWait,
                    });
                }
                // The trace id rides the worker thread so the executor
                // tags its events with it.
                let result = korch_telemetry::with_trace(trace, run);
                span = rec.is_enabled().then(|| korch_telemetry::TraceEvent {
                    trace,
                    start_us: pickup_us,
                    dur_us: (rec.now_us() - pickup_us).max(0.0),
                    kind: korch_telemetry::EventKind::Request,
                });
                result
            }
            None => run(),
        };
        let latency_us = enqueued.elapsed().as_secs_f64() * 1e6;
        let failed = result.is_err();
        let next = self.claim(me);
        // The answer goes out before the bookkeeping below, which is the
        // server's business, not the caller's latency.
        reply.send(result);
        if let Some(t) = &self.telemetry {
            t.in_flight.add(-1);
            if let Some(event) = span {
                t.shared.recorder().record(event);
            }
        }
        let mut s = self.stats.lock().expect("stats poisoned");
        s.requests += 1;
        s.errors += u64::from(failed);
        s.record_latency(latency_us);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    struct Echo;

    impl Model for Echo {
        fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
            Ok(inputs.to_vec())
        }
    }

    #[test]
    fn serves_requests_and_tracks_stats() {
        struct Doubler;
        impl Model for Doubler {
            fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
                Ok(vec![inputs[0].map(|v| v * 2.0)])
            }
        }
        let server = Server::start(
            Arc::new(Doubler),
            BatchConfig {
                shards: 4,
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
        assert_eq!(stats.batches, 10, "one dispatch per request");
        assert_eq!(stats.mean_batch, 1.0, "nothing is stacked");
        assert!(stats.p95_latency_us >= stats.p50_latency_us);
        assert!(stats.throughput_rps > 0.0);
    }

    #[test]
    fn every_handle_resolves_across_shutdown() {
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
        // `stop` racing workers that have checked the flag but not yet
        // entered their wait: with the flag stored outside the admission
        // lock about 1 cycle in 70 hung in `join`.
        let (done, finished) = mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for cycle in 0..500 {
                let server = Server::start(Arc::new(Echo), BatchConfig::default());
                // Sweep `stop` across the workers' start-up, where the
                // window between their flag check and their wait lies.
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
                shards: 1,
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
        assert_eq!(
            stats.requests,
            outcomes.iter().filter(|ok| **ok).count() as u64,
            "a request is served or shut down, never both"
        );
    }

    /// The documented empty-window contract: latency statistics are
    /// exactly 0.0 (not a panic, not garbage) while no request has
    /// completed — both on a freshly started server and across a shutdown
    /// that never served.
    #[test]
    fn empty_latency_window_stats_are_documented_zeros() {
        let server = Server::start(Arc::new(Echo), BatchConfig::default());
        let before = server.stats();
        assert_eq!(before.requests, 0);
        assert_eq!(before.mean_latency_us, 0.0);
        assert_eq!(before.p50_latency_us, 0.0);
        assert_eq!(before.p95_latency_us, 0.0);
        assert_eq!(before.mean_batch, 0.0);
        assert_eq!(
            before.shards,
            vec![ShardStats {
                served: 0,
                failures: 0,
                adopted: 0
            }]
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
        assert_eq!(stats.shards[0].failures, 1);
        assert_eq!(stats.shards[0].served, 0);
    }
}
