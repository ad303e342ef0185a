//! Sharded execution: replicate one plan across N independent executors
//! behind a load-aware, failure-tolerant router.
//!
//! A single [`crate::PlanExecutor`] caps throughput at one buffer arena
//! and one worker pool no matter how much traffic the [`crate::Server`]
//! queues. Sharding multiplexes many independent rollouts of the *same*
//! compiled program over replicated execution contexts: each **shard** is
//! a fresh `PlanExecutor` + `BufferArena` over the identical plan
//! snapshot, and a [`ShardRouter`] assigns every run to the least-loaded
//! live shard (per-shard in-flight counters, rotating tie-break so a
//! serialized 1-core host still spreads traffic instead of hammering
//! shard 0).
//!
//! # Failure handling and exactly-once delivery
//!
//! When a shard's run fails, the router retries the run on a sibling
//! shard that has not been tried for this request yet. The client still
//! observes **exactly one** response per request:
//!
//! - the first successful attempt short-circuits the retry loop, so at
//!   most one success is ever produced;
//! - failed attempts produce no reply — kernels are pure tensor
//!   functions and a failed run [settles its arena](crate::BufferArena)
//!   without externally visible side effects, so re-running on a sibling
//!   cannot duplicate observable work;
//! - when every candidate shard has been tried once, the *last* error is
//!   returned — the request resolves exactly once either way, never
//!   twice and never silently.
//!
//! Shards that fail [`QUARANTINE_AFTER`] consecutive runs are
//! *quarantined*: the router prefers live siblings. Quarantine is a
//! routing preference, not a denial of service — when no live shard
//! remains (e.g. a deterministically failing request marched across all
//! of them), quarantined shards are still tried, and one success revives
//! a shard's standing.
//!
//! # One holder of shard state
//!
//! [`ShardedExecutor`] owns the replicas and their router behind one
//! lock and is the only place they are swapped:
//! [`ShardControl::set_shards`] changes the width over the current plan,
//! [`ShardedExecutor::replan`] replaces **every** replica with a fresh
//! executor over a new plan — one write, one generation bump, quarantine
//! reset, cumulative counters inherited. The two may race: each builds
//! its executors outside the lock and re-checks under it, so a re-plan
//! honors a width that changed meanwhile and a resize never installs
//! replicas of a superseded plan. `korch_core`'s `CompiledModel` holds
//! exactly one `ShardedExecutor` over its stitched program and drives
//! recalibration through `replan`.
//!
//! # Per-shard vs aggregate profiles
//!
//! Each shard accumulates its own [`RuntimeProfile`] (per-kernel wall
//! times, run, steal, park and tile counters).
//! [`RuntimeProfile::merge`] folds the per-shard profiles into the one
//! aggregate profile `CompiledModel::recalibrate` consumes. A
//! recalibration therefore fits its calibration from **all** shards'
//! measurements and its swap ([`ShardedExecutor::replan`]) atomically
//! re-plans all shards; in-flight runs finish on the executor they
//! claimed.

use crate::executor::PlanExecutor;
use crate::profiler::RuntimeProfile;
use crate::serving::Model;
use korch_exec::ExecError;
use korch_tensor::Tensor;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Consecutive failed runs after which a shard is quarantined (deprioritized
/// by [`ShardRouter::route`] until one of its runs succeeds again). Kept
/// small: a genuinely broken shard stops attracting traffic quickly, while
/// a single deterministically bad *request* (which fails on every shard it
/// touches) cannot permanently kill a healthy shard — the next good run
/// resets the count.
pub const QUARANTINE_AFTER: u64 = 3;

/// Serving counters of one shard, as reported by [`ShardRouter::stats`]
/// (and surfaced in `ServerStats::shards`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index within the router.
    pub shard: usize,
    /// Runs currently executing on this shard.
    pub in_flight: usize,
    /// Runs this shard completed successfully.
    pub served: u64,
    /// Runs that failed on this shard.
    pub failures: u64,
    /// Successful runs this shard adopted after a sibling shard failed
    /// the same request first (the retry-on-sibling path).
    pub adopted: u64,
    /// Failed runs since the last success — the quarantine countdown
    /// ([`QUARANTINE_AFTER`] trips it). Reset to 0 by any success and by
    /// a shard-set/recalibration swap.
    pub consecutive_failures: u64,
    /// `false` while the shard is quarantined (≥ [`QUARANTINE_AFTER`]
    /// consecutive failures, no success since).
    pub live: bool,
}

/// One shard's routing state.
#[derive(Default)]
struct ShardSlot {
    in_flight: AtomicUsize,
    served: AtomicU64,
    failures: AtomicU64,
    adopted: AtomicU64,
    consecutive_failures: AtomicU64,
}

impl ShardSlot {
    fn quarantined(&self) -> bool {
        self.consecutive_failures.load(Ordering::Acquire) >= QUARANTINE_AFTER
    }
}

/// The router's view of a shared telemetry bundle: routing decisions and
/// quarantine transitions become trace instants (stamped with the calling
/// thread's current trace id), quarantine entries bump a counter.
#[derive(Clone)]
struct RouterTelemetry {
    shared: Arc<korch_telemetry::Telemetry>,
    quarantines: korch_telemetry::Counter,
}

impl RouterTelemetry {
    fn new(shared: &Arc<korch_telemetry::Telemetry>) -> Self {
        Self {
            shared: Arc::clone(shared),
            quarantines: shared.metrics().counter("router.quarantines"),
        }
    }

    fn instant(&self, kind: korch_telemetry::EventKind) {
        let rec = self.shared.recorder();
        if !rec.is_enabled() {
            return;
        }
        rec.record(korch_telemetry::TraceEvent {
            trace: korch_telemetry::current_trace(),
            start_us: rec.now_us(),
            dur_us: 0.0,
            kind,
        });
    }
}

/// Load-aware router over N shards: picks the least-loaded live shard,
/// retries failed runs on untried siblings, and tracks per-shard serving
/// counters. Shared via `Arc` so runs that started before a shard-set
/// swap keep decrementing the counters they incremented.
pub struct ShardRouter {
    slots: Vec<Arc<ShardSlot>>,
    /// Rotating tie-break start for load comparisons: on a host where
    /// runs serialize (every claim sees all-zero in-flight counts), a
    /// fixed scan order would route everything to shard 0.
    cursor: AtomicUsize,
    telemetry: Option<RouterTelemetry>,
}

impl ShardRouter {
    /// Router over `n` shards (clamped to ≥ 1).
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        Self {
            slots: (0..n).map(|_| Arc::new(ShardSlot::default())).collect(),
            cursor: AtomicUsize::new(0),
            telemetry: None,
        }
    }

    /// The same router, recording routing/quarantine events into
    /// `telemetry` (`None` detaches — the zero-cost default).
    /// [`ShardRouter::inheriting`] carries the sink across swaps.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Option<&Arc<korch_telemetry::Telemetry>>) -> Self {
        self.telemetry = telemetry.map(RouterTelemetry::new);
        self
    }

    /// Router over `n` shards **inheriting** `prev`'s per-shard state by
    /// index: carried shards share the very same counters (served,
    /// failures, adopted, in-flight), so cumulative serving statistics
    /// survive a shard-set or recalibration swap and runs still draining
    /// on the old snapshot keep being accounted where the new router can
    /// see them. Carried shards have their quarantine reset — a swap
    /// provisions fresh executors, which deserve a clean slate; shards
    /// beyond `prev`'s width start fresh.
    pub fn inheriting(n: usize, prev: &ShardRouter) -> Self {
        let n = n.max(1);
        Self {
            slots: (0..n)
                .map(|i| match prev.slots.get(i) {
                    Some(slot) => {
                        slot.consecutive_failures.store(0, Ordering::Release);
                        Arc::clone(slot)
                    }
                    None => Arc::new(ShardSlot::default()),
                })
                .collect(),
            cursor: AtomicUsize::new(0),
            telemetry: prev.telemetry.clone(),
        }
    }

    /// Number of shards routed over.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Snapshot of every shard's counters.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.slots
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardStats {
                shard,
                in_flight: s.in_flight.load(Ordering::Acquire),
                served: s.served.load(Ordering::Acquire),
                failures: s.failures.load(Ordering::Acquire),
                adopted: s.adopted.load(Ordering::Acquire),
                consecutive_failures: s.consecutive_failures.load(Ordering::Acquire),
                live: !s.quarantined(),
            })
            .collect()
    }

    /// Claims the best untried shard: live before quarantined, then
    /// lowest in-flight count, ties broken by the rotating cursor.
    /// Increments the winner's in-flight counter. `None` when every
    /// shard has been tried.
    fn claim(&self, tried: &[bool]) -> Option<usize> {
        let n = self.slots.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % n;
        let mut best: Option<(bool, usize, usize)> = None;
        for off in 0..n {
            let s = (start + off) % n;
            if tried[s] {
                continue;
            }
            let key = (
                self.slots[s].quarantined(),
                self.slots[s].in_flight.load(Ordering::Acquire),
            );
            if best.is_none_or(|(dead, load, _)| key < (dead, load)) {
                best = Some((key.0, key.1, s));
            }
        }
        let (_, _, winner) = best?;
        self.slots[winner].in_flight.fetch_add(1, Ordering::AcqRel);
        Some(winner)
    }

    /// Records the outcome of a claimed run and releases its in-flight
    /// slot. `adopted` marks a success that followed a sibling's failure.
    /// Quarantine transitions (the consecutive-failure counter crossing
    /// [`QUARANTINE_AFTER`], or a success revoking it) are recorded as
    /// trace instants when a telemetry sink is attached.
    fn complete(&self, shard: usize, ok: bool, adopted: bool) {
        let slot = &self.slots[shard];
        slot.in_flight.fetch_sub(1, Ordering::AcqRel);
        if ok {
            slot.served.fetch_add(1, Ordering::AcqRel);
            let streak = slot.consecutive_failures.swap(0, Ordering::AcqRel);
            if adopted {
                slot.adopted.fetch_add(1, Ordering::AcqRel);
            }
            if streak >= QUARANTINE_AFTER {
                if let Some(t) = &self.telemetry {
                    t.instant(korch_telemetry::EventKind::Quarantine {
                        shard,
                        entered: false,
                    });
                }
            }
        } else {
            slot.failures.fetch_add(1, Ordering::AcqRel);
            let streak = slot.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
            if streak == QUARANTINE_AFTER {
                if let Some(t) = &self.telemetry {
                    t.quarantines.inc();
                    t.instant(korch_telemetry::EventKind::Quarantine {
                        shard,
                        entered: true,
                    });
                }
            }
        }
    }

    /// Runs `attempt` on the least-loaded live shard, retrying on untried
    /// siblings while attempts fail. Returns the first success, or the
    /// last error once every shard has been tried — exactly one outcome
    /// per call (see the module docs on exactly-once delivery).
    ///
    /// # Errors
    ///
    /// Propagates the final attempt's [`ExecError`] after all shards
    /// failed.
    pub fn route<T>(
        &self,
        mut attempt: impl FnMut(usize) -> Result<T, ExecError>,
    ) -> Result<T, ExecError> {
        let mut tried = vec![false; self.slots.len()];
        let mut retrying = false;
        let mut last_err = None;
        while let Some(shard) = self.claim(&tried) {
            tried[shard] = true;
            if let Some(t) = &self.telemetry {
                t.instant(korch_telemetry::EventKind::Routed {
                    shard,
                    in_flight: self.slots[shard].in_flight.load(Ordering::Acquire),
                    retry: retrying,
                });
            }
            match attempt(shard) {
                Ok(v) => {
                    self.complete(shard, true, retrying);
                    return Ok(v);
                }
                Err(e) => {
                    self.complete(shard, false, false);
                    retrying = true;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err
            .unwrap_or_else(|| ExecError::Input("shard router has no shard to run on".into())))
    }
}

/// N independent replicas of one model behind a [`ShardRouter`] — the
/// generic building block sharded serving is made of (and the seam tests
/// use to induce per-shard failures). [`ShardedExecutor`] is the
/// `PlanExecutor`-typed production variant with profile merging.
pub struct ShardSet {
    shards: Vec<Arc<dyn Model>>,
    router: ShardRouter,
}

impl ShardSet {
    /// Routes over the given replicas. Every replica must compute the
    /// same function for retry-on-sibling to be transparent. Unlike
    /// [`ShardedExecutor`], a generic `dyn Model` cannot be asked to
    /// pre-validate a request, so a deterministically malformed input is
    /// tried (and counted as a failure) on every shard — wrap replicas
    /// that can validate cheaply, or use `ShardedExecutor` for plans.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is empty — an empty set can serve nothing.
    pub fn new(shards: Vec<Arc<dyn Model>>) -> Self {
        assert!(!shards.is_empty(), "a shard set needs at least one shard");
        let router = ShardRouter::new(shards.len());
        Self { shards, router }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard serving counters.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.router.stats()
    }
}

impl Model for ShardSet {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.router.route(|s| self.shards[s].run(inputs))
    }
}

/// The swappable half of a [`ShardedExecutor`]: replicas and their router
/// always replaced together, so routing state never outlives the shard
/// set it describes (in-flight runs hold the `Arc`s they started with).
struct ShardBank {
    shards: Arc<Vec<Arc<PlanExecutor>>>,
    router: Arc<ShardRouter>,
    /// Completed [`ShardedExecutor::replan`] swaps. Re-provisioning the
    /// width keeps it — replicas run the plan they were copied from.
    generation: u64,
}

/// `current` resized to `n` shards: surplus replicas dropped, the deficit
/// replicated from shard 0 (fresh executor and arena over the same plan),
/// kept shards staying warm. Compiles executors — call it outside the
/// bank lock.
fn resized(current: &[Arc<PlanExecutor>], n: usize) -> Result<Vec<Arc<PlanExecutor>>, ExecError> {
    let mut shards: Vec<Arc<PlanExecutor>> = current.iter().take(n).cloned().collect();
    while shards.len() < n {
        shards.push(Arc::new(current[0].replicate()?));
    }
    Ok(shards)
}

/// One plan replicated across N [`PlanExecutor`]s (each with its own
/// buffer arena and worker pool) behind a [`ShardRouter`]. Implements
/// [`Model`], so a `Server` can serve it directly; implements
/// [`ShardControl`], so `Server::start_sharded` can provision it from
/// `BatchConfig::shards`.
pub struct ShardedExecutor {
    bank: RwLock<ShardBank>,
}

impl ShardedExecutor {
    /// Compiles `plan` over `g` once per shard (clamped to ≥ 1 shard).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when the plan is not executable (same
    /// contract as [`PlanExecutor::new`]).
    pub fn new(
        g: &korch_ir::PrimGraph,
        plan: &korch_orch::Plan,
        config: crate::RuntimeConfig,
        shards: usize,
    ) -> Result<Self, ExecError> {
        let n = shards.max(1);
        let router = ShardRouter::new(n).with_telemetry(config.telemetry.as_ref());
        let first = Arc::new(PlanExecutor::new(g, plan, config)?);
        Ok(Self {
            bank: RwLock::new(ShardBank {
                shards: Arc::new(resized(&[first], n)?),
                router: Arc::new(router),
                generation: 0,
            }),
        })
    }

    fn snapshot(&self) -> (Arc<Vec<Arc<PlanExecutor>>>, Arc<ShardRouter>) {
        let bank = self.bank.read().expect("shard bank poisoned");
        (Arc::clone(&bank.shards), Arc::clone(&bank.router))
    }

    /// The live shard set (index = shard id). Every shard runs the same
    /// graph and plan; holders keep the executors they observed across a
    /// later [`ShardedExecutor::replan`] or re-provisioning.
    pub fn shards(&self) -> Arc<Vec<Arc<PlanExecutor>>> {
        self.snapshot().0
    }

    /// Current number of shards.
    pub fn shard_count(&self) -> usize {
        self.snapshot().0.len()
    }

    /// Completed [`ShardedExecutor::replan`] swaps (0 at construction).
    pub fn generation(&self) -> u64 {
        self.bank.read().expect("shard bank poisoned").generation
    }

    /// Swaps **every** shard onto `plan` over `g` in one write: fresh
    /// executors (empty profiles, cold arenas) at the current width, a
    /// router inheriting the cumulative per-shard counters and the
    /// in-flight accounting of runs still draining on the old set, and a
    /// bumped [`ShardedExecutor::generation`], which is returned. Shards
    /// can therefore never run different plan generations; in-flight runs
    /// finish on the executors they claimed.
    ///
    /// Executors compile outside the lock. When a concurrent
    /// [`ShardControl::set_shards`] changes the width meanwhile, the new
    /// width is honored, not reverted: the fresh set is resized and the
    /// swap retried.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when the plan is not executable; the current
    /// shard set stays untouched.
    pub fn replan(
        &self,
        g: &korch_ir::PrimGraph,
        plan: &korch_orch::Plan,
        config: crate::RuntimeConfig,
    ) -> Result<u64, ExecError> {
        let mut fresh = vec![Arc::new(PlanExecutor::new(g, plan, config)?)];
        loop {
            let width = self.shard_count();
            fresh = resized(&fresh, width)?;
            let mut bank = self.bank.write().expect("shard bank poisoned");
            if bank.shards.len() != width {
                continue;
            }
            let generation = bank.generation + 1;
            *bank = ShardBank {
                shards: Arc::new(fresh),
                router: Arc::new(ShardRouter::inheriting(width, &bank.router)),
                generation,
            };
            return Ok(generation);
        }
    }

    /// The aggregate profile: every shard's [`RuntimeProfile`] combined
    /// via [`RuntimeProfile::merged`] (kernel stats and counters summed)
    /// — the one profile calibration fitting consumes.
    pub fn profile(&self) -> RuntimeProfile {
        let (shards, _) = self.snapshot();
        let profiles: Vec<RuntimeProfile> = shards.iter().map(|s| s.profile()).collect();
        RuntimeProfile::merged(&profiles.iter().collect::<Vec<_>>())
    }

    /// Aggregate arena counters across shards (fields summed).
    pub fn arena_stats(&self) -> crate::ArenaStats {
        let (shards, _) = self.snapshot();
        let mut total = crate::ArenaStats::default();
        for s in shards.iter() {
            let a = s.arena_stats();
            total.live_bytes += a.live_bytes;
            total.peak_bytes += a.peak_bytes;
            total.total_allocs += a.total_allocs;
            total.reuse_hits += a.reuse_hits;
            total.free_bytes += a.free_bytes;
        }
        total
    }

    /// Static memory report of the replicated plan, folded from the
    /// executor's slot table. Identical
    /// for every shard (same plan), so one copy is returned — multiply by
    /// [`ShardedExecutor::shard_count`] for the provisioned footprint.
    pub fn memory_report(&self) -> crate::MemoryReport {
        self.snapshot().0[0].memory_report().clone()
    }
}

impl Model for ShardedExecutor {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        let (shards, router) = self.snapshot();
        // Malformed requests are client errors, not shard-failure
        // evidence: reject them before routing so they neither burn a
        // retry attempt on every shard nor quarantine healthy replicas
        // (every shard runs the same plan, so shard 0's check is
        // authoritative for all).
        shards[0].validate_inputs(inputs)?;
        router.route(|s| shards[s].execute(inputs))
    }
}

impl ShardControl for ShardedExecutor {
    fn set_shards(&self, n: usize) -> Result<(), ExecError> {
        let n = n.max(1);
        loop {
            let (current, _) = self.snapshot();
            if current.len() == n {
                return Ok(());
            }
            let shards = resized(&current, n)?;
            let mut bank = self.bank.write().expect("shard bank poisoned");
            if !Arc::ptr_eq(&bank.shards, &current) {
                // Another re-provisioning or a `replan` landed while we
                // replicated; rebuild from its result instead of silently
                // discarding its replicas (and their profiles) or forking
                // the set across plan generations.
                continue;
            }
            *bank = ShardBank {
                shards: Arc::new(shards),
                router: Arc::new(ShardRouter::inheriting(n, &bank.router)),
                generation: bank.generation,
            };
            return Ok(());
        }
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.snapshot().1.stats()
    }
}

/// A model whose execution resources can be re-provisioned into N
/// independent shard replicas of its current plan snapshot — the facet
/// `Server::start_sharded` / `Server::start_tuned_sharded` drive from
/// `BatchConfig::shards`. Implemented by [`ShardedExecutor`] and by
/// `korch_core`'s `CompiledModel` / `SelfTuningModel`.
pub trait ShardControl: Send + Sync {
    /// Re-provisions to `n` shards (clamped to ≥ 1). Growing replicates
    /// the current plan snapshot into fresh executors; shrinking drops
    /// surplus replicas. On error the current shard set stays untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when a replica cannot be compiled.
    fn set_shards(&self, n: usize) -> Result<(), ExecError>;

    /// Per-shard serving counters of the current shard set.
    fn shard_stats(&self) -> Vec<ShardStats>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Echoes input; optionally fails every run; counts calls.
    struct Replica {
        fail: bool,
        calls: AtomicU64,
    }

    impl Replica {
        fn healthy() -> Arc<Self> {
            Arc::new(Self {
                fail: false,
                calls: AtomicU64::new(0),
            })
        }
        fn broken() -> Arc<Self> {
            Arc::new(Self {
                fail: true,
                calls: AtomicU64::new(0),
            })
        }
    }

    impl Model for Replica {
        fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if self.fail {
                Err(ExecError::Input("induced".into()))
            } else {
                Ok(inputs.to_vec())
            }
        }
    }

    #[test]
    fn router_spreads_serialized_traffic_across_shards() {
        let router = ShardRouter::new(4);
        // Serialized host: every claim sees zero in-flight everywhere;
        // the rotating cursor must still spread the picks.
        for _ in 0..8 {
            router.route(|_| Ok::<(), ExecError>(())).unwrap();
        }
        let stats = router.stats();
        assert_eq!(stats.iter().map(|s| s.served).sum::<u64>(), 8);
        assert!(
            stats.iter().all(|s| s.served == 2),
            "rotation must round-robin idle shards: {stats:?}"
        );
        assert!(stats.iter().all(|s| s.in_flight == 0 && s.live));
    }

    #[test]
    fn failed_runs_retry_on_siblings_exactly_once() {
        let replicas = [Replica::broken(), Replica::healthy(), Replica::broken()];
        let set = ShardSet::new(
            replicas
                .iter()
                .map(|r| Arc::clone(r) as Arc<dyn Model>)
                .collect(),
        );
        for i in 0..6 {
            let out = set.run(&[Tensor::full(vec![2], i as f32)]).unwrap();
            assert_eq!(out[0].as_slice(), &[i as f32; 2]);
        }
        let stats = set.shard_stats();
        // Every request was served by exactly one shard (the healthy one).
        assert_eq!(stats.iter().map(|s| s.served).sum::<u64>(), 6);
        assert_eq!(stats[1].served, 6);
        // Each shard's call count equals its served + failed attempts:
        // nothing ran off the router's books.
        for (r, s) in replicas.iter().zip(&stats) {
            assert_eq!(r.calls.load(Ordering::SeqCst), s.served + s.failures);
        }
        // Requests that hit a broken shard first were adopted by the
        // healthy sibling — at least one (the rotating cursor guarantees
        // broken shards get first claims), never more than the failures
        // that preceded them.
        assert!(stats[1].adopted >= 1, "no retry was adopted: {stats:?}");
        assert!(stats[1].adopted <= stats[0].failures + stats[2].failures);
    }

    #[test]
    fn all_shards_failing_returns_one_error_and_quarantines() {
        let set = ShardSet::new(vec![
            Replica::broken() as Arc<dyn Model>,
            Replica::broken() as Arc<dyn Model>,
        ]);
        for _ in 0..QUARANTINE_AFTER {
            assert!(set.run(&[Tensor::zeros(vec![1])]).is_err());
        }
        let stats = set.shard_stats();
        assert!(stats.iter().all(|s| !s.live), "all shards quarantined");
        assert_eq!(stats.iter().map(|s| s.served).sum::<u64>(), 0);
        // Quarantine is a preference, not a denial of service: the next
        // request is still attempted (and still fails with one error).
        assert!(set.run(&[Tensor::zeros(vec![1])]).is_err());
        let after = set.shard_stats();
        assert!(
            after.iter().map(|s| s.failures).sum::<u64>()
                > stats.iter().map(|s| s.failures).sum::<u64>(),
            "quarantined shards must still be tried when no live shard exists"
        );
    }

    #[test]
    fn sharded_executor_rejects_malformed_requests_before_routing() {
        use korch_ir::{EwFn, PrimKind};
        use korch_tensor::UnaryOp as U;
        let mut g = korch_ir::PrimGraph::new();
        let x = g
            .add(PrimKind::Input { shape: vec![4, 4] }, vec![])
            .unwrap();
        let e = g
            .add(PrimKind::Elementwise(EwFn::Unary(U::Exp)), vec![x.into()])
            .unwrap();
        g.mark_output(e).unwrap();
        let plan = korch_orch::Orchestrator::new(korch_cost::Device::v100())
            .orchestrate(&g)
            .unwrap()
            .plan;
        let exec = ShardedExecutor::new(&g, &plan, crate::RuntimeConfig::with_lanes(1), 3).unwrap();
        // Wrong arity and wrong shape are client errors: rejected before
        // routing, no shard blamed, nothing quarantined.
        assert!(exec.run(&[]).is_err());
        assert!(exec.run(&[Tensor::zeros(vec![2, 2])]).is_err());
        let stats = ShardControl::shard_stats(&exec);
        assert!(
            stats.iter().all(|s| s.failures == 0 && s.live),
            "client errors must not burn shard counters: {stats:?}"
        );
        // A well-formed request still serves.
        assert!(exec.run(&[Tensor::zeros(vec![4, 4])]).is_ok());
    }

    /// One `replan` swaps every shard onto fresh executors at the current
    /// width, bumps the generation once, and keeps the serving books;
    /// re-provisioning afterwards replicates the *new* plan and leaves the
    /// generation alone.
    #[test]
    fn replan_swaps_every_shard_in_one_generation() {
        use korch_ir::{EwFn, PrimKind};
        let mut g = korch_ir::PrimGraph::new();
        let x = g.add(PrimKind::Input { shape: vec![4] }, vec![]).unwrap();
        let exp = PrimKind::Elementwise(EwFn::Unary(korch_tensor::UnaryOp::Exp));
        let e = g.add(exp, vec![x.into()]).unwrap();
        g.mark_output(e).unwrap();
        let plan = korch_orch::Orchestrator::new(korch_cost::Device::v100())
            .orchestrate(&g)
            .unwrap()
            .plan;
        let config = crate::RuntimeConfig::with_lanes(1);
        let exec = ShardedExecutor::new(&g, &plan, config.clone(), 3).unwrap();
        let input = [Tensor::random(vec![4], 1)];
        let reference = exec.run(&input).unwrap();
        let old = exec.shards();
        // The re-planned program is told apart by its price tag.
        let mut repriced = plan.clone();
        repriced.total_latency = korch_cost::Micros(plan.total_latency.0 * 2.0);
        assert_eq!(exec.replan(&g, &repriced, config).unwrap(), 1);
        assert_eq!(exec.generation(), 1);
        let fresh = exec.shards();
        assert_eq!(fresh.len(), 3, "a swap keeps the width");
        for (s, shard) in fresh.iter().enumerate() {
            assert!(old.iter().all(|o| !Arc::ptr_eq(o, shard)));
            assert_eq!(shard.profile().runs, 0, "shard {s} must start fresh");
            assert_eq!(shard.plan().total_latency, repriced.total_latency);
        }
        assert_eq!(exec.profile().runs, 0);
        let served = |e: &ShardedExecutor| e.shard_stats().iter().map(|s| s.served).sum::<u64>();
        assert_eq!(served(&exec), 1, "serving books span the swap");
        assert_eq!(exec.run(&input).unwrap()[0], reference[0]);
        assert_eq!(old[0].execute(&input).unwrap()[0], reference[0]);
        exec.set_shards(5).unwrap();
        assert_eq!(exec.generation(), 1, "re-provisioning is not a re-plan");
        assert!(exec
            .shards()
            .iter()
            .all(|s| s.plan().total_latency == repriced.total_latency));
        assert_eq!(served(&exec), 2);
    }

    #[test]
    fn inheriting_router_carries_counters_and_resets_quarantine() {
        let old = ShardRouter::new(2);
        old.route(|_| Ok::<(), ExecError>(())).unwrap();
        for _ in 0..QUARANTINE_AFTER {
            // Pin the failures to shard 1 by succeeding on shard 0 first.
            let mut tried = vec![false; 2];
            let s = old.claim(&tried).unwrap();
            old.complete(s, s == 0, false);
            tried[s] = true;
            if s == 0 {
                let s1 = old.claim(&tried).unwrap();
                old.complete(s1, false, false);
            }
        }
        let grown = ShardRouter::inheriting(4, &old);
        let stats = grown.stats();
        assert_eq!(stats.len(), 4);
        // Cumulative books survive the swap; quarantine does not.
        assert_eq!(
            stats.iter().map(|s| s.served).sum::<u64>(),
            old.stats().iter().map(|s| s.served).sum::<u64>()
        );
        assert!(stats.iter().all(|s| s.live), "swap must reset quarantine");
        assert!(stats[1].failures >= QUARANTINE_AFTER);
        // Shared slots: a completion recorded through the OLD router is
        // visible to the new one (in-flight runs drain onto the books).
        old.route(|_| Ok::<(), ExecError>(())).unwrap();
        assert_eq!(
            grown.stats().iter().map(|s| s.served).sum::<u64>(),
            old.stats().iter().map(|s| s.served).sum::<u64>()
        );
        // Shrinking keeps the surviving prefix's books.
        let shrunk = ShardRouter::inheriting(1, &old);
        assert_eq!(shrunk.stats()[0].served, old.stats()[0].served);
    }

    #[test]
    fn quarantined_shard_revives_on_success() {
        let router = ShardRouter::new(1);
        for streak in 1..=QUARANTINE_AFTER {
            let _ = router.route(|_| Err::<(), _>(ExecError::Input("x".into())));
            assert_eq!(
                router.stats()[0].consecutive_failures,
                streak,
                "the failure streak must be reported live"
            );
        }
        assert!(!router.stats()[0].live);
        router.route(|_| Ok::<(), ExecError>(())).unwrap();
        let stats = router.stats();
        assert!(stats[0].live, "a success must reset quarantine");
        assert_eq!(
            stats[0].consecutive_failures, 0,
            "a success must clear the streak"
        );
    }

    /// A telemetry-wired router records a `Routed` instant per attempt
    /// and exactly one `Quarantine` entry/exit pair per streak, while the
    /// quarantine counter counts entries.
    #[test]
    fn telemetered_router_records_routing_and_quarantine_transitions() {
        use korch_telemetry::{EventKind, Telemetry};
        let telemetry = Telemetry::shared();
        let router = ShardRouter::new(1).with_telemetry(Some(&telemetry));
        for _ in 0..QUARANTINE_AFTER {
            let _ = router.route(|_| Err::<(), _>(ExecError::Input("x".into())));
        }
        router.route(|_| Ok::<(), ExecError>(())).unwrap();
        let events = telemetry.recorder().snapshot();
        let routed = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Routed { .. }))
            .count();
        assert_eq!(routed, QUARANTINE_AFTER as usize + 1);
        let entries: Vec<bool> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Quarantine { entered, .. } => Some(entered),
                _ => None,
            })
            .collect();
        assert_eq!(
            entries,
            vec![true, false],
            "one quarantine entry at the threshold, one exit on revival"
        );
        assert_eq!(
            telemetry.metrics().snapshot().counter("router.quarantines"),
            Some(1)
        );
    }
}
