//! Server concurrency stress: many submitter threads racing a shutdown
//! must never lose a response, and the statistics must honor their
//! structural contracts (nearest-rank percentiles, conservation of
//! request counts). Designed for the 1-core CI container: every assertion
//! is about structure — counts, orderings, bounds — never wall-clock.

use korch::exec::ExecError;
use korch::runtime::{
    BatchConfig, Model, RecalibrationPolicy, ResponseHandle, SelfTune, Server, TuneOutcome,
};
use korch::tensor::Tensor;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// Echoes its input and counts executions.
struct Echo {
    served: AtomicU64,
}

impl Model for Echo {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.served.fetch_add(1, Ordering::SeqCst);
        Ok(inputs.to_vec())
    }
}

/// N concurrent submitters race a shutdown fired mid-storm: every
/// submission resolves exactly once (served or `Shutdown`, never a hang),
/// the server's request counter equals the number of delivered successes,
/// and every delivered response matches its own request.
#[test]
fn concurrent_submitters_race_shutdown_without_losing_responses() {
    let submitters = 4u64;
    let per_thread = 16u64;
    for round in 0u64..6 {
        let model = Arc::new(Echo {
            served: AtomicU64::new(0),
        });
        let server = Arc::new(RwLock::new(Some(Server::start(
            Arc::clone(&model) as Arc<dyn Model>,
            BatchConfig {
                shards: 4,
                ..Default::default()
            },
        ))));
        let oks = Arc::new(AtomicU64::new(0));
        let rejected = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..submitters)
            .map(|t| {
                let server = Arc::clone(&server);
                let oks = Arc::clone(&oks);
                let rejected = Arc::clone(&rejected);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let payload = Tensor::full(vec![2], (t * per_thread + i) as f32);
                        // Take the handle under the read lock, wait outside
                        // it: the shutdown thread's write lock interleaves
                        // between submissions, racing for real.
                        let handle = {
                            let guard = server.read().expect("server lock");
                            match guard.as_ref() {
                                Some(s) => s.submit(vec![payload.clone()]),
                                None => {
                                    rejected.fetch_add(1, Ordering::SeqCst);
                                    continue;
                                }
                            }
                        };
                        match handle.wait() {
                            Ok(out) => {
                                // Responses must match their own request,
                                // not another racer's.
                                assert_eq!(out[0].as_slice(), payload.as_slice());
                                oks.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(_) => {
                                rejected.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                })
            })
            .collect();
        // Vary how deep into the storm the shutdown lands; round 0 fires
        // it immediately, later rounds let more traffic through first.
        std::thread::sleep(Duration::from_millis(round));
        let stats = server
            .write()
            .expect("server lock")
            .take()
            .expect("server present")
            .shutdown();
        for t in threads {
            t.join().expect("submitter panicked");
        }
        let ok = oks.load(Ordering::SeqCst);
        let failed = rejected.load(Ordering::SeqCst);
        assert_eq!(
            ok + failed,
            submitters * per_thread,
            "every submission must resolve exactly once"
        );
        assert_eq!(
            stats.requests, ok,
            "server request count must equal delivered successes"
        );
        assert_eq!(stats.errors, 0, "echo model never fails");
        assert_eq!(model.served.load(Ordering::SeqCst), ok);
        // Nearest-rank percentile contract over whatever window remains:
        // percentiles are real samples, so p50 ≤ p95 and both bracket the
        // window's extremes ordering-wise.
        if stats.requests > 0 {
            assert!(stats.p50_latency_us > 0.0);
            assert!(stats.p95_latency_us >= stats.p50_latency_us);
            assert!(stats.mean_latency_us > 0.0);
            assert!(stats.throughput_rps > 0.0);
        }
        // No tuner attached: the recalibration stats must stay inert.
        assert_eq!(stats.recalibrations, 0);
        assert!(stats.last_model_error.is_none());
    }
}

/// A tuned server whose model reports permanent drift: submissions racing
/// the background recalibrations still all resolve, failed retunes leave
/// serving untouched, and the recalibration counters stay consistent with
/// the tuner's own accounting.
struct FlakyTuner {
    inner: Echo,
    retunes: AtomicU64,
}

impl Model for FlakyTuner {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        self.inner.run(inputs)
    }
}

impl SelfTune for FlakyTuner {
    fn model_error(&self) -> Option<f64> {
        Some(1.0) // permanently drifted: every check fires a retune
    }

    fn retune(&self) -> Result<TuneOutcome, String> {
        let n = self.retunes.fetch_add(1, Ordering::SeqCst);
        if n % 2 == 1 {
            // Failed retunes must leave serving untouched.
            return Err("transient".into());
        }
        Ok(TuneOutcome {
            model_error_before: 1.0,
            model_error_after: 0.1,
        })
    }
}

#[test]
fn tuned_server_survives_retune_races() {
    for _ in 0..4 {
        let model = Arc::new(FlakyTuner {
            inner: Echo {
                served: AtomicU64::new(0),
            },
            retunes: AtomicU64::new(0),
        });
        let server = Server::start_tuned(
            Arc::clone(&model),
            BatchConfig {
                shards: 2,
                recalibration: RecalibrationPolicy {
                    every_n_requests: 2,
                    model_error_threshold: 0.5,
                },
                ..Default::default()
            },
        );
        let handles: Vec<_> = (0..24)
            .map(|i| server.submit(vec![Tensor::full(vec![2], i as f32)]))
            .collect();
        let mut ok = 0u64;
        for (i, h) in handles.into_iter().enumerate() {
            let out = h.wait().expect("no shutdown raced: must be served");
            assert_eq!(out[0].as_slice(), &[i as f32; 2]);
            ok += 1;
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests, ok);
        assert_eq!(ok, 24);
        // Retunes alternate success/failure; only successes may count.
        let attempts = model.retunes.load(Ordering::SeqCst);
        let successes = attempts.div_ceil(2);
        assert_eq!(
            stats.recalibrations, successes,
            "every successful retune (and only those) must be counted \
             ({attempts} attempts)"
        );
        // The last drift event is either a periodic check (1.0) or a
        // completed retune's post-fit error (0.1), depending on the race.
        let last = stats.last_model_error.expect("drift was sampled");
        assert!(last == 1.0 || last == 0.1, "unexpected drift sample {last}");
        assert!(stats.p95_latency_us >= stats.p50_latency_us);
    }
}

/// Runs `body` on its own thread and fails the test if it has not
/// returned within 30 s: the structural tests below assert that something
/// *happens*, and a server that breaks them hangs rather than errs.
fn within_hang_guard(what: &str, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{what} hung"));
    thread.join().expect("guarded body panicked");
}

/// Work conservation, as a latch: request A returns only after
/// request B — submitted *after A started running* — has entered
/// `run`. A second worker picks B up while A is in flight; behind a
/// batch barrier B would wait for A's batch and A for B, forever.
#[test]
fn a_request_starts_while_another_is_in_flight() {
    struct Latch {
        a_started: Mutex<mpsc::Sender<()>>,
        b_entered: (Mutex<bool>, Condvar),
    }
    impl Model for Latch {
        fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
            let (entered, cv) = &self.b_entered;
            if inputs[0].as_slice()[0] == 0.0 {
                let _ = self.a_started.lock().unwrap().send(());
                let mut e = entered.lock().unwrap();
                while !*e {
                    e = cv.wait(e).unwrap();
                }
            } else {
                *entered.lock().unwrap() = true;
                cv.notify_all();
            }
            Ok(inputs.to_vec())
        }
    }
    within_hang_guard("request B behind in-flight request A", || {
        let (tx, a_started) = mpsc::channel();
        let server = Server::start(
            Arc::new(Latch {
                a_started: Mutex::new(tx),
                b_entered: (Mutex::new(false), Condvar::new()),
            }),
            BatchConfig {
                shards: 2,
                ..Default::default()
            },
        );
        let a = server.submit(vec![Tensor::full(vec![1], 0.0)]);
        a_started.recv().expect("request A starts");
        let b = server.submit(vec![Tensor::full(vec![1], 1.0)]);
        a.wait().expect("A is released by B entering run");
        b.wait().expect("B");
        assert_eq!(server.shutdown().requests, 2);
    });
}

/// No timer: a lone request on a server told to hold batches for an
/// hour resolves at once.
#[test]
fn a_lone_request_waits_for_no_timer() {
    within_hang_guard("a lone request", || {
        let server = Server::start(
            Arc::new(Echo {
                served: AtomicU64::new(0),
            }),
            BatchConfig {
                max_wait: Duration::from_secs(3600),
                ..Default::default()
            },
        );
        server.infer(vec![Tensor::zeros(vec![2])]).expect("served");
    });
}

/// Announces every run, then holds it until the test hands out a
/// permit: the test decides when each worker comes free.
struct Gated {
    started: Mutex<mpsc::Sender<u32>>,
    permits: (Mutex<usize>, Condvar),
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
}

impl Gated {
    fn release(&self, n: usize) {
        *self.permits.0.lock().unwrap() += n;
        self.permits.1.notify_all();
    }
}

impl Model for Gated {
    fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_in_flight.fetch_max(now, Ordering::SeqCst);
        let id = inputs[0].as_slice()[0] as u32;
        let _ = self.started.lock().unwrap().send(id);
        let (permits, cv) = &self.permits;
        let mut p = permits.lock().unwrap();
        while *p == 0 {
            p = cv.wait(p).unwrap();
        }
        *p -= 1;
        drop(p);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        Ok(inputs.to_vec())
    }
}

/// Saturation: with every worker held inside `run`, queued requests
/// start strictly in submission order, one per worker that comes
/// free, and never more than `cap` are in flight.
fn assert_saturates_at(cap: usize, start: impl FnOnce(Arc<Gated>) -> Server + Send + 'static) {
    within_hang_guard("a saturated server", move || {
        let (tx, started) = mpsc::channel();
        let gate = Arc::new(Gated {
            started: Mutex::new(tx),
            permits: (Mutex::new(0), Condvar::new()),
            in_flight: AtomicUsize::new(0),
            max_in_flight: AtomicUsize::new(0),
        });
        let server = start(Arc::clone(&gate));
        let total = cap + 5;
        let handles: Vec<ResponseHandle> = (0..total)
            .map(|id| server.submit(vec![Tensor::full(vec![1], id as f32)]))
            .collect();
        // The workers fill up with the oldest `cap` requests...
        let first: BTreeSet<u32> = (0..cap).map(|_| started.recv().unwrap()).collect();
        assert_eq!(first, (0..cap as u32).collect::<BTreeSet<u32>>());
        // ...and each worker that comes free takes the next in line.
        for next in cap..total {
            gate.release(1);
            assert_eq!(started.recv().unwrap(), next as u32, "FIFO dispatch");
        }
        gate.release(cap);
        for (id, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait().expect("served")[0].as_slice(), &[id as f32]);
        }
        assert!(started.try_recv().is_err(), "a request ran twice");
        assert_eq!(gate.max_in_flight.load(Ordering::SeqCst), cap);
        assert_eq!(server.shutdown().requests, total as u64);
    });
}

/// `BatchConfig::shards` is the worker count for every constructor, and
/// `max_batch` is consulted by none.
#[test]
fn saturated_plain_server_dispatches_fifo_under_the_shards_cap() {
    assert_saturates_at(3, |gate| {
        Server::start(
            gate,
            BatchConfig {
                max_batch: 7,
                shards: 3,
                ..Default::default()
            },
        )
    });
}

#[test]
fn saturated_sharded_server_dispatches_fifo_under_the_shards_cap() {
    assert_saturates_at(2, |gate| {
        Server::start_sharded(
            gate,
            BatchConfig {
                max_batch: 8,
                shards: 2,
                ..Default::default()
            },
        )
        .expect("starting a server cannot fail")
    });
}

#[test]
fn zero_shards_clamps_to_one_worker() {
    assert_saturates_at(1, |gate| {
        Server::start(
            gate,
            BatchConfig {
                max_batch: 0,
                shards: 0,
                ..Default::default()
            },
        )
    });
}
