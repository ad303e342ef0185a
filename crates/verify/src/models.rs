//! Protocol models for the runtime's atomic protocols, checked
//! exhaustively by [`crate::explore`]. Each model is the runtime's
//! actual atomic recipe transcribed as a transition system — one
//! [`Step`] per atomic RMW — with the invariant the dynamic tests only
//! spot-check:
//!
//! - [`DepCounter`]: the executor's dependency counter. Each producer
//!   retires with one `fetch_sub`; the thread that observes the counter
//!   hit 0 enqueues the dependent. Exactly-once enqueue, no lost wakeup.
//! - [`TileCountdown`]: tile assembly. Each worker stores its chunk then
//!   decrements the remaining-tiles countdown; the thread that takes the
//!   countdown to 0 assembles and must see every chunk. Assemble once,
//!   after all stores.
//! - [`ChaseLevDeque`]: the lock-free work-stealing deque at the heart of
//!   the executor's scheduler. The owner pushes and pops at the bottom;
//!   thieves race a CAS on the top. Modeled at single-atomic granularity
//!   (the owner's bottom decrement, top read, and last-element CAS are
//!   separate steps; a thief's top read and claiming CAS are separate
//!   steps), so every steal-vs-pop interleaving on the final element is
//!   explored. Tasks are conserved: consumed exactly once or still
//!   resident, never duplicated, never lost.
//! - [`ParkUnpark`]: the executor's futex-style idle protocol with
//!   surplus-only wakes. A consumer parks only after a confirmed-empty
//!   sweep validated against a versioned work-epoch counter (read epoch →
//!   sweep → publish parked flag → re-check epoch); a producer pushes the
//!   batch a retirement made ready and, because it pops one of them
//!   itself, bumps the epoch and wakes at most one parked lane per
//!   *surplus* task only; the last producer to finish wakes everyone. A
//!   lost wakeup shows up as a deadlock, and a surplus left beside a
//!   sleeping lane breaks the work-conservation invariant.
//! - [`ShutdownHandshake`]: `Server::stop` against an idle request
//!   worker. The worker checks the shutdown flag and enters its condvar
//!   wait under the admission lock; the stopper sets the flag, notifies,
//!   and joins. Setting the flag *outside* the lock lets it land between
//!   the worker's check and its wait — the notify finds no waiter and the
//!   join never returns (a deadlock to the explorer); setting it under
//!   the lock closes the window.
//! - [`AdmissionDispatch`]: the server's admission queue against its
//!   persistent request workers and `stop` — submitters push and wake
//!   the most recently idled worker, workers pop FIFO or idle, the
//!   stopper drains. Every request is answered exactly once, and no
//!   request sits queued without a taker while a worker idles.
//! - [`RunHandoff`]: `execute` offering a run to the process-wide
//!   helper-lane pool — helpers claim and attach, caller and helpers
//!   drain the run, the caller withdraws unclaimed offers, waits for the
//!   last lane to detach and recycles the run state. No lane touches a
//!   recycled state; the caller never waits on a helper that has not
//!   attached.
//! - [`CutoffHandoff`]: `Orchestrator::orchestrate_all` handing warm
//!   starts from a partition's earlier variants to its later ones —
//!   workers take jobs off one index in (partition, variant) order, each
//!   publishes its warm start under a mutex (a drop guard publishes "no
//!   bound" when the job panics first) and waits on a condvar for every
//!   earlier variant's. Every waiter reads every earlier publication and
//!   none waits forever.

use crate::explore::{explore, Exploration, ExploreError, Protocol, Step};

// ---------------------------------------------------------------------
// Dependency-counter release
// ---------------------------------------------------------------------

/// State of [`DepCounter`]: the counter, how many times the dependent was
/// enqueued, and each producer thread's program counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DepCounterState {
    counter: u32,
    enqueued: u32,
    /// Remaining `fetch_sub`s per producer thread.
    remaining: Vec<u32>,
}

/// The executor's dependency-counter protocol: `threads` producers each
/// retire `deps_per_thread` dependencies; the retirement that takes the
/// shared counter to 0 enqueues the dependent kernel.
pub struct DepCounter {
    /// Number of producer threads.
    pub threads: usize,
    /// Dependencies each producer retires.
    pub deps_per_thread: u32,
}

impl Protocol for DepCounter {
    type State = DepCounterState;

    fn name(&self) -> &'static str {
        "dep-counter-release"
    }

    fn init(&self) -> DepCounterState {
        DepCounterState {
            counter: self.threads as u32 * self.deps_per_thread,
            enqueued: 0,
            remaining: vec![self.deps_per_thread; self.threads],
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn step(&self, s: &DepCounterState, t: usize) -> Step<DepCounterState> {
        if s.remaining[t] == 0 {
            return Step::Done;
        }
        // One atomic fetch_sub; the observer of 0 enqueues in the same
        // step (the runtime does both before releasing the kernel slot).
        let mut next = s.clone();
        next.remaining[t] -= 1;
        next.counter -= 1;
        if next.counter == 0 {
            next.enqueued += 1;
        }
        Step::Next(next)
    }

    fn check(&self, s: &DepCounterState) -> Result<(), String> {
        if s.enqueued > 1 {
            return Err(format!("dependent enqueued {} times", s.enqueued));
        }
        if s.enqueued == 1 && s.counter != 0 {
            return Err(format!(
                "dependent enqueued while {} dependencies are outstanding",
                s.counter
            ));
        }
        Ok(())
    }

    fn check_final(&self, s: &DepCounterState) -> Result<(), String> {
        if s.counter != 0 {
            return Err(format!("counter stuck at {}", s.counter));
        }
        if s.enqueued != 1 {
            return Err(format!(
                "dependent enqueued {} times (lost wakeup or double release)",
                s.enqueued
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Tile-assembly countdown
// ---------------------------------------------------------------------

/// State of [`TileCountdown`]: which chunks landed, the countdown, how
/// many times assembly ran, and each worker's next tile / phase.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TileCountdownState {
    stored: Vec<bool>,
    remaining: u32,
    assembled: u32,
    /// Per-thread list of tile indices still to run; `true` in `mid` ⇒
    /// the thread stored its current chunk but has not decremented yet.
    queues: Vec<Vec<u32>>,
    mid: Vec<bool>,
}

/// The tile-assembly protocol: workers store their output chunk, then
/// decrement the shared remaining-tiles countdown; whoever takes it to 0
/// assembles the full buffer and must observe every chunk.
pub struct TileCountdown {
    /// Tile index assignments per worker thread (tiles are distinct).
    pub assignments: Vec<Vec<u32>>,
}

impl Protocol for TileCountdown {
    type State = TileCountdownState;

    fn name(&self) -> &'static str {
        "tile-assembly-countdown"
    }

    fn init(&self) -> TileCountdownState {
        let tiles: u32 = self.assignments.iter().map(|q| q.len() as u32).sum();
        TileCountdownState {
            stored: vec![false; tiles as usize],
            remaining: tiles,
            assembled: 0,
            queues: self.assignments.clone(),
            mid: vec![false; self.assignments.len()],
        }
    }

    fn threads(&self) -> usize {
        self.assignments.len()
    }

    fn step(&self, s: &TileCountdownState, t: usize) -> Step<TileCountdownState> {
        let mut next = s.clone();
        if s.mid[t] {
            // Second half: the atomic countdown decrement. The thread
            // that reaches 0 assembles immediately (same step, as the
            // runtime does while holding the last countdown token).
            next.mid[t] = false;
            next.remaining -= 1;
            if next.remaining == 0 {
                if !next.stored.iter().all(|&c| c) {
                    // Model the torn read the invariant must rule out:
                    // assembling without every chunk visible. With the
                    // store sequenced before the decrement this state is
                    // unreachable; reaching it is the bug.
                    return Step::Next(next); // assembled stays 0 → caught in check_final
                }
                next.assembled += 1;
            }
            return Step::Next(next);
        }
        let Some((&tile, rest)) = s.queues[t].split_first() else {
            return Step::Done;
        };
        // First half: publish the chunk.
        next.stored[tile as usize] = true;
        next.queues[t] = rest.to_vec();
        next.mid[t] = true;
        Step::Next(next)
    }

    fn check(&self, s: &TileCountdownState) -> Result<(), String> {
        if s.assembled > 1 {
            return Err(format!("assembled {} times", s.assembled));
        }
        if s.assembled == 1 && s.remaining != 0 {
            return Err(format!("assembled with {} tiles outstanding", s.remaining));
        }
        Ok(())
    }

    fn check_final(&self, s: &TileCountdownState) -> Result<(), String> {
        if s.remaining != 0 {
            return Err(format!("countdown stuck at {}", s.remaining));
        }
        if s.assembled != 1 {
            return Err(format!(
                "assembly ran {} times (it must run exactly once, after every chunk)",
                s.assembled
            ));
        }
        if !s.stored.iter().all(|&c| c) {
            return Err("assembly finished with a missing chunk".to_string());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Chase–Lev work-stealing deque
// ---------------------------------------------------------------------

/// One operation in a [`ChaseLevDeque`] owner's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DequeOp {
    /// Push task `.0` at the bottom.
    Push(u8),
    /// Pop from the bottom (LIFO).
    Pop,
}

/// The owner's program counter across the multi-atomic pop sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OwnerPhase {
    /// Between script operations.
    Idle,
    /// `bottom` has been lowered to `b`; `top` not yet read.
    Lowered { b: i32 },
    /// Read `top == t` with `t == b`: the contested last element. The
    /// claiming CAS on `top` is still to come.
    Race { b: i32, t: i32 },
}

/// A thief's program counter across the multi-atomic steal sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ThiefPhase {
    /// Between attempts.
    Idle,
    /// Read `top == t` (Acquire); `bottom` not yet read.
    ReadTop { t: i32 },
    /// Read `bottom > t` and the element at `t`; the claiming CAS on
    /// `top` is still to come.
    Claim { t: i32, task: u8 },
}

/// State of [`ChaseLevDeque`]: the deque's `top`/`bottom` indices and
/// buffer, per-task consumption counts, and every thread's program
/// counter mid-operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChaseLevState {
    top: i32,
    bottom: i32,
    /// `buf[i]` = task stored at logical index `i`. The runtime's deque
    /// is sized so indices never wrap, but an uncontested pop's slot IS
    /// reused by the next push — the model reuses it too.
    buf: Vec<u8>,
    /// Times each task id was consumed — must never exceed 1.
    taken: Vec<u8>,
    owner: OwnerPhase,
    script: Vec<DequeOp>,
    thieves: Vec<ThiefPhase>,
    attempts: Vec<u8>,
}

/// The executor's lock-free ready deque: the owner pushes and pops at
/// `bottom`, thieves CAS `top`. Transcribed at single-atomic
/// granularity from `korch_runtime`'s `WorkStealDeque`:
///
/// - *push*: store element, then publish `bottom` (one step — thieves
///   cannot observe the slot before the `bottom` store).
/// - *pop*: lower `bottom` (step 1), read `top` (step 2); if `top <
///   bottom` take the element uncontested, if `top == bottom` the last
///   element is contested and must be claimed by CAS on `top` (step 3).
/// - *steal*: read `top` (step 1), read `bottom` + element (step 2),
///   claim by CAS on `top` (step 3); a failed CAS retries.
///
/// Invariant: no task is ever consumed twice; terminally, every pushed
/// task was consumed exactly once or still sits in `[top, bottom)`.
pub struct ChaseLevDeque {
    /// The owner's operation script, in order.
    pub script: Vec<DequeOp>,
    /// Steal attempts per thief thread (an empty observation consumes an
    /// attempt; a lost CAS race retries without consuming one).
    pub thieves: Vec<u8>,
}

impl ChaseLevDeque {
    fn pushed(&self) -> usize {
        self.script
            .iter()
            .filter(|o| matches!(o, DequeOp::Push(_)))
            .count()
    }
}

impl Protocol for ChaseLevDeque {
    type State = ChaseLevState;

    fn name(&self) -> &'static str {
        "chase-lev-deque"
    }

    fn init(&self) -> ChaseLevState {
        ChaseLevState {
            top: 0,
            bottom: 0,
            buf: Vec::new(),
            taken: vec![0; self.pushed()],
            owner: OwnerPhase::Idle,
            script: self.script.clone(),
            thieves: vec![ThiefPhase::Idle; self.thieves.len()],
            attempts: self.thieves.clone(),
        }
    }

    fn threads(&self) -> usize {
        1 + self.thieves.len()
    }

    fn step(&self, s: &ChaseLevState, t: usize) -> Step<ChaseLevState> {
        let mut next = s.clone();
        if t == 0 {
            // The owner.
            return match s.owner {
                OwnerPhase::Idle => {
                    let Some((&op, rest)) = s.script.split_first() else {
                        return Step::Done;
                    };
                    next.script = rest.to_vec();
                    match op {
                        DequeOp::Push(task) => {
                            // Element store + Release bottom store: one
                            // step, because no thief can observe the slot
                            // until bottom moves. An uncontested pop
                            // leaves bottom on its slot, so a later push
                            // *reuses* that index — kept in the model so
                            // the stale-element hazard is explored.
                            let idx = s.bottom as usize;
                            if next.buf.len() == idx {
                                next.buf.push(task);
                            } else {
                                next.buf[idx] = task;
                            }
                            next.bottom += 1;
                        }
                        DequeOp::Pop => {
                            // b = bottom - 1; bottom.store(b) — published
                            // before top is read (SeqCst fence between).
                            next.bottom -= 1;
                            next.owner = OwnerPhase::Lowered { b: next.bottom };
                        }
                    }
                    Step::Next(next)
                }
                OwnerPhase::Lowered { b } => {
                    let t_now = s.top;
                    if t_now < b {
                        // More than one element: the bottom one is
                        // owner-exclusive (thieves top out below b).
                        next.taken[s.buf[b as usize] as usize] += 1;
                        next.owner = OwnerPhase::Idle;
                    } else if t_now == b {
                        next.owner = OwnerPhase::Race { b, t: t_now };
                    } else {
                        // Empty: restore bottom.
                        next.bottom = b + 1;
                        next.owner = OwnerPhase::Idle;
                    }
                    Step::Next(next)
                }
                OwnerPhase::Race { b, t: expected } => {
                    // CAS top: expected → expected + 1 claims the last
                    // element against any thief racing the same CAS.
                    if s.top == expected {
                        next.top = expected + 1;
                        next.taken[s.buf[b as usize] as usize] += 1;
                    }
                    // Won or lost, the deque is now empty: restore bottom.
                    next.bottom = b + 1;
                    next.owner = OwnerPhase::Idle;
                    Step::Next(next)
                }
            };
        }
        // A thief.
        let i = t - 1;
        match s.thieves[i] {
            ThiefPhase::Idle => {
                if s.attempts[i] == 0 {
                    return Step::Done;
                }
                next.thieves[i] = ThiefPhase::ReadTop { t: s.top };
                Step::Next(next)
            }
            ThiefPhase::ReadTop { t: t_seen } => {
                if t_seen >= s.bottom {
                    // Observed empty: the attempt ends.
                    next.attempts[i] -= 1;
                    next.thieves[i] = ThiefPhase::Idle;
                } else {
                    // Reading the element alongside bottom loses no
                    // interleavings: once any thread has observed
                    // `top == t_seen`, slot t_seen can never be
                    // overwritten again (reuse needs an uncontested pop
                    // there, which needs `top < t_seen` — but top is
                    // monotonic).
                    next.thieves[i] = ThiefPhase::Claim {
                        t: t_seen,
                        task: s.buf[t_seen as usize],
                    };
                }
                Step::Next(next)
            }
            ThiefPhase::Claim { t: expected, task } => {
                if s.top == expected {
                    next.top = expected + 1;
                    next.taken[task as usize] += 1;
                    next.attempts[i] -= 1;
                }
                // A lost CAS retries without consuming the attempt: top
                // only ever grows, so retries terminate.
                next.thieves[i] = ThiefPhase::Idle;
                Step::Next(next)
            }
        }
    }

    fn check(&self, s: &ChaseLevState) -> Result<(), String> {
        if let Some(task) = s.taken.iter().position(|&c| c > 1) {
            return Err(format!(
                "task {task} consumed {} times (steal/pop race double-take)",
                s.taken[task]
            ));
        }
        Ok(())
    }

    fn check_final(&self, s: &ChaseLevState) -> Result<(), String> {
        // Conservation: consumed exactly once XOR still resident.
        let resident = (s.bottom - s.top).max(0) as usize;
        let consumed: usize = s.taken.iter().map(|&c| c as usize).sum();
        if consumed + resident != self.pushed() {
            return Err(format!(
                "{} pushed but {consumed} consumed + {resident} resident (lost task)",
                self.pushed()
            ));
        }
        for idx in s.top..s.bottom {
            let task = s.buf[idx as usize];
            if s.taken[task as usize] != 0 {
                return Err(format!(
                    "task {task} consumed yet still resident at index {idx}"
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Epoch-versioned park/unpark, surplus-only wakes
// ---------------------------------------------------------------------

/// A producer's program counter in [`ParkUnpark`]: the make-ready
/// sequence of one retirement (push the batch → bump epoch → wake one
/// lane per *surplus* task → pop one of the batch itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ProdPhase {
    /// Between retirements.
    Ready,
    /// Batch pushed with `surplus` tasks beyond the pusher's own; the
    /// epoch bump is next.
    Bump { surplus: u8 },
    /// Epoch bumped; `left` wake-one scans remain.
    Wake { left: u8 },
    /// Announce done (or skipped: no surplus); the pusher's own pop is
    /// next.
    Take,
    /// Script exhausted and the exit decrement taken: never moves again.
    Exited,
}

/// A consumer's program counter in [`ParkUnpark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConsPhase {
    /// Top of the worker loop: read the epoch, then sweep.
    Scan,
    /// Epoch `e` read; sweeping all deques for work.
    Sweep { e: u8 },
    /// Sweep confirmed empty and the parked flag is published; the
    /// epoch/done recheck is next.
    Recheck { e: u8 },
    /// Parked: blocked until granted a token.
    Parked,
}

/// State of [`ParkUnpark`]: the abstract ready-work count, the work
/// epoch, per-consumer parked flags and wake tokens, and every thread's
/// program counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParkUnparkState {
    work: u8,
    epoch: u8,
    parked: Vec<bool>,
    token: Vec<bool>,
    done: bool,
    consumed: u8,
    producers_left: u8,
    prod: Vec<ProdPhase>,
    /// Batches each producer has yet to make ready.
    batches: Vec<Vec<u8>>,
    cons: Vec<ConsPhase>,
}

/// The executor's futex-style idle protocol with **surplus-only wakes**,
/// transcribed at single-atomic granularity. A producer is a lane
/// retiring a kernel: it pushes the batch of tasks the retirement made
/// ready onto its own deque and will pop one of them itself, so only the
/// *surplus* — the batch minus one — needs another lane. With a surplus
/// it bumps the shared work epoch and wakes **at most one** parked lane
/// per surplus task (CAS its flag, grant a token); a batch of one (every
/// link of a chain-shaped plan) bumps nothing and wakes nobody. The last
/// producer to finish sets `done` and wakes everyone. A consumer pops
/// work while it can; on empty it reads the epoch, sweeps (confirms
/// empty), publishes its parked flag, then **rechecks** epoch/work/done
/// — only if nothing changed does it actually block.
///
/// A lost wakeup is caught twice over. The explorer's deadlock detection
/// finds a consumer blocked with no token while nobody can move. And the
/// safety invariant is lane-level work conservation: once a pusher's
/// announce is over, there are never more queued tasks than awake lanes
/// to take them while some lane sleeps un-woken — which implies the
/// runtime's "never a task queued and every lane parked", and is what
/// rejects the twin that pushes a surplus and wakes nobody (its own pop
/// would still drain the queue, just serially).
pub struct ParkUnpark {
    /// Per producer, the size of each batch it makes ready, in order.
    pub producers: Vec<Vec<u8>>,
    /// Number of consumer lanes.
    pub consumers: usize,
    /// Whether a surplus wakes parked lanes (the shipped protocol) or
    /// nobody (the broken twin).
    pub wake_surplus: bool,
}

impl ParkUnpark {
    fn total(&self) -> u8 {
        self.producers.iter().flatten().sum()
    }
}

impl Protocol for ParkUnpark {
    type State = ParkUnparkState;

    fn name(&self) -> &'static str {
        "park-unpark-epoch"
    }

    fn init(&self) -> ParkUnparkState {
        ParkUnparkState {
            work: 0,
            epoch: 0,
            parked: vec![false; self.consumers],
            token: vec![false; self.consumers],
            done: false,
            consumed: 0,
            producers_left: self.producers.len() as u8,
            prod: vec![ProdPhase::Ready; self.producers.len()],
            batches: self.producers.clone(),
            cons: vec![ConsPhase::Scan; self.consumers],
        }
    }

    fn threads(&self) -> usize {
        self.producers.len() + self.consumers
    }

    fn step(&self, s: &ParkUnparkState, t: usize) -> Step<ParkUnparkState> {
        let mut next = s.clone();
        if t < self.producers.len() {
            return match s.prod[t] {
                ProdPhase::Ready => {
                    if s.batches[t].is_empty() {
                        // Last producer out sets done and wakes everyone
                        // (the runtime's last-retire / fail() path).
                        next.producers_left -= 1;
                        if next.producers_left == 0 {
                            next.done = true;
                            for i in 0..self.consumers {
                                if next.parked[i] {
                                    next.parked[i] = false;
                                    next.token[i] = true;
                                }
                            }
                        }
                        next.prod[t] = ProdPhase::Exited;
                        return Step::Next(next);
                    }
                    let batch = next.batches[t].remove(0);
                    next.work += batch; // the deque pushes (Release)
                    next.prod[t] = match batch.saturating_sub(1) {
                        0 => ProdPhase::Take,
                        surplus => ProdPhase::Bump { surplus },
                    };
                    Step::Next(next)
                }
                ProdPhase::Bump { surplus } => {
                    next.epoch = next.epoch.wrapping_add(1); // fetch_add SeqCst
                    next.prod[t] = ProdPhase::Wake { left: surplus };
                    Step::Next(next)
                }
                ProdPhase::Wake { left } => {
                    // One CAS of the scan: parked true→false, grant the
                    // token. The scan ends on its budget or when no flag
                    // is left raised.
                    let woke = self
                        .wake_surplus
                        .then(|| (0..self.consumers).find(|&i| s.parked[i]))
                        .flatten();
                    if let Some(i) = woke {
                        next.parked[i] = false;
                        next.token[i] = true;
                    }
                    next.prod[t] = match (woke, left - 1) {
                        (Some(_), left @ 1..) => ProdPhase::Wake { left },
                        _ => ProdPhase::Take,
                    };
                    Step::Next(next)
                }
                ProdPhase::Take => {
                    // Back in its worker loop the pusher pops its own
                    // deque — unless a thief got there first.
                    if s.work > 0 {
                        next.work -= 1;
                        next.consumed += 1;
                    }
                    next.prod[t] = ProdPhase::Ready;
                    Step::Next(next)
                }
                ProdPhase::Exited => Step::Done,
            };
        }
        let i = t - self.producers.len();
        match s.cons[i] {
            ConsPhase::Scan => {
                if s.work > 0 {
                    // Pop + run one task.
                    next.work -= 1;
                    next.consumed += 1;
                } else if s.done {
                    return Step::Done;
                } else {
                    next.cons[i] = ConsPhase::Sweep { e: s.epoch };
                }
                Step::Next(next)
            }
            ConsPhase::Sweep { e } => {
                if s.work > 0 {
                    next.work -= 1;
                    next.consumed += 1;
                    next.cons[i] = ConsPhase::Scan;
                } else if s.done {
                    return Step::Done;
                } else {
                    // Confirmed empty: publish the parked flag. The
                    // sweep's empty observation and the flag store sit in
                    // one step; the race that matters (a producer's full
                    // push→bump→wake between our epoch read and our
                    // recheck) stays fully explorable.
                    next.parked[i] = true;
                    next.cons[i] = ConsPhase::Recheck { e };
                }
                Step::Next(next)
            }
            ConsPhase::Recheck { e } => {
                if s.epoch != e || s.done {
                    // Something changed since the sweep began: self-unpark
                    // (absorbing any token already granted) and rescan.
                    next.parked[i] = false;
                    next.token[i] = false;
                    next.cons[i] = ConsPhase::Scan;
                } else {
                    next.cons[i] = ConsPhase::Parked;
                }
                Step::Next(next)
            }
            ConsPhase::Parked => {
                if s.token[i] {
                    // Unparked by a producer (flag already cleared).
                    next.token[i] = false;
                    next.cons[i] = ConsPhase::Scan;
                    Step::Next(next)
                } else {
                    Step::Blocked
                }
            }
        }
    }

    fn check(&self, s: &ParkUnparkState) -> Result<(), String> {
        let total = self.total();
        if s.consumed > total {
            return Err(format!("{} consumed of {total} produced", s.consumed));
        }
        // A consumer the protocol considers parked must have its flag or
        // token visible to producers — otherwise no wake can ever reach
        // it and only the recheck path could save it.
        let asleep = |i: usize| s.cons[i] == ConsPhase::Parked && !s.token[i];
        for i in 0..self.consumers {
            if asleep(i) && !s.parked[i] {
                return Err(format!(
                    "consumer {i} blocked with neither parked flag nor token (unwakeable)"
                ));
            }
        }
        // Work conservation between announces: every queued task has an
        // awake lane to take it — its pusher, about to pop, or a consumer
        // that is scanning or holds a token — or no lane is asleep.
        let announcing = s
            .prod
            .iter()
            .any(|p| matches!(p, ProdPhase::Bump { .. } | ProdPhase::Wake { .. }));
        let takers = s.prod.iter().filter(|p| **p == ProdPhase::Take).count()
            + (0..self.consumers).filter(|&i| !asleep(i)).count();
        if !announcing && usize::from(s.work) > takers && (0..self.consumers).any(asleep) {
            return Err(format!(
                "{} task(s) queued for {takers} awake lane(s) while a lane sleeps un-woken",
                s.work
            ));
        }
        Ok(())
    }

    fn check_final(&self, s: &ParkUnparkState) -> Result<(), String> {
        let total = self.total();
        if s.work != 0 {
            return Err(format!("{} tasks never consumed", s.work));
        }
        if s.consumed != total {
            return Err(format!("{} consumed of {total} produced", s.consumed));
        }
        if s.parked.iter().any(|&p| p) {
            return Err("terminal state leaves a parked flag set".to_string());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Server shutdown handshake
// ---------------------------------------------------------------------

/// The idle worker's program counter in [`ShutdownHandshake`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum IdlerPhase {
    /// About to take the queue lock.
    Lock,
    /// Holding the lock (queue empty): the flag check is next.
    Check,
    /// Flag read clear, lock still held: the condvar wait is next.
    Wait,
    /// In `Condvar::wait`: lock released, blocked until notified.
    Waiting,
    /// Saw the flag and returned.
    Exited,
}

/// The stopper's program counter in [`ShutdownHandshake`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StopperPhase {
    /// About to take the queue lock (locked ordering only).
    Lock,
    /// The flag store is next.
    Store,
    /// Flag set under the lock: the unlock is next.
    Unlock,
    /// `notify_all` is next.
    Notify,
    /// Notified; `join` returns once the worker has exited.
    Join,
}

/// State of [`ShutdownHandshake`]: the flag, who holds the queue lock,
/// whether a notification reached the waiting worker, and both program
/// counters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShutdownHandshakeState {
    shutdown: bool,
    /// Thread holding the queue mutex (0 = worker, 1 = stopper).
    lock: Option<usize>,
    /// A `notify_all` found the worker waiting.
    notified: bool,
    worker: IdlerPhase,
    stopper: StopperPhase,
}

/// `Server::stop` against an idle request worker, one step per lock
/// operation, flag access and condvar call. Thread 0 is the worker's idle
/// loop: lock the (empty) queue, check the shutdown flag, and either return or
/// `Condvar::wait` — which releases the lock and starts waiting in one
/// atomic step. Thread 1 is the stopper: set the flag, `notify_all`,
/// join. A notify with no waiter is lost, as with a real condvar.
pub struct ShutdownHandshake {
    /// Whether the stopper sets the flag while holding the queue lock
    /// (the shipped ordering) or with a bare store (the ordering that
    /// loses the wakeup).
    pub store_under_lock: bool,
}

impl Protocol for ShutdownHandshake {
    type State = ShutdownHandshakeState;

    fn name(&self) -> &'static str {
        "server-shutdown-handshake"
    }

    fn init(&self) -> ShutdownHandshakeState {
        ShutdownHandshakeState {
            shutdown: false,
            lock: None,
            notified: false,
            worker: IdlerPhase::Lock,
            stopper: if self.store_under_lock {
                StopperPhase::Lock
            } else {
                StopperPhase::Store
            },
        }
    }

    fn threads(&self) -> usize {
        2
    }

    fn step(&self, s: &ShutdownHandshakeState, t: usize) -> Step<ShutdownHandshakeState> {
        let mut next = s.clone();
        if t == 0 {
            match s.worker {
                IdlerPhase::Lock => {
                    if s.lock.is_some() {
                        return Step::Blocked;
                    }
                    next.lock = Some(0);
                    next.worker = IdlerPhase::Check;
                }
                IdlerPhase::Check => {
                    if s.shutdown {
                        next.lock = None;
                        next.worker = IdlerPhase::Exited;
                    } else {
                        next.worker = IdlerPhase::Wait;
                    }
                }
                IdlerPhase::Wait => {
                    next.lock = None;
                    next.worker = IdlerPhase::Waiting;
                }
                IdlerPhase::Waiting => {
                    if !s.notified {
                        return Step::Blocked;
                    }
                    // Woken: the wait returns by re-taking the lock.
                    next.notified = false;
                    next.worker = IdlerPhase::Lock;
                }
                IdlerPhase::Exited => return Step::Done,
            }
            return Step::Next(next);
        }
        match s.stopper {
            StopperPhase::Lock => {
                if s.lock.is_some() {
                    return Step::Blocked;
                }
                next.lock = Some(1);
                next.stopper = StopperPhase::Store;
            }
            StopperPhase::Store => {
                next.shutdown = true;
                next.stopper = if self.store_under_lock {
                    StopperPhase::Unlock
                } else {
                    StopperPhase::Notify
                };
            }
            StopperPhase::Unlock => {
                next.lock = None;
                next.stopper = StopperPhase::Notify;
            }
            StopperPhase::Notify => {
                next.notified = s.worker == IdlerPhase::Waiting;
                next.stopper = StopperPhase::Join;
            }
            StopperPhase::Join => {
                return if s.worker == IdlerPhase::Exited {
                    Step::Done
                } else {
                    Step::Blocked
                };
            }
        }
        Step::Next(next)
    }

    fn check(&self, s: &ShutdownHandshakeState) -> Result<(), String> {
        let holds_lock = matches!(s.worker, IdlerPhase::Check | IdlerPhase::Wait);
        if holds_lock != (s.lock == Some(0)) {
            return Err("worker's phase disagrees with the queue lock".to_string());
        }
        Ok(())
    }

    fn check_final(&self, s: &ShutdownHandshakeState) -> Result<(), String> {
        if !s.shutdown || s.worker != IdlerPhase::Exited {
            return Err("stop returned without the worker observing shutdown".to_string());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Admission-queue dispatch
// ---------------------------------------------------------------------

/// A submitter's program counter in [`AdmissionDispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SubmitPhase {
    /// The next `submit` critical section (or done, once the quota is
    /// sent).
    Submit,
    /// Took worker `w` off the idle stack; its `notify_one` is next.
    Notify { w: u8 },
}

/// A request worker's program counter in [`AdmissionDispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ServePhase {
    /// About to run the `next_request` critical section.
    Lock,
    /// In its condvar wait (on the idle stack unless a submitter took it
    /// off): blocked until notified.
    Waiting,
    /// Running request `r`; claiming its next move is next.
    Running { r: u8 },
    /// Claimed `next` (or, with `None`, a place on the idle stack unless
    /// the server is stopping); answering `r` is next.
    Answer { r: u8, next: Option<u8> },
    /// Saw the shutdown flag on an empty queue and returned.
    Exited,
}

/// The stopper's program counter in [`AdmissionDispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StopPhase {
    /// The flag-and-drain critical section is next.
    Stop,
    /// `notify_all` on every worker's condvar is next.
    Notify,
    /// Joining: returns once every worker has exited.
    Join,
}

/// State of [`AdmissionDispatch`]: everything the admission lock guards
/// (queue, idle stack, shutdown flag), which waiting workers a notify
/// reached, how many answers each request got, and every program counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdmissionState {
    queue: Vec<u8>,
    idle: Vec<u8>,
    shutdown: bool,
    notified: Vec<bool>,
    replies: Vec<u8>,
    /// Requests each submitter has sent so far.
    sent: Vec<u8>,
    submit: Vec<SubmitPhase>,
    serve: Vec<ServePhase>,
    stop: StopPhase,
}

/// `Server`'s admission queue against its persistent request workers and
/// `stop`. Every queue operation happens under one mutex, so each
/// critical section is one step; the condvar notifies that follow an
/// unlock are steps of their own, and a notify that finds its worker not
/// waiting is lost, as with a real condvar.
///
/// - a **submitter** (threads `0..submitters.len()`) locks; on shutdown
///   its request answers `Shutdown`, otherwise it pushes the request and
///   takes the most recently idled worker off the stack, to notify it
///   after unlocking;
/// - a **worker** locks, takes itself off the idle stack, pops the oldest
///   request and runs it, or — queue empty — exits on shutdown or pushes
///   itself on the stack and waits. Having run a request it first
///   *claims* its next move in one more critical section — the oldest
///   queued request, else a place on top of the idle stack — and only
///   then answers, so the answered caller's next request finds this
///   worker on the stack;
/// - the **stopper** (last thread) sets the flag and drains the queue
///   (answering `Shutdown`) in one critical section, notifies every
///   worker, and joins them.
///
/// Safety: no request is answered twice, and **work conservation** — no
/// state has a queued request without a taker (a worker about to lock,
/// notified, or about to be) while a worker sits on the idle stack. Liveness: every request sent is answered exactly once
/// and `stop` returns (a lost wakeup is a deadlock to the explorer).
pub struct AdmissionDispatch {
    /// Requests each submitter sends.
    pub submitters: Vec<u8>,
    /// Number of request workers.
    pub workers: usize,
    /// Broken twin: a worker that finds the server stopping when it claims
    /// its next move puts the request it ran back on the queue "for the
    /// drain" — and answers it anyway.
    pub reply_after_requeue: bool,
}

impl AdmissionDispatch {
    /// Id of submitter `t`'s `k`-th request.
    fn request_id(&self, t: usize, k: u8) -> u8 {
        self.submitters[..t].iter().sum::<u8>() + k
    }
}

impl Protocol for AdmissionDispatch {
    type State = AdmissionState;

    fn name(&self) -> &'static str {
        "admission-dispatch"
    }

    fn init(&self) -> AdmissionState {
        AdmissionState {
            queue: Vec::new(),
            idle: Vec::new(),
            shutdown: false,
            notified: vec![false; self.workers],
            replies: vec![0; usize::from(self.submitters.iter().sum::<u8>())],
            sent: vec![0; self.submitters.len()],
            submit: vec![SubmitPhase::Submit; self.submitters.len()],
            serve: vec![ServePhase::Lock; self.workers],
            stop: StopPhase::Stop,
        }
    }

    fn threads(&self) -> usize {
        self.submitters.len() + self.workers + 1
    }

    fn step(&self, s: &AdmissionState, t: usize) -> Step<AdmissionState> {
        let mut next = s.clone();
        let n_sub = self.submitters.len();
        if t < n_sub {
            match s.submit[t] {
                SubmitPhase::Submit => {
                    if s.sent[t] == self.submitters[t] {
                        return Step::Done;
                    }
                    let r = self.request_id(t, s.sent[t]);
                    next.sent[t] += 1;
                    if s.shutdown {
                        next.replies[usize::from(r)] += 1; // rejected: Shutdown
                    } else {
                        next.queue.push(r);
                        if let Some(w) = next.idle.pop() {
                            next.submit[t] = SubmitPhase::Notify { w };
                        }
                    }
                }
                SubmitPhase::Notify { w } => {
                    if s.serve[usize::from(w)] == ServePhase::Waiting {
                        next.notified[usize::from(w)] = true;
                    }
                    next.submit[t] = SubmitPhase::Submit;
                }
            }
            return Step::Next(next);
        }
        if t < n_sub + self.workers {
            let w = t - n_sub;
            match s.serve[w] {
                ServePhase::Lock => {
                    next.idle.retain(|&i| usize::from(i) != w);
                    if !s.queue.is_empty() {
                        let r = next.queue.remove(0);
                        next.serve[w] = ServePhase::Running { r };
                    } else if s.shutdown {
                        next.serve[w] = ServePhase::Exited;
                    } else {
                        next.idle.push(w as u8);
                        next.serve[w] = ServePhase::Waiting;
                    }
                }
                ServePhase::Waiting => {
                    if !s.notified[w] {
                        return Step::Blocked;
                    }
                    next.notified[w] = false;
                    next.serve[w] = ServePhase::Lock;
                }
                ServePhase::Running { r } => {
                    if self.reply_after_requeue && s.shutdown {
                        next.queue.push(r);
                    }
                    let claimed = (!next.queue.is_empty()).then(|| next.queue.remove(0));
                    if claimed.is_none() && !s.shutdown {
                        next.idle.push(w as u8);
                    }
                    next.serve[w] = ServePhase::Answer { r, next: claimed };
                }
                ServePhase::Answer { r, next: claimed } => {
                    next.replies[usize::from(r)] += 1;
                    next.serve[w] = match claimed {
                        Some(r) => ServePhase::Running { r },
                        None => ServePhase::Lock,
                    };
                }
                ServePhase::Exited => return Step::Done,
            }
            return Step::Next(next);
        }
        match s.stop {
            StopPhase::Stop => {
                next.shutdown = true;
                for r in next.queue.drain(..) {
                    next.replies[usize::from(r)] += 1; // drained: Shutdown
                }
                next.stop = StopPhase::Notify;
            }
            StopPhase::Notify => {
                for w in 0..self.workers {
                    if s.serve[w] == ServePhase::Waiting {
                        next.notified[w] = true;
                    }
                }
                next.stop = StopPhase::Join;
            }
            StopPhase::Join => {
                return if s.serve.iter().all(|p| *p == ServePhase::Exited) {
                    Step::Done
                } else {
                    Step::Blocked
                };
            }
        }
        Step::Next(next)
    }

    fn check(&self, s: &AdmissionState) -> Result<(), String> {
        if let Some(r) = s.replies.iter().position(|&n| n > 1) {
            return Err(format!("request {r} answered {} times", s.replies[r]));
        }
        // Work conservation: every queued request has a taker — a worker
        // about to lock (now, or once it has answered), one a notify
        // reached, or one a submitter is about to notify — or nobody is
        // asleep. (`stop`'s notify-all covers everyone.)
        let about_to_lock =
            |p: &&ServePhase| matches!(p, ServePhase::Lock | ServePhase::Answer { next: None, .. });
        let takers = s.serve.iter().filter(about_to_lock).count()
            + s.notified.iter().filter(|n| **n).count()
            + s.submit
                .iter()
                .filter(|p| matches!(p, SubmitPhase::Notify { .. }))
                .count();
        // Asleep with nobody owing it a wake: waiting, still on the stack.
        let sleeper = s.idle.iter().find(|&&w| {
            s.serve[usize::from(w)] == ServePhase::Waiting && !s.notified[usize::from(w)]
        });
        if let (true, false, Some(w)) =
            (s.queue.len() > takers, s.stop == StopPhase::Notify, sleeper)
        {
            return Err(format!(
                "{} request(s) queued for {takers} taker(s) while worker {w} waits with no \
                 wake pending",
                s.queue.len()
            ));
        }
        Ok(())
    }

    fn check_final(&self, s: &AdmissionState) -> Result<(), String> {
        if let Some(r) = s.replies.iter().position(|&n| n != 1) {
            return Err(format!("request {r} answered {} times", s.replies[r]));
        }
        if !s.queue.is_empty() {
            return Err(format!("{} request(s) left queued", s.queue.len()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Run hand-off to pooled helper lanes
// ---------------------------------------------------------------------

/// The caller's program counter in [`RunHandoff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CallerPhase {
    /// Offering the run's helper lanes to the pool is next.
    Publish,
    /// Running as a lane: takes tasks until the run is over.
    Work,
    /// Withdrawing the unclaimed offers is next.
    Close,
    /// Waiting for the attached helpers to detach.
    WaitDetach,
    /// Recycling the run state for the next request is next.
    Recycle,
    /// Every run served.
    Done,
}

/// A pooled helper's program counter in [`RunHandoff`]. `gen` is the
/// generation of the run state the helper attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum HelperPhase {
    /// In the pool, waiting for an offer.
    Idle,
    /// Attached: looking for a task of its run.
    Attached { gen: u8 },
    /// Running a task of its run.
    Running { gen: u8 },
    /// Saw its run over; the detach decrement is next.
    Detach { gen: u8 },
}

/// State of [`RunHandoff`]: the pool's queue of unclaimed offers (each
/// the generation of the run state it points at), the run state's own
/// generation and attach count, the run's task counters, and every
/// program counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunHandoffState {
    offers: Vec<u8>,
    /// Bumped by every recycle: ghost state naming *which* run the one
    /// reused `RunState` currently belongs to.
    gen: u8,
    attached: u8,
    queued: u8,
    running: u8,
    finished: u8,
    runs_left: u8,
    caller: CallerPhase,
    helpers: Vec<HelperPhase>,
}

/// `execute` handing a run to the process-wide helper-lane pool and
/// taking its state back. The pool's queue sits behind one mutex, so
/// offering, claiming-and-attaching and withdrawing are one step each.
///
/// - the **caller** (thread 0) offers its helper lanes, works as a lane
///   itself until the run is over — every task finished, whoever ran it
///   — withdraws the offers nobody claimed, waits for the helpers that
///   *did* attach to detach, then recycles the run state and serves the
///   next request on it;
/// - a **helper** claims an offer and attaches in the same critical
///   section, steals tasks of that run while there are any, and detaches
///   when the run is over.
///
/// Safety: a lane only ever touches the run state of the run it attached
/// to — no attached helper's generation differs from the state's. The
/// caller waits on the attach count alone, never on an offer: with no
/// helper free (`helpers: 0`) the run completes on the caller, and a
/// missed hand-off would be a deadlock to the explorer.
pub struct RunHandoff {
    /// Pooled helper threads.
    pub helpers: usize,
    /// Helper lanes each run offers.
    pub offers: u8,
    /// Tasks per run.
    pub tasks: u8,
    /// Consecutive runs on the one recycled state.
    pub runs: u8,
    /// `false` is the broken twin: recycle straight after the withdraw,
    /// before the last lane has detached.
    pub wait_for_detach: bool,
}

impl Protocol for RunHandoff {
    type State = RunHandoffState;

    fn name(&self) -> &'static str {
        "run-handoff"
    }

    fn init(&self) -> RunHandoffState {
        RunHandoffState {
            offers: Vec::new(),
            gen: 0,
            attached: 0,
            queued: self.tasks,
            running: 0,
            finished: 0,
            runs_left: self.runs,
            caller: CallerPhase::Publish,
            helpers: vec![HelperPhase::Idle; self.helpers],
        }
    }

    fn threads(&self) -> usize {
        1 + self.helpers
    }

    fn step(&self, s: &RunHandoffState, t: usize) -> Step<RunHandoffState> {
        let mut next = s.clone();
        let over = s.queued == 0 && s.running == 0;
        if t == 0 {
            match s.caller {
                CallerPhase::Publish => {
                    next.offers
                        .extend(std::iter::repeat_n(s.gen, usize::from(self.offers)));
                    next.caller = CallerPhase::Work;
                }
                CallerPhase::Work => {
                    if s.queued > 0 {
                        next.queued -= 1;
                        next.finished += 1;
                    } else if over {
                        next.caller = CallerPhase::Close;
                    } else {
                        // Parked until the helper running the last task
                        // retires it.
                        return Step::Blocked;
                    }
                }
                CallerPhase::Close => {
                    next.offers.retain(|&g| g != s.gen);
                    next.caller = if self.wait_for_detach {
                        CallerPhase::WaitDetach
                    } else {
                        CallerPhase::Recycle
                    };
                }
                CallerPhase::WaitDetach => {
                    if s.attached > 0 {
                        return Step::Blocked;
                    }
                    next.caller = CallerPhase::Recycle;
                }
                CallerPhase::Recycle => {
                    next.runs_left -= 1;
                    if next.runs_left == 0 {
                        next.caller = CallerPhase::Done;
                    } else {
                        next.gen += 1;
                        next.queued = self.tasks;
                        next.caller = CallerPhase::Publish;
                    }
                }
                CallerPhase::Done => return Step::Done,
            }
            return Step::Next(next);
        }
        let h = t - 1;
        match s.helpers[h] {
            HelperPhase::Idle => {
                if s.offers.is_empty() {
                    return if s.caller == CallerPhase::Done {
                        Step::Done
                    } else {
                        Step::Blocked
                    };
                }
                let gen = next.offers.remove(0);
                next.attached += 1;
                next.helpers[h] = HelperPhase::Attached { gen };
            }
            HelperPhase::Attached { gen } => {
                if s.queued > 0 {
                    next.queued -= 1;
                    next.running += 1;
                    next.helpers[h] = HelperPhase::Running { gen };
                } else if over {
                    next.helpers[h] = HelperPhase::Detach { gen };
                } else {
                    return Step::Blocked;
                }
            }
            HelperPhase::Running { gen } => {
                next.running -= 1;
                next.finished += 1;
                next.helpers[h] = HelperPhase::Attached { gen };
            }
            HelperPhase::Detach { .. } => {
                next.attached -= 1;
                next.helpers[h] = HelperPhase::Idle;
            }
        }
        Step::Next(next)
    }

    fn check(&self, s: &RunHandoffState) -> Result<(), String> {
        for (h, phase) in s.helpers.iter().enumerate() {
            let (HelperPhase::Attached { gen }
            | HelperPhase::Running { gen }
            | HelperPhase::Detach { gen }) = *phase
            else {
                continue;
            };
            if gen != s.gen {
                return Err(format!(
                    "helper {h} is attached to run {gen} but the state was recycled for run {}",
                    s.gen
                ));
            }
        }
        Ok(())
    }

    fn check_final(&self, s: &RunHandoffState) -> Result<(), String> {
        if s.finished != self.tasks * self.runs {
            return Err(format!(
                "{} of {} tasks finished",
                s.finished,
                self.tasks * self.runs
            ));
        }
        if s.attached != 0 || !s.offers.is_empty() {
            return Err("terminal state leaves a lane attached or an offer queued".to_string());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Cross-variant cutoff hand-off
// ---------------------------------------------------------------------

/// A worker's program counter in [`CutoffHandoff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum HandoffPhase {
    /// Taking the next job off the shared index.
    Take,
    /// Building job `job`'s BLP: publishing its warm start is next, or,
    /// for a job that panics, unwinding.
    Build { job: usize },
    /// Published job `job`'s warm start: `notify_all` is next, then the
    /// wait for the earlier variants' (or death, after an unwind).
    Notify { job: usize, unwinding: bool },
    /// Under the lock: every earlier variant published, or wait.
    Check { job: usize },
    /// In `Condvar::wait` for job `job`'s earlier variants.
    Waiting { job: usize },
    /// The thread panicked: it takes no more jobs.
    Dead,
}

/// State of [`CutoffHandoff`]: the job index, each job's published warm
/// start (`u8::MAX` for "no bound"), which earlier slots each job saw
/// published when it read its cutoff, the notifications in flight, and
/// every program counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CutoffHandoffState {
    next: usize,
    published: Vec<Option<u8>>,
    /// Per job: the bitmask of published slots of its partition and the
    /// cutoff it read, once it has read one.
    read: Vec<Option<(u32, u8)>>,
    /// Per worker: a `notify_all` reached it while it waited.
    woken: Vec<bool>,
    workers: Vec<HandoffPhase>,
}

/// `Orchestrator::orchestrate_all`'s warm-start hand-off, one step per
/// critical section and condvar call. Jobs are `(partition, variant)`
/// pairs in that order, taken off one atomic index. A job builds its BLP,
/// publishes its warm start in its partition's slot under the mutex,
/// `notify_all`s, then — under the mutex — reads the cheapest warm start
/// of its partition's earlier variants if all have published, and
/// otherwise waits on the condvar (releasing the mutex in the same step).
/// A job in `panics` panics while building: its drop guard publishes "no
/// bound" and notifies as it unwinds, and its thread takes no more jobs.
/// (A job whose BLP cannot be built returns its error through the same
/// guard, and its thread goes on.)
///
/// Safety: a job's cutoff is read only after every earlier variant of its
/// partition published, and is the cheapest of their warm starts. The
/// explorer's deadlock detection is the liveness check: no waiter is
/// left waiting for a slot nobody will fill.
pub struct CutoffHandoff {
    /// Variants per partition.
    pub variants: Vec<usize>,
    /// Worker threads.
    pub workers: usize,
    /// Jobs (indices in (partition, variant) order) that panic before
    /// publishing.
    pub panics: Vec<usize>,
    /// `false` is the broken twin: no drop guard, so a panicking job
    /// publishes nothing.
    pub guard: bool,
}

impl CutoffHandoff {
    /// `(partition, variant)` of every job, in index order.
    fn jobs(&self) -> Vec<(usize, usize)> {
        (self.variants.iter().enumerate())
            .flat_map(|(p, &n)| (0..n).map(move |k| (p, k)))
            .collect()
    }

    /// Job `job`'s warm start: decreasing in the variant, so every
    /// earlier publication can lower a later variant's cutoff.
    fn warm(&self, job: usize) -> u8 {
        10 - self.jobs()[job].1 as u8
    }

    /// The job indices of `job`'s partition's earlier variants.
    fn earlier(&self, job: usize) -> std::ops::Range<usize> {
        let k = self.jobs()[job].1;
        job - k..job
    }
}

impl Protocol for CutoffHandoff {
    type State = CutoffHandoffState;

    fn name(&self) -> &'static str {
        "cutoff-handoff"
    }

    fn init(&self) -> CutoffHandoffState {
        let jobs = self.jobs().len();
        CutoffHandoffState {
            next: 0,
            published: vec![None; jobs],
            read: vec![None; jobs],
            woken: vec![false; self.workers],
            workers: vec![HandoffPhase::Take; self.workers],
        }
    }

    fn threads(&self) -> usize {
        self.workers
    }

    fn step(&self, s: &CutoffHandoffState, t: usize) -> Step<CutoffHandoffState> {
        let mut next = s.clone();
        next.workers[t] = match s.workers[t] {
            HandoffPhase::Take => {
                if s.next == s.published.len() {
                    return Step::Done;
                }
                next.next += 1;
                HandoffPhase::Build { job: s.next }
            }
            HandoffPhase::Build { job } => {
                let unwinding = self.panics.contains(&job);
                if unwinding && !self.guard {
                    HandoffPhase::Dead
                } else {
                    let warm = if unwinding { u8::MAX } else { self.warm(job) };
                    next.published[job].get_or_insert(warm);
                    HandoffPhase::Notify { job, unwinding }
                }
            }
            HandoffPhase::Notify { job, unwinding } => {
                for (w, phase) in s.workers.iter().enumerate() {
                    if matches!(phase, HandoffPhase::Waiting { .. }) {
                        next.woken[w] = true;
                    }
                }
                if unwinding {
                    HandoffPhase::Dead
                } else {
                    HandoffPhase::Check { job }
                }
            }
            HandoffPhase::Check { job } => {
                let earlier = self.earlier(job);
                if earlier.clone().all(|j| s.published[j].is_some()) {
                    let seen = earlier
                        .clone()
                        .fold(0u32, |m, j| m | 1 << (j - earlier.start));
                    let cutoff = earlier.filter_map(|j| s.published[j]).min();
                    next.read[job] = Some((seen, cutoff.unwrap_or(u8::MAX)));
                    HandoffPhase::Take
                } else {
                    HandoffPhase::Waiting { job }
                }
            }
            HandoffPhase::Waiting { job } => {
                if !s.woken[t] {
                    return Step::Blocked;
                }
                next.woken[t] = false;
                HandoffPhase::Check { job }
            }
            HandoffPhase::Dead => return Step::Done,
        };
        Step::Next(next)
    }

    fn check(&self, s: &CutoffHandoffState) -> Result<(), String> {
        for (job, read) in s.read.iter().enumerate() {
            let Some((seen, cutoff)) = *read else {
                continue;
            };
            let earlier = self.earlier(job);
            let all = (1u32 << earlier.len()) - 1;
            if seen != all {
                return Err(format!(
                    "job {job} read its cutoff before every earlier publication"
                ));
            }
            let want = (earlier.filter(|j| !self.panics.contains(j)))
                .map(|j| self.warm(j))
                .min()
                .unwrap_or(u8::MAX);
            if cutoff != want {
                return Err(format!("job {job} read cutoff {cutoff}, not {want}"));
            }
        }
        Ok(())
    }

    fn check_final(&self, s: &CutoffHandoffState) -> Result<(), String> {
        for job in 0..s.next {
            if !self.panics.contains(&job) && s.read[job].is_none() {
                return Err(format!("job {job} was taken but never read its cutoff"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------

/// Runs the exhaustive exploration suite over every protocol model at
/// the ≤3-thread, ≤4-op bound, returning `(model name, stats)` per
/// model.
///
/// # Errors
///
/// Returns the first [`ExploreError`] any model produces — on the
/// shipped protocols this means a regression in an atomic recipe.
pub fn verify_protocols() -> Result<Vec<(&'static str, Exploration)>, ExploreError> {
    let mut results = Vec::new();
    let mut run = |name: &'static str, r: Result<Exploration, ExploreError>| match r {
        Ok(stats) => {
            results.push((name, stats));
            Ok(())
        }
        Err(e) => Err(e),
    };

    for threads in 1..=3usize {
        for deps in 1..=2u32 {
            if threads * deps as usize > 4 {
                continue;
            }
            run(
                "dep-counter-release",
                explore(&DepCounter {
                    threads,
                    deps_per_thread: deps,
                }),
            )?;
        }
    }

    for assignments in [
        vec![vec![0u32]],
        vec![vec![0], vec![1]],
        vec![vec![0, 1], vec![2]],
        vec![vec![0], vec![1], vec![2]],
        vec![vec![0, 1], vec![2, 3], vec![]],
    ] {
        run(
            "tile-assembly-countdown",
            explore(&TileCountdown { assignments }),
        )?;
    }

    use DequeOp::{Pop, Push};
    for (script, thieves) in [
        // The contested last element: owner pop vs one thief.
        (vec![Push(0), Pop], vec![1]),
        // Two thieves race each other and the owner on one element.
        (vec![Push(0), Pop], vec![1, 1]),
        // Slot reuse: pop leaves bottom on its slot, push overwrites it.
        (vec![Push(0), Pop, Push(1), Pop], vec![2]),
        // Two elements, owner pops one, thieves fight over the rest.
        (vec![Push(0), Push(1), Pop], vec![2, 2]),
        // Thieves drain everything while the owner only produces.
        (vec![Push(0), Push(1)], vec![2, 2]),
    ] {
        run(
            "chase-lev-deque",
            explore(&ChaseLevDeque { script, thieves }),
        )?;
    }

    for (producers, consumers) in [
        // A surplus of one against one lane: the park-vs-push race.
        (vec![vec![2]], 1),
        // A batch of one wakes nobody; the pusher runs it (or a scanning
        // lane steals it first).
        (vec![vec![1, 1]], 1),
        // Shutdown race: a producer with nothing to retire goes straight
        // to the done wake-all while the lane is mid-park.
        (vec![vec![]], 1),
        (vec![vec![]], 2),
        // A surplus of two against two lanes: both must be woken; a
        // surplus of one must not strand work behind the second lane.
        (vec![vec![3]], 2),
        (vec![vec![2, 2]], 2),
        // Two producers finishing out of order; last one out wakes all.
        (vec![vec![2], vec![1]], 1),
        (vec![vec![2], vec![]], 2),
    ] {
        run(
            "park-unpark-epoch",
            explore(&ParkUnpark {
                producers,
                consumers,
                wake_surplus: true,
            }),
        )?;
    }

    run(
        "server-shutdown-handshake",
        explore(&ShutdownHandshake {
            store_under_lock: true,
        }),
    )?;

    for (submitters, workers) in [
        (vec![1], 1),
        // A second request queues behind a busy worker.
        (vec![2], 1),
        // Two submitters race each other, the worker and the stopper.
        (vec![1, 1], 1),
        // Two workers: the wake goes to the one taken off the stack.
        (vec![2], 2),
        (vec![1, 1], 2),
    ] {
        run(
            "admission-dispatch",
            explore(&AdmissionDispatch {
                submitters,
                workers,
                reply_after_requeue: false,
            }),
        )?;
    }

    for (helpers, offers, tasks, runs) in [
        // No helper free: the run completes on the caller alone.
        (0, 1, 2, 2),
        // One helper, two runs on the one recycled state.
        (1, 1, 2, 2),
        // More offers than helpers: the surplus offer is withdrawn.
        (1, 2, 2, 2),
        // Two helpers racing the caller for three tasks.
        (2, 2, 3, 2),
    ] {
        run(
            "run-handoff",
            explore(&RunHandoff {
                helpers,
                offers,
                tasks,
                runs,
                wait_for_detach: true,
            }),
        )?;
    }

    for (variants, workers, panics) in [
        // One worker: every earlier variant is done before a later one.
        (vec![3], 1, vec![]),
        // Variant 1 waits for variant 0, which may still be building.
        (vec![2], 2, vec![]),
        (vec![3], 3, vec![]),
        // Variant 0 panics before publishing: its guard must release
        // the waiters, and the surviving worker drains the rest.
        (vec![2], 2, vec![0]),
        (vec![3], 2, vec![1]),
        // A second partition waits on its own variants only.
        (vec![1, 2], 2, vec![1]),
    ] {
        run(
            "cutoff-handoff",
            explore(&CutoffHandoff {
                variants,
                workers,
                panics,
                guard: true,
            }),
        )?;
    }

    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A broken dep-counter that enqueues on observing 1 (off-by-one) —
    /// the explorer must catch the double release.
    struct BrokenDepCounter;

    impl Protocol for BrokenDepCounter {
        type State = DepCounterState;
        fn name(&self) -> &'static str {
            "broken-dep-counter"
        }
        fn init(&self) -> DepCounterState {
            DepCounterState {
                counter: 2,
                enqueued: 0,
                remaining: vec![1, 1],
            }
        }
        fn threads(&self) -> usize {
            2
        }
        fn step(&self, s: &DepCounterState, t: usize) -> Step<DepCounterState> {
            if s.remaining[t] == 0 {
                return Step::Done;
            }
            let mut next = s.clone();
            next.remaining[t] -= 1;
            next.counter -= 1;
            if next.counter <= 1 {
                next.enqueued += 1; // bug: fires at 1 AND at 0
            }
            Step::Next(next)
        }
        fn check(&self, s: &DepCounterState) -> Result<(), String> {
            DepCounter {
                threads: 2,
                deps_per_thread: 1,
            }
            .check(s)
        }
        fn check_final(&self, s: &DepCounterState) -> Result<(), String> {
            DepCounter {
                threads: 2,
                deps_per_thread: 1,
            }
            .check_final(s)
        }
    }

    /// A broken deque whose owner takes the contested last element
    /// *without* the claiming CAS on `top` — a racing thief takes the
    /// same element and the double-consume must be caught.
    struct BrokenChaseLev;

    impl Protocol for BrokenChaseLev {
        type State = ChaseLevState;
        fn name(&self) -> &'static str {
            "broken-chase-lev"
        }
        fn init(&self) -> ChaseLevState {
            ChaseLevDeque {
                script: vec![DequeOp::Push(0), DequeOp::Pop],
                thieves: vec![1],
            }
            .init()
        }
        fn threads(&self) -> usize {
            2
        }
        fn step(&self, s: &ChaseLevState, t: usize) -> Step<ChaseLevState> {
            let good = ChaseLevDeque {
                script: vec![],
                thieves: vec![0],
            };
            if t == 0 {
                if let OwnerPhase::Lowered { b } = s.owner {
                    if s.top == b {
                        // Bug: skip the CAS, just take it.
                        let mut next = s.clone();
                        next.taken[s.buf[b as usize] as usize] += 1;
                        next.bottom = b + 1;
                        next.owner = OwnerPhase::Idle;
                        return Step::Next(next);
                    }
                }
            }
            good.step(s, t)
        }
        fn check(&self, s: &ChaseLevState) -> Result<(), String> {
            ChaseLevDeque {
                script: vec![],
                thieves: vec![0],
            }
            .check(s)
        }
        fn check_final(&self, s: &ChaseLevState) -> Result<(), String> {
            ChaseLevDeque {
                script: vec![DequeOp::Push(0), DequeOp::Pop],
                thieves: vec![0],
            }
            .check_final(s)
        }
    }

    /// A broken parker that blocks straight after its empty sweep,
    /// skipping the parked-flag/recheck handshake — the shutdown
    /// wake-all can then miss it, and the lost wakeup must surface as a
    /// deadlock.
    struct BrokenParkUnpark;

    /// The shipped protocol [`BrokenParkUnpark`] deviates from: one
    /// producer with nothing to retire, one lane.
    fn good_parker() -> ParkUnpark {
        ParkUnpark {
            producers: vec![vec![]],
            consumers: 1,
            wake_surplus: true,
        }
    }

    impl Protocol for BrokenParkUnpark {
        type State = ParkUnparkState;
        fn name(&self) -> &'static str {
            "broken-park-unpark"
        }
        fn init(&self) -> ParkUnparkState {
            good_parker().init()
        }
        fn threads(&self) -> usize {
            2
        }
        fn step(&self, s: &ParkUnparkState, t: usize) -> Step<ParkUnparkState> {
            let good = good_parker();
            if t == 1 {
                if let ConsPhase::Sweep { .. } = s.cons[0] {
                    if s.work == 0 && !s.done {
                        // Bug: park without publishing the flag or
                        // rechecking epoch/done.
                        let mut next = s.clone();
                        next.cons[0] = ConsPhase::Parked;
                        return Step::Next(next);
                    }
                }
            }
            good.step(s, t)
        }
        fn check(&self, _s: &ParkUnparkState) -> Result<(), String> {
            Ok(()) // let the deadlock detector do the catching
        }
        fn check_final(&self, s: &ParkUnparkState) -> Result<(), String> {
            good_parker().check_final(s)
        }
    }

    #[test]
    fn exploration_suite_passes() {
        let results = verify_protocols().expect("all protocol models verify");
        assert!(results.len() >= 39);
        let models: std::collections::BTreeSet<_> = results.iter().map(|(name, _)| name).collect();
        assert_eq!(models.len(), 8, "{models:?}");
        for (_, stats) in &results {
            assert!(stats.terminals >= 1);
        }
    }

    #[test]
    fn broken_deque_double_take_is_caught() {
        let err = explore(&BrokenChaseLev).expect_err("missing CAS must be caught");
        assert_eq!(err.model, "broken-chase-lev");
        assert!(
            err.message.contains("consumed"),
            "expected a double-consume violation, got: {}",
            err.message
        );
    }

    #[test]
    fn broken_parker_lost_wakeup_is_a_deadlock() {
        let err = explore(&BrokenParkUnpark).expect_err("lost wakeup must be caught");
        assert_eq!(err.model, "broken-park-unpark");
        assert!(
            err.message.contains("deadlock"),
            "expected a deadlock, got: {}",
            err.message
        );
    }

    #[test]
    fn a_surplus_that_wakes_nobody_is_caught() {
        // Two tasks made ready, one lane asleep, no wake: the pusher would
        // still drain the queue — serially — so this is no deadlock; the
        // work-conservation invariant is what rejects it.
        let err = explore(&ParkUnpark {
            producers: vec![vec![2]],
            consumers: 1,
            wake_surplus: false,
        })
        .expect_err("a sleeping lane beside queued surplus must be caught");
        assert!(err.message.contains("sleeps un-woken"), "{}", err.message);
    }

    #[test]
    fn reply_after_requeue_answers_twice() {
        let err = explore(&AdmissionDispatch {
            submitters: vec![1],
            workers: 1,
            reply_after_requeue: true,
        })
        .expect_err("a requeued request that is also answered must be caught");
        assert!(err.message.contains("answered 2 times"), "{}", err.message);
    }

    #[test]
    fn recycle_before_the_last_detach_is_caught() {
        let err = explore(&RunHandoff {
            helpers: 1,
            offers: 1,
            tasks: 2,
            runs: 2,
            wait_for_detach: false,
        })
        .expect_err("a helper still attached to a recycled state must be caught");
        assert!(err.message.contains("recycled"), "{}", err.message);
    }

    #[test]
    fn shutdown_flag_stored_outside_the_lock_loses_the_wakeup() {
        // A bare store, then notify: the ordering `Server::stop` must not use.
        let err = explore(&ShutdownHandshake {
            store_under_lock: false,
        })
        .expect_err("the store can land between the worker's check and its wait");
        assert!(
            err.message.contains("deadlock"),
            "expected a deadlock, got: {}",
            err.message
        );
        // worker locks and checks, stopper stores and notifies nobody,
        // worker waits.
        assert_eq!(err.trace, vec![0, 0, 1, 1, 0]);
    }

    #[test]
    fn a_panic_without_the_guard_strands_the_waiter() {
        // Variant 0 panics before publishing and nothing publishes for
        // it: variant 1's worker waits forever.
        let err = explore(&CutoffHandoff {
            variants: vec![2],
            workers: 2,
            panics: vec![0],
            guard: false,
        })
        .expect_err("a publication lost to a panic must be caught");
        assert!(
            err.message.contains("deadlock"),
            "expected a deadlock, got: {}",
            err.message
        );
    }

    #[test]
    fn broken_counter_is_caught_with_a_trace() {
        let err = explore(&BrokenDepCounter).expect_err("off-by-one must be caught");
        assert_eq!(err.model, "broken-dep-counter");
        assert!(!err.trace.is_empty());
    }
}
