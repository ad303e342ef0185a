//! The process-wide helper-lane pool: the long-lived threads that serve
//! as the extra lanes of every multi-lane run in the process.
//!
//! One pool for all executors, grown (never shrunk) to the largest
//! `lanes − 1` any of them was compiled for, so W request workers × L
//! lanes means at most L − 1 helper threads, not W·L thread starts per
//! wave of requests. A run *offers* a lane; an idle helper claims the offer,
//! attaches to the run, works the lane until the run is over, detaches
//! and comes back. Helpers are `'static` threads under
//! `forbid(unsafe_code)`, so an offer carries `Arc`s to everything the
//! lane touches instead of borrowing through a scope.
//!
//! The queue of unclaimed offers sits behind one mutex, taken once per
//! offer, claim and withdrawal — never per task. Claiming an offer and
//! attaching to its run are one critical section, and so is withdrawing
//! a finished run's unclaimed offers; that is what lets the caller wait
//! on the run's attach count alone (`korch_verify`'s `run-handoff`
//! model). The threads are never joined: they belong to the process, not
//! to an executor, and wait here when there is nothing to run.

use super::sched::RunState;
use super::Core;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One lane of one run, offered to whichever helper is free first.
pub(super) struct Offer {
    pub(super) core: Arc<Core>,
    pub(super) state: Arc<RunState>,
    pub(super) lane: usize,
}

struct Pool {
    offers: VecDeque<Offer>,
    /// Helper threads started so far.
    helpers: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    offers: VecDeque::new(),
    helpers: 0,
});
static OFFERED: Condvar = Condvar::new();

/// Every update of the pool is a single push, pop or retain, so a
/// poisoned guard's contents are valid as they stand.
fn lock() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Grows the pool to at least `helpers` threads — at executor
/// construction, so no `execute` ever starts one. A thread the OS
/// refuses is simply not there: every run completes on its caller alone.
pub(super) fn reserve(helpers: usize) {
    let mut pool = lock();
    while pool.helpers < helpers {
        let name = format!("korch-lane-{}", pool.helpers + 1);
        if std::thread::Builder::new().name(name).spawn(help).is_err() {
            return;
        }
        pool.helpers += 1;
    }
}

/// Queues `offer` and wakes one idle helper for it.
pub(super) fn offer(offer: Offer) {
    lock().offers.push_back(offer);
    OFFERED.notify_one();
}

/// Takes back every offer of `state`'s run that no helper claimed.
pub(super) fn withdraw(state: &Arc<RunState>) {
    lock()
        .offers
        .retain(|offer| !Arc::ptr_eq(&offer.state, state));
}

/// Body of a helper thread.
fn help() {
    loop {
        let Offer { core, state, lane } = {
            let mut pool = lock();
            loop {
                if let Some(offer) = pool.offers.pop_front() {
                    // Attached before the lock is released: a withdrawal
                    // that finds this offer gone finds the count raised.
                    offer.state.attach();
                    break offer;
                }
                pool = OFFERED.wait(pool).unwrap_or_else(PoisonError::into_inner);
            }
        };
        core.run_helper(lane, &state);
    }
}
