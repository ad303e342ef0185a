//! Lock-free Chase–Lev work-stealing deques for the executor's ready
//! queues.
//!
//! One deque per worker lane. The **owner** pushes and pops at the
//! *bottom* (LIFO — freshly made-ready work is the critical path);
//! **thieves** steal from the *top* (FIFO — the oldest, coldest work),
//! racing each other and the owner's last-element pop with a CAS on
//! `top`. Every scheduler interaction is a handful of atomics: no mutex,
//! no allocation after construction.
//!
//! # Memory orderings
//!
//! The recipe is the proven C11 formulation (Lê et al., *Correct and
//! Efficient Work-Stealing for Weak Memory Models*), modeled
//! exhaustively at the SC level by `korch_verify`'s `chase-lev-deque`
//! protocol:
//!
//! - **push**: store the element into its slot (`Relaxed` — the slot is
//!   invisible until `bottom` moves), then publish with a `Release`
//!   store of `bottom`. A thief's `Acquire` load of `bottom` that
//!   observes the new index therefore also observes the element.
//! - **pop**: lower `bottom` (`Relaxed` store), `SeqCst` fence, then
//!   read `top`. The fence makes the lowered `bottom` visible to any
//!   thief that subsequently reads it, and orders the owner's `top`
//!   read after the store — the Dekker handshake that ensures owner and
//!   thief cannot both take the last element without one of them seeing
//!   the other's claim. `top < bottom` takes the bottom element
//!   uncontested; `top == bottom` claims the contested last element
//!   with a `SeqCst` CAS on `top`.
//! - **steal**: `Acquire` load of `top`, `SeqCst` fence, `Acquire` load
//!   of `bottom`, read the element, then claim it with a `SeqCst` CAS
//!   on `top`. A failed CAS means someone else (owner or sibling thief)
//!   took it — [`Steal::Retry`].
//!
//! # Fixed capacity, no ABA
//!
//! The executor sizes each deque to the run's **total** task count
//! (kernels + tiles), so `bottom` never exceeds the capacity and
//! indices never wrap — the growth/ABA machinery of the general
//! algorithm is structurally unnecessary. Slots are `AtomicU64` (tasks
//! are encoded indices, not pointers), so there is no unsafe code and
//! no torn read: the only slot reuse is the owner overwriting its own
//! popped bottom slot, which no thief can still target (a thief reads
//! slot `i` only after observing `top == i`, and once `top` has reached
//! `i` the owner can never again pop index `i` uncontested — `top` is
//! monotonic).

use std::sync::atomic::{fence, AtomicIsize, AtomicU64, Ordering};

/// Result of one steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Steal {
    /// The deque was observed empty.
    Empty,
    /// Lost the claiming CAS to the owner or another thief; the deque
    /// may still hold work — try again.
    Retry,
    /// Stole the encoded task.
    Success(u64),
}

/// A fixed-capacity Chase–Lev deque of `u64`-encoded tasks.
///
/// `push`/`pop` are owner-only by contract (they take `&self` — the
/// structure is all atomics, so a contract violation is a logic error,
/// not undefined behavior); `steal` and `is_empty` are safe from any
/// thread.
pub(crate) struct WorkStealDeque {
    top: AtomicIsize,
    bottom: AtomicIsize,
    buf: Box<[AtomicU64]>,
}

impl WorkStealDeque {
    /// A deque with room for `capacity` total pushes per run (the
    /// executor passes the run's kernel + tile count; index space is
    /// only rewound between runs, by [`WorkStealDeque::reset`], so this
    /// bounds `bottom`).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buf: (0..capacity.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Empties the deque and rewinds its index space for another run.
    /// `&mut self`: nobody else can hold it.
    pub(crate) fn reset(&mut self) {
        *self.top.get_mut() = 0;
        *self.bottom.get_mut() = 0;
    }

    /// Owner-only: push `task` at the bottom.
    pub(crate) fn push(&self, task: u64) {
        let b = self.bottom.load(Ordering::Relaxed);
        debug_assert!(
            (b as usize) < self.buf.len(),
            "deque sized below the run's total task count"
        );
        self.buf[b as usize].store(task, Ordering::Relaxed);
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner-only: pop from the bottom (LIFO). `None` when empty.
    pub(crate) fn pop(&self) -> Option<u64> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t < b {
            // More than one element: the bottom one is owner-exclusive.
            Some(self.buf[b as usize].load(Ordering::Relaxed))
        } else if t == b {
            // Contested last element: claim it against racing thieves.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            won.then(|| self.buf[b as usize].load(Ordering::Relaxed))
        } else {
            // Was empty; restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Steal from the top (FIFO). Any thread.
    pub(crate) fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let task = self.buf[t as usize].load(Ordering::Relaxed);
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(task)
        } else {
            Steal::Retry
        }
    }

    /// Whether the deque is observably empty. A concurrent owner pop can
    /// transiently lower `bottom` below `top`; that still reads as
    /// empty, the conservative direction. (The scheduler's parking sweep
    /// uses pop/steal directly; this is a test-visible snapshot.)
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        let t = self.top.load(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::SeqCst);
        t >= b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;
    use std::sync::Arc;

    #[test]
    fn owner_pop_is_lifo_and_drains() {
        let d = WorkStealDeque::new(4);
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert!(!d.is_empty());
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
        assert!(d.is_empty());
        // Popped bottom slots are reused by later pushes.
        d.push(4);
        assert_eq!(d.pop(), Some(4));
    }

    #[test]
    fn steal_takes_the_oldest() {
        let d = WorkStealDeque::new(4);
        d.push(10);
        d.push(20);
        assert_eq!(d.steal(), Steal::Success(10));
        assert_eq!(d.pop(), Some(20));
        assert_eq!(d.steal(), Steal::Empty);
    }

    /// Owner pops while thieves hammer steals: every task is consumed
    /// exactly once across all threads, none lost, none duplicated.
    #[test]
    fn concurrent_steal_conserves_tasks() {
        const TASKS: u64 = 2000;
        const THIEVES: usize = 3;
        let deque = Arc::new(WorkStealDeque::new(TASKS as usize));
        // taken[i] counts consumptions of task i.
        let taken: Arc<Vec<Counter>> = Arc::new((0..TASKS).map(|_| Counter::new(0)).collect());
        std::thread::scope(|scope| {
            for _ in 0..THIEVES {
                let deque = Arc::clone(&deque);
                let taken = Arc::clone(&taken);
                scope.spawn(move || loop {
                    match deque.steal() {
                        Steal::Success(t) => {
                            taken[t as usize].fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if taken.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>() >= TASKS
                            {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            // The owner interleaves pushes with pops.
            for i in 0..TASKS {
                deque.push(i);
                if i % 3 == 0 {
                    if let Some(t) = deque.pop() {
                        taken[t as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            while let Some(t) = deque.pop() {
                taken[t as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, c) in taken.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "task {i} consumed a wrong number of times"
            );
        }
    }
}
