//! A fixed piece of arithmetic the benchmark owns, timed beside everything
//! it measures, to tell how fast the host is running right now.
//!
//! The benchmark's host is a shared VM that has slow spells of minutes:
//! ten back-to-back runs of one binary read an `execute` of 9.4 ms seven
//! times and then 12.6, 12.2 and 11.1 ms, with set-up 4.5 s and then 7.3 s
//! — every instruction on the core slower by a third, and no statistic
//! inside a run can tell that from a slower program. The yardstick can: it
//! is the same instructions in every run of every commit, so when it takes
//! longer the host is slower, not the program. End-to-end times are
//! therefore reported at the host's nominal speed — divided by how much
//! slower than [`NOMINAL_MS`] the yardstick ran in the quiet part of the
//! same run — and the factor is printed and recorded with them.

use std::time::Instant;

/// The yardstick's time on the sizing host (Xeon @ 2.1 GHz, 2 vCPUs,
/// `target-cpu=native`) when nothing disturbs it, ms. On a faster host
/// every reported time is scaled up to this host's speed, so records from
/// different hosts stay comparable to first order.
pub const NOMINAL_MS: f64 = 0.403;

const SLOTS: usize = 1024;
const STEPS: usize = 60_000;

/// Half dependent chain (an index that depends on the previous load),
/// half independent multiply-adds: work that waits on latency and work
/// that waits on execution ports, as compile and kernel bodies do.
#[inline(never)]
fn work(seed: u64) -> f64 {
    let mut slots = [0f64; SLOTS];
    let mut x = seed | 1;
    let mut chained = 0f64;
    let mut lanes = [0f64; 8];
    for step in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize ^ chained.to_bits() as usize) % SLOTS;
        slots[j] = slots[j] * 0.999 + step as f64 * 1e-9;
        chained += slots[(j + 7) % SLOTS];
        for (lane, acc) in lanes.iter_mut().enumerate() {
            *acc = *acc * 0.999_999 + slots[(j + lane) % SLOTS];
        }
    }
    chained + lanes.iter().sum::<f64>()
}

/// One reading, ms: the fastest of three goes, since a neighbour only ever
/// adds time.
pub fn reading_ms() -> f64 {
    (0..3)
        .map(|_| {
            let began = Instant::now();
            std::hint::black_box(work(std::hint::black_box(0x9E37_79B9_7F4A_7C15)));
            began.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_yardstick_is_real_work_of_a_fixed_size() {
        // Not folded away at compile time, and short enough to take before
        // every 250 ms window.
        let ms = reading_ms();
        assert!(ms > 0.05 && ms < 50.0, "{ms} ms");
        assert_eq!(work(3).to_bits(), work(3).to_bits());
        assert_ne!(work(3).to_bits(), work(5).to_bits());
    }
}
