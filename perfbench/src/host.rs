//! Host-speed calibration for the gated timings.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over minutes: other tenants load the same cores, caches and
//! memory. No statistic taken inside one run removes a drift that lasts
//! longer than the run. So every gated time or rate is measured between
//! runs of a fixed probe that uses none of the program's code, and is
//! scaled to what it would be on a host where the probe takes
//! [`PROBE_REF_S`]: work measured while the probe runs 20% slow is
//! reported 20% faster. The scale is the median over all the probes of
//! one phase (a few to a few dozen over 10 to 20 s), because a single
//! 35 ms probe is itself noisy while the drift it corrects is slow. A
//! change to the program moves the work and not the probe, so it moves
//! the scaled value by as much as the raw one.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Probe wall time on the reference host (2-vCPU Xeon with AVX-512, at
/// its usual speed), s. Only the scale of the reported values depends on
/// it.
pub const PROBE_REF_S: f64 = 0.035;

/// Rows of the probe's table: 128-byte rows, 10 MiB in all. That is more
/// than a core's private caches hold and about the working set of a
/// search over the `batch-knn` corpus and graph, so the probe, like the
/// workloads, slows when other tenants crowd the shared cache.
const ROWS: usize = 80_000;
const DIM: usize = 128;
/// Row pairs scored per pool thread, in chunks the threads take from a
/// shared counter, so like the pool's own work a probe finishes early
/// when one core runs fast rather than waiting on the slower one.
const PAIRS: u64 = 300_000;
const CHUNK: u64 = 10_000;

fn table() -> &'static [u8] {
    static TABLE: OnceLock<Vec<u8>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..(ROWS * DIM) as u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect()
    })
}

/// Squared-L2 distances between [`CHUNK`] pseudo-random row pairs of
/// `table`, in plain scalar code.
fn score(table: &[u8], salt: u64) -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1d ^ salt;
    let mut acc = 0u64;
    for _ in 0..CHUNK {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = (x % ROWS as u64) as usize * DIM;
        let b = ((x >> 32) % ROWS as u64) as usize * DIM;
        let s: u32 = table[a..a + DIM]
            .iter()
            .zip(&table[b..b + DIM])
            .map(|(&p, &q)| {
                let d = p as i32 - q as i32;
                (d * d) as u32
            })
            .sum();
        acc = acc.wrapping_add(s as u64);
    }
    acc
}

/// Runs the probe once on as many threads as the worker pool has and
/// returns its wall time in seconds.
pub fn probe_s() -> f64 {
    let table = table();
    let threads = rayon::current_num_threads();
    let chunks = threads as u64 * PAIRS / CHUNK;
    let next = AtomicU64::new(0);
    // Touch every cache line first, so the timed part does not depend on
    // how much of the table the work before it evicted.
    black_box(table.iter().step_by(64).fold(0u8, |a, &b| a ^ b));
    let t = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut acc = 0u64;
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= chunks {
                            break acc;
                        }
                        acc = acc.wrapping_add(score(table, c));
                    }
                })
            })
            .collect();
        for w in workers {
            black_box(w.join().expect("probe thread panicked"));
        }
    });
    t.elapsed().as_secs_f64()
}

/// How slow the host runs now against the reference: above 1 when slow.
pub fn slowdown() -> f64 {
    probe_s() / PROBE_REF_S
}

/// Runs `work(i)` for `i = 0, 1, ...` while `more(i)` holds, at least
/// once, with a probe before the first run and after each. Returns every
/// result with the host slowdown over its run: the mean of the probes on
/// either side of it.
pub fn bracketed<R>(
    mut more: impl FnMut(usize) -> bool,
    mut work: impl FnMut(usize) -> R,
) -> Vec<(R, f64)> {
    let mut out = Vec::new();
    let mut before = slowdown();
    while out.is_empty() || more(out.len()) {
        let r = work(out.len());
        let after = slowdown();
        out.push((r, (before + after) / 2.0));
        before = after;
    }
    out
}

/// Scales a wall time measured at `slowdown` to the reference host.
pub fn time_at_ref(secs: f64, slowdown: f64) -> f64 {
    secs / slowdown
}

/// Scales a rate measured at `slowdown` to the reference host.
pub fn rate_at_ref(per_s: f64, slowdown: f64) -> f64 {
    per_s * slowdown
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracketed_runs_in_order_until_more_fails_and_at_least_once() {
        let runs = bracketed(|i| i < 3, |i| i * 10);
        assert_eq!(runs.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 10, 20]);
        assert!(runs.iter().all(|r| r.1 > 0.0 && r.1.is_finite()));
        assert_eq!(bracketed(|_| false, |i| i).len(), 1);
    }

    #[test]
    fn rates_scale_up_and_times_down_on_a_slow_host() {
        assert_eq!(rate_at_ref(100.0, 1.5), 150.0);
        assert_eq!(time_at_ref(3.0, 1.5), 2.0);
    }
}
