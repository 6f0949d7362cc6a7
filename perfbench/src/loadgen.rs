//! Open-loop load generation: one sender thread submits on a seeded
//! Poisson schedule whether or not earlier requests have finished, and
//! one collector thread blocks on each reply.
//!
//! Latency runs from the instant a request was *due*, not from when the
//! sender got round to it, so a stalled sender shows up as latency of the
//! requests it delayed (no coordinated omission). How late the sender
//! ran is recorded per request. A refused or failed request has no
//! latency; callers count it as a miss in every percentile.
//!
//! The collector waits on replies in submission order. A reply that
//! completes before an earlier one is stamped when the collector reaches
//! it, at most one batch service time late; with one collector (the
//! budget is one load thread per core) this is the bound on stamp error.

use std::time::{Duration, Instant};

/// Time source for the sender and collector; a manual clock in tests.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now(&self) -> u64;
    /// Blocks until `now() >= ns`.
    fn sleep_until(&self, ns: u64);
}

/// Wall clock with its origin at construction.
pub struct Wall {
    origin: Instant,
}

impl Wall {
    /// A clock whose origin is now.
    pub fn new() -> Wall {
        Wall {
            origin: Instant::now(),
        }
    }

    /// The instant `ns` after the origin.
    pub fn instant(&self, ns: u64) -> Instant {
        self.origin + Duration::from_nanos(ns)
    }
}

impl Default for Wall {
    fn default() -> Self {
        Wall::new()
    }
}

impl Clock for Wall {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, ns: u64) {
        let now = self.now();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

/// Due instants (ns from the phase start) of a Poisson arrival process
/// at `rate` per second over `dur`, from `seed`.
pub fn poisson_schedule(rate: f64, dur: Duration, seed: u64) -> Vec<u64> {
    let rng = parlay::Random::new(seed);
    let end = dur.as_nanos() as f64;
    let mean_gap = 1e9 / rate;
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * dur.as_secs_f64() * 1.1) as usize + 16);
    for i in 0.. {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
        t += -mean_gap * (1.0 - rng.ith_unit_f64(i)).ln();
        if t >= end {
            return out;
        }
        out.push(t as u64);
    }
    unreachable!("the schedule ends once it passes `dur`")
}

/// A request as the sender handed it to the collector.
pub struct Sent<H> {
    /// Position in the schedule.
    pub idx: usize,
    /// When it was due, ns.
    pub due_ns: u64,
    /// How late the sender started submitting it, ns.
    pub late_ns: u64,
    /// How long the submit call took, ns.
    pub submit_ns: u64,
    /// The reply handle, or `None` if the submit was refused.
    pub handle: Option<H>,
}

/// A finished request.
pub struct Done<R> {
    /// Position in the schedule.
    pub idx: usize,
    /// When it was due, ns.
    pub due_ns: u64,
    /// How late the sender ran for it, ns.
    pub late_ns: u64,
    /// How long the submit call took, ns.
    pub submit_ns: u64,
    /// Due instant to completion, ns; `None` for a refused or failed
    /// request (a miss).
    pub latency_ns: Option<u64>,
    /// The reply, if any.
    pub reply: Option<R>,
}

/// Submits request `i` at `schedule[i]` for every `i`, never skipping one
/// however late the sender runs, and passes each to `emit`.
pub fn send<C: Clock, H>(
    clock: &C,
    schedule: &[u64],
    mut submit: impl FnMut(usize) -> Option<H>,
    mut emit: impl FnMut(Sent<H>),
) {
    for (idx, &due_ns) in schedule.iter().enumerate() {
        clock.sleep_until(due_ns);
        let start = clock.now();
        let handle = submit(idx);
        let end = clock.now();
        emit(Sent {
            idx,
            due_ns,
            late_ns: start.saturating_sub(due_ns),
            submit_ns: end - start,
            handle,
        });
    }
}

/// Blocks on each sent request in order and stamps its completion the
/// moment `wait` returns. `wait` returns `None` for a failed request.
pub fn collect<C: Clock, H, R>(
    clock: &C,
    sent: impl IntoIterator<Item = Sent<H>>,
    mut wait: impl FnMut(H) -> Option<R>,
) -> Vec<Done<R>> {
    sent.into_iter()
        .map(|s| {
            let reply = s.handle.and_then(&mut wait);
            let latency_ns = reply.as_ref().map(|_| clock.now().saturating_sub(s.due_ns));
            Done {
                idx: s.idx,
                due_ns: s.due_ns,
                late_ns: s.late_ns,
                submit_ns: s.submit_ns,
                latency_ns,
                reply,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to (sleeping jumps to the target).
    struct Manual(Cell<u64>);

    impl Clock for Manual {
        fn now(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, ns: u64) {
            self.0.set(self.0.get().max(ns));
        }
    }

    #[test]
    fn stalled_sender_is_charged_to_the_requests_it_delayed() {
        let clock = Manual(Cell::new(0));
        let schedule = [0, 100_000, 200_000, 300_000, 400_000];
        let mut sent = Vec::new();
        send(
            &clock,
            &schedule,
            |i| {
                if i == 2 {
                    // The submit of request 2 stalls for 5 ms.
                    clock.0.set(clock.0.get() + 5_000_000);
                }
                Some(i)
            },
            |s| sent.push(s),
        );
        let late: Vec<u64> = sent.iter().map(|s| s.late_ns).collect();
        assert_eq!(late, [0, 0, 0, 4_900_000, 4_800_000]);
        assert_eq!(sent[2].submit_ns, 5_000_000);
        // Every reply is ready when the collector asks (at 5.2 ms): the
        // delayed requests carry the whole stall in their latency.
        let done = collect(&clock, sent, Some);
        let lat: Vec<u64> = done.iter().map(|d| d.latency_ns.unwrap()).collect();
        assert_eq!(lat, [5_200_000, 5_100_000, 5_000_000, 4_900_000, 4_800_000]);
        assert!(done.iter().all(|d| d.latency_ns.unwrap() >= d.late_ns));
    }

    #[test]
    fn stall_latency_is_measured_from_due_not_send() {
        let clock = Manual(Cell::new(0));
        let schedule = [0, 1_000, 2_000];
        let mut sent = Vec::new();
        send(
            &clock,
            &schedule,
            |i| {
                if i == 0 {
                    clock.0.set(50_000);
                }
                Some(i)
            },
            |s| sent.push(s),
        );
        // The collector sees each reply 10 µs after it starts waiting.
        let done = collect(&clock, sent, |h| {
            clock.0.set(clock.0.get() + 10_000);
            Some(h)
        });
        let lat: Vec<u64> = done.iter().map(|d| d.latency_ns.unwrap()).collect();
        assert_eq!(lat, [60_000, 69_000, 78_000]);
        assert_eq!(done[1].late_ns, 49_000);
    }

    #[test]
    fn refused_and_failed_requests_are_misses() {
        let clock = Manual(Cell::new(0));
        let mut sent = Vec::new();
        send(
            &clock,
            &[0, 10, 20],
            |i| (i != 1).then_some(i),
            |s| sent.push(s),
        );
        // The collector runs after the sender finished, at 20 ns.
        let done = collect(&clock, sent, |h| (h != 2).then_some(h));
        let lat: Vec<Option<u64>> = done.iter().map(|d| d.latency_ns).collect();
        assert_eq!(lat, [Some(20), None, None]);
        assert!(done[1].reply.is_none() && done[2].reply.is_none());
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_near_rate() {
        let a = poisson_schedule(2_000.0, Duration::from_secs(2), 7);
        assert_eq!(a, poisson_schedule(2_000.0, Duration::from_secs(2), 7));
        assert_ne!(a, poisson_schedule(2_000.0, Duration::from_secs(2), 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((3_700..4_300).contains(&a.len()), "{}", a.len());
        assert!(*a.last().unwrap() < 2_000_000_000);
    }
}
