//! Time as a capability: the [`Clock`] abstraction.
//!
//! Retry backoff, circuit-breaker cool-downs, and request deadlines are
//! all "wait until T" logic. Testing them against the real clock forces
//! sleeps into the test suite and turns timing assertions into races.
//! Every time-dependent component therefore reads time through a
//! [`Clock`]: production code uses [`SystemClock`] (monotonic, backed by
//! `Instant`), tests use [`ManualClock`] and advance time explicitly —
//! a "sleep" under a manual clock is an atomic add, so a backoff schedule
//! of minutes executes in microseconds and is deterministic down to the
//! nanosecond.
//!
//! Time is represented as a [`Duration`] since the clock's own epoch.
//! Only differences between readings of the *same* clock are meaningful.
//! [`retry`] is the bounded, backed-off retry loop that sleeps on one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A monotonic time source plus the ability to wait.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Monotonic time since this clock's epoch.
    fn now(&self) -> Duration;

    /// Blocks (or simulates blocking) for `d`.
    fn sleep(&self, d: Duration);
}

/// A cheaply cloneable clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// The process-wide monotonic epoch: fixed at first use so every
/// [`SystemClock`] reading is comparable with every other.
fn system_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The real clock: `Instant`-backed readings, `thread::sleep` waits.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        system_epoch().elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A shared handle to the system clock.
pub fn system_clock() -> SharedClock {
    static CLOCK: OnceLock<SharedClock> = OnceLock::new();
    Arc::clone(CLOCK.get_or_init(|| Arc::new(SystemClock)))
}

/// A test clock that only moves when told to (or when slept on).
///
/// `sleep` advances the clock by the requested duration instead of
/// blocking, so code under test that waits out a backoff completes
/// immediately while still observing the correct elapsed time.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock at its epoch (t = 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared handle to a fresh manual clock plus a second handle for
    /// the test to advance it through.
    pub fn shared() -> (SharedClock, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (Arc::clone(&clock) as SharedClock, clock)
    }

    /// Moves time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

/// Runs `op` up to `attempts` times (at least once) and returns its first
/// success, or `None` once every attempt failed. Between attempts it
/// sleeps on `clock` a doubling backoff — `backoff`, `2 * backoff`, ... —
/// with every sleep clamped to `cap` (`Duration::MAX` for none). Both
/// closures see the 1-based attempt; `on_err` sees every failure. This is
/// the one bounded retry loop behind every disk and publish retry.
pub fn retry<T, E>(
    clock: &SharedClock,
    attempts: u32,
    backoff: Duration,
    cap: Duration,
    mut op: impl FnMut(u32) -> Result<T, E>,
    mut on_err: impl FnMut(u32, E),
) -> Option<T> {
    let attempts = attempts.max(1);
    let mut sleep = backoff;
    for attempt in 1..=attempts {
        match op(attempt) {
            Ok(v) => return Some(v),
            Err(e) => on_err(attempt, e),
        }
        if attempt < attempts {
            clock.sleep(sleep.min(cap));
            sleep = sleep.saturating_mul(2);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let (clock, manual) = ManualClock::shared();
        let mut calls = Vec::new();
        let got = retry(
            &clock,
            5,
            Duration::from_millis(10),
            Duration::from_millis(35),
            |attempt| {
                calls.push(manual.now());
                if attempt <= 4 {
                    Err(attempt)
                } else {
                    Ok(attempt)
                }
            },
            |_, _| {},
        );
        assert_eq!(got, Some(5));
        let sleeps: Vec<Duration> = calls.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(sleeps, [10, 20, 35, 35].map(Duration::from_millis));

        // `attempts = 0` still tries once, and a lone attempt never sleeps.
        let before = manual.now();
        let mut tried = 0;
        let got = retry(
            &clock,
            0,
            Duration::from_millis(10),
            Duration::MAX,
            |_| {
                tried += 1;
                Err::<(), _>(())
            },
            |_, _| {},
        );
        assert_eq!((got, tried), (None, 1));
        assert_eq!(manual.now(), before);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances_only_on_demand() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(250));
        // Sleeping advances instead of blocking.
        c.sleep(Duration::from_secs(3600));
        assert_eq!(c.now(), Duration::from_millis(250) + Duration::from_secs(3600));
    }

    #[test]
    fn shared_handles_observe_the_same_time() {
        let (clock, handle) = ManualClock::shared();
        handle.advance(Duration::from_secs(5));
        assert_eq!(clock.now(), Duration::from_secs(5));
    }
}
