//! Deterministic fault schedule for soak and robustness tests.
//!
//! A [`FaultPlan`] maps each [`Fault`] class to an ascending list of
//! thresholds over a *monotonic cumulative counter* the plan owns for
//! that class (items delivered, episodes closed, attempts made) — never
//! wall clock, and never the pipeline's own replayable counters. Each
//! [`tick_by`](FaultPlan::tick_by) advances the class's counter and
//! fires when it crosses a not-yet-consumed threshold; every threshold
//! fires exactly once, even when recovery replays the pipeline past the
//! same point again, so an injected crash cannot re-trigger itself into
//! a crash loop. With steps of one, a threshold list reads as the
//! 1-based ordinals of the ticks that fire.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// One class of injectable fault, named after the tick that fires it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic the tailer before it sends a batch; ticked by the batch's
    /// item count.
    TailerPanic,
    /// Panic the trainer at an episode close, before the model mutates.
    TrainerPanic,
    /// Fail a publish attempt.
    PublishAttempt,
    /// Panic the publisher after a snapshot has settled.
    PublisherPanic,
    /// Truncate the journal slot just written (a torn write the next
    /// recovery must survive via the other slot).
    JournalTruncate,
    /// Fail a journal write attempt ENOSPC-style: the write accepts a
    /// few bytes then errors and the slot is left untouched.
    JournalWrite,
    /// Fail a log-compaction rewrite mid-write (the live log and its
    /// archive stay consistent; the next journal boundary retries).
    Compaction,
    /// Fail a snapshot-export write attempt mid-stream.
    SnapshotWrite,
    /// Fail an archive segment-seal write attempt mid-stream (the store
    /// is unchanged).
    ArchiveSeal,
    /// Fail an archive-expiry manifest write attempt (the old boundary
    /// and every segment survive).
    ArchiveExpiry,
    /// Poison a snapshot the publisher received: the parameter bits are
    /// mangled *and the checksum recomputed*, so only a semantic quality
    /// gate — not an integrity check — can catch it.
    PoisonSnapshot,
}

const FAULT_CLASSES: usize = Fault::PoisonSnapshot as usize + 1;

/// A scripted schedule of injected faults. [`FaultPlan::none`] is inert
/// and is what production construction uses.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Ascending thresholds per fault class.
    at: [Vec<u64>; FAULT_CLASSES],
    /// Cumulative tick count per class.
    ticks: [AtomicU64; FAULT_CLASSES],
    /// Thresholds consumed per class.
    fired: [AtomicUsize; FAULT_CLASSES],
    publish_delay: Option<Duration>,
}

impl FaultPlan {
    /// An inert plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Schedules `fault` at the given thresholds (1-based; sorted here),
    /// replacing any earlier schedule for that class.
    pub fn with(mut self, fault: Fault, at: impl IntoIterator<Item = u64>) -> Self {
        let mut at: Vec<u64> = at.into_iter().collect();
        at.sort_unstable();
        self.at[fault as usize] = at;
        self
    }

    /// Injects a fixed delay into every publish (a slow registry).
    pub fn with_publish_delay(mut self, delay: Duration) -> Self {
        self.publish_delay = Some(delay);
        self
    }

    /// The injected per-publish delay, if any.
    pub fn publish_delay(&self) -> Option<Duration> {
        self.publish_delay
    }

    /// One more `fault` event happened; true = inject the fault now.
    pub fn tick(&self, fault: Fault) -> bool {
        self.tick_by(fault, 1)
    }

    /// `n` more `fault` events happened; true when the counter crossed
    /// at least one threshold not yet consumed (each fires once).
    pub fn tick_by(&self, fault: Fault, n: u64) -> bool {
        let (at, fired) = (&self.at[fault as usize], &self.fired[fault as usize]);
        let now = self.ticks[fault as usize].fetch_add(n, Ordering::SeqCst) + n;
        let mut crossed = false;
        loop {
            let i = fired.load(Ordering::SeqCst);
            match at.get(i) {
                Some(&t) if t <= now => {
                    if fired
                        .compare_exchange(i, i + 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        crossed = true;
                    }
                }
                _ => return crossed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_fire_exactly_once_each() {
        let plan = FaultPlan::none().with(Fault::TailerPanic, [12, 5]);
        let mut fires = 0;
        for _ in 0..10 {
            if plan.tick_by(Fault::TailerPanic, 2) {
                fires += 1;
            }
        }
        assert_eq!(fires, 2, "each threshold fires exactly once");
        assert!(!plan.tick_by(Fault::TailerPanic, 100));
    }

    #[test]
    fn publish_attempts_fail_by_ordinal() {
        let plan = FaultPlan::none().with(Fault::PublishAttempt, [1, 3]);
        assert!(plan.tick(Fault::PublishAttempt));
        assert!(!plan.tick(Fault::PublishAttempt));
        assert!(plan.tick(Fault::PublishAttempt));
        assert!(!plan.tick(Fault::PublishAttempt));
        // Classes count independently.
        assert!(!plan.tick(Fault::JournalWrite));
    }
}
