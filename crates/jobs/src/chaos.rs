//! Scheduler-level chaos: a seed-deterministic fault plan for the job
//! pool, compiled only under the `fault-inject` feature.
//!
//! The core crate's `FaultPlan` injects faults *inside* one analysis run
//! (native panics, allocation failures). This plan injects faults in the
//! *scheduler* around runs: it drops or delays progress-event sends and
//! truncates checkpoint writes. Every decision is a pure function of
//! `(seed, coordinates)` — the same plan replays the same faults — so the
//! chaos equivalence suite can assert the headline invariant: under any
//! fault schedule, the final batch report is byte-identical to the
//! fault-free run, at any worker count.

/// What should happen to the nth event send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventFate {
    /// Deliver normally.
    Deliver,
    /// Silently drop the event (the listener never sees it).
    Drop,
    /// Sleep this many milliseconds, then deliver.
    Delay(u64),
}

/// A deterministic scheduler fault schedule.
///
/// Percentages are per-decision probabilities driven by [`splitmix64`]
/// over the seed and a global event sequence number, so a plan is exactly
/// reproducible and independent of thread interleaving.
#[derive(Debug, Clone)]
pub struct SchedulerFaultPlan {
    /// Root seed; every decision mixes it with its coordinates.
    pub seed: u64,
    /// Percent chance an event send is dropped.
    pub drop_event_pct: u8,
    /// Percent chance an event send is delayed (checked after drop).
    pub delay_event_pct: u8,
    /// Delay duration for delayed events, in milliseconds.
    pub delay_event_ms: u64,
    /// Truncate every nth checkpoint write mid-file (simulates a crash
    /// during the temp-file write; the atomic rename must never publish
    /// the torn file). `None` disables truncation.
    pub truncate_checkpoint_every: Option<u64>,
}

impl SchedulerFaultPlan {
    /// A moderately hostile schedule derived from `seed`: perturbs 20% of
    /// event sends and leaves checkpoints alone.
    pub fn from_seed(seed: u64) -> Self {
        SchedulerFaultPlan {
            seed,
            drop_event_pct: 10,
            delay_event_pct: 10,
            delay_event_ms: 2,
            truncate_checkpoint_every: None,
        }
    }

    /// The fate of the `n`th event send (global sequence order).
    pub fn event_fate(&self, n: u64) -> EventFate {
        let x = splitmix64(self.seed ^ n.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        if (x % 100) < u64::from(self.drop_event_pct) {
            return EventFate::Drop;
        }
        if ((x >> 32) % 100) < u64::from(self.delay_event_pct) {
            return EventFate::Delay(self.delay_event_ms);
        }
        EventFate::Deliver
    }

    /// Whether the `n`th checkpoint write (1-indexed) is truncated
    /// mid-file.
    pub fn truncate_checkpoint(&self, n: u64) -> bool {
        match self.truncate_checkpoint_every {
            Some(every) if every > 0 => n.is_multiple_of(every),
            _ => false,
        }
    }
}

/// SplitMix64 — the standard 64-bit mixing function; deterministic,
/// allocation-free, and good enough to decorrelate fault decisions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let p = SchedulerFaultPlan::from_seed(7);
        let q = SchedulerFaultPlan::from_seed(7);
        for n in 0..256 {
            assert_eq!(p.event_fate(n), q.event_fate(n));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = SchedulerFaultPlan::from_seed(1);
        let b = SchedulerFaultPlan::from_seed(2);
        let diverged = (0..64u64).any(|n| a.event_fate(n) != b.event_fate(n));
        assert!(diverged);
    }

    #[test]
    fn checkpoint_truncation_schedule() {
        let mut p = SchedulerFaultPlan::from_seed(3);
        assert!(!p.truncate_checkpoint(1));
        p.truncate_checkpoint_every = Some(2);
        assert!(!p.truncate_checkpoint(1));
        assert!(p.truncate_checkpoint(2));
        assert!(p.truncate_checkpoint(4));
    }
}
