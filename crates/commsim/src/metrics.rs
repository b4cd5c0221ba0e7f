//! Communication metering.
//!
//! The paper argues about three quantities (cf. its Section 2): internal
//! work, communication volume and latency (number of message start-ups).
//! The simulator cannot measure internal work in a portable way, but it can
//! meter the other two exactly.  Every send records one start-up and the
//! payload's machine-word count on both the sender's and the receiver's
//! counters; after an SPMD run the per-PE counters are aggregated into a
//! [`WorldStats`] that exposes the *bottleneck* quantities the paper's bounds
//! are stated in (maximum over PEs of sent/received words, i.e. the `h`
//! of a BSP superstep summed over the whole run).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-PE communication counters.
///
/// The counters are updated by the owning PE thread only, but are read by the
/// runner thread after the SPMD region finished, hence the atomics (relaxed
/// ordering is sufficient: the thread join provides the synchronisation
/// edge).
#[derive(Debug, Default)]
pub(crate) struct PeStats {
    sent_messages: AtomicU64,
    sent_words: AtomicU64,
    received_messages: AtomicU64,
    received_words: AtomicU64,
}

impl PeStats {
    /// Create a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an outgoing message of `words` machine words.
    #[inline]
    pub fn record_send(&self, words: usize) {
        self.sent_messages.fetch_add(1, Ordering::Relaxed);
        self.sent_words.fetch_add(words as u64, Ordering::Relaxed);
    }

    /// Record an incoming message of `words` machine words.
    #[inline]
    pub fn record_recv(&self, words: usize) {
        self.received_messages.fetch_add(1, Ordering::Relaxed);
        self.received_words
            .fetch_add(words as u64, Ordering::Relaxed);
    }

    /// Zero every counter.  Used by the replay scheduler
    /// ([`crate::mux`]), which re-executes closures from the start: resetting at
    /// the beginning of each execution makes the counters describe exactly
    /// one (the final, complete) execution, so mid-closure
    /// [`StatsSnapshot::since`] phase metering agrees with the threaded
    /// backend.
    pub fn reset(&self) {
        self.sent_messages.store(0, Ordering::Relaxed);
        self.sent_words.store(0, Ordering::Relaxed);
        self.received_messages.store(0, Ordering::Relaxed);
        self.received_words.store(0, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sent_messages: self.sent_messages.load(Ordering::Relaxed),
            sent_words: self.sent_words.load(Ordering::Relaxed),
            received_messages: self.received_messages.load(Ordering::Relaxed),
            received_words: self.received_words.load(Ordering::Relaxed),
        }
    }
}

/// An immutable snapshot of one PE's counters.
///
/// Snapshots form a group under element-wise subtraction, which lets
/// algorithms meter a *phase*: take a snapshot before and after and subtract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Number of messages this PE sent (start-ups paid on the send side).
    pub sent_messages: u64,
    /// Machine words this PE sent.
    pub sent_words: u64,
    /// Number of messages this PE received.
    pub received_messages: u64,
    /// Machine words this PE received.
    pub received_words: u64,
}

impl StatsSnapshot {
    /// Element-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            sent_messages: self.sent_messages.saturating_sub(earlier.sent_messages),
            sent_words: self.sent_words.saturating_sub(earlier.sent_words),
            received_messages: self
                .received_messages
                .saturating_sub(earlier.received_messages),
            received_words: self.received_words.saturating_sub(earlier.received_words),
        }
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            sent_messages: self.sent_messages + other.sent_messages,
            sent_words: self.sent_words + other.sent_words,
            received_messages: self.received_messages + other.received_messages,
            received_words: self.received_words + other.received_words,
        }
    }

    /// Communication volume of this PE in the single-ported sense: the
    /// maximum of sent and received words (a PE can send and receive
    /// concurrently, so the larger direction is the bottleneck).
    pub fn bottleneck_words(&self) -> u64 {
        self.sent_words.max(self.received_words)
    }

    /// Start-up count of this PE: the maximum of sent and received message
    /// counts.
    pub fn bottleneck_messages(&self) -> u64 {
        self.sent_messages.max(self.received_messages)
    }
}

/// Aggregated statistics for a whole SPMD run (all PEs).
#[derive(Debug, Clone, Default)]
pub struct WorldStats {
    per_pe: Vec<StatsSnapshot>,
}

impl WorldStats {
    /// Build from per-PE snapshots.
    pub fn from_snapshots(per_pe: Vec<StatsSnapshot>) -> Self {
        Self { per_pe }
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.per_pe.len()
    }

    /// Snapshot of a single PE.
    pub fn pe(&self, rank: usize) -> &StatsSnapshot {
        &self.per_pe[rank]
    }

    /// All per-PE snapshots.
    pub fn per_pe(&self) -> &[StatsSnapshot] {
        &self.per_pe
    }

    /// Total number of machine words that crossed the network (counted once
    /// per message, on the send side).
    pub fn total_words(&self) -> u64 {
        self.per_pe.iter().map(|s| s.sent_words).sum()
    }

    /// Total number of messages (start-ups, counted on the send side).
    pub fn total_messages(&self) -> u64 {
        self.per_pe.iter().map(|s| s.sent_messages).sum()
    }

    /// Bottleneck communication volume: `max` over PEs of
    /// `max(sent, received)` words.  This is the `h`-relation size the
    /// paper's sublinearity claims are about.
    pub fn bottleneck_words(&self) -> u64 {
        self.per_pe
            .iter()
            .map(StatsSnapshot::bottleneck_words)
            .max()
            .unwrap_or(0)
    }

    /// Bottleneck number of start-ups: `max` over PEs of
    /// `max(sent, received)` messages — a proxy for the latency term.
    pub fn bottleneck_messages(&self) -> u64 {
        self.per_pe
            .iter()
            .map(StatsSnapshot::bottleneck_messages)
            .max()
            .unwrap_or(0)
    }

    /// Average sent words per PE.
    fn mean_sent_words(&self) -> f64 {
        if self.per_pe.is_empty() {
            0.0
        } else {
            self.total_words() as f64 / self.per_pe.len() as f64
        }
    }

    /// Imbalance factor: bottleneck volume divided by mean volume (1.0 means
    /// perfectly balanced communication).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_sent_words();
        if mean == 0.0 {
            1.0
        } else {
            self.bottleneck_words() as f64 / mean
        }
    }
}

/// Shared handles to the per-PE counters, created by the runner and handed to
/// each [`crate::Comm`].
#[derive(Debug, Clone)]
pub(crate) struct StatsRegistry {
    stats: Arc<Vec<PeStats>>,
}

impl StatsRegistry {
    /// Create counters for `p` PEs.
    pub fn new(p: usize) -> Self {
        Self {
            stats: Arc::new((0..p).map(|_| PeStats::new()).collect()),
        }
    }

    /// Counter set of PE `rank`.
    pub fn pe(&self, rank: usize) -> &PeStats {
        &self.stats[rank]
    }

    /// Collect a [`WorldStats`] from the current counter values.
    pub fn world(&self) -> WorldStats {
        WorldStats::from_snapshots(self.stats.iter().map(PeStats::snapshot).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = PeStats::new();
        s.record_send(10);
        s.record_send(5);
        s.record_recv(3);
        let snap = s.snapshot();
        assert_eq!(snap.sent_messages, 2);
        assert_eq!(snap.sent_words, 15);
        assert_eq!(snap.received_messages, 1);
        assert_eq!(snap.received_words, 3);
    }

    #[test]
    fn snapshot_difference_meters_a_phase() {
        let s = PeStats::new();
        s.record_send(10);
        let before = s.snapshot();
        s.record_send(7);
        s.record_recv(2);
        let after = s.snapshot();
        let phase = after.since(&before);
        assert_eq!(phase.sent_messages, 1);
        assert_eq!(phase.sent_words, 7);
        assert_eq!(phase.received_words, 2);
    }

    #[test]
    fn snapshot_sum() {
        let a = StatsSnapshot {
            sent_messages: 1,
            sent_words: 2,
            received_messages: 3,
            received_words: 4,
        };
        let b = StatsSnapshot {
            sent_messages: 10,
            sent_words: 20,
            received_messages: 30,
            received_words: 40,
        };
        let c = a.plus(&b);
        assert_eq!(c.sent_messages, 11);
        assert_eq!(c.received_words, 44);
        assert_eq!(c.since(&b), a);
    }

    #[test]
    fn bottleneck_takes_max_direction() {
        let s = StatsSnapshot {
            sent_messages: 2,
            sent_words: 100,
            received_messages: 9,
            received_words: 40,
        };
        assert_eq!(s.bottleneck_words(), 100);
        assert_eq!(s.bottleneck_messages(), 9);
    }

    #[test]
    fn world_stats_aggregate() {
        let snaps = vec![
            StatsSnapshot {
                sent_messages: 1,
                sent_words: 10,
                received_messages: 1,
                received_words: 30,
            },
            StatsSnapshot {
                sent_messages: 2,
                sent_words: 50,
                received_messages: 2,
                received_words: 20,
            },
            StatsSnapshot {
                sent_messages: 3,
                sent_words: 5,
                received_messages: 3,
                received_words: 15,
            },
        ];
        let w = WorldStats::from_snapshots(snaps);
        assert_eq!(w.num_pes(), 3);
        assert_eq!(w.total_words(), 65);
        assert_eq!(w.total_messages(), 6);
        assert_eq!(w.bottleneck_words(), 50);
        assert_eq!(w.bottleneck_messages(), 3);
        assert!((w.mean_sent_words() - 65.0 / 3.0).abs() < 1e-9);
        assert!(w.imbalance() > 1.0);
    }

    #[test]
    fn empty_world_is_well_defined() {
        let w = WorldStats::default();
        assert_eq!(w.bottleneck_words(), 0);
        assert_eq!(w.imbalance(), 1.0);
    }

    #[test]
    fn registry_collects_all_pes() {
        let reg = StatsRegistry::new(3);
        reg.pe(0).record_send(4);
        reg.pe(2).record_recv(6);
        let w = reg.world();
        assert_eq!(w.pe(0).sent_words, 4);
        assert_eq!(w.pe(2).received_words, 6);
        assert_eq!(w.pe(1).sent_words, 0);
    }
}
