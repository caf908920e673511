//! Metric identifiers and storage cells.
//!
//! All metrics are enum-indexed into fixed atomic arrays owned by a
//! [`Registry`](crate::Registry), so recording a counter is one
//! `fetch_add(Relaxed)` with no hashing, no allocation and no locks.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters on the allreduce critical path.
///
/// Prometheus identity is `prom_name()` plus an optional fixed label
/// (`label()`); several variants share one Prometheus family and are
/// distinguished by label (e.g. the per-backend PRF block counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// 16-byte PRF blocks evaluated by the software AES backend.
    PrfBlocksAesSoft = 0,
    /// 16-byte PRF blocks evaluated by the AES-NI backend.
    PrfBlocksAesNi,
    /// 16-byte PRF blocks evaluated by the software SHA-1 backend.
    PrfBlocksSha1,
    /// 16-byte PRF blocks evaluated by the SHA-NI backend.
    PrfBlocksSha1Ni,
    /// Keystream bytes expanded into caller buffers (`keystream_*`).
    KeystreamBytes,
    /// Collective-key progressions `kc <- F_kp(kc)` (`CommKeys::advance`).
    KeyAdvances,
    /// Collective operations posted (one per `next_coll_tag`).
    Collectives,
    /// Messages handed to the fabric (`Fabric::send_boxed`).
    FabricMsgs,
    /// Payload bytes handed to the fabric.
    FabricBytes,
    /// Mailbox receives satisfied inside the spin window (fast path).
    MailboxSpinHits,
    /// Mailbox receives that had to park on the condvar (slow path).
    MailboxParks,
    /// Pipeline blocks posted by the pipelined allreduce drivers.
    PipelineBlocks,
    /// HoMAC verifications that passed.
    HomacVerifyPass,
    /// HoMAC verifications that failed.
    HomacVerifyFail,
    /// Pool `take()` calls served from the free list.
    PoolTakeReuse,
    /// Pool `take()` calls that had to allocate a fresh buffer.
    PoolTakeFresh,
    /// Pool `put()` calls (buffers returned to the free list).
    PoolPuts,
    /// No producer; kept because `bench/` reads it.
    PrefetchHits,
    /// No producer; kept because `bench/` reads it.
    PrefetchMisses,
    /// Payload bytes masked/unmasked through the fused kernels, software
    /// AES backend.
    MaskedBytesAesSoft,
    /// Payload bytes masked/unmasked through the fused kernels, AES-NI.
    MaskedBytesAesNi,
    /// Payload bytes masked/unmasked through the fused kernels, SHA-1.
    MaskedBytesSha1,
    /// Payload bytes masked/unmasked through the fused kernels, SHA-NI.
    MaskedBytesSha1Ni,
    /// Block-level retries attempted by the engine's `RetryPolicy`.
    RetriesTotal,
    /// Messages dropped by the fault-injection plan.
    FaultDrop,
    /// Messages delayed by the fault-injection plan.
    FaultDelay,
    /// Messages duplicated by the fault-injection plan.
    FaultDuplicate,
    /// Messages bit-flipped by the fault-injection plan.
    FaultCorrupt,
    /// Endpoints killed by a fault-plan trigger.
    FaultKill,
    /// Engine calls that degraded from the INC switch tree to a
    /// host-based algorithm after `SwitchDown`.
    DegradedEpochs,
    /// Nanoseconds spent sleeping out modeled message transit time.
    TransitWaitNanos,
    /// Heartbeat probes emitted by the transport supervision loop.
    HeartbeatsTotal,
    /// Transient transport faults healed by reconnect/retry (a send that
    /// succeeded after at least one failed delivery attempt, or a
    /// suspect window that closed without an eviction).
    ReconnectsTotal,
    /// Epochs run over a shrunk membership (counted once at each shrink
    /// plus once per collective entered while the world stays shrunk, so
    /// a permanently small job keeps showing up in rate queries).
    MembershipEpochs,
    /// Ranks evicted from the membership by shrink-and-continue.
    RanksEvicted,
    /// Transient disconnect windows injected by the fault plan.
    FaultDisconnect,
}

impl Metric {
    pub const ALL: [Metric; 36] = [
        Metric::PrfBlocksAesSoft,
        Metric::PrfBlocksAesNi,
        Metric::PrfBlocksSha1,
        Metric::PrfBlocksSha1Ni,
        Metric::KeystreamBytes,
        Metric::KeyAdvances,
        Metric::Collectives,
        Metric::FabricMsgs,
        Metric::FabricBytes,
        Metric::MailboxSpinHits,
        Metric::MailboxParks,
        Metric::PipelineBlocks,
        Metric::HomacVerifyPass,
        Metric::HomacVerifyFail,
        Metric::PoolTakeReuse,
        Metric::PoolTakeFresh,
        Metric::PoolPuts,
        Metric::PrefetchHits,
        Metric::PrefetchMisses,
        Metric::MaskedBytesAesSoft,
        Metric::MaskedBytesAesNi,
        Metric::MaskedBytesSha1,
        Metric::MaskedBytesSha1Ni,
        Metric::RetriesTotal,
        Metric::FaultDrop,
        Metric::FaultDelay,
        Metric::FaultDuplicate,
        Metric::FaultCorrupt,
        Metric::FaultKill,
        Metric::DegradedEpochs,
        Metric::TransitWaitNanos,
        Metric::HeartbeatsTotal,
        Metric::ReconnectsTotal,
        Metric::MembershipEpochs,
        Metric::RanksEvicted,
        Metric::FaultDisconnect,
    ];
    pub const COUNT: usize = Self::ALL.len();

    /// Prometheus metric family name.
    pub fn prom_name(self) -> &'static str {
        match self {
            Metric::PrfBlocksAesSoft
            | Metric::PrfBlocksAesNi
            | Metric::PrfBlocksSha1
            | Metric::PrfBlocksSha1Ni => "hear_prf_blocks_total",
            Metric::KeystreamBytes => "hear_prf_keystream_bytes_total",
            Metric::KeyAdvances => "hear_key_advances_total",
            Metric::Collectives => "hear_collectives_total",
            Metric::FabricMsgs => "hear_fabric_messages_total",
            Metric::FabricBytes => "hear_fabric_bytes_total",
            Metric::MailboxSpinHits | Metric::MailboxParks => "hear_mailbox_waits_total",
            Metric::PipelineBlocks => "hear_pipeline_blocks_total",
            Metric::HomacVerifyPass | Metric::HomacVerifyFail => "hear_homac_verifications_total",
            Metric::PoolTakeReuse | Metric::PoolTakeFresh => "hear_pool_takes_total",
            Metric::PoolPuts => "hear_pool_puts_total",
            Metric::PrefetchHits | Metric::PrefetchMisses => "hear_prefetch_total",
            Metric::MaskedBytesAesSoft
            | Metric::MaskedBytesAesNi
            | Metric::MaskedBytesSha1
            | Metric::MaskedBytesSha1Ni => "hear_masked_bytes_total",
            Metric::RetriesTotal => "hear_retries_total",
            Metric::FaultDrop
            | Metric::FaultDelay
            | Metric::FaultDuplicate
            | Metric::FaultCorrupt
            | Metric::FaultKill
            | Metric::FaultDisconnect => "hear_faults_injected_total",
            Metric::DegradedEpochs => "hear_degraded_epochs_total",
            Metric::TransitWaitNanos => "hear_transit_wait_nanos_total",
            Metric::HeartbeatsTotal => "hear_heartbeats_total",
            Metric::ReconnectsTotal => "hear_reconnects_total",
            Metric::MembershipEpochs => "hear_membership_epochs_total",
            Metric::RanksEvicted => "hear_ranks_evicted_total",
        }
    }

    /// Fixed `key="value"` label distinguishing variants that share a
    /// Prometheus family, if any.
    fn label(self) -> Option<(&'static str, &'static str)> {
        match self {
            Metric::PrfBlocksAesSoft => Some(("backend", "aes_soft")),
            Metric::PrfBlocksAesNi => Some(("backend", "aes_ni")),
            Metric::PrfBlocksSha1 => Some(("backend", "sha1")),
            Metric::PrfBlocksSha1Ni => Some(("backend", "sha1_ni")),
            Metric::MailboxSpinHits => Some(("path", "spin")),
            Metric::MailboxParks => Some(("path", "park")),
            Metric::HomacVerifyPass => Some(("result", "pass")),
            Metric::HomacVerifyFail => Some(("result", "fail")),
            Metric::PoolTakeReuse => Some(("source", "reuse")),
            Metric::PoolTakeFresh => Some(("source", "fresh")),
            Metric::PrefetchHits => Some(("result", "hit")),
            Metric::PrefetchMisses => Some(("result", "miss")),
            Metric::MaskedBytesAesSoft => Some(("backend", "aes_soft")),
            Metric::MaskedBytesAesNi => Some(("backend", "aes_ni")),
            Metric::MaskedBytesSha1 => Some(("backend", "sha1")),
            Metric::MaskedBytesSha1Ni => Some(("backend", "sha1_ni")),
            Metric::FaultDrop => Some(("kind", "drop")),
            Metric::FaultDelay => Some(("kind", "delay")),
            Metric::FaultDuplicate => Some(("kind", "duplicate")),
            Metric::FaultCorrupt => Some(("kind", "corrupt")),
            Metric::FaultKill => Some(("kind", "kill")),
            Metric::FaultDisconnect => Some(("kind", "disconnect")),
            _ => None,
        }
    }

    /// Unique textual key (`family` or `family{label="value"}`) used by the
    /// JSON snapshot and the Prometheus dump.
    pub fn key(self) -> String {
        match self.label() {
            Some((k, v)) => format!("{}{{{}=\"{}\"}}", self.prom_name(), k, v),
            None => self.prom_name().to_string(),
        }
    }
}

/// Instantaneous (up/down) gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Pipeline blocks currently posted but not yet completed.
    PipelineInFlight = 0,
    /// Buffers currently sitting in the memory pool's free list.
    PoolAvailable,
}

impl Gauge {
    pub const ALL: [Gauge; 2] = [Gauge::PipelineInFlight, Gauge::PoolAvailable];
    pub const COUNT: usize = Self::ALL.len();

    pub fn prom_name(self) -> &'static str {
        match self {
            Gauge::PipelineInFlight => "hear_pipeline_blocks_in_flight",
            Gauge::PoolAvailable => "hear_pool_blocks_available",
        }
    }
}

/// Histograms (power-of-two buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Per-message payload size handed to the fabric, in bytes.
    FabricMsgBytes = 0,
}

impl Hist {
    pub const ALL: [Hist; 1] = [Hist::FabricMsgBytes];
    pub const COUNT: usize = Self::ALL.len();
    /// Number of finite buckets; values `>= 2^(BUCKETS-1)` land in `+Inf`.
    pub const BUCKETS: usize = 32;

    pub fn prom_name(self) -> &'static str {
        match self {
            Hist::FabricMsgBytes => "hear_fabric_message_bytes",
        }
    }
}

/// Lock-free histogram cell: bucket `i` counts observations `v` with
/// `v <= 2^i` (bucket 0 additionally holds `v == 0`), plus running sum
/// and count for the Prometheus `_sum`/`_count` series.
pub struct HistCell {
    pub(crate) buckets: [AtomicU64; Hist::BUCKETS],
    pub(crate) sum: AtomicU64,
    pub(crate) count: AtomicU64,
}

impl HistCell {
    pub(crate) const fn new() -> Self {
        HistCell {
            buckets: [const { AtomicU64::new(0) }; Hist::BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Index of the smallest power-of-two bucket holding `v`.
    fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            let idx = (64 - (v - 1).leading_zeros()) as usize;
            idx.min(Hist::BUCKETS - 1)
        }
    }

    pub(crate) fn observe(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    pub(crate) fn totals(&self) -> (u64, u64) {
        (
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_keys_are_unique() {
        let mut keys: Vec<String> = Metric::ALL.iter().map(|m| m.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), Metric::COUNT, "metric keys must be unique");
    }

    #[test]
    fn bucket_index_is_monotone_pow2() {
        assert_eq!(HistCell::bucket_index(0), 0);
        assert_eq!(HistCell::bucket_index(1), 0);
        assert_eq!(HistCell::bucket_index(2), 1);
        assert_eq!(HistCell::bucket_index(3), 2);
        assert_eq!(HistCell::bucket_index(4), 2);
        assert_eq!(HistCell::bucket_index(5), 3);
        assert_eq!(HistCell::bucket_index(1 << 20), 20);
        assert_eq!(HistCell::bucket_index(u64::MAX), Hist::BUCKETS - 1);
    }

    #[test]
    fn histogram_cell_accumulates() {
        let h = HistCell::new();
        h.observe(0);
        h.observe(16);
        h.observe(17);
        let (count, sum) = h.totals();
        assert_eq!(count, 3);
        assert_eq!(sum, 33);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(4), 1); // 16 -> le 2^4
        assert_eq!(h.bucket(5), 1); // 17 -> le 2^5
    }
}
