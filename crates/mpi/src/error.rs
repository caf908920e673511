//! The communication-failure taxonomy.
//!
//! Every fallible fabric operation returns a [`CommError`] instead of
//! blocking forever or panicking: deadline expiry, a peer that died
//! mid-collective, a tag collision delivering the wrong payload type, or
//! a switch node of the INC tree going dark. The variants are `Copy` and
//! carry enough identity (endpoint, tag, wait time) to diagnose a failed
//! schedule from the error alone.

use std::time::Duration;

/// Why a fabric operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived before the deadline. The only
    /// *retryable* failure: the peer may merely be slow.
    Timeout {
        /// Endpoint the receive was matching on.
        source: usize,
        /// Full wire tag the receive was matching on.
        tag: u64,
        /// How long the receiver actually waited.
        waited: Duration,
    },
    /// The peer endpoint is dead (killed by a fault plan, or its thread
    /// panicked). `peer` may be the caller's own endpoint when the caller
    /// itself was killed mid-operation.
    PeerDead { peer: usize },
    /// The connection to `peer` dropped messages but the transport is
    /// still trying to heal it (a stalled socket write, a fault plan's
    /// transient-disconnect window). Retryable: the resend lands once
    /// the link reconnects. Hardens into [`CommError::PeerDead`] if the
    /// supervision miss budget runs out instead.
    Disconnected { peer: usize },
    /// A message matched `(source, tag)` but carried a different payload
    /// type — a tag collision between two protocols.
    TypeMismatch {
        source: usize,
        tag: u64,
        /// `std::any::type_name` of what the receiver expected.
        expected: &'static str,
    },
    /// A switch node of the INC aggregation tree is unreachable; the
    /// engine can fall back to a host-based algorithm.
    SwitchDown {
        /// Switch node id within the topology (not the fabric endpoint).
        node: usize,
    },
}

impl CommError {
    /// True for failures worth retrying with the same transport:
    /// [`CommError::Timeout`] (the peer may merely be slow) and
    /// [`CommError::Disconnected`] (the link is healing and a resend can
    /// land). Dead peers stay dead — `PeerDead` is *reconfigurable* (the
    /// membership can shrink around the corpse) but never retryable — a
    /// type mismatch is a protocol bug, and a downed switch needs a
    /// different transport, not a retry.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            CommError::Timeout { .. } | CommError::Disconnected { .. }
        )
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout {
                source,
                tag,
                waited,
            } => write!(
                f,
                "timed out after {waited:?} waiting for (source={source}, tag={tag:#x})"
            ),
            CommError::PeerDead { peer } => write!(f, "peer endpoint {peer} is dead"),
            CommError::Disconnected { peer } => {
                write!(f, "connection to endpoint {peer} dropped (reconnecting)")
            }
            CommError::TypeMismatch {
                source,
                tag,
                expected,
            } => write!(
                f,
                "payload from (source={source}, tag={tag:#x}) is not the expected {expected}"
            ),
            CommError::SwitchDown { node } => {
                write!(f, "INC switch node {node} is down")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the classification of *every* variant. Adding a variant must
    /// consciously place it on one side: transient faults (slow peer,
    /// healing link) retry in place; `PeerDead` is reconfigurable via
    /// membership shrink but never retryable; protocol and topology
    /// faults need different handling entirely.
    #[test]
    fn every_variant_classification_is_pinned() {
        let variants = [
            (
                CommError::Timeout {
                    source: 0,
                    tag: 1,
                    waited: Duration::from_millis(5),
                },
                true,
            ),
            (CommError::Disconnected { peer: 1 }, true),
            (CommError::PeerDead { peer: 2 }, false),
            (
                CommError::TypeMismatch {
                    source: 0,
                    tag: 1,
                    expected: "alloc::vec::Vec<u32>",
                },
                false,
            ),
            (CommError::SwitchDown { node: 0 }, false),
        ];
        for (e, retryable) in variants {
            assert_eq!(e.is_retryable(), retryable, "{e}");
        }
    }

    #[test]
    fn display_carries_identity() {
        let e = CommError::Timeout {
            source: 3,
            tag: 0x100,
            waited: Duration::from_millis(7),
        };
        let s = e.to_string();
        assert!(s.contains("source=3") && s.contains("0x100"), "{s}");
        let s = CommError::TypeMismatch {
            source: 1,
            tag: 9,
            expected: "alloc::vec::Vec<u64>",
        }
        .to_string();
        assert!(s.contains("Vec<u64>"), "{s}");
    }
}
