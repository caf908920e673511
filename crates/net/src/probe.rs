//! Measured α–β parameters over real sockets.
//!
//! The cost model's `Machine` defaults come from the paper's testbed; this
//! module replaces the two link parameters with numbers measured on *this*
//! host over a genuine TCP loopback connection — the same socket path the
//! `hear_mpi::tcp` transport uses — so model predictions and
//! socket-backend measurements share a common baseline.
//!
//! α is half the minimum ping-pong round trip of a 1-byte message (minimum,
//! not mean: scheduler noise only ever adds latency). β is the inverse of
//! the streaming bandwidth of one bulk transfer, with the handshake α
//! subtracted. Both are deliberately crude single-link estimates — the
//! point is a *self-consistent* (α, β) pair for loopback experiments, not
//! a NIC benchmark.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// One measured loopback link: the Hockney parameters of this host.
#[derive(Debug, Clone, Copy)]
pub struct LinkEstimate {
    /// Small-message one-way latency (half the minimum observed RTT).
    pub alpha: Duration,
    /// Streaming bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Ping-pong round trips behind the α estimate.
    pub samples: usize,
    /// Bytes behind the β estimate.
    pub bulk_bytes: usize,
}

/// Measure (α, β) over a fresh TCP loopback connection.
///
/// `pings` round trips of a 1-byte message bound α; one `bulk_bytes`
/// streaming transfer (acknowledged by 1 byte) bounds β. Uses only
/// `std::net` and one echo thread; takes well under a second for the
/// defaults used by [`measure_loopback_default`].
pub fn measure_loopback(pings: usize, bulk_bytes: usize) -> std::io::Result<LinkEstimate> {
    assert!(pings > 0 && bulk_bytes > 0);
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let server = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        // Echo each ping byte back.
        let mut b = [0u8; 1];
        for _ in 0..pings {
            s.read_exact(&mut b)?;
            s.write_all(&b)?;
        }
        // Drain the bulk stream, then ack with one byte.
        let mut sink = vec![0u8; 64 << 10];
        let mut left = bulk_bytes;
        while left > 0 {
            let n = s.read(&mut sink)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "bulk stream ended early",
                ));
            }
            left -= n;
        }
        s.write_all(&[0xA5])?;
        Ok(())
    });

    let mut client = TcpStream::connect(addr)?;
    client.set_nodelay(true)?;

    let mut min_rtt = Duration::MAX;
    let mut b = [0u8; 1];
    for i in 0..pings {
        let t0 = Instant::now();
        client.write_all(&[i as u8])?;
        client.read_exact(&mut b)?;
        min_rtt = min_rtt.min(t0.elapsed());
    }

    let chunk = vec![0x5Au8; 64 << 10];
    let t0 = Instant::now();
    let mut left = bulk_bytes;
    while left > 0 {
        let n = left.min(chunk.len());
        client.write_all(&chunk[..n])?;
        left -= n;
    }
    client.read_exact(&mut b)?;
    let bulk_elapsed = t0.elapsed();

    server
        .join()
        .map_err(|_| std::io::Error::other("echo thread panicked"))??;

    // Clamp away the α share of the acked transfer; floor the remainder so
    // a pathological clock can't produce a zero or negative bandwidth.
    let alpha = min_rtt / 2;
    let xfer = bulk_elapsed
        .saturating_sub(min_rtt)
        .max(Duration::from_nanos(1));
    Ok(LinkEstimate {
        alpha,
        bandwidth: bulk_bytes as f64 / xfer.as_secs_f64(),
        samples: pings,
        bulk_bytes,
    })
}

/// [`measure_loopback`] with defaults balanced for CI: 32 pings, 4 MiB
/// bulk. Under a second on any machine that can run the test suite.
pub fn measure_loopback_default() -> std::io::Result<LinkEstimate> {
    measure_loopback(32, 4 << 20)
}

impl crate::Machine {
    /// This machine, with the two link parameters replaced by a measured
    /// loopback estimate: intra-node α from the ping-pong, both the NIC
    /// and per-rank rates capped by the measured streaming bandwidth.
    /// Inter-node α keeps its testbed default scaled by the same factor
    /// the intra-node measurement moved (loopback cannot observe a second
    /// node).
    pub fn calibrated_from(self, link: &LinkEstimate) -> crate::Machine {
        let scale = link.alpha.as_secs_f64() / self.intra_alpha;
        crate::Machine {
            intra_alpha: link.alpha.as_secs_f64(),
            inter_alpha: self.inter_alpha * scale,
            nic_bw: self.nic_bw.min(link.bandwidth),
            per_rank_rate: self.per_rank_rate.min(link.bandwidth),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    #[test]
    fn loopback_estimate_is_physical() {
        let link = measure_loopback(16, 1 << 20).expect("loopback probe");
        assert!(link.alpha > Duration::ZERO, "α must be positive");
        assert!(
            link.alpha < Duration::from_millis(100),
            "loopback α of {:?} is not plausible",
            link.alpha
        );
        assert!(
            link.bandwidth.is_finite() && link.bandwidth > 0.0,
            "bandwidth {} must be positive and finite",
            link.bandwidth
        );
        assert_eq!(link.samples, 16);
        assert_eq!(link.bulk_bytes, 1 << 20);
    }

    #[test]
    fn calibration_replaces_link_parameters_consistently() {
        let link = LinkEstimate {
            alpha: Duration::from_micros(5),
            bandwidth: 2.0e9,
            samples: 8,
            bulk_bytes: 1 << 20,
        };
        let m = Machine::piz_daint().calibrated_from(&link);
        assert_eq!(m.intra_alpha, 5e-6);
        // Inter-node latency scales by the same 10× the intra measurement moved.
        let scale = 5e-6 / Machine::piz_daint().intra_alpha;
        assert!((m.inter_alpha - Machine::piz_daint().inter_alpha * scale).abs() < 1e-12);
        // Bandwidths are capped, never raised, by a loopback measurement.
        assert_eq!(m.nic_bw, 2.0e9);
        assert_eq!(m.per_rank_rate, Machine::piz_daint().per_rank_rate);
        assert_eq!(m.cores_per_node, 36);
    }

    #[test]
    fn two_probes_do_not_collide() {
        // Ephemeral ports mean concurrent probes must coexist.
        let a = std::thread::spawn(|| measure_loopback(8, 1 << 16));
        let b = measure_loopback(8, 1 << 16).expect("second probe");
        let a = a.join().unwrap().expect("first probe");
        assert!(a.bandwidth > 0.0 && b.bandwidth > 0.0);
    }
}
