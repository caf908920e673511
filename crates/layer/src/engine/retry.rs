//! Per-call retry state and the attempt-tag schedule shared by every
//! engine entry point.

use super::cfg::{EngineError, RetryPolicy};
use hear_mpi::{CommError, ATTEMPT_TAG_STRIDE, COLL_BLOCK_TAG_STRIDE, MAX_TAG_ATTEMPTS};
use std::time::{Duration, Instant};

/// Mutable retry state for one engine call: the call-wide attempt counter
/// (which drives tag selection so a retry can never match a failed
/// attempt's stale wires), the retry budget, and the growing backoff.
///
/// The budget is per call, the retry unit per block: a failed block is
/// re-sent alone, but every block's retries draw on the one
/// `max_attempts − 1` budget set at the start of the call, which a
/// successful block does not refill.
pub(crate) struct RetryCtl {
    policy: RetryPolicy,
    /// Attempts consumed call-wide (monotonic across blocks, retries and
    /// degradations); attempt `a` of block `b` runs on tag
    /// `base + b·COLL_BLOCK_TAG_STRIDE + a·ATTEMPT_TAG_STRIDE`.
    pub(crate) attempt: u64,
    /// Retries the rest of the call may still spend, on any block.
    retries_left: u32,
    backoff: Duration,
    /// Deadline handed to the most recent attempt.
    last_deadline: Option<Instant>,
    /// Set by a retry decision: where the next attempt's window opens.
    window_opens: Option<Instant>,
}

/// What the retry controller decided after a block-level failure.
pub(crate) enum Step {
    /// Re-run the block on the same algorithm, next attempt tag.
    Retry,
    /// Switch the rest of the call to the host ring, next attempt tag.
    Degrade,
    /// Surface the error.
    Fail(EngineError),
}

impl RetryCtl {
    pub(crate) fn new(policy: RetryPolicy) -> RetryCtl {
        RetryCtl {
            policy,
            attempt: 0,
            retries_left: policy.max_attempts.saturating_sub(1),
            backoff: policy.backoff,
            last_deadline: None,
            window_opens: None,
        }
    }

    /// Deadline for the attempt about to start: one `attempt_timeout`
    /// from now — or, for a retry, from the close of the failed
    /// attempt's window if that is later.
    ///
    /// Ranks do not fail an attempt at the same moment. One that is
    /// handed garbage (a dropped ring hop shifts every later hop on the
    /// link one step up) fails verification within microseconds; one
    /// that saw only silence waits its whole window out. Were the fast
    /// rank's retry window to open when it failed, it would close just
    /// as the slow ranks arrive on the new attempt's tags — and the two
    /// groups would chase each other one window apart, attempt after
    /// attempt, each round decided by microseconds. Anchoring on the old
    /// deadline gives the late arrivals a full window. The call's worst
    /// case is unchanged: attempt `k` still ends by `(k + 1)` timeouts
    /// (plus backoff) after the call began.
    pub(crate) fn deadline(&mut self) -> Option<Instant> {
        let timeout = self.policy.attempt_timeout?;
        let now = Instant::now();
        let opens = self.window_opens.take().map_or(now, |at| at.max(now));
        self.last_deadline = Some(opens + timeout);
        self.last_deadline
    }

    /// Advance to the next attempt's tag slot; errors when the per-call
    /// tag space (MAX_TAG_ATTEMPTS slots) is used up.
    fn bump(&mut self) -> Result<(), ()> {
        self.attempt += 1;
        if self.attempt >= MAX_TAG_ATTEMPTS {
            Err(())
        } else {
            Ok(())
        }
    }

    /// Decide what a block-level failure means under the policy.
    /// Timeouts and verification failures are retryable (a resend on the
    /// per-block §5.5 digest failure IS the packet localization: only the
    /// failing block travels again); `SwitchDown` degrades without
    /// consuming a retry; everything else fails.
    pub(crate) fn on_error(&mut self, e: EngineError) -> Step {
        let retryable = match &e {
            // Degrade even when the call has already moved off the switch:
            // a pipelined call posts several blocks on the INC path before
            // the first failure drains, and those stale posts still come
            // back as `SwitchDown` after the call fell back to the ring.
            EngineError::Comm(CommError::SwitchDown { .. }) => {
                return if self.bump().is_ok() {
                    self.window_opens = self.last_deadline;
                    Step::Degrade
                } else {
                    Step::Fail(e)
                };
            }
            EngineError::Comm(c) => c.is_retryable(),
            EngineError::Verification(_) => true,
            EngineError::Hfp(_) => false,
        };
        if !retryable || self.retries_left == 0 || self.bump().is_err() {
            return Step::Fail(e);
        }
        self.retries_left -= 1;
        self.window_opens = self.last_deadline;
        hear_telemetry::incr(hear_telemetry::Metric::RetriesTotal);
        if !self.backoff.is_zero() {
            // Cap the sleep by the per-attempt deadline: a backoff that
            // outlasts one attempt's budget would idle away more time
            // than the retry is allowed to use.
            let sleep = match self.policy.attempt_timeout {
                Some(t) => self.backoff.min(t),
                None => self.backoff,
            };
            std::thread::sleep(sleep);
            self.backoff = self.backoff.saturating_mul(2);
        }
        Step::Retry
    }
}

/// Wire tag for one attempt of one block.
#[inline]
pub(crate) fn attempt_tag(base: u64, block_idx: u64, attempt: u64) -> u64 {
    base + block_idx * COLL_BLOCK_TAG_STRIDE + attempt * ATTEMPT_TAG_STRIDE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeout_err() -> EngineError {
        EngineError::Comm(CommError::Timeout {
            source: 0,
            tag: 0,
            waited: Duration::ZERO,
        })
    }

    /// The backoff sleep never exceeds the per-attempt deadline: with a
    /// 50 ms configured backoff but a 5 ms attempt budget, two retries
    /// must sleep ~10 ms total, not 150 ms.
    #[test]
    fn backoff_is_capped_by_attempt_deadline() {
        let policy = RetryPolicy::retries(2)
            .with_backoff(Duration::from_millis(50))
            .with_attempt_timeout(Duration::from_millis(5));
        let mut ctl = RetryCtl::new(policy);
        let start = Instant::now();
        assert!(matches!(ctl.on_error(timeout_err()), Step::Retry));
        assert!(matches!(ctl.on_error(timeout_err()), Step::Retry));
        assert!(
            start.elapsed() < Duration::from_millis(45),
            "slept {:?}, the 50 ms backoff was not capped by the 5 ms deadline",
            start.elapsed()
        );
        assert!(matches!(ctl.on_error(timeout_err()), Step::Fail(_)));
    }

    /// A retry's window opens where the failed attempt's window closed:
    /// an attempt that failed at once gets a deadline a full timeout past
    /// the old one (so peers still waiting the old window out find it
    /// open), one that failed by running out its window starts from now,
    /// and a first attempt (of any block) is never stretched.
    #[test]
    fn retry_window_opens_where_the_failed_one_closed() {
        let t = Duration::from_millis(20);
        let mut ctl = RetryCtl::new(RetryPolicy::retries(3).with_attempt_timeout(t));
        let first = ctl.deadline().unwrap();
        assert!(first <= Instant::now() + t);
        // Failed within microseconds: the retry inherits the rest.
        assert!(matches!(ctl.on_error(timeout_err()), Step::Retry));
        let second = ctl.deadline().unwrap();
        assert_eq!(second, first + t);
        // No failure in between (the next block's first attempt).
        let fresh = ctl.deadline().unwrap();
        assert!(fresh <= Instant::now() + t && fresh < second);
        // Failed after its window had closed: nothing to inherit.
        std::thread::sleep(t + Duration::from_millis(2));
        assert!(matches!(ctl.on_error(timeout_err()), Step::Retry));
        let late = ctl.deadline().unwrap();
        assert!(late > fresh + t && late <= Instant::now() + t);
    }

    /// Without a deadline the configured backoff still applies (and keeps
    /// doubling).
    #[test]
    fn uncapped_backoff_sleeps_and_doubles() {
        let mut ctl = RetryCtl::new(RetryPolicy::retries(1).with_backoff(Duration::from_millis(4)));
        let start = Instant::now();
        assert!(matches!(ctl.on_error(timeout_err()), Step::Retry));
        assert!(start.elapsed() >= Duration::from_millis(4));
        assert_eq!(ctl.backoff, Duration::from_millis(8));
    }
}
