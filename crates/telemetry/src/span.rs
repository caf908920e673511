//! Lightweight spans: RAII guards that time a region and append a
//! [`SpanEvent`] to the current thread's lane ring buffer on drop.
//!
//! Use the [`span!`](crate::span!) macro:
//!
//! ```
//! let _s = hear_telemetry::span!("encrypt", elems = 1024usize);
//! // ... timed region ...
//! ```
//!
//! When no registry is enabled, `span!` is a relaxed atomic load and a
//! branch — no thread-local access, no clock read, no allocation.

use crate::registry::{self, Lane};
use std::sync::Arc;
use std::time::Instant;

/// Maximum number of `key = value` arguments a span carries (inline,
/// no allocation).
pub const MAX_SPAN_ARGS: usize = 3;

/// Fixed-capacity inline argument list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanArgs {
    kv: [(&'static str, u64); MAX_SPAN_ARGS],
    len: u8,
}

impl SpanArgs {
    fn from_slice(args: &[(&'static str, u64)]) -> SpanArgs {
        debug_assert!(
            args.len() <= MAX_SPAN_ARGS,
            "span! supports at most {MAX_SPAN_ARGS} args"
        );
        let mut kv = [("", 0u64); MAX_SPAN_ARGS];
        let n = args.len().min(MAX_SPAN_ARGS);
        kv[..n].copy_from_slice(&args[..n]);
        SpanArgs { kv, len: n as u8 }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kv[..self.len as usize].iter().copied()
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of argument `key`, if present.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// One completed span, as stored in a lane ring buffer.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Static span name (`"encrypt"`, `"send"`, ...).
    pub name: &'static str,
    /// Rank of the lane that recorded the span (`None` for untracked
    /// threads).
    pub rank: Option<usize>,
    /// Nesting depth at record time (0 = top-level on its thread).
    pub depth: u32,
    /// Start offset from the registry epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Inline `key = value` arguments.
    pub args: SpanArgs,
}

struct LiveSpan {
    name: &'static str,
    args: SpanArgs,
    start: Instant,
    epoch: Instant,
    depth: u32,
    lane: Arc<Lane>,
}

/// RAII timer created by [`span!`](crate::span!); records a [`SpanEvent`]
/// when dropped. Inert (`None` inside) when tracing is off.
pub struct SpanGuard(Option<LiveSpan>);

impl SpanGuard {
    #[inline]
    pub fn start(name: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
        if !registry::active() {
            return SpanGuard(None);
        }
        SpanGuard::start_slow(name, args)
    }

    fn start_slow(name: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
        let live = registry::with_span_ctx(|ctx| {
            let depth = ctx.depth;
            ctx.depth += 1;
            LiveSpan {
                name,
                args: SpanArgs::from_slice(args),
                start: Instant::now(),
                epoch: ctx.epoch,
                depth,
                lane: ctx.lane.clone(),
            }
        });
        SpanGuard(live)
    }

    /// True when this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            let dur_ns = s.start.elapsed().as_nanos() as u64;
            let start_ns = s.start.saturating_duration_since(s.epoch).as_nanos() as u64;
            s.lane.push(SpanEvent {
                name: s.name,
                rank: s.lane.rank,
                depth: s.depth,
                start_ns,
                dur_ns,
                args: s.args,
            });
            registry::depth_dec(&s.lane);
        }
    }
}

/// Open a span over the enclosing scope:
/// `let _s = span!("send", bytes = n, tag = t);`
///
/// Arguments are `ident = expr` pairs; each value is cast `as u64`
/// (at most [`MAX_SPAN_ARGS`]). Bind the result to a named `_s`-style
/// variable — binding to `_` drops the guard immediately and records a
/// zero-length span.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::SpanGuard::start($name, &[$((stringify!($k), ($v) as u64)),*])
    };
}

#[cfg(test)]
mod tests {
    use crate::{Metric, Registry};

    #[test]
    fn spans_record_name_args_depth_rank() {
        let _serial = crate::registry::serial_enabled();
        let r = Registry::new_enabled();
        {
            let _g = r.install(Some(2));
            let _outer = crate::span!("comm", elems = 4usize);
            {
                let _inner = crate::span!("send", bytes = 16usize, tag = 7u64);
            }
        }
        let evs = r.span_events();
        assert_eq!(evs.len(), 2);
        // Inner span completes (and is recorded) first.
        let send = &evs.iter().find(|e| e.name == "send").unwrap();
        let comm = &evs.iter().find(|e| e.name == "comm").unwrap();
        assert_eq!(send.depth, 1);
        assert_eq!(comm.depth, 0);
        assert_eq!(send.rank, Some(2));
        assert_eq!(send.args.get("bytes"), Some(16));
        assert_eq!(send.args.get("tag"), Some(7));
        assert_eq!(comm.args.get("elems"), Some(4));
        assert!(comm.dur_ns >= send.dur_ns);
        assert!(comm.start_ns <= send.start_ns);
    }

    #[test]
    fn disabled_span_is_inert() {
        // No enabled registry installed on this thread and the global one
        // is off (HEAR_TRACE unset under cargo test): guard must be inert.
        if crate::env_enabled() {
            return; // someone exported HEAR_TRACE; skip
        }
        let s = crate::span!("noop", x = 1u32);
        assert!(!s.is_recording());
        // And counters vanish too.
        crate::add(Metric::FabricMsgs, 1);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let _serial = crate::registry::serial_enabled();
        let r = Registry::new_enabled();
        let _g = r.install(Some(0));
        // Default cap is 65536; push a couple more than that.
        for _ in 0..(1 << 16) + 10 {
            let _s = crate::span!("tick");
        }
        drop(_g);
        assert_eq!(r.span_events().len(), 1 << 16);
        assert_eq!(r.dropped_events(), 10);
    }
}
