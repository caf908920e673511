//! # hear-testkit — the hermetic test & bench toolkit
//!
//! Everything test-shaped this workspace needs, with **zero external
//! dependencies**: the tier-1 verify (`cargo build --release && cargo test
//! -q`) must succeed on a machine with no registry access and an empty
//! cargo cache (`tests/hermetic.rs` at the workspace root enforces this).
//!
//! Three subsystems:
//!
//! * **PRNG** ([`rng`]): a seedable xoshiro256++ [`TestRng`] with a
//!   `rand`-compatible surface (`gen::<u64>()`, `gen_range(0..n)`,
//!   `fill`, `shuffle`) plus the canonical [`SplitMix64`] seed stretcher.
//! * **Property tests** ([`proptest!`], [`strategy`], [`collection`],
//!   [`sample`], [`test_runner`], [`prelude`]): a shrinking-free
//!   `proptest`-compatible macro and strategy layer. Consumer crates alias
//!   this crate as `proptest` in their `[dev-dependencies]`
//!   (`proptest = { path = "../testkit", package = "hear-testkit" }`), so
//!   pre-existing `use proptest::prelude::*;` property tests compile
//!   unchanged.
//! * **Benchmarks** ([`bench`](mod@bench), [`criterion_group!`],
//!   [`criterion_main!`]): a criterion-shaped harness (warmup, calibrated iteration counts,
//!   median/p10/p90 ns) that writes `BENCH_<target>.json` so the perf
//!   trajectory is recorded per run. `crates/bench` aliases this crate as
//!   `criterion` the same way.
//!
//! Reproducibility knobs (environment variables):
//!
//! | Variable              | Effect                                        |
//! |-----------------------|-----------------------------------------------|
//! | `HEAR_PROPTEST_SEED`  | XORed into every property test's RNG seed     |
//! | `HEAR_PROPTEST_CASES` | Overrides the per-property case count         |
//! | `HEAR_BENCH_FAST`     | Clamps benches to a smoke-run time budget     |
//! | `HEAR_BENCH_DIR`      | Directory receiving `BENCH_*.json`            |

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod bench;
pub mod collection;
mod macros;
pub mod prelude;
pub mod rng;
pub mod sample;
pub mod strategy;
pub mod test_runner;

pub use bench::{black_box, Bencher, BenchmarkGroup, BenchmarkId, Criterion, Throughput};
pub use rng::{SplitMix64, TestRng};

// Self-test: the proptest-compatible surface, exercised exactly the way
// consumer crates use it (via the macro + prelude).
#[cfg(test)]
mod shim_selftest {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn addition_commutes(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
        }

        #[test]
        fn ranges_and_vecs(
            n in 1usize..5,
            v in crate::collection::vec(0u16..=u16::MAX, 1..12),
            flag in any::<bool>(),
        ) {
            prop_assert!((1..5).contains(&n));
            prop_assert!(!v.is_empty() && v.len() < 12, "len={}", v.len());
            let _ = flag;
        }

        #[test]
        fn assume_redraws_instead_of_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn select_and_filter(
            p in crate::sample::select(vec![101u64, 65_537]),
            f in any::<f64>().prop_filter("finite", |v| v.is_finite()),
        ) {
            prop_assert!(p == 101 || p == 65_537);
            prop_assert!(f.is_finite());
            prop_assert_ne!(p, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn config_header_form_compiles(w in 1usize..4) {
            prop_assert!(w < 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn with_cases_form_compiles(s in any::<u64>()) {
            let _ = s;
            prop_assert!(true);
        }
    }

    #[test]
    fn failing_property_reports_inputs() {
        // Reach the runner through a hand-expanded case to check the
        // failure path without aborting the test process.
        let result: TestCaseResult = (|| {
            let always_wrong = 2u32;
            prop_assert_eq!(always_wrong, 3u32, "ctx {}", 7);
            Ok(())
        })();
        match result {
            Err(TestCaseError::Fail(msg)) => {
                assert!(msg.contains("always_wrong"));
                assert!(msg.contains("ctx 7"));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }
}
