//! Property battery for the admission-gated lazy expansion path.
//!
//! The gate fingerprints a candidate through `FpParts` (protocol
//! component iff unsealed, then the canonical encoding) *before* the
//! product state exists, and under full symmetry it may take the
//! fingerprint from the two-level orbit-seal cache instead of
//! re-enumerating the group. Both shortcuts must be invisible: the
//! fingerprint the admission probe saw has to equal the fingerprint of
//! the state the engine then materializes and stores, and a cached
//! orbit-minimum fingerprint has to equal the one a fresh group
//! enumeration would produce.
//!
//! Neither object is directly observable from outside the crate, but a
//! single wrong fingerprint is: it either drops a reachable state
//! (probe says "seen" for a state that isn't) or double-counts one
//! (probe admits a duplicate), so the lazy and eager paths diverge in
//! `(verdict, states, transitions)` on a deterministic search. These
//! properties drive randomly parameterized zoo protocols through both
//! paths and require exact agreement.
//!
//! The vendored proptest is deterministic (cases seeded from the test
//! name), so failures reproduce exactly.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use scv_mc::{Outcome, SymmetryMode, VerifyOptions, VerifySystem};
use scv_protocol::{
    DirectoryProtocol, LazyCaching, MesiProtocol, MsiProtocol, SerialMemory, Symmetry,
};
use scv_types::Params;

fn verdict(out: &Outcome) -> &'static str {
    match out {
        Outcome::Verified { .. } => "Verified",
        Outcome::Violation { .. } => "Violation",
        Outcome::Bounded { .. } => "Bounded",
        // No budget/cancel is configured here, so this can't occur.
        Outcome::Inconclusive { .. } => "Inconclusive",
    }
}

/// One sequential search through the lazy or the eager expansion path.
fn search<P>(proto: P, sym: SymmetryMode, lazy: bool, cap: usize) -> Outcome
where
    P: Symmetry + Sync,
    P::State: Send + Sync + 'static,
{
    VerifySystem::with_symmetry(proto, sym)
        .lazy(lazy)
        .search(&VerifyOptions::new().max_states(cap))
}

/// Run one configuration through both expansion paths and demand exact
/// sequential agreement.
fn assert_parity(
    proto: u8,
    p: u8,
    b: u8,
    v: u8,
    sym: SymmetryMode,
    cap: usize,
) -> Result<(), TestCaseError> {
    let params = Params::new(p, b, v);
    let run = |lazy: bool| match proto {
        0 => search(SerialMemory::new(params), sym, lazy, cap),
        1 => search(MsiProtocol::new(params), sym, lazy, cap),
        2 => search(MesiProtocol::new(params), sym, lazy, cap),
        3 => search(DirectoryProtocol::new(params), sym, lazy, cap),
        _ => search(LazyCaching::new(params, 1, 1), sym, lazy, cap),
    };
    let eager = run(false);
    let lazy = run(true);
    prop_assert_eq!(
        verdict(&eager),
        verdict(&lazy),
        "verdict diverged (proto {} {:?} {:?} cap {})",
        proto,
        params,
        sym,
        cap
    );
    prop_assert_eq!(
        (eager.stats().states, eager.stats().transitions),
        (lazy.stats().states, lazy.stats().transitions),
        "counts diverged (proto {} {:?} {:?} cap {})",
        proto,
        params,
        sym,
        cap
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random zoo configurations across every symmetry mode: the lazy
    /// path's pre-materialization fingerprint must never change what the
    /// search explores.
    #[test]
    fn lazy_eager_parity_random_configs(
        proto in 0u8..5,
        p in 1u8..=2,
        b in 1u8..=2,
        v in 1u8..=2,
        sym_pick in 0u8..3,
        cap in 300usize..1500,
    ) {
        let sym = match sym_pick {
            0 => SymmetryMode::Off,
            1 => SymmetryMode::Proc,
            _ => SymmetryMode::Full,
        };
        assert_parity(proto, p, b, v, sym, cap)?;
    }

    /// Full-symmetry configurations with a non-trivial group (p = 2 and
    /// v = 2 gives order >= 4), where the orbit-seal cache engages: a
    /// cached fingerprint that disagreed with a fresh group enumeration
    /// would drop or duplicate an orbit and break the count equality.
    #[test]
    fn seal_cache_never_changes_a_fingerprint(
        proto in 0u8..5,
        b in 1u8..=2,
        cap in 300usize..1500,
    ) {
        assert_parity(proto, 2, b, 2, SymmetryMode::Full, cap)?;
    }
}
