//! End-to-end verification outcomes for the protocol zoo — the headline
//! table of the reproduction (experiment E5 in DESIGN.md).
//!
//! Product state spaces run to 10⁵–10⁶ states even for tiny protocols
//! (DESIGN.md §6, an empirical confirmation of the paper's §4.4
//! feasibility concern), so positive results here assert *bounded safety*
//! (no violation within an explicit state cap; `cargo bench`/the
//! `experiments` binary run the exhaustive versions in release mode),
//! while negative results always produce — and independently validate —
//! a concrete counterexample run.

use sc_verify::prelude::*;

fn opts(max_states: usize) -> VerifyOptions {
    VerifyOptions::new().max_states(max_states)
}

fn safe_within(out: &Outcome) -> bool {
    !matches!(out, Outcome::Violation { .. })
}

#[test]
fn serial_memory_is_safe() {
    let out = verify_protocol(SerialMemory::new(Params::new(2, 2, 2)), opts(40_000));
    assert!(safe_within(&out), "{:?}", out.stats());
}

#[test]
fn msi_is_safe() {
    let out = verify_protocol(MsiProtocol::new(Params::new(2, 1, 2)), opts(40_000));
    assert!(safe_within(&out), "{:?}", out.stats());
}

#[test]
fn mesi_is_safe() {
    let out = verify_protocol(MesiProtocol::new(Params::new(2, 1, 2)), opts(40_000));
    assert!(safe_within(&out), "{:?}", out.stats());
}

#[test]
fn directory_is_safe() {
    let out = verify_protocol(DirectoryProtocol::new(Params::new(2, 1, 1)), opts(40_000));
    assert!(safe_within(&out), "{:?}", out.stats());
}

#[test]
fn lazy_caching_is_safe() {
    let out = verify_protocol(LazyCaching::new(Params::new(2, 1, 1), 1, 1), opts(40_000));
    assert!(safe_within(&out), "{:?}", out.stats());
}

#[test]
fn buggy_msi_yields_genuine_counterexample() {
    match verify_protocol(MsiProtocol::buggy(Params::new(2, 2, 1)), opts(2_000_000)) {
        Outcome::Violation { trace, run, .. } => {
            assert!(
                !has_serial_reordering(&trace),
                "counterexample must be non-SC"
            );
            assert!(!run.is_empty());
        }
        o => panic!("expected Violation, got {:?}", o.stats()),
    }
}

#[test]
fn buggy_mesi_yields_genuine_counterexample() {
    match verify_protocol(MesiProtocol::buggy(Params::new(2, 2, 1)), opts(2_000_000)) {
        Outcome::Violation { trace, .. } => {
            assert!(
                !has_serial_reordering(&trace),
                "counterexample must be non-SC: {trace}"
            );
        }
        o => panic!("expected Violation, got {:?}", o.stats()),
    }
}

#[test]
fn tso_yields_genuine_counterexample() {
    match verify_protocol(
        StoreBufferTso::new(Params::new(2, 2, 1), 1),
        opts(2_000_000),
    ) {
        Outcome::Violation { trace, .. } => {
            assert!(!has_serial_reordering(&trace));
        }
        o => panic!("expected Violation, got {:?}", o.stats()),
    }
}

#[test]
fn fig4_is_rejected() {
    // Fig4 lies outside Γ for the real-time ST order generator; the
    // shortest rejected run may itself be SC (rejection = "no witness
    // under this generator"), but the protocol also has genuinely non-SC
    // traces: exhibit one by hand and confirm it.
    let out = verify_protocol(Fig4Protocol::new(Params::new(2, 1, 2), 1), opts(2_000_000));
    assert!(
        matches!(out, Outcome::Violation { .. }),
        "got {:?}",
        out.stats()
    );

    // Hand-driven genuine violation: P1 stores 1, P2 snapshots it, P1
    // stores 2, P1 re-fetches the stale snapshot and reads 1 after having
    // stored 2 — non-SC within P1's own program order.
    let proto = Fig4Protocol::new(Params::new(2, 1, 2), 1);
    let mut r = Runner::new(proto);
    type T = sc_verify::protocol::Transition<Vec<Option<(u8, Value)>>>;
    let take = |r: &mut Runner<Fig4Protocol>, want: &dyn Fn(&T) -> bool| {
        let t = r.enabled().into_iter().find(|t| want(t)).expect("enabled");
        r.take(t);
    };
    take(&mut r, &|t| {
        t.action.op() == Some(Op::store(ProcId(1), BlockId(1), Value(1)))
    });
    take(
        &mut r,
        &|t| matches!(t.action, Action::Internal("Get-Shared", pb) if (pb >> 8) == 2),
    );
    take(&mut r, &|t| {
        t.action.op() == Some(Op::store(ProcId(1), BlockId(1), Value(2)))
    });
    take(
        &mut r,
        &|t| matches!(t.action, Action::Internal("Get-Shared", pb) if (pb >> 8) == 1),
    );
    take(&mut r, &|t| {
        t.action.op() == Some(Op::load(ProcId(1), BlockId(1), Value(1)))
    });
    let trace = r.run().trace();
    assert!(
        !has_serial_reordering(&trace),
        "stale self-read must violate SC: {trace}"
    );
}

#[test]
fn counterexamples_are_shortest() {
    // BFS guarantees minimal counterexamples: the TSO violation needs the
    // two buffered stores, the two stale loads, and the two serializing
    // drains — nothing more.
    match verify_protocol(
        StoreBufferTso::new(Params::new(2, 2, 1), 1),
        opts(2_000_000),
    ) {
        Outcome::Violation { run, .. } => {
            assert!(run.len() <= 6, "counterexample unexpectedly long: {run:?}");
        }
        o => panic!("expected Violation, got {:?}", o.stats()),
    }
}

/// Sequential BFS is deterministic, so the TSO litmus search (store
/// buffers of depth 2) is pinned exactly: the state count at the
/// violation and the length of its shortest witness.
#[test]
fn tso_violation_is_pinned_at_one_worker() {
    let out = verify_protocol(
        StoreBufferTso::new(Params::new(2, 2, 1), 2),
        opts(2_000_000).threads(1),
    );
    let Outcome::Violation { run, stats, .. } = &out else {
        panic!("expected Violation, got {:?}", out.stats());
    };
    assert_eq!(stats.states, 715);
    assert_eq!(run.len(), 4, "shortest witness: {run:?}");
}

#[test]
fn parallel_and_sequential_verification_agree() {
    let seq = verify_protocol(MsiProtocol::buggy(Params::new(2, 2, 1)), opts(2_000_000));
    let par = verify_protocol(
        MsiProtocol::buggy(Params::new(2, 2, 1)),
        opts(2_000_000).threads(4),
    );
    assert!(matches!(seq, Outcome::Violation { .. }));
    assert!(matches!(par, Outcome::Violation { .. }));
}
