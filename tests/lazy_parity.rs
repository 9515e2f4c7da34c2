//! Differential battery for admission-gated lazy materialization.
//!
//! The lazy expansion path fingerprints successor candidates *before*
//! materializing them and only clones/allocates the ones the seen-set
//! admits (DESIGN.md, "State-store memory layout & admission gating").
//! The eager path materializes every successor first and is kept as the
//! reference implementation. The two must be *observationally
//! identical* — the gate is a memory/throughput optimization, never a
//! semantic one:
//!
//! * same verdict variant on every thread count and symmetry mode —
//!   never a missed violation, never a spurious one;
//! * identical explored-state and transition counts whenever the search
//!   is deterministic (one worker);
//! * every lazy-mode counterexample is a genuine run of the unreduced
//!   protocol that independently fails the §5 online monitor, and the
//!   sequential search produces the *same* counterexample either way.

use sc_verify::prelude::*;
use sc_verify::testing::{MonitorStep, RunMonitor};

/// Thread counts: one worker (sequential BFS) and four (asynchronous
/// work-stealing).
const THREADS: [usize; 2] = [1, 4];

const SYMS: [SymmetryMode; 3] = [SymmetryMode::Off, SymmetryMode::Proc, SymmetryMode::Full];

fn opts(max_states: usize, threads: usize) -> VerifyOptions {
    VerifyOptions::new().max_states(max_states).threads(threads)
}

fn verdict(out: &Outcome) -> &'static str {
    match out {
        Outcome::Verified { .. } => "Verified",
        Outcome::Violation { .. } => "Violation",
        Outcome::Bounded { .. } => "Bounded",
        // No budget or cancellation is configured in these tests.
        Outcome::Inconclusive { .. } => "Inconclusive",
    }
}

/// Run the same search through both expansion paths
/// ([`VerifySystem::lazy`] is the only eager selector).
fn both<P>(p: &P, max_states: usize, threads: usize, sym: SymmetryMode) -> (Outcome, Outcome)
where
    P: Symmetry + Clone + Sync,
    P::State: Send + Sync + 'static,
{
    let o = opts(max_states, threads).symmetry(sym);
    let run = |lazy: bool| {
        VerifySystem::with_symmetry(p.clone(), sym)
            .lazy(lazy)
            .search(&o)
    };
    (run(false), run(true))
}

/// Exhaustive searches terminate with the full (quotient) space explored:
/// both modes must prove SC at every thread count, and on the
/// deterministic sequential search states *and* transitions must match
/// exactly — any
/// admission-gate fingerprint that disagreed with the materialized
/// state's identity would show up as a count divergence here.
#[test]
fn exhaustive_parity_every_engine_and_symmetry() {
    fn check<P>(name: &str, p: &P, syms: &[SymmetryMode])
    where
        P: Symmetry + Clone + Sync,
        P::State: Send + Sync + 'static,
    {
        for &sym in syms {
            for threads in THREADS {
                let (eager, lazy) = both(p, 500_000, threads, sym);
                let tag = format!("{name} threads={threads} {sym:?}");
                assert_eq!(
                    verdict(&eager),
                    "Verified",
                    "{tag}: eager {:?}",
                    eager.stats()
                );
                assert_eq!(verdict(&lazy), "Verified", "{tag}: lazy {:?}", lazy.stats());
                if threads == 1 {
                    // Sequential search is deterministic: the counts
                    // are the quotient space, exactly.
                    assert_eq!(
                        (eager.stats().states, eager.stats().transitions),
                        (lazy.stats().states, lazy.stats().transitions),
                        "{tag}: lazy/eager count divergence"
                    );
                } else {
                    // Multi-worker expansion accounting is
                    // schedule-dependent (a state claimed by two racing
                    // batches is counted by both), in either mode. The
                    // drift grows when the machine is oversubscribed —
                    // e.g. the whole workspace test suite running in
                    // parallel — so the bound is looser than the ~5% the
                    // differential fuzzer (which runs alone) allows.
                    let (e, l) = (eager.stats().states as f64, lazy.stats().states as f64);
                    assert!(
                        (e - l).abs() / e.max(1.0) <= 0.10,
                        "{tag}: lazy/eager drifted beyond 10%: {e} vs {l}"
                    );
                }
            }
        }
    }
    // Small enough to finish exhaustively in debug mode: the full
    // serial-memory product (522 states) on every symmetry mode, and MSI
    // with a single processor (10 524 states) on the two quotient
    // extremes.
    check("serial", &SerialMemory::new(Params::new(1, 1, 2)), &SYMS);
    check(
        "msi",
        &MsiProtocol::new(Params::new(1, 1, 1)),
        &[SymmetryMode::Off, SymmetryMode::Full],
    );
}

/// Bounded sequential searches are deterministic, so hitting the state
/// cap must cut the frontier at exactly the same point either way.
#[test]
fn bounded_sequential_count_parity() {
    fn check<P>(name: &str, p: &P)
    where
        P: Symmetry + Clone + Sync,
        P::State: Send + Sync + 'static,
    {
        for sym in SYMS {
            let (eager, lazy) = both(p, 4_000, 1, sym);
            assert_eq!(verdict(&eager), "Bounded", "{name} {sym:?}");
            assert_eq!(verdict(&lazy), "Bounded", "{name} {sym:?}");
            assert_eq!(
                (eager.stats().states, eager.stats().transitions),
                (lazy.stats().states, lazy.stats().transitions),
                "{name} {sym:?}: bounded lazy/eager count divergence"
            );
        }
    }
    check("mesi", &MesiProtocol::new(Params::new(2, 2, 2)));
    check("directory", &DirectoryProtocol::new(Params::new(2, 1, 1)));
    check(
        "lazy-caching",
        &LazyCaching::new(Params::new(2, 1, 1), 1, 1),
    );
}

/// Replay a counterexample through the protocol (resolving each action to
/// an enabled transition) and assert the §5 online monitor flags it —
/// proving the run is a genuine run of the unreduced protocol and
/// re-deriving the rejection through a codepath separate from the model
/// checker.
fn replay_flags_violation<P: Protocol + Clone>(p: &P, run: &[Action]) {
    let mut runner = Runner::new(p.clone());
    for (i, action) in run.iter().enumerate() {
        let t = runner
            .enabled()
            .into_iter()
            .find(|t| t.action == *action)
            .unwrap_or_else(|| panic!("counterexample action {i} ({action:?}) not enabled"));
        runner.take(t);
    }
    let mut monitor = RunMonitor::new(p);
    let mut violated = false;
    for step in &runner.run().steps {
        if let MonitorStep::Violation(_) = monitor.feed(step) {
            violated = true;
            break;
        }
    }
    assert!(
        violated || monitor.finish().is_err(),
        "replayed counterexample must fail the online monitor"
    );
}

/// Violating protocols: the gate must never eat the violation. Every
/// thread count finds it in both modes, the lazy counterexample replays
/// through the online monitor, and the deterministic sequential search
/// produces the *identical* run either way.
#[test]
fn violation_parity_and_counterexample_replay() {
    let buggy = MsiProtocol::buggy(Params::new(2, 2, 1));
    // The buggy variant opts out of processor symmetry; Off and Full are
    // the meaningful quotient modes for it.
    for sym in [SymmetryMode::Off, SymmetryMode::Full] {
        for threads in THREADS {
            let (eager, lazy) = both(&buggy, 2_000_000, threads, sym);
            let tag = format!("threads={threads} {sym:?}");
            let Outcome::Violation { run: lazy_run, .. } = &lazy else {
                panic!("{tag}: lazy expected Violation, got {:?}", lazy.stats());
            };
            let Outcome::Violation { run: eager_run, .. } = &eager else {
                panic!("{tag}: eager expected Violation, got {:?}", eager.stats());
            };
            assert!(!lazy_run.is_empty(), "{tag}: trivial counterexample");
            replay_flags_violation(&buggy, lazy_run);
            if threads == 1 {
                assert_eq!(
                    lazy_run, eager_run,
                    "{tag}: sequential BFS must find the same counterexample"
                );
                assert_eq!(
                    (eager.stats().states, eager.stats().transitions),
                    (lazy.stats().states, lazy.stats().transitions),
                    "{tag}: sequential lazy/eager count divergence"
                );
            }
        }
    }
}
