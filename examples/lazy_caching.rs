//! Lazy Caching (Afek, Brown & Merritt) under the non-trivial ST order
//! generator of §4.2.
//!
//! Lazy Caching is the paper's example of a sequentially consistent
//! protocol whose stores serialize in *memory-write* order rather than
//! real-time order. This example:
//!
//!  1. drives the protocol through a run where the serialization order is
//!     the reverse of the issue order, printing the observer's descriptor
//!     stream (note the ST-order edge against trace order);
//!  2. model-checks a small configuration (bounded; see DESIGN.md §6 on
//!     product state-space sizes);
//!  3. shows that the *real-time* ST order generator would wrongly reject
//!     the same run — the §4.2 generator is necessary, not cosmetic.
//!
//! ```text
//! cargo run --release --example lazy_caching
//! ```

use sc_verify::observer::ObserverConfig;
use sc_verify::prelude::*;
use sc_verify::protocol::StOrderPolicy;

fn main() {
    let params = Params::new(2, 1, 2);
    let proto = LazyCaching::new(params, 2, 2);

    println!("=== 1. A run where stores serialize against trace order ===\n");
    let mut r = Runner::new(proto.clone());
    let take = |r: &mut Runner<LazyCaching>, want: &dyn Fn(&Action) -> bool, what: &str| {
        let t = r
            .enabled()
            .into_iter()
            .find(|t| want(&t.action))
            .unwrap_or_else(|| panic!("{what} not enabled"));
        println!("  {:<14} {}", t.action.to_string(), what);
        r.take(t);
    };
    take(
        &mut r,
        &|a| a.op() == Some(Op::store(ProcId(1), BlockId(1), Value(1))),
        "P1 queues ST x=1",
    );
    take(
        &mut r,
        &|a| a.op() == Some(Op::store(ProcId(2), BlockId(1), Value(2))),
        "P2 queues ST x=2",
    );
    take(
        &mut r,
        &|a| matches!(a, Action::Internal("MW", 2)),
        "P2's store hits memory FIRST",
    );
    take(
        &mut r,
        &|a| matches!(a, Action::Internal("MW", 1)),
        "P1's store hits memory second",
    );
    take(
        &mut r,
        &|a| matches!(a, Action::Internal("CU", 2)),
        "P2 applies update (x=2)",
    );
    take(
        &mut r,
        &|a| matches!(a, Action::Internal("CU", 2)),
        "P2 applies update (x=1)",
    );
    take(
        &mut r,
        &|a| a.op() == Some(Op::load(ProcId(2), BlockId(1), Value(1))),
        "P2 reads x=1 — P1's store is LAST in ST order",
    );
    let run = r.into_run();

    println!(
        "\nobserver output ({} locations, memory word is the serialization location):",
        proto.locations()
    );
    let d = Observer::observe_run(&proto, &run);
    for sym in &d.symbols {
        println!("  {sym}");
    }
    println!("\nstreaming SC checker: {:?}", ScChecker::check(&d));
    assert_eq!(ScChecker::check(&d), Ok(()));

    println!("\n=== 2. The same run under a (wrong) real-time ST order ===\n");
    // Force the real-time policy: the generator serializes STs in trace
    // order, so the witness claims ST x=1 precedes ST x=2 — but P2 read 1
    // *after* its own store of 2, closing a cycle. The checker rejects,
    // demonstrating why Lazy Caching needs the §4.2 generator.
    let mut cfg = ObserverConfig::from_protocol(&proto);
    cfg.policy = StOrderPolicy::RealTime;
    let mut obs = Observer::new(cfg);
    let mut syms = Vec::new();
    for s in &run.steps {
        obs.step(s, &mut syms);
    }
    obs.finish(&mut syms);
    let mut chk = ScChecker::new(obs.k());
    let mut verdict = Ok(());
    for sym in &syms {
        verdict = chk.step(sym);
        if verdict.is_err() {
            break;
        }
    }
    let verdict = match verdict {
        Ok(()) => chk.finish(),
        e => e,
    };
    println!("real-time-order checker verdict: {verdict:?}");
    assert!(verdict.is_err(), "real-time order must be rejected here");

    println!("\n=== 3. Model checking (bounded) ===\n");
    let small = LazyCaching::new(Params::new(2, 1, 1), 1, 1);
    let outcome = verify_protocol(small, VerifyOptions::new().max_states(150_000));
    let s = outcome.stats();
    let verdict = match &outcome {
        Outcome::Verified { .. } => "VERIFIED (exhaustive)",
        Outcome::Bounded { .. } => "SAFE within the state cap",
        Outcome::Violation { .. } => "VIOLATION",
        // Unreachable here: no budget or cancellation is configured.
        Outcome::Inconclusive { .. } => "INTERRUPTED",
    };
    println!(
        "lazy-caching (2,1,1) qo=1 qi=1: {verdict} — {} states, {} transitions, {:?}",
        s.states, s.transitions, s.elapsed
    );
    assert!(!matches!(outcome, Outcome::Violation { .. }));
    println!("\nLazy Caching is sequentially consistent, and the method checks it");
    println!("with the memory-write ST order generator — exactly as §4.2 argues.");
}
