//! Quickstart: verify a cache-coherence protocol end to end.
//!
//! Runs the complete §3.4 method — generate the observer from the
//! protocol's tracking labels, compose it with the finite-state checker,
//! and model-check the product — on a small MSI snooping protocol, its
//! fault-injected variant, and a TSO store buffer.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sc_verify::prelude::*;

fn report(name: &str, outcome: &Outcome) {
    let s = outcome.stats();
    match outcome {
        Outcome::Verified { .. } => println!(
            "  {name:<22} VERIFIED          {:>8} states, {:>9} transitions, depth {:>3}, {:?}",
            s.states, s.transitions, s.depth, s.elapsed
        ),
        Outcome::Violation { trace, reason, .. } => {
            println!(
                "  {name:<22} NOT SC            {:>8} states, {:>9} transitions, depth {:>3}, {:?}",
                s.states, s.transitions, s.depth, s.elapsed
            );
            println!("      diagnosis : {reason}");
            println!("      trace     : {trace}");
            println!(
                "      cross-check: has_serial_reordering = {}",
                has_serial_reordering(trace)
            );
        }
        Outcome::Bounded { .. } => println!(
            "  {name:<22} BOUNDED (limit)   {:>8} states explored",
            s.states
        ),
        Outcome::Inconclusive {
            reason, coverage, ..
        } => println!("  {name:<22} INTERRUPTED ({reason}) {coverage}"),
    }
}

fn main() {
    println!("sc-verify quickstart — Condon & Hu, SPAA 2001");
    println!();
    println!("Verifying protocols (p = processors, b = blocks, v = values):");
    println!();

    // The smallest serial memory: exhaustively VERIFIED (the product
    // space converges at roughly 120k states).
    let outcome = verify_protocol(
        SerialMemory::new(Params::new(2, 1, 1)),
        VerifyOptions::new().max_states(400_000),
    );
    report("serial-memory (2,1,1)", &outcome);
    assert!(outcome.is_verified());

    // A correct MSI protocol: larger products (millions of states — see
    // DESIGN.md) are explored up to a cap; a correct protocol never
    // produces a violation, bounded or not.
    let outcome = verify_protocol(
        MsiProtocol::new(Params::new(2, 1, 2)),
        VerifyOptions::new().max_states(150_000),
    );
    report("msi (2,1,2)", &outcome);
    assert!(!matches!(outcome, Outcome::Violation { .. }));

    // MESI with silent E->M upgrades: likewise safe within the cap.
    let outcome = verify_protocol(
        MesiProtocol::new(Params::new(2, 1, 2)),
        VerifyOptions::new().max_states(150_000),
    );
    report("mesi (2,1,2)", &outcome);
    assert!(!matches!(outcome, Outcome::Violation { .. }));

    // MSI with a lost invalidation: NOT SC — the model checker returns a
    // shortest violating run whose trace genuinely has no serial
    // reordering.
    let outcome = verify_protocol(
        MsiProtocol::buggy(Params::new(2, 2, 1)),
        VerifyOptions::new().max_states(2_000_000),
    );
    report("msi-buggy (2,2,1)", &outcome);
    assert!(!outcome.is_verified());

    // A TSO store buffer: the store-buffering litmus violates SC.
    let outcome = verify_protocol(
        StoreBufferTso::new(Params::new(2, 2, 1), 1),
        VerifyOptions::new().max_states(2_000_000),
    );
    report("store-buffer (2,2,1)", &outcome);
    assert!(!outcome.is_verified());

    // Run control: a wall-clock deadline turns an over-budget search into
    // an INCONCLUSIVE verdict with coverage, instead of an open-ended
    // wait. Pair it with a checkpoint path and the run is resumable (see
    // `scv verify --timeout --checkpoint --resume`).
    let outcome = verify_protocol(
        MsiProtocol::new(Params::new(2, 1, 2)),
        VerifyOptions::new()
            .max_states(50_000_000)
            .timeout(std::time::Duration::from_millis(50)),
    );
    report("msi (50ms deadline)", &outcome);
    assert!(outcome.is_inconclusive());

    println!();
    println!("Done. A VERIFIED protocol has a finite-state witness observer,");
    println!("which by Theorem 3.1 proves it sequentially consistent; BOUNDED");
    println!("means no violation within the state cap (raise it for a proof).");
}
