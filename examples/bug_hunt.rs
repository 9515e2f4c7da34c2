//! Bug hunting: find, explain, and cross-validate a coherence bug.
//!
//! The fault-injected MSI protocol drops one invalidation on every bus
//! upgrade. This example model-checks the protocol ⊗ observer ⊗ checker
//! product, prints the shortest violating run, decodes the witness graph,
//! exhibits the cycle in the constraint graph, and finally confirms with
//! the direct (exponential) serial-reordering search that the trace truly
//! violates sequential consistency.
//!
//! ```text
//! cargo run --release --example bug_hunt
//! ```

use sc_verify::graph::serial_search::find_serial_reordering;
use sc_verify::prelude::*;
use sc_verify::protocol::Step;

fn main() {
    println!("Hunting the lost-invalidation bug in MSI (p=2, b=2, v=1)…\n");
    let proto = MsiProtocol::buggy(Params::new(2, 2, 1));
    let outcome = verify_protocol(proto.clone(), VerifyOptions::new());

    let Outcome::Violation {
        run,
        trace,
        reason,
        stats,
    } = outcome
    else {
        panic!("the buggy protocol must be caught");
    };
    println!(
        "violation found after {} states / {} transitions in {:?}",
        stats.states, stats.transitions, stats.elapsed
    );
    println!("checker diagnosis: {reason}\n");

    println!("shortest violating run ({} actions):", run.len());
    for a in &run {
        println!("  {a}");
    }
    println!("\ntrace: {trace}");

    // Rebuild the witness descriptor for the violating run by replaying
    // the protocol along the counterexample actions.
    let mut state = proto.initial();
    let mut steps = Vec::new();
    for a in &run {
        let t = proto
            .transitions(&state)
            .into_iter()
            .find(|t| t.action == *a)
            .expect("counterexample replays");
        state = t.next.clone();
        steps.push(Step {
            action: t.action,
            tracking: t.tracking,
        });
    }
    let run_obj = sc_verify::protocol::Run { steps };
    let d = Observer::observe_run(&proto, &run_obj);
    println!("\nwitness descriptor ({} symbols):", d.symbols.len());
    for sym in &d.symbols {
        println!("  {sym}");
    }

    // Decode and show the cycle (if the rejection was a cycle) or the
    // violated axiom.
    match decode(&d) {
        Ok((dg, _)) => match dg.to_constraint_graph() {
            Ok(cg) => {
                println!(
                    "\ndecoded witness graph: {} nodes, {} edges",
                    cg.node_count(),
                    cg.edge_count()
                );
                match cg.find_cycle() {
                    Some(cycle) => {
                        println!("constraint-graph cycle (1-based trace positions):");
                        for w in cycle.windows(2) {
                            let ann = cg.edge(w[0], w[1]).expect("cycle edge");
                            println!(
                                "  {} --{}--> {}",
                                format_node(&trace, w[0]),
                                ann,
                                format_node(&trace, w[1])
                            );
                        }
                    }
                    None => println!("graph is acyclic; an edge-annotation axiom failed instead"),
                }
            }
            Err(e) => println!("\nwitness graph is malformed: {e}"),
        },
        Err(e) => println!("\ndescriptor decode failed: {e}"),
    }

    // Independent confirmation: the direct search finds no serial
    // reordering.
    println!();
    match find_serial_reordering(&trace) {
        None => println!("independent check: NO serial reordering exists — the bug is real."),
        Some(r) => panic!("trace unexpectedly SC via {r:?}"),
    }
}

fn format_node(trace: &Trace, i: usize) -> String {
    if i < trace.len() {
        format!("[{}] {}", i + 1, trace[i])
    } else {
        format!("[{}]", i + 1)
    }
}
