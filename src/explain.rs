//! Counterexample explanation: turn a rejected run into an annotated
//! constraint graph and a human-readable narration.
//!
//! A [`scv_mc::Outcome::Violation`] hands back the offending
//! run's actions and the checker's diagnosis — enough to know *that* SC
//! failed, but not *why*. This module replays the run through a fresh
//! observer, locates the rejecting symbol, decodes the descriptor window
//! up to that symbol into a (possibly partially-labeled) constraint
//! graph, finds the directed cycle the checker saw, and renders both a
//! Graphviz DOT file (§3.1 edge styles, cycle in red) and a step-by-step
//! narration attributing each descriptor symbol to the protocol step
//! that emitted it.

use scv_checker::{ScChecker, ScError, ScErrorKind};
use scv_descriptor::{decode, Descriptor, Symbol};
use scv_graph::{annotated_dot, find_cycle_in};
use scv_observer::{Observer, ObserverConfig};
use scv_protocol::{Action, Protocol, Runner};
use std::fmt;
use std::fmt::Write as _;

/// Everything derived from a rejected run.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The checker's diagnosis (position is the rejecting symbol index;
    /// `None` means the end-of-string checks failed).
    pub error: ScError,
    /// The full descriptor the observer emitted for the run.
    pub descriptor: Descriptor,
    /// Number of symbols in the decoded window (the prefix up to and
    /// including the rejecting symbol, or the whole string for
    /// end-of-run rejections).
    pub window: usize,
    /// The offending cycle as 0-based node indices into the decoded
    /// window, first node repeated at the end; `None` when the rejection
    /// is not a cycle (e.g. an unsatisfied forced obligation).
    pub cycle: Option<Vec<usize>>,
    /// Graphviz DOT of the decoded window with the cycle highlighted.
    pub dot: String,
    /// Human-readable replay narration.
    pub narration: String,
}

/// Why an explanation could not be produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExplainError {
    /// The provided action sequence is not executable from the initial
    /// state (no enabled transition matched at this step).
    ReplayFailed {
        /// Index of the action that failed to replay.
        step: usize,
        /// The action itself.
        action: Action,
    },
    /// The run replays cleanly and the checker accepts it.
    NoViolation,
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::ReplayFailed { step, action } => {
                write!(f, "action {step} ({action}) is not enabled during replay")
            }
            ExplainError::NoViolation => write!(f, "the run passes the SC checker"),
        }
    }
}

impl std::error::Error for ExplainError {}

/// One sentence per [`ScErrorKind`], phrased against §3.1's constraints.
fn kind_sentence(kind: &ScErrorKind) -> String {
    match kind {
        ScErrorKind::CycleClosed => "the edge closes a directed cycle in the witness graph: \
             no serial reordering of the trace satisfies all ordering constraints (§3.1)"
            .to_string(),
        ScErrorKind::DanglingEdge => {
            "an edge descriptor references an ID no active node holds".to_string()
        }
        ScErrorKind::IdOutOfRange => "a symbol uses an ID outside 1..=k+1".to_string(),
        ScErrorKind::UnlabeledNode => "a node descriptor carries no operation label".to_string(),
        ScErrorKind::UnlabeledEdge => "an edge descriptor carries no annotations".to_string(),
        ScErrorKind::TooManyRetained => {
            "the checker's retained-node sanity cap was exceeded".to_string()
        }
        ScErrorKind::ProgramOrder(d) => format!("program-order constraint violated: {d}"),
        ScErrorKind::StOrder(d) => format!("ST-order constraint violated: {d}"),
        ScErrorKind::Inheritance(d) => format!("inheritance constraint violated: {d}"),
        ScErrorKind::ForcedUnsatisfied => {
            "a load's forced edge never materialized (constraint 5a)".to_string()
        }
        ScErrorKind::BottomUnsatisfied => "a ⊥-load lacks its forced edge to the first ST of \
             its block (constraint 5b)"
            .to_string(),
    }
}

/// Run the streaming checker over a descriptor; `None` means accepted.
fn check_descriptor(d: &Descriptor) -> Option<ScError> {
    let mut c = ScChecker::new(d.k);
    for s in &d.symbols {
        if let Err(e) = c.step(s) {
            return Some(e);
        }
    }
    c.finish().err()
}

/// Decode the window, find the cycle, render DOT, and assemble the
/// core narration. `origins[i]` attributes symbol `i` to a replay step
/// (`None` = emitted by the observer's end-of-run flush).
fn build_explanation(
    descriptor: Descriptor,
    error: ScError,
    origins: Option<&[Option<usize>]>,
    actions: Option<&[Action]>,
) -> Explanation {
    let window = match error.position {
        Some(p) => p + 1,
        None => descriptor.symbols.len(),
    };
    let mut prefix = Descriptor::new(descriptor.k);
    prefix.symbols = descriptor.symbols[..window].to_vec();
    // The rejecting symbol itself can be undecodable (dangling edge, ID
    // out of range); fall back to the prefix before it so the DOT still
    // shows the graph the checker had built.
    let decoded = decode(&prefix).ok().or_else(|| {
        let mut shorter = Descriptor::new(descriptor.k);
        shorter.symbols = descriptor.symbols[..window.saturating_sub(1)].to_vec();
        decode(&shorter).ok()
    });
    let (cycle, dot, node_labels) = match &decoded {
        Some((g, _)) => {
            let mut succ = vec![Vec::new(); g.node_count()];
            for &(u, v, _) in &g.edges {
                succ[u].push(v);
            }
            let cycle = find_cycle_in(succ.len(), |u| succ[u].iter().copied());
            let dot = annotated_dot(&g.labels, &g.edges, cycle.as_deref());
            (cycle, dot, g.labels.clone())
        }
        None => (None, String::new(), Vec::new()),
    };

    let mut n = String::new();
    let _ = writeln!(n, "SC violation: {error}");
    let _ = writeln!(n, "  {}", kind_sentence(&error.kind));
    if let Some(actions) = actions {
        let mems = actions.iter().filter(|a| a.op().is_some()).count();
        let _ = writeln!(
            n,
            "run: {} actions ({} memory operations)",
            actions.len(),
            mems
        );
        for (i, a) in actions.iter().enumerate() {
            let _ = writeln!(n, "  step {i}: {a}");
        }
    }
    if let Some(p) = error.position {
        let sym = &descriptor.symbols[p];
        let origin = origins.and_then(|o| o.get(p).copied().flatten());
        match (origin, actions) {
            (Some(s), Some(actions)) => {
                let _ = writeln!(
                    n,
                    "offending symbol {p} of {}: \"{sym}\" — emitted while executing \
                     step {s} ({})",
                    descriptor.symbols.len(),
                    actions[s]
                );
            }
            (Some(s), None) => {
                let _ = writeln!(
                    n,
                    "offending symbol {p} of {}: \"{sym}\" — emitted at step {s}",
                    descriptor.symbols.len()
                );
            }
            _ => {
                let _ = writeln!(
                    n,
                    "offending symbol {p} of {}: \"{sym}\" — emitted by the \
                     end-of-run flush",
                    descriptor.symbols.len()
                );
            }
        }
    } else {
        let _ = writeln!(
            n,
            "the rejection fired at end of run (no single offending symbol)"
        );
    }
    if let Some(c) = &cycle {
        let path = c
            .iter()
            .map(|v| format!("n{}", v + 1))
            .collect::<Vec<_>>()
            .join(" -> ");
        let _ = writeln!(n, "cycle in witness graph: {path}");
        for &v in c.iter().take(c.len().saturating_sub(1)) {
            match node_labels.get(v).copied().flatten() {
                Some(op) => {
                    let _ = writeln!(n, "  n{}: {op}", v + 1);
                }
                None => {
                    let _ = writeln!(n, "  n{}: (label outside window)", v + 1);
                }
            }
        }
    }

    Explanation {
        error,
        descriptor,
        window,
        cycle,
        dot,
        narration: n,
    }
}

/// Explain a rejected descriptor directly (no protocol replay, so the
/// narration cannot attribute symbols to steps).
pub fn explain_descriptor(d: &Descriptor) -> Result<Explanation, ExplainError> {
    let error = check_descriptor(d).ok_or(ExplainError::NoViolation)?;
    Ok(build_explanation(d.clone(), error, None, None))
}

/// Replay a violating run (e.g. [`scv_mc::Outcome::Violation`]'s
/// `run` field) through a fresh observer + checker and explain the
/// rejection. The protocol must be the one the run was found on.
pub fn explain_violation<P: Protocol + Clone>(
    protocol: &P,
    actions: &[Action],
) -> Result<Explanation, ExplainError> {
    let _t = scv_telemetry::timer(scv_telemetry::Phase::Replay);
    let mut runner = Runner::new(protocol.clone());
    let mut observer = Observer::new(ObserverConfig::from_protocol(protocol));
    let mut symbols: Vec<Symbol> = Vec::new();
    let mut origins: Vec<Option<usize>> = Vec::new();
    for (i, a) in actions.iter().enumerate() {
        let t = runner
            .enabled()
            .into_iter()
            .find(|t| t.action == *a)
            .ok_or(ExplainError::ReplayFailed {
                step: i,
                action: *a,
            })?;
        runner.take(t);
        let step = runner.run().steps.last().expect("step just taken");
        let mut syms = Vec::new();
        observer.step(step, &mut syms);
        origins.extend(std::iter::repeat_n(Some(i), syms.len()));
        symbols.extend(syms);
    }
    let mut trailing = Vec::new();
    observer.finish(&mut trailing);
    origins.extend(std::iter::repeat_n(None, trailing.len()));
    symbols.extend(trailing);

    let mut d = Descriptor::new(observer.k());
    d.symbols = symbols;
    let error = check_descriptor(&d).ok_or(ExplainError::NoViolation)?;
    Ok(build_explanation(d, error, Some(&origins), Some(actions)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use scv_graph::EdgeSet;

    /// A hand-built descriptor whose third edge closes a 2-cycle.
    fn cyclic_descriptor() -> Descriptor {
        let mut d = Descriptor::new(3);
        d.symbols = vec![
            Symbol::node(1, Op::store(ProcId(1), BlockId(1), Value(1))),
            Symbol::node(2, Op::load(ProcId(2), BlockId(1), Value(1))),
            Symbol::edge(1, 2, EdgeSet::INH),
            Symbol::edge(2, 1, EdgeSet::PO),
        ];
        d
    }

    #[test]
    fn descriptor_explanation_finds_the_cycle() {
        let ex = explain_descriptor(&cyclic_descriptor()).expect("rejected");
        assert_eq!(ex.error.kind, ScErrorKind::CycleClosed);
        assert_eq!(ex.error.position, Some(3));
        assert_eq!(ex.window, 4);
        let cycle = ex.cycle.as_ref().expect("cycle found");
        assert_eq!(cycle.first(), cycle.last());
        assert!(ex.dot.contains("color=red"));
        assert!(ex.narration.contains("CycleClosed"));
        assert!(ex.narration.contains("cycle in witness graph"));
    }

    #[test]
    fn accepted_descriptor_is_no_violation() {
        let mut d = cyclic_descriptor();
        d.symbols.pop();
        // Still rejected at end-of-run (untotal orders / pending forced
        // edges) or accepted; either way the direct cycle is gone.
        match explain_descriptor(&d) {
            Ok(ex) => assert_eq!(ex.error.position, None),
            Err(e) => assert_eq!(e, ExplainError::NoViolation),
        }
    }

    #[test]
    fn unreplayable_actions_are_reported() {
        let p = MsiProtocol::new(Params::new(2, 1, 2));
        let bogus = [Action::Internal("NoSuchAction", 7)];
        let err = explain_violation(&p, &bogus).expect_err("replay fails");
        assert_eq!(
            err,
            ExplainError::ReplayFailed {
                step: 0,
                action: bogus[0]
            }
        );
    }

    #[test]
    fn violating_run_explanation_matches_checker_rejection() {
        // A known-buggy protocol: find a violation, then explain it and
        // cross-check the explanation against the checker's diagnosis.
        let p = MsiProtocol::buggy(Params::new(2, 2, 1));
        let out = verify_protocol(p.clone(), VerifyOptions::new().max_states(2_000_000));
        let Outcome::Violation { run, reason, .. } = out else {
            panic!("buggy MSI must produce a violation");
        };
        let ex = explain_violation(&p, &run).expect("violation explains");
        assert_eq!(
            &ex.error,
            reason.error(),
            "explanation rederives the diagnosis"
        );
        if ex.error.kind == ScErrorKind::CycleClosed {
            let cycle = ex.cycle.as_ref().expect("cycle rejection decodes a cycle");
            assert!(cycle.len() >= 2);
            assert!(ex.dot.contains("color=red"));
            // The window minus the rejecting symbol is still acyclic —
            // the highlighted cycle is exactly what the checker tripped on.
            let mut shorter = Descriptor::new(ex.descriptor.k);
            shorter.symbols = ex.descriptor.symbols[..ex.window - 1].to_vec();
            let (g, _) = decode(&shorter).expect("prefix decodes");
            assert!(
                g.is_acyclic(),
                "cycle must close exactly at the rejecting symbol"
            );
        }
        assert!(ex.narration.contains("SC violation"));
    }
}
