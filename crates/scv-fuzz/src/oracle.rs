//! The differential oracle stack.
//!
//! Every fuzzed run is pushed through several independent implementations
//! of "is this behaviour sequentially consistent?" that share no code
//! paths, and any disagreement is a bug in one of them:
//!
//! 1. the **streamed finite-state checker** (observer → descriptor symbols
//!    → [`ScChecker`], the §3.3–3.4 pipeline under test);
//! 2. the **whole-trace ground truth** ([`has_serial_reordering`], direct
//!    memoized search over interleavings);
//! 3. the **descriptor round-trip**: the observer's symbol stream decoded
//!    back to a whole graph, checked for acyclicity;
//! 4. the **Gibbons–Korach baseline**: the witness extracted from the
//!    decoded graph, re-saturated and re-checked by [`BaselineChecker`];
//! 5. the **model-checking matrix**: `verify_protocol` verdicts across
//!    thread counts × symmetry modes.
//!
//! Soundness of the streaming checker (accept ⇒ the trace has a serial
//! reordering) is universal, so it is enforced on *every* run, mutated or
//! not. Completeness (reject ⇒ no serial reordering *for the observer's
//! witness*) is enforced through the baseline: a rejected run whose full
//! descriptor decodes to a valid, consistent witness is a disagreement.

use crate::gen::{GenConfig, GenProtocol};
use rand::Rng;
use scv_checker::{ScChecker, ScVerdict};
use scv_descriptor::{decode, Descriptor};
use scv_graph::{has_serial_reordering, BaselineChecker, Witness};
use scv_mc::{verify_protocol, Outcome, SymmetryMode, VerifyOptions};
use scv_observer::{Observer, ObserverConfig};
use scv_protocol::{Action, Protocol, Run};
use std::fmt;

/// A cross-oracle disagreement: two implementations of the SC question
/// gave conflicting answers on the same behaviour.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// Stable machine-readable tag (`accepted-non-sc-trace`, ...).
    pub kind: &'static str,
    /// Human-readable diagnosis.
    pub detail: String,
    /// The offending run's actions, when the disagreement is attached to a
    /// concrete run (empty for protocol-level verdict splits).
    pub actions: Vec<Action>,
}

impl Disagreement {
    fn on_run(kind: &'static str, detail: String, run: &Run) -> Disagreement {
        Disagreement {
            kind,
            detail,
            actions: run.steps.iter().map(|s| s.action).collect(),
        }
    }
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} ({} actions)",
            self.kind,
            self.detail,
            self.actions.len()
        )
    }
}

/// Result of driving one run through observer + streaming checker.
pub struct Drive {
    /// The streaming checker's verdict.
    pub verdict: ScVerdict,
    /// The complete descriptor the observer emitted (the checker may have
    /// rejected partway through; the descriptor is always completed).
    pub descriptor: Descriptor,
}

impl Drive {
    /// Did the streaming checker accept?
    pub fn accepted(&self) -> bool {
        self.verdict.is_ok()
    }
}

/// Drive a run through the observer and the streaming SC checker,
/// collecting the full descriptor symbol stream on the side.
pub fn drive<P: Protocol>(protocol: &P, run: &Run) -> Drive {
    let mut observer = Observer::new(ObserverConfig::from_protocol(protocol));
    let mut checker = Some(ScChecker::new(observer.k()));
    let mut descriptor = Descriptor::new(observer.k());
    let mut verdict: ScVerdict = Ok(());
    let mut syms = Vec::new();
    for step in &run.steps {
        syms.clear();
        observer.step(step, &mut syms);
        feed(&mut checker, &mut verdict, &syms);
        descriptor.symbols.extend(syms.iter().cloned());
    }
    syms.clear();
    observer.finish(&mut syms);
    feed(&mut checker, &mut verdict, &syms);
    descriptor.symbols.extend(syms.iter().cloned());
    if verdict.is_ok() {
        if let Some(c) = checker.take() {
            verdict = c.finish();
        }
    }
    Drive {
        verdict,
        descriptor,
    }
}

fn feed(checker: &mut Option<ScChecker>, verdict: &mut ScVerdict, syms: &[scv_descriptor::Symbol]) {
    if verdict.is_err() {
        return;
    }
    if let Some(c) = checker.as_mut() {
        for sym in syms {
            if let Err(e) = c.step(sym) {
                *verdict = Err(e);
                return;
            }
        }
    }
}

/// The per-run oracle verdicts that agreed.
#[derive(Clone, Copy, Debug)]
pub struct RunVerdict {
    /// Streaming checker accepted.
    pub accepted: bool,
    /// The trace has a serial reordering (ground truth).
    pub sc_trace: bool,
}

/// Check one executed run against the whole differential stack (oracles
/// 1–4). `guaranteed_sc` asserts the protocol is SC by construction, in
/// class Γ with truthful labels — any rejection is then a disagreement.
pub fn check_run<P: Protocol>(
    protocol: &P,
    run: &Run,
    guaranteed_sc: bool,
) -> Result<RunVerdict, Disagreement> {
    let d = drive(protocol, run);
    let trace = run.trace();
    let sc_trace = has_serial_reordering(&trace);
    match &d.verdict {
        Ok(()) => {
            // Soundness: accept ⇒ the trace is SC. Universal.
            if !sc_trace {
                return Err(Disagreement::on_run(
                    "accepted-non-sc-trace",
                    format!("checker accepted but trace [{trace}] has no serial reordering"),
                    run,
                ));
            }
            // Descriptor round-trip: the accepted symbol stream must
            // decode to an acyclic graph...
            let g = match decode(&d.descriptor) {
                Ok((g, _)) => g,
                Err(e) => {
                    return Err(Disagreement::on_run(
                        "accepted-undecodable-descriptor",
                        format!("checker accepted but decode failed: {e}"),
                        run,
                    ))
                }
            };
            if !g.is_acyclic() {
                return Err(Disagreement::on_run(
                    "accepted-cyclic-descriptor",
                    "checker accepted but the decoded graph has a cycle".into(),
                    run,
                ));
            }
            // ...whose extracted witness the Gibbons–Korach baseline
            // independently confirms.
            let cg = match g.to_constraint_graph() {
                Ok(cg) => cg,
                Err(e) => {
                    return Err(Disagreement::on_run(
                        "accepted-malformed-graph",
                        format!("decoded graph is not a constraint graph: {e}"),
                        run,
                    ))
                }
            };
            let w = Witness::from_constraint_graph(&trace, &cg);
            let baseline_ok =
                w.validate(&trace).is_ok() && BaselineChecker::check(&trace, &w).is_consistent();
            if !baseline_ok {
                return Err(Disagreement::on_run(
                    "baseline-rejects-accepted-witness",
                    "streaming checker accepted but the baseline rejects the same witness".into(),
                    run,
                ));
            }
        }
        Err(e) => {
            if guaranteed_sc {
                return Err(Disagreement::on_run(
                    "rejected-guaranteed-sc",
                    format!("checker rejected a run of an SC-by-construction protocol: {e}"),
                    run,
                ));
            }
            // Completeness cross-check: if the *full* descriptor decodes
            // to a valid acyclic constraint graph whose witness the
            // baseline accepts, the streaming rejection was wrong.
            if let Ok((g, _)) = decode(&d.descriptor) {
                if g.is_acyclic() {
                    if let Ok(cg) = g.to_constraint_graph() {
                        let w = Witness::from_constraint_graph(&trace, &cg);
                        if w.validate(&trace).is_ok()
                            && BaselineChecker::check(&trace, &w).is_consistent()
                        {
                            return Err(Disagreement::on_run(
                                "baseline-accepts-rejected-run",
                                format!(
                                    "checker rejected ({e}) but the decoded witness is consistent"
                                ),
                                run,
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(RunVerdict {
        accepted: d.verdict.is_ok(),
        sc_trace,
    })
}

/// Outcome of the model-checking verdict matrix (oracle 5).
#[derive(Clone, Copy, Debug)]
pub struct McCheck {
    /// Thread/symmetry combinations run.
    pub combos: usize,
    /// Some combination reported a violation.
    pub any_violation: bool,
    /// Some combination hit its state cap (Bounded).
    pub any_bounded: bool,
}

fn combo_opts(threads: usize, symmetry: SymmetryMode, max_states: usize) -> VerifyOptions {
    VerifyOptions::new()
        .threads(threads)
        .symmetry(symmetry)
        .max_states(max_states)
}

fn combo_tag(threads: usize, symmetry: SymmetryMode) -> String {
    format!("t{threads}/{symmetry:?}")
}

/// Run the model-checking matrix on a generated protocol and check the
/// verdicts against each other and against the construction.
///
/// A fixed baseline combination (sequential, symmetry off) runs first;
/// `extra` further combinations are drawn at random from
/// {1,4} threads × symmetry modes. Agreement is on the *safe
/// class*: with `expect_violation` no combination may report `Verified`,
/// and without it no combination may report `Violation` (`Bounded` is
/// always permitted — caps are per-combination).
pub fn mc_matrix<R: Rng>(
    cfg: &GenConfig,
    expect_violation: bool,
    extra: usize,
    max_states: usize,
    rng: &mut R,
) -> Result<McCheck, Disagreement> {
    let modes = [SymmetryMode::Off, SymmetryMode::Proc, SymmetryMode::Full];
    let mut combos = vec![(1usize, SymmetryMode::Off)];
    for _ in 0..extra {
        combos.push((
            if rng.gen_bool(0.5) { 1 } else { 4 },
            modes[rng.gen_range(0..modes.len())],
        ));
    }
    let mut check = McCheck {
        combos: combos.len(),
        any_violation: false,
        any_bounded: false,
    };
    for (threads, symmetry) in combos {
        let proto = GenProtocol::new(*cfg);
        let out = verify_protocol(proto, combo_opts(threads, symmetry, max_states));
        let tag = combo_tag(threads, symmetry);
        match out {
            Outcome::Verified { .. } if expect_violation => {
                return Err(Disagreement {
                    kind: "mc-verified-buggy-protocol",
                    detail: format!("{tag} verified a mutation-injected protocol exhaustively"),
                    actions: Vec::new(),
                });
            }
            Outcome::Violation { run, reason, .. } if !expect_violation => {
                return Err(Disagreement {
                    kind: "mc-violation-on-sc-protocol",
                    detail: format!("{tag} reported a violation on an SC protocol: {reason}"),
                    actions: run,
                });
            }
            Outcome::Violation { .. } => check.any_violation = true,
            Outcome::Bounded { .. } => check.any_bounded = true,
            Outcome::Verified { .. } => {}
            // The matrix never configures a budget or cancel token, so an
            // interrupted search here means the options plumbing broke.
            Outcome::Inconclusive { reason, .. } => {
                return Err(Disagreement {
                    kind: "mc-unexpected-interrupt",
                    detail: format!("{tag} was interrupted ({reason}) with no budget configured"),
                    actions: Vec::new(),
                });
            }
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Mutation;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scv_protocol::{litmus, realization, Runner};
    use scv_types::Params;

    fn mutated_cfg(m: Mutation) -> GenConfig {
        let mut rng = SmallRng::seed_from_u64(0);
        GenConfig {
            mutation: Some(m),
            ..GenConfig::sample_mutated(&mut rng)
        }
    }

    #[test]
    fn random_sc_runs_pass_the_whole_stack() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..15 {
            let cfg = GenConfig::sample(&mut rng);
            let mut r = Runner::new(GenProtocol::new(cfg));
            r.run_random(36, 0.5, &mut rng);
            let proto = r.protocol().clone();
            let v = check_run(&proto, r.run(), true).unwrap_or_else(|d| panic!("{cfg}: {d}"));
            assert!(v.accepted && v.sc_trace);
        }
    }

    #[test]
    fn realized_violations_are_rejected_not_disagreements() {
        for m in Mutation::ALL {
            let cfg = mutated_cfg(m);
            let proto = GenProtocol::new(cfg);
            let run =
                realization(&proto, &litmus::message_passing().trace, 8).expect("realizes MP");
            let v = check_run(&proto, &run, false).unwrap_or_else(|d| panic!("{}: {d}", m.tag()));
            assert!(!v.accepted, "{}: checker must reject the MP run", m.tag());
            assert!(!v.sc_trace);
        }
    }

    #[test]
    fn mutated_random_runs_never_disagree() {
        // Mutated protocols may produce SC or non-SC runs; either way the
        // oracles must agree among themselves.
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..12 {
            let cfg = GenConfig::sample_mutated(&mut rng);
            let mut r = Runner::new(GenProtocol::new(cfg));
            r.run_random(36, 0.5, &mut rng);
            let proto = r.protocol().clone();
            check_run(&proto, r.run(), false).unwrap_or_else(|d| panic!("{cfg}: {d}"));
        }
    }

    #[test]
    fn mc_matrix_flags_a_mutated_protocol() {
        let mut rng = SmallRng::seed_from_u64(13);
        let cfg = mutated_cfg(Mutation::StaleRead);
        let check = mc_matrix(&cfg, true, 1, 2_000_000, &mut rng).expect("no split");
        assert!(
            check.any_violation,
            "baseline combo must find the violation"
        );
    }

    #[test]
    fn mc_matrix_is_quiet_on_an_sc_protocol() {
        let mut rng = SmallRng::seed_from_u64(14);
        let cfg = GenConfig {
            params: Params::new(2, 1, 1),
            shared: true,
            upgrade: false,
            evict_m: true,
            evict_s: false,
            downgrade: false,
            atomic_mem: false,
            mutation: None,
        };
        let check = mc_matrix(&cfg, false, 2, 50_000, &mut rng).expect("no violation");
        assert!(!check.any_violation);
    }
}
