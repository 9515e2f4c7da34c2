//! The known-answer table: every benchmark cell, the answer it must give,
//! and where that answer comes from.
//!
//! No Lazy Caching cell is listed. Its model is not SC once the in-queue
//! depth reaches 2 (the `MR` branch reads memory while `In_P` still holds
//! older updates to the block), so its current verdict is not a known
//! answer. A lazy cell belongs here once the model is fixed and a mutated
//! copy exists to serve as the non-SC twin.

use sc_verify::graph::has_serial_reordering;
use sc_verify::mc::{Outcome, SymmetryMode, VerifyOptions};
use sc_verify::protocol::{
    Action, Fig4Protocol, MesiProtocol, MsiProtocol, Protocol, Runner, SerialMemory,
    StoreBufferTso, Symmetry,
};
use sc_verify::testing::{MonitorStep, RunMonitor};
use sc_verify::types::Params;
use sc_verify::verifier::verdict_str;
use std::time::Instant;

/// The protocols the cells use, as the `scv` CLI builds them.
#[derive(Clone, Copy, Debug)]
pub enum Proto {
    Serial,
    Msi,
    MsiBuggy,
    MesiBuggy,
    /// Store buffers of depth 2.
    Tso,
    /// Two cache slots per processor.
    Fig4,
}

/// What a cell's outcome must be.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// An exhaustive proof with exactly this many states. Only sequential
    /// (1-thread) search is deterministic enough to pin a count.
    Verified { states: usize },
    /// A violation whose run replays through the online monitor. The cell
    /// passes only if the trace also has no serial reordering; a witness
    /// that has one lowers the pass share but does not fail the cell. For
    /// protocols whose witnesses are known to fall outside the checker's
    /// class today (ROADMAP item 1).
    Violation,
    /// As `Violation`, but a witness with a serial reordering fails the
    /// cell.
    GenuineViolation,
    /// The state cap is reached with no violation found.
    Bounded,
}

/// One benchmark cell: a protocol configuration, search settings, and its
/// known answer.
pub struct Cell {
    pub name: &'static str,
    pub proto: Proto,
    /// `(p, b, v)`: processors, blocks, values.
    pub params: (u8, u8, u8),
    pub symmetry: SymmetryMode,
    pub threads: usize,
    pub max_states: usize,
    pub expect: Expect,
    /// Where the expected answer comes from.
    pub source: &'static str,
}

impl Cell {
    pub fn options(&self) -> VerifyOptions {
        VerifyOptions::new()
            .max_states(self.max_states)
            .threads(self.threads)
            .symmetry(self.symmetry)
    }
}

pub const CELLS: &[Cell] = &[
    Cell {
        name: "serial-off",
        proto: Proto::Serial,
        params: (2, 1, 1),
        symmetry: SymmetryMode::Off,
        threads: 1,
        max_states: 2_000_000,
        expect: Expect::Verified { states: 121_469 },
        source: "serial.rs module doc (atomic memory is SC); count pinned in ROADMAP item 2(a)",
    },
    Cell {
        name: "serial-full",
        proto: Proto::Serial,
        params: (2, 1, 1),
        symmetry: SymmetryMode::Full,
        threads: 1,
        max_states: 2_000_000,
        expect: Expect::Verified { states: 61_064 },
        source: "serial.rs module doc (atomic memory is SC); count pinned in ROADMAP item 2(a)",
    },
    Cell {
        name: "msi-buggy",
        proto: Proto::MsiBuggy,
        params: (3, 2, 2),
        symmetry: SymmetryMode::Off,
        threads: 1,
        max_states: 2_000_000,
        expect: Expect::GenuineViolation,
        source: "msi.rs module doc: the lost invalidation makes MsiProtocol::buggy not SC",
    },
    Cell {
        name: "mesi-buggy",
        proto: Proto::MesiBuggy,
        params: (3, 2, 2),
        symmetry: SymmetryMode::Off,
        threads: 1,
        max_states: 2_000_000,
        expect: Expect::GenuineViolation,
        source: "mesi.rs module doc: the stale snoop grants E twice, so MesiProtocol::buggy is not SC",
    },
    Cell {
        name: "tso",
        proto: Proto::Tso,
        params: (2, 2, 1),
        symmetry: SymmetryMode::Off,
        threads: 1,
        max_states: 2_000_000,
        expect: Expect::Violation,
        source: "tso.rs module doc: store buffering without fences is not SC",
    },
    Cell {
        name: "fig4",
        proto: Proto::Fig4,
        params: (3, 2, 2),
        symmetry: SymmetryMode::Off,
        threads: 1,
        max_states: 2_000_000,
        expect: Expect::Violation,
        source: "fig4.rs module doc (paper Figure 4): with 3+ processors a stale Get-Shared copy breaks SC",
    },
    Cell {
        name: "msi-cov",
        proto: Proto::Msi,
        params: (2, 1, 1),
        symmetry: SymmetryMode::Full,
        threads: 2,
        max_states: 400_000,
        expect: Expect::Bounded,
        source: "msi.rs module doc (atomic-bus MSI is SC, paper 4.2), so no violation before the cap",
    },
];

pub fn find(name: &str) -> Option<&'static Cell> {
    CELLS.iter().find(|c| c.name == name)
}

/// A generic body run once per cell with the cell's concrete protocol.
pub trait CellRun {
    type Output;
    /// `make` constructs the cell's protocol; construction is part of
    /// set-up, so the body calls it.
    fn run<P>(self, cell: &Cell, make: impl Fn() -> P) -> Self::Output
    where
        P: Symmetry + Clone + Sync,
        P::State: Send + Sync + 'static;
}

/// Hand `body` a constructor for the cell's protocol.
pub fn dispatch<R: CellRun>(cell: &Cell, body: R) -> R::Output {
    let (p, b, v) = cell.params;
    let params = Params::new(p, b, v);
    match cell.proto {
        Proto::Serial => body.run(cell, || SerialMemory::new(params)),
        Proto::Msi => body.run(cell, || MsiProtocol::new(params)),
        Proto::MsiBuggy => body.run(cell, || MsiProtocol::buggy(params)),
        Proto::MesiBuggy => body.run(cell, || MesiProtocol::buggy(params)),
        Proto::Tso => body.run(cell, || StoreBufferTso::new(params, 2)),
        Proto::Fig4 => body.run(cell, || Fig4Protocol::new(params, 2)),
    }
}

/// The result of checking an outcome against the cell's known answer.
pub struct Check {
    pub verdict: &'static str,
    /// Everything except witness genuineness holds: the verdict, the
    /// pinned count or cap, and the witness replay. A wrong value here is
    /// a failed cell.
    pub ok: bool,
    /// `ok`, and a returned witness is a genuine non-SC run.
    pub pass: bool,
    pub detail: String,
    /// For violations: does the trace lack a serial reordering?
    pub genuine: Option<bool>,
    /// Actions in the returned witness run (0 without one).
    pub witness_len: usize,
    /// Time spent checking the witness (replay plus reordering search).
    pub witness_check_s: f64,
}

pub fn check<P: Protocol + Clone>(cell: &Cell, protocol: &P, out: &Outcome) -> Check {
    let verdict = verdict_str(out);
    let states = out.stats().states;
    let mut c = Check {
        verdict,
        ok: false,
        pass: false,
        detail: String::new(),
        genuine: None,
        witness_len: 0,
        witness_check_s: 0.0,
    };
    match (cell.expect, out) {
        (Expect::Verified { states: want }, Outcome::Verified { .. }) => {
            c.ok = states == want;
            if !c.ok {
                c.detail = format!("verified with {states} states, expected {want}");
            }
        }
        (Expect::Bounded, Outcome::Bounded { .. }) => {
            c.ok = states >= cell.max_states;
            if !c.ok {
                c.detail = format!(
                    "bounded at {states} states, below the cap {}",
                    cell.max_states
                );
            }
        }
        (
            expect @ (Expect::Violation | Expect::GenuineViolation),
            Outcome::Violation { run, trace, .. },
        ) => {
            let t = Instant::now();
            let replays = replay_flags_violation(protocol, run);
            let genuine = !has_serial_reordering(trace);
            c.witness_check_s = t.elapsed().as_secs_f64();
            c.witness_len = run.len();
            c.genuine = Some(genuine);
            c.ok = replays && (genuine || matches!(expect, Expect::Violation));
            if !replays {
                c.detail = "the witness run does not replay to a monitor violation".into();
            } else if !genuine {
                c.detail = format!("witness trace has a serial reordering: {trace}");
            }
        }
        _ => {
            c.detail = format!(
                "verdict {verdict} ({states} states), expected {:?}",
                cell.expect
            );
        }
    }
    c.pass = c.ok && c.genuine != Some(false);
    c
}

/// Check a violation's witness a second time and return how long that
/// took, or 0 for other outcomes. The first check after a search also
/// pays for the allocator consolidating the memory the search freed; the
/// repeat times the check alone.
pub fn recheck_witness_s<P: Protocol + Clone>(protocol: &P, out: &Outcome) -> f64 {
    let Outcome::Violation { run, trace, .. } = out else {
        return 0.0;
    };
    let t = Instant::now();
    std::hint::black_box(replay_flags_violation(protocol, run));
    std::hint::black_box(has_serial_reordering(trace));
    t.elapsed().as_secs_f64()
}

/// Replay a witness run through the protocol and the §5 online monitor,
/// which shares nothing with the model checker's product construction.
/// True iff every action is enabled in turn and the monitor rejects.
fn replay_flags_violation<P: Protocol + Clone>(protocol: &P, run: &[Action]) -> bool {
    let mut runner = Runner::new(protocol.clone());
    for action in run {
        let Some(t) = runner.enabled().into_iter().find(|t| t.action == *action) else {
            return false;
        };
        runner.take(t);
    }
    let mut monitor = RunMonitor::new(protocol);
    for step in &runner.run().steps {
        if let MonitorStep::Violation(_) = monitor.feed(step) {
            return true;
        }
    }
    monitor.finish().is_err()
}
