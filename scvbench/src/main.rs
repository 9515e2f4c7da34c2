//! `scvbench-cell` — runs one benchmark cell in this process and prints
//! one JSON object describing it.
//!
//! ```text
//! scvbench-cell <cell> [--trace | --setup-only] [--seed N]
//! ```
//!
//! Untraced, the cell drives the public API exactly as the `Verifier`
//! facade does (`VerifySystem::with_symmetry`, then `try_search`) with
//! telemetry and the flight recorder off, and reports wall-clock phase
//! times: `setup_s` from the start of `main` until the search is entered,
//! and `verdict_s` from there to the checked outcome. `--setup-only`
//! stops before the search and reports `setup_s` alone. With `--trace`
//! it wraps the protocol and the product system in timing delegates and
//! splits the search time by layer (see `traced`).
//! Either way the outcome is checked against the known-answer table in
//! `cells`. The process exits 0 whenever it could report; judging the
//! record is the runner's job.

mod cells;
mod traced;

use cells::{Cell, CellRun};
use sc_verify::mc::VerifySystem;
use sc_verify::protocol::Symmetry;
use sc_verify::telemetry::{peak_rss_bytes, Json};
use std::process::ExitCode;
use std::time::Instant;

pub fn num(x: impl Into<f64>) -> Json {
    Json::Num(x.into())
}

/// The fields every cell record carries, timed or traced.
pub fn base_record(cell: &Cell, check: &cells::Check, states: usize) -> Vec<(String, Json)> {
    let genuine = match check.genuine {
        Some(g) => Json::Bool(g),
        None => Json::Null,
    };
    vec![
        ("cell".into(), Json::Str(cell.name.into())),
        ("verdict".into(), Json::Str(check.verdict.into())),
        ("states".into(), num(states as f64)),
        ("ok".into(), Json::Bool(check.ok)),
        ("pass".into(), Json::Bool(check.pass)),
        ("genuine".into(), genuine),
        ("detail".into(), Json::Str(check.detail.clone())),
        ("witness_len".into(), num(check.witness_len as f64)),
        (
            "peak_rss_bytes".into(),
            num(peak_rss_bytes().unwrap_or(0) as f64),
        ),
    ]
}

/// The timed run: set-up and search through the public API, nothing else.
struct Timed {
    process_start: Instant,
    /// Stop once the search would be entered: the record holds only the
    /// set-up time.
    setup_only: bool,
}

impl CellRun for Timed {
    type Output = Json;

    fn run<P>(self, cell: &Cell, make: impl Fn() -> P) -> Json
    where
        P: Symmetry + Clone + Sync,
        P::State: Send + Sync + 'static,
    {
        let opts = cell.options();
        let system = VerifySystem::with_symmetry(make(), cell.symmetry);
        let search_start = Instant::now();
        let setup_s = (search_start - self.process_start).as_secs_f64();
        if self.setup_only {
            return Json::obj([
                ("cell".to_string(), Json::Str(cell.name.into())),
                ("ok".into(), Json::Bool(true)),
                ("setup_s".into(), num(setup_s)),
            ]);
        }
        let out = system
            .try_search(&opts)
            .expect("no checkpoint is read or written");
        let check = cells::check(cell, system.protocol(), &out);
        let verdict_s = search_start.elapsed().as_secs_f64();
        let mut rec = base_record(cell, &check, out.stats().states);
        rec.extend([
            ("setup_s".into(), num(setup_s)),
            ("verdict_s".into(), num(verdict_s)),
        ]);
        Json::obj(rec)
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut seed = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace = true,
            "--setup-only" => setup_only = true,
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs a number");
                    return ExitCode::from(2);
                }
            },
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(cell) = name.as_deref().and_then(cells::find) else {
        eprintln!("usage: scvbench-cell <cell> [--trace | --setup-only] [--seed N]; cells:");
        for c in cells::CELLS {
            eprintln!("  {:<12} {}", c.name, c.source);
        }
        return ExitCode::from(2);
    };
    let record = if trace {
        cells::dispatch(cell, traced::Traced { seed })
    } else {
        cells::dispatch(
            cell,
            Timed {
                process_start,
                setup_only,
            },
        )
    };
    println!("{}", record.to_string_compact());
    ExitCode::SUCCESS
}
