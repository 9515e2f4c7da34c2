//! `scv` — command-line front end for the verification pipeline.
//!
//! ```text
//! scv verify <protocol> [-p N] [-b N] [-v N] [--threads N] [--max-states N]
//!                       [--batch N]
//!                       [--symmetry off|proc|full|full-enum] [--expand lazy|eager]
//!                       [--timeout SECS] [--checkpoint PATH]
//!                       [--checkpoint-every SECS] [--resume PATH]
//!                       # --timeout trips to an Inconclusive verdict (exit 3)
//!                       # with coverage; --checkpoint + --resume make
//!                       # interrupted runs restartable with identical results
//! scv observe <protocol> [--steps N] [--seed N]     # one random run's descriptor
//! scv monitor <protocol> [--steps N] [--seed N]     # §5 runtime testing mode
//! scv trace <protocol> [--out trace.json] [verify flags]
//!                                                   # verify with the flight recorder on,
//!                                                   # exporting a Perfetto/Chrome trace
//! scv explain <protocol> [--dot FILE] [verify flags]
//!                                                   # find a violation and explain it:
//!                                                   # annotated constraint graph + narration
//! scv fuzz [--seed N] [--cases N] [--budget SECS]   # differential fuzzing
//!          [--mc-every N] [--mc-states N] [--runs N] [--run-len N]
//!          [--corpus DIR] [--no-self-test]
//! scv list                                          # available protocols
//! ```
//!
//! `--progress` (verify/trace) prints a live stderr ticker: states/sec,
//! frontier depth, admission rate, seal-cache hit rate, and an ETA bound.
//!
//! Protocols: serial | msi | msi-buggy | mesi | mesi-buggy | directory |
//! lazy | tso | fig4.
//!
//! Telemetry (accepted anywhere on the command line, any command):
//!
//! ```text
//! --telemetry=summary           # phase/counter table on stderr-free stdout
//! --telemetry=jsonl <path>      # structured JSONL event stream to <path>
//! --telemetry=off               # explicit no-op (the default)
//! ```
//!
//! When `--telemetry` is given, the command may be omitted and defaults to
//! `verify`: `scv --telemetry=jsonl run.jsonl msi` verifies MSI and writes
//! the run's telemetry (phase timings, counters, a `run_report` record) to
//! `run.jsonl`.

use sc_verify::prelude::*;
use sc_verify::telemetry;
use sc_verify::testing::{MonitorStep, RunMonitor};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    p: u8,
    b: u8,
    v: u8,
    threads: usize,
    max_states: usize,
    batch: usize,
    symmetry: SymmetryMode,
    lazy: bool,
    steps: usize,
    seed: u64,
    progress: bool,
    out: Option<String>,
    dot: Option<String>,
    timeout: Option<Duration>,
    checkpoint: Option<String>,
    checkpoint_every: Option<Duration>,
    resume: Option<String>,
}

impl Args {
    fn parse(rest: &[String]) -> Result<Args, String> {
        let mut a = Args {
            p: 2,
            b: 1,
            v: 2,
            threads: 1,
            max_states: 2_000_000,
            batch: sc_verify::mc::DEFAULT_BATCH,
            symmetry: SymmetryMode::default(),
            lazy: true,
            steps: 100,
            seed: 0,
            progress: false,
            out: None,
            dot: None,
            timeout: None,
            checkpoint: None,
            checkpoint_every: None,
            resume: None,
        };
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let mut val = |name: &str| -> Result<u64, String> {
                it.next()
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("{name}: {e}"))
            };
            match flag.as_str() {
                "-p" => a.p = val("-p")? as u8,
                "-b" => a.b = val("-b")? as u8,
                "-v" => a.v = val("-v")? as u8,
                "--threads" => a.threads = val("--threads")? as usize,
                "--max-states" => a.max_states = val("--max-states")? as usize,
                "--batch" => a.batch = val("--batch")? as usize,
                "--steps" => a.steps = val("--steps")? as usize,
                "--seed" => a.seed = val("--seed")?,
                "--progress" => a.progress = true,
                "--timeout" | "--checkpoint-every" => {
                    // Fractional seconds are accepted: CI smoke runs use
                    // sub-second deadlines to interrupt tiny searches.
                    let name = flag.as_str();
                    let secs = it
                        .next()
                        .ok_or_else(|| format!("{name} needs a value (seconds)"))?
                        .parse::<f64>()
                        .map_err(|e| format!("{name}: {e}"))?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err(format!("{name}: seconds must be finite and non-negative"));
                    }
                    let d = Duration::from_secs_f64(secs);
                    if name == "--timeout" {
                        a.timeout = Some(d);
                    } else {
                        a.checkpoint_every = Some(d);
                    }
                }
                "--checkpoint" => {
                    a.checkpoint = Some(
                        it.next()
                            .ok_or("--checkpoint needs a path".to_string())?
                            .clone(),
                    );
                }
                "--resume" => {
                    a.resume = Some(
                        it.next()
                            .ok_or("--resume needs a path".to_string())?
                            .clone(),
                    );
                }
                "--out" => {
                    a.out = Some(it.next().ok_or("--out needs a path".to_string())?.clone());
                }
                "--dot" => {
                    a.dot = Some(it.next().ok_or("--dot needs a path".to_string())?.clone());
                }
                "--expand" => {
                    let v = it.next().ok_or("--expand needs a value (lazy | eager)")?;
                    a.lazy = match v.as_str() {
                        "lazy" => true,
                        "eager" => false,
                        other => {
                            return Err(format!("unknown expand mode `{other}` (lazy | eager)"))
                        }
                    };
                }
                other => {
                    if let Some(v) = other.strip_prefix("--expand=") {
                        a.lazy = match v {
                            "lazy" => true,
                            "eager" => false,
                            _ => return Err(format!("unknown expand mode `{v}` (lazy | eager)")),
                        };
                        continue;
                    }
                    let sym = if let Some(v) = other.strip_prefix("--symmetry=") {
                        Some(v.to_string())
                    } else if other == "--symmetry" {
                        Some(
                            it.next()
                                .ok_or("--symmetry needs a value (off | proc | full | full-enum)")?
                                .clone(),
                        )
                    } else {
                        None
                    };
                    match sym.as_deref() {
                        Some("off") => a.symmetry = SymmetryMode::Off,
                        Some("proc") => a.symmetry = SymmetryMode::Proc,
                        Some("full") => a.symmetry = SymmetryMode::Full,
                        Some("full-enum") => a.symmetry = SymmetryMode::FullEnum,
                        Some(v) => {
                            return Err(format!(
                                "unknown symmetry mode `{v}` (off | proc | full | full-enum)"
                            ))
                        }
                        None => return Err(format!("unknown flag {other}")),
                    }
                }
            }
        }
        Ok(a)
    }

    fn params(&self) -> Params {
        Params::new(self.p, self.b, self.v)
    }

    /// Search + run-control options shared by `verify`, `trace`, and
    /// `explain`.
    fn verify_options(&self) -> VerifyOptions {
        let mut o = VerifyOptions::new()
            .max_states(self.max_states)
            .threads(self.threads)
            .batch_size(self.batch)
            .symmetry(self.symmetry)
            .lazy(self.lazy);
        if let Some(d) = self.timeout {
            o = o.timeout(d);
        }
        if let Some(d) = self.checkpoint_every {
            o = o.checkpoint_every(d);
        }
        if let Some(p) = &self.checkpoint {
            o = o.checkpoint_to(p);
        }
        if let Some(p) = &self.resume {
            o = o.resume_from(p);
        }
        o
    }
}

/// Dispatch over the protocol zoo, monomorphizing `f` per protocol type.
fn with_protocol<R>(name: &str, params: Params, f: &mut dyn FnMut(&str) -> R) -> Result<R, String> {
    // The closure captures the protocol through thread-locals would be
    // overkill; just dispatch explicitly below in each command instead.
    let _ = (params, f);
    Err(format!("unknown protocol {name}"))
}

macro_rules! dispatch {
    ($name:expr, $params:expr, |$p:ident| $body:expr) => {{
        let params = $params;
        match $name {
            "serial" => {
                let $p = SerialMemory::new(params);
                $body
            }
            "msi" => {
                let $p = MsiProtocol::new(params);
                $body
            }
            "msi-buggy" => {
                let $p = MsiProtocol::buggy(params);
                $body
            }
            "mesi" => {
                let $p = MesiProtocol::new(params);
                $body
            }
            "mesi-buggy" => {
                let $p = MesiProtocol::buggy(params);
                $body
            }
            "directory" => {
                let $p = DirectoryProtocol::new(params);
                $body
            }
            "lazy" => {
                let $p = LazyCaching::new(params, 2, 2);
                $body
            }
            "tso" => {
                let $p = StoreBufferTso::new(params, 2);
                $body
            }
            "fig4" => {
                let $p = Fig4Protocol::new(params, 2);
                $body
            }
            other => {
                eprintln!("unknown protocol `{other}` (try `scv list`)");
                return ExitCode::from(2);
            }
        }
    }};
}

/// Telemetry sink selection, parsed out of argv before command dispatch.
enum TelemetryMode {
    Off,
    Summary,
    Jsonl(String),
}

/// Strip every `--telemetry…` flag from `argv` (they are accepted anywhere,
/// before or after the command) and return the requested mode.
fn extract_telemetry(argv: &mut Vec<String>) -> Result<TelemetryMode, String> {
    let mut mode = TelemetryMode::Off;
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].clone();
        let value = if let Some(v) = arg.strip_prefix("--telemetry=") {
            argv.remove(i);
            v.to_string()
        } else if arg == "--telemetry" {
            argv.remove(i);
            if i >= argv.len() {
                return Err("--telemetry needs a mode (summary | jsonl <path> | off)".into());
            }
            argv.remove(i)
        } else {
            i += 1;
            continue;
        };
        mode = match value.as_str() {
            "summary" => TelemetryMode::Summary,
            "off" | "none" => TelemetryMode::Off,
            "jsonl" => {
                if i >= argv.len() {
                    return Err("--telemetry=jsonl needs a path".into());
                }
                TelemetryMode::Jsonl(argv.remove(i))
            }
            other => match other.strip_prefix("jsonl=") {
                Some(path) => TelemetryMode::Jsonl(path.to_string()),
                None => {
                    return Err(format!(
                        "unknown telemetry mode `{other}` (summary | jsonl <path> | off)"
                    ))
                }
            },
        };
    }
    Ok(mode)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match extract_telemetry(&mut argv) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The progress ticker and the flight recorder's counter tracks read
    // the metrics registry, whose counters only advance while telemetry
    // is enabled — so `--progress` and `scv trace` without an explicit
    // sink get a NoopSink (enabled pipeline, no output).
    let needs_counters =
        argv.iter().any(|a| a == "--progress") || argv.first().is_some_and(|c| c == "trace");
    match &mode {
        TelemetryMode::Off => {
            if needs_counters {
                telemetry::install(Box::new(telemetry::NoopSink));
            }
        }
        TelemetryMode::Summary => telemetry::install(Box::new(telemetry::SummarySink::default())),
        TelemetryMode::Jsonl(path) => {
            match telemetry::JsonlSink::create(std::path::Path::new(path)) {
                Ok(sink) => telemetry::install(Box::new(sink)),
                Err(e) => {
                    eprintln!("error: cannot open {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    // With telemetry requested, allow the command to be omitted: the first
    // non-flag argument is then a protocol name and the command is `verify`.
    if !matches!(mode, TelemetryMode::Off) {
        if let Some(first) = argv.first() {
            if !matches!(
                first.as_str(),
                "verify" | "observe" | "monitor" | "trace" | "explain" | "fuzz" | "list"
            ) {
                argv.insert(0, "verify".to_string());
            }
        }
    }
    let code = run(&argv);
    telemetry::shutdown(); // flushes aggregates to the sink
    code
}

/// `scv fuzz`: a seeded, budgeted differential-fuzzing campaign over the
/// generated protocol family, plus the fault-injection self-test.
fn run_fuzz_cmd(rest: &[String]) -> ExitCode {
    use sc_verify::fuzz::{fault_injection_self_test, run_fuzz, FuzzOptions};
    let mut opts = FuzzOptions {
        seed: 42,
        cases: 200,
        ..FuzzOptions::default()
    };
    let mut self_test = true;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        let parsed = match flag.as_str() {
            "--seed" => val("--seed").map(|v| opts.seed = v),
            "--cases" => val("--cases").map(|v| opts.cases = v as usize),
            "--budget" => {
                val("--budget").map(|v| opts.budget = Some(std::time::Duration::from_secs(v)))
            }
            "--mc-every" => val("--mc-every").map(|v| opts.mc_every = v as usize),
            "--mc-states" => val("--mc-states").map(|v| opts.mc_states = v as usize),
            "--runs" => val("--runs").map(|v| opts.runs_per_case = v as usize),
            "--run-len" => val("--run-len").map(|v| opts.run_len = v as usize),
            "--corpus" => match it.next() {
                Some(dir) => {
                    opts.corpus_dir = Some(std::path::PathBuf::from(dir));
                    Ok(())
                }
                None => Err("--corpus needs a directory".to_string()),
            },
            "--no-self-test" => {
                self_test = false;
                Ok(())
            }
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    println!(
        "fuzzing: seed {}, {} cases{}, {} runs/case, mc every {} case(s)…",
        opts.seed,
        opts.cases,
        opts.budget
            .map(|b| format!(", budget {}s", b.as_secs()))
            .unwrap_or_default(),
        opts.runs_per_case,
        opts.mc_every
    );
    let report = run_fuzz(&opts);
    println!(
        "ran {} cases ({} SC, {} mutated){}: {} runs through the oracle stack, {} mc matrix runs ({} bounded)",
        report.cases,
        report.sc_cases,
        report.mutated_cases,
        if report.budget_exhausted {
            " [budget exhausted]"
        } else {
            ""
        },
        report.runs_checked,
        report.mc_runs,
        report.mc_bounded
    );
    println!(
        "injected bugs flagged: {}/{}",
        report.bugs_flagged, report.mutated_cases
    );
    for d in &report.disagreements {
        println!(
            "DISAGREEMENT (case {}, {}): {}",
            d.case, d.config, d.disagreement
        );
        if let Some(shrunk) = &d.shrunk {
            println!(
                "  shrunk to {} actions as `{}`",
                shrunk.actions.len(),
                shrunk.name
            );
        }
    }
    let mut ok = report.ok();
    if self_test {
        match fault_injection_self_test(opts.seed) {
            Ok(case) => println!(
                "self-test: synthetic disagreement shrunk to {} actions and replayed from the corpus format",
                case.actions.len()
            ),
            Err(e) => {
                println!("SELF-TEST FAILED: {e}");
                ok = false;
            }
        }
    }
    if ok {
        println!("fuzzing clean: all oracles agreed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(argv: &[String]) -> ExitCode {
    let Some(cmd) = argv.first() else {
        eprintln!("usage: scv <verify|observe|monitor|trace|explain|fuzz|list> [protocol] [flags]");
        return ExitCode::from(2);
    };
    if cmd == "fuzz" {
        return run_fuzz_cmd(&argv[1..]);
    }
    if cmd == "list" {
        println!("serial       atomic serial memory (SC)");
        println!("msi          snooping MSI, atomic bus (SC)");
        println!("msi-buggy    MSI with a lost invalidation (not SC)");
        println!("mesi         MESI with silent E->M upgrades (SC)");
        println!("mesi-buggy   MESI with a stale snoop (not SC)");
        println!("directory    directory protocol with response buffers (SC)");
        println!("lazy         lazy caching, memory-write ST order (SC)");
        println!("tso          store buffers without fences (not SC)");
        println!("fig4         the paper's Get-Shared cache (not SC / not in Γ)");
        return ExitCode::SUCCESS;
    }
    let Some(proto_name) = argv.get(1).map(|s| s.as_str()) else {
        eprintln!("usage: scv {cmd} <protocol> [flags]");
        return ExitCode::from(2);
    };
    let args = match Args::parse(&argv[2..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.checkpoint_every.is_some() && args.checkpoint.is_none() {
        eprintln!("warning: --checkpoint-every has no effect without --checkpoint PATH");
    }
    let _ = with_protocol::<()>; // keep the helper referenced

    match cmd.as_str() {
        "verify" => dispatch!(proto_name, args.params(), |p| {
            println!(
                "verifying {} (p={}, b={}, v={}, L={}) with {} thread(s), cap {} states…",
                p.name(),
                args.p,
                args.b,
                args.v,
                p.locations(),
                args.threads,
                args.max_states
            );
            if telemetry::enabled() {
                telemetry::event(telemetry::Event::RunStart {
                    name: format!("verify/{}", p.name()),
                    params: vec![
                        ("p".into(), args.p.to_string()),
                        ("b".into(), args.b.to_string()),
                        ("v".into(), args.v.to_string()),
                        ("threads".into(), args.threads.to_string()),
                        ("max_states".into(), args.max_states.to_string()),
                        ("symmetry".into(), format!("{:?}", args.symmetry)),
                        (
                            "expand".into(),
                            (if args.lazy { "lazy" } else { "eager" }).to_string(),
                        ),
                    ],
                });
            }
            let ticker = args.progress.then(|| {
                telemetry::start_progress(telemetry::ProgressOptions {
                    target_states: Some(args.max_states as u64),
                    ..Default::default()
                })
            });
            // The facade owns the RunReport (params, verdict, metrics), so
            // the CLI only adds the RunStart event and the summary lines.
            let run = Verifier::with_options(p, args.verify_options()).run_controlled();
            if let Some(t) = ticker {
                t.stop();
            }
            let out = match run {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("error: checkpoint: {e}");
                    return ExitCode::from(2);
                }
            };
            let s = out.stats();
            match out {
                Outcome::Verified { .. } => {
                    println!(
                        "VERIFIED: sequentially consistent ({} states, {} transitions, depth {}, {:?})",
                        s.states, s.transitions, s.depth, s.elapsed
                    );
                    ExitCode::SUCCESS
                }
                Outcome::Violation {
                    run, trace, reason, ..
                } => {
                    println!("NOT VERIFIED: {reason}");
                    println!("violating run ({} actions):", run.len());
                    for a in &run {
                        println!("  {a}");
                    }
                    println!("trace: {trace}");
                    println!(
                        "independent SC check of the trace: {}",
                        if has_serial_reordering(&trace) {
                            "has a serial reordering (protocol is outside Γ for this generator)"
                        } else {
                            "NO serial reordering — genuine SC violation"
                        }
                    );
                    ExitCode::FAILURE
                }
                Outcome::Bounded { .. } => {
                    println!(
                        "INCONCLUSIVE: state cap reached ({} states); raise --max-states",
                        s.states
                    );
                    ExitCode::from(3)
                }
                Outcome::Inconclusive {
                    reason, coverage, ..
                } => {
                    println!("INCONCLUSIVE: interrupted by {reason} ({coverage})");
                    match &args.checkpoint {
                        Some(path) => println!(
                            "checkpoint written; resume with: scv verify {proto_name} --resume {path}"
                        ),
                        None => println!(
                            "no checkpoint was requested; pass --checkpoint PATH to make \
                             interrupted runs resumable"
                        ),
                    }
                    ExitCode::from(3)
                }
            }
        }),
        "trace" => dispatch!(proto_name, args.params(), |p| {
            let out_path = args.out.clone().unwrap_or_else(|| "trace.json".to_string());
            println!(
                "tracing {} (p={}, b={}, v={}) with {} thread(s), cap {} states → {out_path}",
                p.name(),
                args.p,
                args.b,
                args.v,
                args.threads,
                args.max_states
            );
            telemetry::recorder::recorder_start(telemetry::DEFAULT_RING_CAPACITY);
            let ticker = args.progress.then(|| {
                telemetry::start_progress(telemetry::ProgressOptions {
                    target_states: Some(args.max_states as u64),
                    ..Default::default()
                })
            });
            let run = Verifier::with_options(p, args.verify_options()).run_controlled();
            if let Some(t) = ticker {
                t.stop();
            }
            let out = match run {
                Ok(out) => out,
                Err(e) => {
                    telemetry::recorder::recorder_stop();
                    eprintln!("error: checkpoint: {e}");
                    return ExitCode::from(2);
                }
            };
            telemetry::recorder::recorder_stop();
            let timelines = telemetry::recorder::drain();
            let s = out.stats();
            match telemetry::write_chrome_trace(std::path::Path::new(&out_path), &timelines) {
                Ok(()) => {
                    let events: usize = timelines.iter().map(|t| t.events.len()).sum();
                    let dropped: u64 = timelines.iter().map(|t| t.dropped).sum();
                    println!(
                        "wrote {out_path}: {} track(s), {events} events ({dropped} dropped); \
                         open at https://ui.perfetto.dev or chrome://tracing",
                        timelines.len()
                    );
                }
                Err(e) => {
                    eprintln!("error: cannot write {out_path}: {e}");
                    return ExitCode::from(2);
                }
            }
            println!(
                "verdict: {} ({} states, {} transitions, depth {}, {:?})",
                verdict_str(&out),
                s.states,
                s.transitions,
                s.depth,
                s.elapsed
            );
            match out {
                // An interrupted search still wrote a useful trace, so an
                // Inconclusive verdict is not a trace-command failure.
                Outcome::Verified { .. }
                | Outcome::Bounded { .. }
                | Outcome::Inconclusive { .. } => ExitCode::SUCCESS,
                Outcome::Violation { .. } => ExitCode::FAILURE,
            }
        }),
        "explain" => dispatch!(proto_name, args.params(), |p| {
            println!(
                "searching {} (p={}, b={}, v={}) for an SC violation, cap {} states…",
                p.name(),
                args.p,
                args.b,
                args.v,
                args.max_states
            );
            let out =
                match Verifier::with_options(p.clone(), args.verify_options()).run_controlled() {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("error: checkpoint: {e}");
                        return ExitCode::from(2);
                    }
                };
            match out {
                Outcome::Violation { run, .. } => match explain_violation(&p, &run) {
                    Ok(ex) => {
                        print!("{}", ex.narration);
                        match &args.dot {
                            Some(path) => {
                                if let Err(e) = std::fs::write(path, &ex.dot) {
                                    eprintln!("error: cannot write {path}: {e}");
                                    return ExitCode::from(2);
                                }
                                println!(
                                    "constraint graph written to {path} \
                                     (render with: dot -Tsvg {path})"
                                );
                            }
                            None => println!("\n{}", ex.dot),
                        }
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("error: cannot explain the violating run: {e}");
                        ExitCode::FAILURE
                    }
                },
                Outcome::Verified { stats } => {
                    println!(
                        "nothing to explain: protocol verified ({} states)",
                        stats.states
                    );
                    ExitCode::FAILURE
                }
                Outcome::Bounded { stats } => {
                    println!(
                        "nothing to explain: no violation within {} states; raise --max-states",
                        stats.states
                    );
                    ExitCode::from(3)
                }
                Outcome::Inconclusive {
                    reason, coverage, ..
                } => {
                    println!("nothing to explain: interrupted by {reason} ({coverage})");
                    ExitCode::from(3)
                }
            }
        }),
        "observe" => dispatch!(proto_name, args.params(), |p| {
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(args.seed);
            let mut runner = Runner::new(p.clone());
            runner.run_random(args.steps, 0.5, &mut rng);
            let run = runner.into_run();
            println!(
                "run of {} ({} steps, {} memory ops):",
                p.name(),
                run.len(),
                run.trace().len()
            );
            for s in &run.steps {
                println!("  {}", s.action);
            }
            let d = Observer::observe_run(&p, &run);
            println!("\ndescriptor (k = {}):", d.k);
            println!("{d}");
            println!("\nchecker verdict: {:?}", ScChecker::check(&d));
            ExitCode::SUCCESS
        }),
        "monitor" => dispatch!(proto_name, args.params(), |p| {
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(args.seed);
            let mut runner = Runner::new(p.clone());
            let mut monitor = RunMonitor::new(&p);
            for i in 0..args.steps {
                if !runner.step_random(&mut rng) {
                    break;
                }
                let step = runner.run().steps.last().expect("just stepped");
                if let MonitorStep::Violation(e) = monitor.feed(step) {
                    println!("violation at step {i}: {e}");
                    println!("run so far: {}", runner.run().trace());
                    return ExitCode::FAILURE;
                }
            }
            match monitor.finish() {
                Ok(()) => {
                    println!(
                        "run of {} steps is consistent with sequential consistency",
                        runner.run().len()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    println!("violation at end of run: {e}");
                    ExitCode::FAILURE
                }
            }
        }),
        other => {
            eprintln!("unknown command {other}");
            ExitCode::from(2)
        }
    }
}
