//! Telemetry must observe the pipeline without perturbing it.
//!
//! * `verify_protocol` returns the same verdict and (exhaustive) state
//!   count with telemetry enabled and disabled, sequentially and with 4
//!   workers — instrumentation is read-only with respect to the search.
//! * The JSONL sink emits schema-versioned, parseable records covering
//!   every pipeline phase (search, observer step, descriptor encode,
//!   checker step).
//! * Every run, whichever entry point started it, emits exactly one
//!   `verify/<protocol>` run report whose verdict and state count match
//!   its outcome.
//! * The §5 runtime monitor reports a structured `MonitorDivergence`
//!   event (step index, symbol, diagnosis) when a run stops being SC.
//!
//! Telemetry state is process-global, so every test serializes on
//! `telemetry::test_mutex` (directly or through `TestSession`).

use sc_verify::prelude::*;
use sc_verify::telemetry;
use sc_verify::testing::{MonitorStep, RunMonitor};

/// The reference product: small enough to exhaust in milliseconds, large
/// enough to exercise every phase. 522 product states.
fn small_serial() -> SerialMemory {
    SerialMemory::new(Params::new(1, 1, 2))
}

fn opts(threads: usize) -> VerifyOptions {
    VerifyOptions::new().max_states(2_000_000).threads(threads)
}

#[test]
fn same_verdict_and_state_count_with_telemetry_on_and_off() {
    for threads in [1usize, 4] {
        let off = {
            let _session = telemetry::TestSession::start_disabled();
            verify_protocol(small_serial(), opts(threads))
        };
        let (on, admitted) = {
            let session = telemetry::TestSession::start();
            let out = verify_protocol(small_serial(), opts(threads));
            let admitted = telemetry::registry().get(telemetry::Metric::McStatesAdmitted);
            drop(session);
            (out, admitted)
        };
        assert!(off.is_verified(), "threads={threads}: baseline must verify");
        assert!(
            on.is_verified(),
            "threads={threads}: telemetry run must verify"
        );
        assert_eq!(
            off.stats().states,
            on.stats().states,
            "threads={threads}: exhaustive state count must not depend on telemetry"
        );
        // The registry counter mirrors the search: admissions are
        // counted live, as they happen, and the initial state is never
        // admitted — at every thread count, one worker included.
        let states = on.stats().states as u64;
        assert_eq!(
            admitted,
            states - 1,
            "threads={threads}: mc.states_admitted vs states"
        );
        assert!(
            on.stats().peak_frontier > 0,
            "threads={threads}: the frontier is observed"
        );
    }
}

#[test]
fn violation_verdict_unchanged_by_telemetry() {
    let off = {
        let _session = telemetry::TestSession::start_disabled();
        verify_protocol(StoreBufferTso::new(Params::new(2, 2, 1), 1), opts(1))
    };
    let on = {
        let _session = telemetry::TestSession::start();
        verify_protocol(StoreBufferTso::new(Params::new(2, 2, 1), 1), opts(1))
    };
    match (&off, &on) {
        (Outcome::Violation { stats: s_off, .. }, Outcome::Violation { stats: s_on, .. }) => {
            // Sequential BFS is deterministic up to hash order; the
            // violation depth (shortest run) must agree exactly.
            assert_eq!(s_off.depth, s_on.depth, "shortest-violation depth");
        }
        _ => panic!("TSO must violate with and without telemetry"),
    }
}

#[test]
fn jsonl_stream_is_schema_valid_and_covers_pipeline_phases() {
    let _guard = telemetry::test_mutex()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = std::env::temp_dir().join(format!(
        "scv_telemetry_integration_{}.jsonl",
        std::process::id()
    ));
    telemetry::install(Box::new(
        telemetry::JsonlSink::create(&path).expect("temp jsonl"),
    ));
    let out = verify_protocol(small_serial(), opts(1));
    telemetry::shutdown();

    let text = std::fs::read_to_string(&path).expect("jsonl written");
    std::fs::remove_file(&path).ok();
    let mut phases = std::collections::BTreeSet::new();
    let mut types = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let j = telemetry::Json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON: {e:?}", i + 1));
        assert_eq!(
            j.get("schema").and_then(|s| s.as_num()),
            Some(telemetry::SCHEMA_VERSION as f64),
            "line {} must carry the schema version",
            i + 1
        );
        let ty = j
            .get("type")
            .and_then(|t| t.as_str())
            .unwrap_or_else(|| panic!("line {} has no type", i + 1))
            .to_string();
        if ty == "phase" {
            phases.insert(
                j.get("phase")
                    .and_then(|p| p.as_str())
                    .expect("phase name")
                    .to_string(),
            );
        }
        types.insert(ty);
    }
    for required in [
        "search",
        "observer.step",
        "descriptor.encode",
        "checker.step",
    ] {
        assert!(
            phases.contains(required),
            "pipeline phase {required} missing from JSONL; saw {phases:?}"
        );
    }
    assert!(types.contains("run_report"), "saw {types:?}");
    assert!(types.contains("counters"), "saw {types:?}");

    // The run's own report round-trips through the typed parser.
    let reports = telemetry::parse_reports(&text).expect("reports parse");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].name, "verify/serial-memory");
    assert_eq!(reports[0].verdict, "verified");
    assert_eq!(
        reports[0].get_metric("states"),
        Some(out.stats().states as f64)
    );
}

/// The run reports a session has received so far.
fn run_reports(session: &telemetry::TestSession) -> Vec<telemetry::RunReport> {
    session
        .events()
        .into_iter()
        .filter_map(|e| match e {
            telemetry::Event::Report(r) => Some(r),
            _ => None,
        })
        .collect()
}

fn param<'a>(report: &'a telemetry::RunReport, key: &str) -> Option<&'a str> {
    report
        .params
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

#[test]
fn every_run_emits_exactly_one_run_report() {
    // A finished run: the report mirrors the outcome.
    {
        let session = telemetry::TestSession::start();
        let out = verify_protocol(small_serial(), opts(1));
        let reports = run_reports(&session);
        assert_eq!(reports.len(), 1, "one report per run: {reports:?}");
        let r = &reports[0];
        assert_eq!(r.name, "verify/serial-memory");
        assert_eq!(r.verdict, verdict_str(&out));
        assert_eq!(r.get_metric("states"), Some(out.stats().states as f64));
        assert_eq!(param(r, "expand"), Some("lazy"));
        assert_eq!(param(r, "interrupt"), None);
    }
    // An inconclusive run (state budget) also names what interrupted it.
    {
        let session = telemetry::TestSession::start();
        let out = verify_protocol(
            small_serial(),
            opts(1).budget(Budget::unlimited().states(100)),
        );
        let Outcome::Inconclusive { reason, .. } = &out else {
            panic!("a 100-state budget must trip, got {:?}", out.stats());
        };
        let reports = run_reports(&session);
        assert_eq!(reports.len(), 1, "one report per run: {reports:?}");
        let r = &reports[0];
        assert_eq!(r.name, "verify/serial-memory");
        assert_eq!(r.verdict, "inconclusive");
        assert_eq!(r.get_metric("states"), Some(out.stats().states as f64));
        assert_eq!(param(r, "interrupt"), Some(reason.to_string().as_str()));
    }
    // `search` and `try_search` on a built system report the same way,
    // and the eager reference path says so.
    {
        let session = telemetry::TestSession::start();
        let sys = VerifySystem::new(small_serial()).lazy(false);
        let searched = sys.search(&opts(1));
        let tried = sys.try_search(&opts(1)).expect("no checkpoint involved");
        let reports = run_reports(&session);
        assert_eq!(reports.len(), 2, "one report per run: {reports:?}");
        for (r, out) in reports.iter().zip([&searched, &tried]) {
            assert_eq!(r.name, "verify/serial-memory");
            assert_eq!(r.verdict, verdict_str(out));
            assert_eq!(r.get_metric("states"), Some(out.stats().states as f64));
            assert_eq!(param(r, "expand"), Some("eager"));
        }
    }
}

#[test]
fn monitor_divergence_emits_structured_event() {
    let session = telemetry::TestSession::start();

    // The classic TSO litmus: both stores buffered, both loads read 0,
    // then the buffers drain — no serial reordering explains it.
    let p = StoreBufferTso::new(Params::new(2, 2, 1), 2);
    let mut runner = Runner::new(p.clone());
    let mut monitor = RunMonitor::new(&p);
    let mut take = |want: &dyn Fn(&Action) -> bool| {
        let t = runner
            .enabled()
            .into_iter()
            .find(|t| want(&t.action))
            .expect("transition enabled");
        runner.take(t);
    };
    take(&|a| a.op() == Some(Op::store(ProcId(1), BlockId(1), Value(1))));
    take(&|a| a.op() == Some(Op::store(ProcId(2), BlockId(2), Value(1))));
    take(&|a| a.op() == Some(Op::load(ProcId(1), BlockId(2), Value::BOTTOM)));
    take(&|a| a.op() == Some(Op::load(ProcId(2), BlockId(1), Value::BOTTOM)));
    take(&|a| matches!(a, Action::Internal("Drain", 1)));
    take(&|a| matches!(a, Action::Internal("Drain", 2)));

    let mut tripped_inline = false;
    for step in &runner.run().steps.clone() {
        if let MonitorStep::Violation(_) = monitor.feed(step) {
            tripped_inline = true;
            break;
        }
    }
    if !tripped_inline {
        assert!(monitor.finish().is_err(), "litmus must be rejected");
    }

    let events = session.events();
    let divergences: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            telemetry::Event::MonitorDivergence {
                step_index,
                symbol,
                detail,
            } => Some((*step_index, symbol.clone(), detail.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(divergences.len(), 1, "exactly one divergence: {events:?}");
    let (step_index, symbol, detail) = &divergences[0];
    assert!(*step_index < 6, "divergence within the 6-step litmus");
    assert!(!symbol.is_empty(), "offending symbol is named");
    assert!(!detail.is_empty(), "diagnosis is present");
    assert_eq!(
        telemetry::registry().get(telemetry::Metric::MonitorDivergences),
        1
    );
}
