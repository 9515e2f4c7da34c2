//! The traced run: per-layer costs measured from outside the program,
//! with no instrumentation added to it.
//!
//! * **protocol** — [`TimedProto`] delegates `Protocol + Symmetry` and
//!   times every `transitions_into`, `encode_state` and `sort_keys` call
//!   the product system makes.
//! * **expansion, admission, end-of-run check, frontier** — [`TracedSys`]
//!   delegates `TransitionSystem` to the `VerifySystem` and is driven
//!   through the public engines (`bfs_controlled` at one thread,
//!   `ws_search_controlled` above). It times each `expand_admitted` call,
//!   the `admit` callback passed through it, and each `violation` call,
//!   and counts admitted minus expanded states for the frontier.
//! * **observer, checker, encode, canon, seen-set insert** — these run
//!   inside `expand_admitted`, so after the search a uniform sample of
//!   reached states is re-expanded by hand: `Observer::step`,
//!   `ScChecker::step`, both `canonical_encoding`s,
//!   `VerifySystem::canonical_encoding_of` and `StripedSeen::insert_batch`
//!   are timed per candidate and scaled by the candidate count.
//! * the program's own telemetry counters (`symmetry.*`,
//!   `mc.clones_avoided`) are read as counts only.
//!
//! The expand time is then split as protocol + admit (measured) +
//! observer + checker + seal (sampled; seal is encode without symmetry,
//! the full canonicalization with it). What is left, `expand.self`, is
//! the materialization and scratch work of the lazy path plus whatever
//! the sampled estimates miss; it is reported as it comes out, negative
//! included.

use crate::cells::{self, Cell, CellRun};
use crate::{base_record, num};
use sc_verify::checker::ScChecker;
use sc_verify::descriptor::{IdCanon, Symbol};
use sc_verify::mc::{
    bfs_controlled, ws_search_controlled, ControlledSearch, ExpandScratch, Fingerprinter, Outcome,
    RejectReason, RunControl, SearchResult, StripedSeen, TransitionSystem, VerifyState,
    VerifySystem,
};
use sc_verify::observer::Observer;
use sc_verify::protocol::{Action, LocId, Protocol, StOrderPolicy, Step, Symmetry, Transition};
use sc_verify::telemetry::{self, Json, Metric, NoopSink};
use sc_verify::types::{Params, SortKeyBuf, SymDim, SymDims, SymPerm, Trace};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Reached states kept for the replay.
const SAMPLE: usize = 256;
/// Replay passes over the sample; more passes average out cold caches.
const REPLAY_REPS: usize = 3;

/// A relaxed atomic accumulator.
#[derive(Default)]
struct Acc(AtomicU64);

impl Acc {
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }
    fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Call counts and times of the protocol layer.
#[derive(Default)]
struct ProtoTimes {
    trans_ns: Acc,
    trans_calls: Acc,
    trans_out: Acc,
    encode_ns: Acc,
    encode_calls: Acc,
    sort_ns: Acc,
    sort_calls: Acc,
}

/// A protocol that delegates everything and times the calls the product
/// system makes per candidate.
pub struct TimedProto<P> {
    inner: P,
    times: ProtoTimes,
}

impl<P: Protocol> Protocol for TimedProto<P> {
    type State = P::State;

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn params(&self) -> Params {
        self.inner.params()
    }
    fn locations(&self) -> u32 {
        self.inner.locations()
    }
    fn initial(&self) -> P::State {
        self.inner.initial()
    }
    fn transitions(&self, state: &P::State) -> Vec<Transition<P::State>> {
        let mut out = Vec::new();
        self.transitions_into(state, &mut out);
        out
    }
    fn transitions_into(&self, state: &P::State, out: &mut Vec<Transition<P::State>>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.transitions_into(state, out);
        self.times.trans_ns.add(ns_since(t));
        self.times.trans_calls.add(1);
        self.times.trans_out.add((out.len() - before) as u64);
    }
    fn st_order_policy(&self) -> StOrderPolicy {
        self.inner.st_order_policy()
    }
}

impl<P: Symmetry> Symmetry for TimedProto<P> {
    fn symmetry_dims(&self) -> SymDims {
        self.inner.symmetry_dims()
    }
    fn permute_state(&self, s: &P::State, perm: &SymPerm) -> P::State {
        self.inner.permute_state(s, perm)
    }
    fn permute_loc(&self, loc: LocId, perm: &SymPerm) -> LocId {
        self.inner.permute_loc(loc, perm)
    }
    fn encode_state(&self, s: &P::State, out: &mut Vec<u64>) {
        let t = Instant::now();
        self.inner.encode_state(s, out);
        self.times.encode_ns.add(ns_since(t));
        self.times.encode_calls.add(1);
    }
    fn sort_keys(&self, s: &P::State, dim: SymDim, keys: &mut SortKeyBuf) -> Option<usize> {
        let t = Instant::now();
        let r = self.inner.sort_keys(s, dim, keys);
        self.times.sort_ns.add(ns_since(t));
        self.times.sort_calls.add(1);
        r
    }
}

type Sys<P> = VerifySystem<TimedProto<P>>;
type State<P> = VerifyState<<P as Protocol>::State>;

/// A transition system that delegates to the product system and times the
/// engine-facing calls.
struct TracedSys<'a, P: Symmetry> {
    sys: &'a Sys<P>,
    expand_ns: Acc,
    expand_calls: Acc,
    candidates: Acc,
    admit_ns: Acc,
    admit_yes: Acc,
    violation_ns: Acc,
    violation_calls: Acc,
    rejects: Acc,
    frontier: AtomicI64,
    peak_frontier: AtomicI64,
    offered: AtomicU64,
    sample: Mutex<Vec<(State<P>, u128)>>,
    seed: u64,
}

impl<'a, P: Symmetry> TracedSys<'a, P> {
    fn new(sys: &'a Sys<P>, seed: u64) -> Self {
        TracedSys {
            sys,
            expand_ns: Acc::default(),
            expand_calls: Acc::default(),
            candidates: Acc::default(),
            admit_ns: Acc::default(),
            admit_yes: Acc::default(),
            violation_ns: Acc::default(),
            violation_calls: Acc::default(),
            rejects: Acc::default(),
            frontier: AtomicI64::new(0),
            peak_frontier: AtomicI64::new(0),
            offered: AtomicU64::new(0),
            sample: Mutex::new(Vec::with_capacity(SAMPLE)),
            seed,
        }
    }

    fn frontier_add(&self, delta: i64) {
        let now = self.frontier.fetch_add(delta, Relaxed) + delta;
        self.peak_frontier.fetch_max(now, Relaxed);
    }

    /// Reservoir sampling (algorithm R) over every admitted state, with
    /// the replacement slot drawn from the seed and the offer index.
    fn offer(&self, s: &State<P>, fp: u128) {
        let i = self.offered.fetch_add(1, Relaxed);
        let slot = if (i as usize) < SAMPLE {
            None
        } else {
            let j = (splitmix(self.seed ^ i) % (i + 1)) as usize;
            if j >= SAMPLE {
                return;
            }
            Some(j)
        };
        let mut sample = self.sample.lock().expect("a sampling thread panicked");
        match slot {
            Some(j) if j < sample.len() => sample[j] = (s.clone(), fp),
            _ if sample.len() < SAMPLE => sample.push((s.clone(), fp)),
            _ => {}
        }
    }
}

impl<P> TransitionSystem for TracedSys<'_, P>
where
    P: Symmetry,
    P::State: Send + 'static,
{
    type State = State<P>;
    type Label = Action;
    type Violation = RejectReason;

    fn initial(&self) -> State<P> {
        self.frontier_add(1);
        self.sys.initial()
    }

    fn successors(&self, s: &State<P>) -> Vec<(Action, State<P>)> {
        self.sys.successors(s)
    }

    fn successors_into(&self, s: &State<P>, out: &mut Vec<(Action, State<P>)>) {
        self.sys.successors_into(s, out)
    }

    fn violation(&self, s: &State<P>) -> Option<RejectReason> {
        let t = Instant::now();
        let v = self.sys.violation(s);
        self.violation_ns.add(ns_since(t));
        self.violation_calls.add(1);
        if v.is_some() {
            self.rejects.add(1);
        }
        v
    }

    fn expand_scratch(&self) -> ExpandScratch {
        self.sys.expand_scratch()
    }

    fn expand_admitted(
        &self,
        s: &State<P>,
        scratch: &mut ExpandScratch,
        fper: &Fingerprinter,
        admit: &mut dyn FnMut(&[u128], &mut Vec<bool>),
        out: &mut Vec<(Action, State<P>, u128)>,
    ) {
        let before = out.len();
        let (mut admit_ns, mut probed, mut yes) = (0u64, 0u64, 0u64);
        let start = Instant::now();
        {
            let mut timed_admit = |fps: &[u128], keep: &mut Vec<bool>| {
                let t = Instant::now();
                admit(fps, keep);
                admit_ns += ns_since(t);
                probed += fps.len() as u64;
                yes += keep.iter().filter(|k| **k).count() as u64;
            };
            self.sys
                .expand_admitted(s, scratch, fper, &mut timed_admit, out);
        }
        self.expand_ns.add(ns_since(start));
        self.expand_calls.add(1);
        self.admit_ns.add(admit_ns);
        self.candidates.add(probed);
        self.admit_yes.add(yes);
        // Admitted minus expanded: this state leaves the frontier, each
        // distinct new fingerprint joins it (a within-expansion duplicate
        // passes the probe twice but is inserted once).
        let new = &out[before..];
        let distinct = (0..new.len())
            .filter(|&i| new[..i].iter().all(|x| x.2 != new[i].2))
            .count();
        self.frontier_add(distinct as i64 - 1);
        for (_, t, fp) in new {
            self.offer(t, *fp);
        }
    }
}

/// Per-candidate costs of the layers inside `expand_admitted`, from the
/// hand replay of the sample.
#[derive(Default)]
struct Replay {
    /// Candidate transitions replayed.
    candidates: u64,
    /// Copies of the parent's observer (every candidate) and checker
    /// (candidates that emit symbols): fresh clones, as a slot emptied by
    /// an admitted candidate pays, and `clone_from` into a slot still
    /// holding an earlier copy.
    clone_ns: u64,
    clone_from_ns: u64,
    observer_ns: u64,
    symbols: u64,
    checker_ns: u64,
    encode_ns: u64,
    /// Sample states sealed through `canonical_encoding_of`.
    sealed: u64,
    /// The seal less the component clone and the identity
    /// observer/checker encoding: protocol encoding and orbit minimum.
    canon_ns: u64,
    /// 128-bit fingerprints of the sample states.
    fingerprint_ns: u64,
    fingerprinted: u64,
    /// Words of the stored encodings of the sample states.
    words: u64,
    states: u64,
    insert_ns: u64,
    inserted: u64,
}

fn replay<P>(sys: &Sys<P>, sample: &[(State<P>, u128)], admitted: usize, seed: u64) -> Replay
where
    P: Symmetry,
    P::State: Send + 'static,
{
    let protocol = &sys.protocol().inner;
    let symmetric = sys.symmetry_group_order() > 1;
    let mut r = Replay::default();
    let mut trans = Vec::new();
    let (mut obs_slots, mut chk_slots): (Vec<Observer>, Vec<ScChecker>) = (Vec::new(), Vec::new());
    let mut syms: Vec<Vec<Symbol>> = Vec::new();
    let mut enc = Vec::new();
    let fper = Fingerprinter::from_seeds([seed, !seed, seed ^ 0x5555, seed.rotate_left(17)]);
    for (s, _) in sample {
        r.words += s.encoding().len() as u64;
        r.states += 1;
    }
    for _ in 0..REPLAY_REPS {
        for (s, _) in sample {
            if s.error.is_some() {
                continue; // rejection is absorbing: no successors
            }
            trans.clear();
            protocol.transitions_into(&s.proto, &mut trans);
            let steps: Vec<Step> = trans
                .drain(..)
                .map(|t| Step {
                    action: t.action,
                    tracking: t.tracking,
                })
                .collect();
            let n = steps.len();
            r.candidates += n as u64;

            let t = Instant::now();
            let mut obs: Vec<Observer> = (0..n).map(|_| s.obs.clone()).collect();
            r.clone_ns += ns_since(t);
            while obs_slots.len() < n {
                obs_slots.push(s.obs.clone());
            }
            let t = Instant::now();
            for slot in &mut obs_slots[..n] {
                slot.clone_from(&s.obs);
            }
            r.clone_from_ns += ns_since(t);
            syms.iter_mut().for_each(Vec::clear);
            syms.resize_with(n.max(syms.len()), Vec::new);
            let t = Instant::now();
            for i in 0..n {
                obs[i].step(&steps[i], &mut syms[i]);
            }
            r.observer_ns += ns_since(t);
            r.symbols += syms[..n].iter().map(|v| v.len() as u64).sum::<u64>();

            // Like the lazy path, only candidates that emit symbols get a
            // checker copy; the others share the parent's.
            let t = Instant::now();
            let mut chks: Vec<Option<ScChecker>> = (0..n)
                .map(|i| (!syms[i].is_empty()).then(|| s.chk.clone()))
                .collect();
            r.clone_ns += ns_since(t);
            while chk_slots.len() < n {
                chk_slots.push(s.chk.clone());
            }
            let t = Instant::now();
            for (i, slot) in chk_slots[..n].iter_mut().enumerate() {
                if !syms[i].is_empty() {
                    slot.clone_from(&s.chk);
                }
            }
            r.clone_from_ns += ns_since(t);
            let t = Instant::now();
            for i in 0..n {
                if let Some(c) = &mut chks[i] {
                    for sym in &syms[i] {
                        if c.step(sym).is_err() {
                            break;
                        }
                    }
                }
            }
            r.checker_ns += ns_since(t);

            let base = s.obs.location_count();
            let t = Instant::now();
            for i in 0..n {
                enc.clear();
                let mut ids = IdCanon::new(base);
                obs[i].canonical_encoding(&mut enc, &mut ids);
                chks[i]
                    .as_ref()
                    .unwrap_or(&s.chk)
                    .canonical_encoding(&mut enc, &mut ids);
            }
            r.encode_ns += ns_since(t);

            // Hashing a product state is hash-identical to the
            // fingerprint the lazy path takes of each candidate.
            let t = Instant::now();
            std::hint::black_box(fper.fp(s));
            r.fingerprint_ns += ns_since(t);
            r.fingerprinted += 1;

            if symmetric {
                // `canonical_encoding_of` clones the components before
                // sealing; time a clone alone and take it off.
                let t = Instant::now();
                let copy = (s.proto.clone(), s.obs.clone(), s.chk.clone());
                let clone_ns = ns_since(t);
                drop(copy);
                let t = Instant::now();
                std::hint::black_box(sys.canonical_encoding_of(s));
                let seal = ns_since(t).saturating_sub(clone_ns);
                let t = Instant::now();
                enc.clear();
                let mut ids = IdCanon::new(base);
                s.obs.canonical_encoding(&mut enc, &mut ids);
                s.chk.canonical_encoding(&mut enc, &mut ids);
                let identity = ns_since(t);
                r.sealed += 1;
                r.canon_ns += seal.saturating_sub(identity);
            }
        }
    }

    // Authoritative admission into a seen-set already holding as many
    // fingerprints as the search admitted.
    let seen = StripedSeen::new(16);
    let mut x = seed;
    for _ in 0..admitted {
        x = splitmix(x);
        seen.insert((x as u128) << 64 | splitmix(x ^ 1) as u128);
    }
    let mut by_shard = vec![Vec::new(); seen.shard_count()];
    for (_, fp) in sample {
        by_shard[seen.shard_of(*fp)].push(*fp);
    }
    let mut flags = Vec::new();
    let t = Instant::now();
    for (shard, fps) in by_shard.iter().enumerate() {
        if !fps.is_empty() {
            seen.insert_batch(shard, fps, &mut flags);
        }
    }
    r.insert_ns = ns_since(t);
    r.inserted = sample.len() as u64;
    r
}

fn to_outcome<S>(r: ControlledSearch<S, Action, RejectReason>) -> Outcome {
    match r {
        ControlledSearch::Finished(SearchResult::Safe(stats)) => Outcome::Verified { stats },
        ControlledSearch::Finished(SearchResult::Bounded(stats)) => Outcome::Bounded { stats },
        ControlledSearch::Finished(SearchResult::Unsafe(ce, stats)) => {
            let ops: Vec<_> = ce.path.iter().filter_map(Action::op).collect();
            Outcome::Violation {
                run: ce.path,
                trace: Trace::from_ops(ops),
                reason: ce.reason,
                stats,
            }
        }
        ControlledSearch::Interrupted { reason, .. } => {
            panic!("an unlimited search was interrupted: {reason}")
        }
    }
}

/// The traced run of one cell.
pub struct Traced {
    pub seed: u64,
}

impl CellRun for Traced {
    type Output = Json;

    fn run<P>(self, cell: &Cell, make: impl Fn() -> P) -> Json
    where
        P: Symmetry + Clone + Sync,
        P::State: Send + Sync + 'static,
    {
        // Counters only: no sink output, no flight recorder.
        telemetry::install(Box::new(NoopSink));
        let opts = cell.options();
        let timed = TimedProto {
            inner: make(),
            times: ProtoTimes::default(),
        };
        let group_start = Instant::now();
        let system = VerifySystem::with_symmetry(timed, cell.symmetry);
        let group_build_s = group_start.elapsed().as_secs_f64();
        let traced = TracedSys::new(&system, self.seed);

        let search_start = Instant::now();
        let (result, workers) = if opts.threads > 1 {
            ws_search_controlled(
                &traced,
                opts.bfs,
                opts.threads,
                opts.batch_size,
                &RunControl::unlimited(),
                None,
            )
        } else {
            let r = bfs_controlled(&traced, opts.bfs, &RunControl::unlimited(), None);
            (r, Vec::new())
        };
        let out = to_outcome(result);
        let search_s = search_start.elapsed().as_secs_f64();
        let check = cells::check(cell, &system.protocol().inner, &out);
        let verdict_s = search_start.elapsed().as_secs_f64();
        let witness_repeat_s = cells::recheck_witness_s(&system.protocol().inner, &out);

        // Read every counter before the replay adds to them.
        let reg = telemetry::registry();
        let refine_exact = reg.get(Metric::SymRefineExact);
        let residual = reg.get(Metric::SymResidualEnum);
        let seal_hits = reg.get(Metric::SealCacheHits);
        let seal_misses = reg.get(Metric::SealCacheMisses);
        let clones_avoided = reg.get(Metric::McClonesAvoided);
        telemetry::disable();
        let pt = &system.protocol().times;
        let (trans_ns, trans_calls, trans_out) =
            (pt.trans_ns.get(), pt.trans_calls.get(), pt.trans_out.get());
        let (encode_ns, encode_calls) = (pt.encode_ns.get(), pt.encode_calls.get());
        let (sort_ns, sort_calls) = (pt.sort_ns.get(), pt.sort_calls.get());
        let steals: usize = workers.iter().map(|w| w.steals).sum();
        let idle: usize = workers.iter().map(|w| w.idle_spins).sum();
        let ws_expanded: usize = workers.iter().map(|w| w.expanded).sum();

        let t = &traced;
        let candidates = t.candidates.get();
        let sample = std::mem::take(&mut *t.sample.lock().expect("a search worker panicked"));
        let r = replay(&system, &sample, out.stats().states, self.seed);

        // Split the measured expand time: protocol and admit as measured,
        // the rest from the replay's per-candidate costs.
        let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
        let scale = |x: u64, n: u64| per(x, n) * candidates as f64 / 1e9;
        let expand_s = t.expand_ns.get() as f64 / 1e9;
        let protocol_s = trans_ns as f64 / 1e9;
        let admit_s = t.admit_ns.get() as f64 / 1e9;
        // A slot is emptied when its candidate is admitted, so about the
        // admitted share of copies are fresh clones.
        let fresh = per(t.admit_yes.get(), candidates);
        let copy_s = fresh * scale(r.clone_ns, r.candidates)
            + (1.0 - fresh) * scale(r.clone_from_ns, r.candidates);
        let observer_s = scale(r.observer_ns, r.candidates);
        let checker_s = scale(r.checker_ns, r.candidates);
        // Without symmetry a seal is the identity encoding. With it, the
        // lazy path keys its seal cache by the identity encoding only when
        // the group has 4 or more elements, and a cache hit skips the
        // orbit minimum.
        let encode_s = scale(r.encode_ns, r.candidates);
        let canon_s = scale(r.canon_ns, r.sealed);
        let hit_share = per(seal_hits, seal_hits + seal_misses);
        let seal_s = match system.symmetry_group_order() {
            1 => encode_s,
            g if g >= 4 => encode_s + (1.0 - hit_share) * canon_s,
            _ => canon_s,
        };
        let fingerprint_s = scale(r.fingerprint_ns, r.fingerprinted);
        let self_s = expand_s
            - protocol_s
            - admit_s
            - copy_s
            - observer_s
            - checker_s
            - seal_s
            - fingerprint_s;
        let violation_s = t.violation_ns.get() as f64 / 1e9;
        let worker_s = search_s * opts.threads as f64;
        let witnesses = u64::from(check.genuine.is_some());

        // Ratios are summed over a workload's cells before dividing.
        let f = |x: u64| x as f64;
        let ratios: Vec<(&str, f64, f64)> = vec![
            ("protocol.step_ns", f(trans_ns), f(trans_calls)),
            ("protocol.succ_per_state", f(trans_out), f(trans_calls)),
            ("protocol.encode_state_ns", f(encode_ns), f(encode_calls)),
            ("protocol.sort_keys_ns", f(sort_ns), f(sort_calls)),
            ("observer.step_ns", f(r.observer_ns), f(r.candidates)),
            ("observer.symbols_per_step", f(r.symbols), f(r.candidates)),
            ("checker.step_ns", f(r.checker_ns), f(r.candidates)),
            (
                "checker.end_ns",
                f(t.violation_ns.get()),
                f(t.violation_calls.get()),
            ),
            ("encode.ns", f(r.encode_ns), f(r.candidates)),
            ("encode.words_per_state", f(r.words), f(r.states)),
            ("canon.ns", f(r.canon_ns), f(r.sealed)),
            (
                "canon.refine_exact_share",
                f(refine_exact),
                f(refine_exact + residual),
            ),
            (
                "canon.seal_cache_hit_share",
                f(seal_hits),
                f(seal_hits + seal_misses),
            ),
            ("fingerprint.ns", f(r.fingerprint_ns), f(r.fingerprinted)),
            ("admit.ns", f(t.admit_ns.get()), f(candidates)),
            ("admit.yield", f(t.admit_yes.get()), f(candidates)),
            ("seen.insert_ns", f(r.insert_ns), f(r.inserted)),
            ("expand.ns", f(t.expand_ns.get()), f(t.expand_calls.get())),
            ("expand.self_ns", self_s * 1e9, f(t.expand_calls.get())),
            (
                "materialize.clones_avoided_share",
                f(clones_avoided),
                f(candidates),
            ),
            ("ws.idle_share", idle as f64, (idle + ws_expanded) as f64),
            ("witness.check_ns", witness_repeat_s * 1e9, f(witnesses)),
            ("witness.len", check.witness_len as f64, f(witnesses)),
        ];
        // Totals are summed over a workload's cells.
        let totals: Vec<(&str, f64)> = vec![
            ("checker.rejects", f(t.rejects.get())),
            ("ws.steals", steals as f64),
            ("setup.group_build_s", group_build_s),
            ("expand.total_s", expand_s),
            ("expand.protocol_s", protocol_s),
            ("expand.admit_s", admit_s),
            ("expand.copy_s", copy_s),
            ("expand.observer_s", observer_s),
            ("expand.checker_s", checker_s),
            ("expand.seal_s", seal_s),
            ("expand.fingerprint_s", fingerprint_s),
            ("expand.self_s", self_s),
            ("checker.end_s", violation_s),
            ("search.other_s", worker_s - expand_s - violation_s),
            ("alloc.deferred_s", check.witness_check_s - witness_repeat_s),
        ];
        let ratios = Json::obj(
            ratios
                .into_iter()
                .map(|(k, n, d)| (k.to_string(), Json::Arr(vec![num(n), num(d)]))),
        );
        let totals = Json::obj(totals.into_iter().map(|(k, v)| (k.to_string(), num(v))));

        let mut rec = base_record(cell, &check, out.stats().states);
        rec.extend([
            ("search_s".into(), num(search_s)),
            ("verdict_s".into(), num(verdict_s)),
            (
                "peak_frontier".into(),
                num(t.peak_frontier.load(Relaxed) as f64),
            ),
            ("ratios".into(), ratios),
            ("totals".into(), totals),
        ]);
        Json::obj(rec)
    }
}
