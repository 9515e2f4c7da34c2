//! The search core: asynchronous work-stealing reachability, with
//! sequential BFS as its one-worker case.
//!
//! Every search in this crate runs the worker loop below:
//! [`ws_search_controlled`] at any thread count, [`bfs_controlled`] as its
//! one-worker shorthand, [`ws_search`] without run control, and
//! `VerifySystem::try_search` on top of them. Admission, run control, the
//! checkpoint drain, counterexample reconstruction and telemetry
//! publishing therefore exist once. The loop is built for product states
//! that cost tens of microseconds each:
//!
//! * **No barrier.** Work lives in fixed-size *chunks* of states on
//!   per-worker deques. Workers pop locally from the back (LIFO — hot
//!   caches), and steal whole chunks from the *front* of a victim's deque
//!   (FIFO — steals take the oldest, largest-subtree work, the classic
//!   Cilk/crossbeam discipline at batch granularity). Deques are
//!   mutex-guarded `VecDeque`s: operations are chunk-granular, so each
//!   lock acquisition amortizes over an entire chunk of states —
//!   contention is structurally negligible, no lock-free deque needed.
//! * **Batched seen-set claiming.** Successor fingerprints are buffered
//!   per seen-set stripe and inserted through
//!   [`StripedSeen::insert_batch`] — one lock acquisition per batch
//!   (up to `batch` fingerprints), not per state.
//! * **Arena-style reuse.** Each worker owns long-lived successor and
//!   stripe buffers that are drained and reused, so steady-state
//!   expansion does per-successor pushes into pre-grown vectors instead
//!   of allocating fresh frontier vectors.
//!
//! **One worker is sequential BFS.** Three rules, each keyed on the worker
//! count, make a one-worker run reproduce FIFO breadth-first search state
//! for state: the same admission order, hence the same representatives,
//! state counts and shortest counterexamples.
//!
//! 1. *FIFO pops.* The lone worker takes chunks from the front of its
//!    deque. Chunks enter in admission order, so states are expanded level
//!    by level. More workers keep LIFO pops.
//! 2. *One seen stripe.* Buffered successors are claimed stripe by
//!    stripe, and which stripe a state lands in follows the random
//!    fingerprint seeds. A single stripe makes admission order the
//!    generation order, the same on every run.
//! 3. *Flush after each expansion.* The lone worker claims its buffered
//!    successors before it expands the next state, so the next sibling's
//!    admission probe already sees them and no duplicate is materialized
//!    only to be rejected. A violation or the state cap also stops the
//!    search before another expansion, and run control is polled once per
//!    expansion.
//!
//! The order matters for more than shortest counterexamples: canonical
//! equality is not a congruence (DESIGN.md §6), so the number of reachable
//! classes depends on which representative of a class is admitted first.
//! Only a fixed order makes one-worker counts exact. With more workers the
//! schedule is free, and counts may drift by a few percent.
//!
//! **Termination detection** uses a pending-chunk count plus a steal
//! epoch: `pending` counts every chunk from the moment it is enqueued
//! until its last successor is flushed, so `pending == 0` proves global
//! quiescence (no queued chunk, no in-flight expansion, no buffered
//! successor); the `epoch` counter, bumped on every enqueue, lets idle
//! workers wait cheaply and re-scan victims only when new work has
//! actually appeared. Workers also count idle sweeps in
//! [`WorkerStats::idle_spins`], making scheduler health observable.
//!
//! **Counterexamples** survive the asynchrony: each worker logs
//! `(child-fp, parent-fp, label)` for every state *it* admitted (the
//! seen-set admits each state exactly once, so logs never conflict), and
//! on a violation the per-worker logs are merged and the fingerprint
//! chain walked back to the initial state. Paths are valid runs; with one
//! worker they are shortest, with more they need not be.
//!
//! **Verdict determinism.** `Safe`/`Bounded`/`Unsafe` do not depend on
//! the worker count whenever the limits are not the deciding factor: an
//! exhaustive search visits every reachable class, and a violation
//! reachable within the limits is found by *some* worker before
//! quiescence. Only searches truncated by `max_states`/`max_depth` may
//! differ in which frontier they saw. `tests/parallel_mc.rs` pins this
//! battery down across the protocol zoo.
//!
//! **Interrupts** ([`ws_search_controlled`]): budgets and cancellation are
//! polled at chunk and flush boundaries, never per successor. A tripped
//! worker raises a shared interrupt byte; every worker then *drains to a
//! consistent point* — flushes its dirty stripe buffers, hands off its
//! output chunk, pushes the unprocessed remainder of its input chunk back
//! onto its deque (the lone worker puts it at the front, so its deque
//! stays in BFS order) — and exits. At that point each expanded state has
//! all successors admitted and every admitted-unexpanded state sits in
//! some deque, so the main thread can snapshot the queues + seen-set +
//! parent logs into a [`SearchCheckpoint`] from which a later run
//! continues with verdict- and state-count parity.

use crate::control::{code_to_reason, reason_to_code, RunControl};
use crate::mc::{
    BfsOptions, ControlledSearch, Counterexample, ExpandScratch, Fingerprinter, McStats,
    SearchCheckpoint, SearchResult, TransitionSystem,
};
use crate::seen::StripedSeen;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// States per deque chunk and fingerprints per seen-set batch when the
/// caller does not choose (the `VerifyOptions` default too).
pub const DEFAULT_BATCH: usize = 128;

/// Per-worker counters, exposed for benches and the soak test.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// States this worker expanded (generated successors of).
    pub expanded: usize,
    /// Transitions this worker explored.
    pub transitions: usize,
    /// New states this worker admitted into the seen-set.
    pub admitted: usize,
    /// Chunks successfully stolen from other workers.
    pub steals: usize,
    /// Seen-set lock acquisitions (batch inserts).
    pub seen_batches: usize,
    /// Idle sweeps that found no local or stealable work.
    pub idle_spins: usize,
}

/// A buffered successor awaiting its stripe's batch insert.
struct PendingSucc<T: TransitionSystem> {
    fp: u128,
    parent_fp: u128,
    depth: usize,
    label: T::Label,
    state: T::State,
}

type Chunk<T> = Vec<(<T as TransitionSystem>::State, u128, usize)>;

struct Shared<'a, T: TransitionSystem> {
    sys: &'a T,
    opts: BfsOptions,
    ctrl: &'a RunControl,
    fper: Fingerprinter,
    seen: StripedSeen,
    queues: Vec<Mutex<VecDeque<Chunk<T>>>>,
    /// Exactly one worker: the search follows the sequential-BFS rules
    /// (module docs).
    solo: bool,
    /// Chunks enqueued but not yet fully expanded-and-flushed.
    pending: AtomicUsize,
    /// Bumped on every enqueue; idle workers re-scan when it moves.
    epoch: AtomicU64,
    stop: AtomicBool,
    /// Nonzero = an [`InterruptReason`](crate::control::InterruptReason)
    /// code; workers drain and exit when they observe it.
    interrupt: AtomicU8,
    states: AtomicU64,
    depth_max: AtomicUsize,
    state_limited: AtomicBool,
    depth_limited: AtomicBool,
    queued_items: AtomicUsize,
    peak_frontier: AtomicUsize,
    found: Mutex<Option<(u128, T::Violation)>>,
    chunk_size: usize,
    batch: usize,
}

impl<T: TransitionSystem> Shared<'_, T> {
    /// Enqueue a chunk on `worker`'s deque: at the back, or at the front
    /// when the chunk must be expanded before everything already queued.
    fn push_chunk(&self, worker: usize, chunk: Chunk<T>, front: bool) {
        let items = chunk.len();
        self.pending.fetch_add(1, Ordering::SeqCst);
        let q = self.queued_items.fetch_add(items, Ordering::Relaxed) + items;
        self.peak_frontier.fetch_max(q, Ordering::Relaxed);
        if scv_telemetry::enabled() {
            scv_telemetry::record(scv_telemetry::Hist::McQueueDepth, q as u64);
            scv_telemetry::recorder::set_live(
                scv_telemetry::recorder::LiveGauge::FrontierDepth,
                q as u64,
            );
        }
        if scv_telemetry::recorder_enabled() {
            scv_telemetry::recorder::counter(
                scv_telemetry::recorder::CounterTrack::FrontierDepth,
                q as f64,
            );
        }
        let mut queue = self.queues[worker].lock().unwrap();
        if front {
            queue.push_front(chunk);
        } else {
            queue.push_back(chunk);
        }
        drop(queue);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Hand a worker's output chunk, if non-empty, to the back of its
    /// deque (new work stays with its owner; distribution happens only
    /// through steals) and leave a fresh buffer in its place.
    fn hand_off(&self, worker: usize, out: &mut Chunk<T>) {
        if !out.is_empty() {
            let chunk = std::mem::replace(out, Vec::with_capacity(self.chunk_size));
            self.push_chunk(worker, chunk, false);
        }
    }

    /// Pop from our own deque — the back, or the front for a lone worker
    /// (FIFO keeps it in BFS order) — else steal from the front of another
    /// worker's (round-robin sweep from our right neighbour).
    fn obtain_chunk(&self, worker: usize, stats: &mut WorkerStats) -> Option<Chunk<T>> {
        let own = {
            let mut queue = self.queues[worker].lock().unwrap();
            if self.solo {
                queue.pop_front()
            } else {
                queue.pop_back()
            }
        };
        if let Some(chunk) = own {
            self.queued_items.fetch_sub(chunk.len(), Ordering::Relaxed);
            return Some(chunk);
        }
        let n = self.queues.len();
        for i in 1..n {
            let victim = (worker + i) % n;
            if let Some(chunk) = self.queues[victim].lock().unwrap().pop_front() {
                self.queued_items.fetch_sub(chunk.len(), Ordering::Relaxed);
                stats.steals += 1;
                scv_telemetry::add(scv_telemetry::Metric::McSteals, 1);
                if scv_telemetry::recorder_enabled() {
                    scv_telemetry::recorder::instant(
                        scv_telemetry::recorder::InstantKind::Steal,
                        chunk.len() as u64,
                    );
                }
                return Some(chunk);
            }
        }
        None
    }

    /// Poll the run control at a batch boundary; on a trip, raise the
    /// shared interrupt flag (first tripper wins).
    fn check_trip(&self, ticks: &mut u32) {
        if self.interrupt.load(Ordering::Relaxed) != 0 {
            return;
        }
        if let Some(reason) = self
            .ctrl
            .trip(self.states.load(Ordering::Relaxed) as usize, ticks)
        {
            let _ = self.interrupt.compare_exchange(
                0,
                reason_to_code(reason),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }
}

/// One worker's append-only `(child, parent, label)` fingerprint log —
/// merged across workers only when a violation needs a counterexample or
/// an interrupt needs a checkpoint.
type ParentLog<L> = Vec<(u128, u128, L)>;

/// One worker's long-lived scratch space (the "successor arena"): every
/// vector here is drained and reused across chunks, so steady-state
/// expansion performs no frontier allocation at all. `expand` is the
/// system's own scratch (replay copies, encoding arena, seal cache for the
/// product system), threaded through every admission-gated expansion.
struct Scratch<T: TransitionSystem> {
    expand: ExpandScratch,
    admitted: Vec<(T::Label, T::State, u128)>,
    probe_order: Vec<(u32, u32)>,
    stripes: Vec<Vec<PendingSucc<T>>>,
    fp_scratch: Vec<u128>,
    flag_scratch: Vec<bool>,
    out_chunk: Chunk<T>,
    parent_log: ParentLog<T::Label>,
}

/// Flush every dirty stripe buffer. Returns `false` if a flush stopped
/// the search (violation or state cap), so the caller exits at once.
fn flush_dirty<T: TransitionSystem>(
    shared: &Shared<'_, T>,
    worker: usize,
    scratch: &mut Scratch<T>,
    stats: &mut WorkerStats,
) -> bool {
    for stripe in 0..scratch.stripes.len() {
        if !scratch.stripes[stripe].is_empty() {
            flush_stripe(shared, worker, stripe, scratch, stats);
            if shared.stop.load(Ordering::Relaxed) {
                return false;
            }
        }
    }
    true
}

fn worker_loop<T: TransitionSystem>(
    shared: &Shared<'_, T>,
    id: usize,
) -> (WorkerStats, ParentLog<T::Label>) {
    let mut stats = WorkerStats::default();
    if scv_telemetry::recorder_enabled() {
        scv_telemetry::recorder::set_worker(&format!("ws-{id}"));
    }
    let mut scratch = Scratch::<T> {
        expand: shared.sys.expand_scratch(),
        admitted: Vec::new(),
        probe_order: Vec::new(),
        stripes: (0..shared.seen.shard_count()).map(|_| Vec::new()).collect(),
        fp_scratch: Vec::new(),
        flag_scratch: Vec::new(),
        out_chunk: Vec::with_capacity(shared.chunk_size),
        parent_log: Vec::new(),
    };
    let mut ticks = 0u32;

    'main: loop {
        // At the top of the loop all scratch buffers are clean (flushed at
        // end of chunk), so exiting here is already a consistent point.
        if shared.stop.load(Ordering::Relaxed) || shared.interrupt.load(Ordering::Relaxed) != 0 {
            break;
        }
        let Some(chunk) = shared.obtain_chunk(id, &mut stats) else {
            if shared.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            // Quiesce until new work appears (epoch moves) or everything
            // drains. Spin briefly, then yield the core.
            stats.idle_spins += 1;
            scv_telemetry::add(scv_telemetry::Metric::McIdleSpins, 1);
            if scv_telemetry::recorder_enabled() {
                scv_telemetry::recorder::instant(
                    scv_telemetry::recorder::InstantKind::Idle,
                    stats.idle_spins as u64,
                );
            }
            let seen_epoch = shared.epoch.load(Ordering::Acquire);
            let mut spins = 0u32;
            while shared.epoch.load(Ordering::Acquire) == seen_epoch
                && shared.pending.load(Ordering::SeqCst) != 0
                && !shared.stop.load(Ordering::Relaxed)
                && shared.interrupt.load(Ordering::Relaxed) == 0
            {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            continue;
        };
        // One control poll per obtained chunk: the batch boundary that
        // keeps the per-state loop branch-cheap.
        shared.check_trip(&mut ticks);

        let mut idx = 0usize;
        while idx < chunk.len() {
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            if shared.interrupt.load(Ordering::Relaxed) != 0 {
                // Drain to a consistent point: admit everything already
                // buffered, hand off the output chunk, and put the
                // unprocessed tail of this chunk back on our deque so the
                // checkpoint frontier sees it. A lone worker puts the tail
                // in front of everything it admitted, keeping BFS order.
                if !flush_dirty(shared, id, &mut scratch, &mut stats) {
                    break 'main;
                }
                shared.hand_off(id, &mut scratch.out_chunk);
                let rest: Chunk<T> = chunk[idx..].to_vec();
                if !rest.is_empty() {
                    shared.push_chunk(id, rest, shared.solo);
                }
                shared.pending.fetch_sub(1, Ordering::SeqCst);
                break 'main;
            }
            let (state, fp, depth) = &chunk[idx];
            idx += 1;
            if *depth >= shared.opts.max_depth {
                // Visited but not expanded: the depth frontier is
                // non-empty, so the search is Bounded. The state was
                // queued like any other, so a checkpoint keeps it.
                shared.depth_limited.store(true, Ordering::Relaxed);
                continue;
            }
            stats.expanded += 1;
            // Admission gate: batch-probe the seen-set with successor
            // fingerprints so duplicates are rejected before the system
            // materializes them. The probe is a hint; `insert_batch` in
            // `flush_stripe` stays authoritative, so a racing worker
            // admitting the same state first costs only the one wasted
            // materialization.
            let mut admitted = std::mem::take(&mut scratch.admitted);
            admitted.clear();
            let mut n_cand = 0usize;
            {
                let probe_order = &mut scratch.probe_order;
                let mut admit = |fps: &[u128], keep: &mut Vec<bool>| {
                    n_cand += fps.len();
                    shared.seen.probe_many(fps, keep, probe_order);
                };
                shared.sys.expand_admitted(
                    state,
                    &mut scratch.expand,
                    &shared.fper,
                    &mut admit,
                    &mut admitted,
                );
            }
            stats.transitions += n_cand;
            if scv_telemetry::enabled() {
                scv_telemetry::add(scv_telemetry::Metric::McStatesExpanded, 1);
                scv_telemetry::add(scv_telemetry::Metric::McTransitions, n_cand as u64);
            }
            for (label, succ, sfp) in admitted.drain(..) {
                let stripe = shared.seen.shard_of(sfp);
                scratch.stripes[stripe].push(PendingSucc {
                    fp: sfp,
                    parent_fp: *fp,
                    depth: depth + 1,
                    label,
                    state: succ,
                });
                if scratch.stripes[stripe].len() >= shared.batch {
                    flush_stripe(shared, id, stripe, &mut scratch, &mut stats);
                    if shared.stop.load(Ordering::Relaxed) {
                        break 'main;
                    }
                    // A flush is the other batch boundary worth a poll.
                    shared.check_trip(&mut ticks);
                }
            }
            scratch.admitted = admitted;
            if shared.solo {
                // Rule 3: claim this expansion's successors before the
                // next one probes.
                if !flush_dirty(shared, id, &mut scratch, &mut stats) {
                    break 'main;
                }
                shared.check_trip(&mut ticks);
            }
        }
        // End of chunk: flush every dirty stripe, hand off any output
        // chunk, and only then retire the input chunk from `pending`.
        if !flush_dirty(shared, id, &mut scratch, &mut stats) {
            break 'main;
        }
        shared.hand_off(id, &mut scratch.out_chunk);
        shared.pending.fetch_sub(1, Ordering::SeqCst);
    }
    // Hand the worker's flight-recorder ring to the collector before the
    // scope joins us (TLS destructors may outlive the join).
    scv_telemetry::recorder::flush_worker();
    (stats, scratch.parent_log)
}

/// Batch-insert one stripe's buffered successors, then admit the new ones:
/// log parents, check the safety predicate, enforce limits, and enqueue
/// for expansion.
fn flush_stripe<T: TransitionSystem>(
    shared: &Shared<'_, T>,
    worker: usize,
    stripe: usize,
    scratch: &mut Scratch<T>,
    stats: &mut WorkerStats,
) {
    scratch.fp_scratch.clear();
    scratch.flag_scratch.clear();
    scratch
        .fp_scratch
        .extend(scratch.stripes[stripe].iter().map(|p| p.fp));
    let batch_new =
        shared
            .seen
            .insert_batch(stripe, &scratch.fp_scratch, &mut scratch.flag_scratch);
    stats.seen_batches += 1;
    if scv_telemetry::enabled() {
        scv_telemetry::add(scv_telemetry::Metric::McSeenBatches, 1);
        scv_telemetry::add(scv_telemetry::Metric::McStatesAdmitted, batch_new as u64);
        scv_telemetry::record(scv_telemetry::Hist::SeenBatchYield, batch_new as u64);
    }
    if scv_telemetry::recorder_enabled() {
        // `insert_batch` records the batch instant; the running total
        // (which only the search knows) becomes the seen-load counter.
        scv_telemetry::recorder::counter(
            scv_telemetry::recorder::CounterTrack::SeenStates,
            shared.states.load(Ordering::Relaxed) as f64 + batch_new as f64,
        );
    }

    let mut max_depth_seen = 0usize;
    for (i, pending) in scratch.stripes[stripe].drain(..).enumerate() {
        if !scratch.flag_scratch[i] {
            continue;
        }
        stats.admitted += 1;
        let total = shared.states.fetch_add(1, Ordering::Relaxed) + 1;
        max_depth_seen = max_depth_seen.max(pending.depth);
        scratch
            .parent_log
            .push((pending.fp, pending.parent_fp, pending.label));
        if let Some(v) = shared.sys.violation(&pending.state) {
            let mut found = shared.found.lock().unwrap();
            if found.is_none() {
                *found = Some((pending.fp, v));
            }
            shared.stop.store(true, Ordering::Relaxed);
            break;
        }
        if total as usize >= shared.opts.max_states {
            shared.state_limited.store(true, Ordering::Relaxed);
            shared.stop.store(true, Ordering::Relaxed);
            break;
        }
        scratch
            .out_chunk
            .push((pending.state, pending.fp, pending.depth));
        if scratch.out_chunk.len() >= shared.chunk_size {
            shared.hand_off(worker, &mut scratch.out_chunk);
        }
    }
    shared
        .depth_max
        .fetch_max(max_depth_seen, Ordering::Relaxed);
}

/// Mirror a finished search's aggregates into the telemetry gauges. The
/// counters stream during the run; the gauges describe the most recent
/// search.
fn publish_gauges(stats: &McStats, workers: &[WorkerStats], seen: &StripedSeen) {
    if !scv_telemetry::enabled() {
        return;
    }
    use scv_telemetry::set_gauge;
    set_gauge("mc.states", stats.states as f64);
    set_gauge("mc.depth", stats.depth as f64);
    set_gauge("mc.workers", stats.workers as f64);
    set_gauge("mc.peak_frontier", stats.peak_frontier as f64);
    set_gauge("mc.states_per_sec", stats.states_per_sec());
    set_gauge("mc.elapsed_secs", stats.elapsed.as_secs_f64());
    let loads = seen.stripe_loads();
    let max = loads.iter().copied().max().unwrap_or(0);
    let mean = loads.iter().sum::<usize>() as f64 / loads.len().max(1) as f64;
    set_gauge("seen.stripes", loads.len() as f64);
    set_gauge("seen.stripe_load_max", max as f64);
    set_gauge("seen.stripe_load_mean", mean);
    let idle: usize = workers.iter().map(|w| w.idle_spins).sum();
    set_gauge("mc.idle_spins", idle as f64);
}

/// The search core under a [`RunControl`], optionally resuming a prior
/// [`SearchCheckpoint`]. `threads` workers share one seen-set; with one
/// worker this is sequential BFS (module docs). `batch` is the number of
/// states per deque chunk and of fingerprints per seen-set batch. See the
/// module docs for the interrupt drain protocol.
#[allow(clippy::type_complexity)]
pub fn ws_search_controlled<T>(
    sys: &T,
    opts: BfsOptions,
    threads: usize,
    batch: usize,
    ctrl: &RunControl,
    resume: Option<SearchCheckpoint<T::State, T::Label>>,
) -> (
    ControlledSearch<T::State, T::Label, T::Violation>,
    Vec<WorkerStats>,
)
where
    T: TransitionSystem + Sync,
    T::Label: Send,
{
    let _t = scv_telemetry::timer(scv_telemetry::Phase::Search);
    if scv_telemetry::recorder_enabled() {
        scv_telemetry::recorder::set_worker("main");
    }
    let start = Instant::now();
    let threads = threads.max(1);
    let batch = batch.clamp(1, 4096);
    let fper = match &resume {
        Some(ck) => Fingerprinter::from_seeds(ck.seeds),
        None => Fingerprinter::new(),
    };

    let shared = Shared::<T> {
        sys,
        opts,
        ctrl,
        // Rule 2 (module docs): a lone worker claims through one stripe.
        seen: StripedSeen::new(if threads == 1 {
            1
        } else {
            (threads * 4).max(16)
        }),
        fper,
        queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        solo: threads == 1,
        pending: AtomicUsize::new(0),
        epoch: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        interrupt: AtomicU8::new(0),
        states: AtomicU64::new(0),
        depth_max: AtomicUsize::new(0),
        state_limited: AtomicBool::new(false),
        depth_limited: AtomicBool::new(false),
        queued_items: AtomicUsize::new(0),
        peak_frontier: AtomicUsize::new(0),
        found: Mutex::new(None),
        chunk_size: batch,
        batch,
    };

    let init_fp;
    let mut base_transitions = 0usize;
    let mut base_parents: ParentLog<T::Label> = Vec::new();
    match resume {
        Some(ck) => {
            init_fp = ck.init_fp;
            for fp in &ck.seen {
                shared.seen.insert(*fp);
            }
            shared.states.store(ck.states as u64, Ordering::Relaxed);
            shared.depth_max.store(ck.depth, Ordering::Relaxed);
            base_transitions = ck.transitions;
            base_parents = ck.parents;
            // Re-chunk the saved frontier round-robin across the deques so
            // every worker starts with local work (a lone worker gets it
            // all, in order).
            let mut w = 0usize;
            let mut frontier = ck.frontier;
            while !frontier.is_empty() {
                let take = frontier.len().min(batch);
                let chunk: Chunk<T> = frontier.drain(..take).collect();
                shared.push_chunk(w % threads, chunk, false);
                w += 1;
            }
        }
        None => {
            let init = sys.initial();
            if let Some(reason) = sys.violation(&init) {
                let stats = McStats {
                    states: 1,
                    workers: threads,
                    elapsed: start.elapsed(),
                    ..Default::default()
                };
                return (
                    ControlledSearch::Finished(SearchResult::Unsafe(
                        Counterexample {
                            path: Vec::new(),
                            reason,
                        },
                        stats,
                    )),
                    vec![WorkerStats::default(); threads],
                );
            }
            init_fp = shared.fper.fp(&init);
            shared.seen.insert(init_fp);
            shared.states.store(1, Ordering::Relaxed);
            shared.push_chunk(0, vec![(init, init_fp, 0usize)], false);
        }
    }

    let per_worker: Vec<(WorkerStats, ParentLog<T::Label>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|id| {
                let shared = &shared;
                scope.spawn(move || worker_loop(shared, id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut worker_stats = Vec::with_capacity(threads);
    let mut stats = McStats {
        states: shared.states.load(Ordering::Relaxed) as usize,
        transitions: base_transitions,
        depth: shared.depth_max.load(Ordering::Relaxed),
        workers: threads,
        peak_frontier: shared.peak_frontier.load(Ordering::Relaxed),
        ..Default::default()
    };
    for (ws, _) in &per_worker {
        stats.transitions += ws.transitions;
        stats.steals += ws.steals;
        stats.seen_batches += ws.seen_batches;
        worker_stats.push(*ws);
    }
    stats.elapsed = start.elapsed();
    publish_gauges(&stats, &worker_stats, &shared.seen);

    // Priority: a found violation or an exceeded scope limit outranks an
    // interrupt — those are real verdicts, the interrupt is only "stopped
    // early".
    let found = shared.found.lock().unwrap().take();
    if let Some((bad_fp, reason)) = found {
        let mut parents: HashMap<u128, (u128, T::Label)> = HashMap::new();
        for (child, parent, label) in base_parents {
            parents.insert(child, (parent, label));
        }
        for (_, log) in per_worker {
            for (child, parent, label) in log {
                parents.insert(child, (parent, label));
            }
        }
        let mut path = Vec::new();
        let mut cur = bad_fp;
        while let Some((parent, label)) = parents.get(&cur) {
            path.push(label.clone());
            cur = *parent;
        }
        path.reverse();
        return (
            ControlledSearch::Finished(SearchResult::Unsafe(
                Counterexample { path, reason },
                stats,
            )),
            worker_stats,
        );
    }
    let truncated = shared.state_limited.load(Ordering::Relaxed)
        || shared.depth_limited.load(Ordering::Relaxed);
    if truncated {
        return (
            ControlledSearch::Finished(SearchResult::Bounded(stats)),
            worker_stats,
        );
    }
    let tripped = shared.interrupt.load(Ordering::Relaxed);
    if tripped != 0 {
        // Every worker exited through a consistent point, so the deques
        // hold exactly the admitted-but-unexpanded states.
        let mut frontier: Vec<(T::State, u128, usize)> = Vec::new();
        for q in &shared.queues {
            for chunk in q.lock().unwrap().drain(..) {
                frontier.extend(chunk);
            }
        }
        let mut parents = base_parents;
        for (_, log) in per_worker {
            parents.extend(log);
        }
        let checkpoint = SearchCheckpoint {
            seeds: shared.fper.seeds(),
            init_fp,
            seen: shared.seen.fingerprints(),
            frontier,
            parents,
            states: stats.states,
            transitions: stats.transitions,
            depth: stats.depth,
        };
        return (
            ControlledSearch::Interrupted {
                reason: code_to_reason(tripped),
                checkpoint,
                stats,
            },
            worker_stats,
        );
    }
    (
        ControlledSearch::Finished(SearchResult::Safe(stats)),
        worker_stats,
    )
}

/// Sequential BFS under a [`RunControl`], optionally resuming a prior
/// [`SearchCheckpoint`]: the core with one worker. Exploration order,
/// state counts and counterexamples are those of FIFO breadth-first
/// search, so counterexamples are shortest.
pub fn bfs_controlled<T>(
    sys: &T,
    opts: BfsOptions,
    ctrl: &RunControl,
    resume: Option<SearchCheckpoint<T::State, T::Label>>,
) -> ControlledSearch<T::State, T::Label, T::Violation>
where
    T: TransitionSystem + Sync,
{
    ws_search_controlled(sys, opts, 1, DEFAULT_BATCH, ctrl, resume).0
}

/// The search core without run control. Returns the result plus
/// per-worker statistics.
pub fn ws_search<T>(
    sys: &T,
    opts: BfsOptions,
    threads: usize,
    batch: usize,
) -> (SearchResult<T::Label, T::Violation>, Vec<WorkerStats>)
where
    T: TransitionSystem + Sync,
{
    match ws_search_controlled(sys, opts, threads, batch, &RunControl::unlimited(), None) {
        (ControlledSearch::Finished(r), workers) => (r, workers),
        (ControlledSearch::Interrupted { .. }, _) => {
            unreachable!("an unlimited RunControl never interrupts")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{Budget, CancelToken, InterruptReason};

    /// A counter modulo n that "violates" at a designated value (the same
    /// fixture as the mc.rs unit tests).
    struct Counter {
        n: u32,
        bad: Option<u32>,
    }

    impl TransitionSystem for Counter {
        type State = u32;
        type Label = &'static str;
        type Violation = String;

        fn initial(&self) -> u32 {
            0
        }
        fn successors(&self, s: &u32) -> Vec<(&'static str, u32)> {
            vec![("inc", (s + 1) % self.n), ("dbl", (s * 2) % self.n)]
        }
        fn violation(&self, s: &u32) -> Option<String> {
            (Some(*s) == self.bad).then(|| format!("hit {s}"))
        }
    }

    fn replay(path: &[&str], n: u32) -> u32 {
        let mut s = 0u32;
        for l in path {
            s = match *l {
                "inc" => (s + 1) % n,
                _ => (s * 2) % n,
            };
        }
        s
    }

    #[test]
    fn exhaustive_search_agrees_with_bfs() {
        let sys = Counter { n: 977, bad: None };
        for threads in [1, 2, 4] {
            let (r, ws) = ws_search(&sys, BfsOptions::default(), threads, 8);
            assert!(r.is_safe(), "threads={threads}");
            assert_eq!(r.stats().states, 977, "threads={threads}");
            let expanded: usize = ws.iter().map(|w| w.expanded).sum();
            assert_eq!(expanded, 977, "every admitted state is expanded");
        }
    }

    /// The textbook FIFO breadth-first search the one-worker core must
    /// reproduce: admission in successor order, violation checked on
    /// admission. Returns the state count and, if a violation is reached,
    /// the label path to it.
    fn reference_bfs(sys: &Counter) -> (usize, Option<Vec<&'static str>>) {
        let mut parent: HashMap<u32, Option<(u32, &'static str)>> = HashMap::new();
        let mut queue = VecDeque::from([0u32]);
        parent.insert(0, None);
        while let Some(s) = queue.pop_front() {
            for (label, t) in sys.successors(&s) {
                if parent.contains_key(&t) {
                    continue;
                }
                parent.insert(t, Some((s, label)));
                if sys.violation(&t).is_some() {
                    let mut path = Vec::new();
                    let mut at = t;
                    while let Some(Some((p, l))) = parent.get(&at) {
                        path.push(*l);
                        at = *p;
                    }
                    path.reverse();
                    return (parent.len(), Some(path));
                }
                queue.push_back(t);
            }
        }
        (parent.len(), None)
    }

    /// One worker is sequential BFS state for state: the same state count
    /// at the violation and the same shortest path, whatever the chunk
    /// size.
    #[test]
    fn one_worker_is_fifo_bfs() {
        for bad in [5u32, 123, 500, 976] {
            let sys = Counter {
                n: 977,
                bad: Some(bad),
            };
            let (want_states, want_path) = reference_bfs(&sys);
            for batch in [1usize, 3, 8, 128] {
                let (r, workers) = ws_search(&sys, BfsOptions::default(), 1, batch);
                let SearchResult::Unsafe(ce, stats) = r else {
                    panic!("bad={bad} batch={batch}: expected Unsafe, got {r:?}");
                };
                assert_eq!(Some(ce.path), want_path, "bad={bad} batch={batch}");
                assert_eq!(stats.states, want_states, "bad={bad} batch={batch}");
                assert_eq!(workers[0].steals, 0);
            }
        }
    }

    #[test]
    fn violation_found_and_path_replays() {
        let sys = Counter {
            n: 977,
            bad: Some(123),
        };
        for threads in [1, 2, 4] {
            match ws_search(&sys, BfsOptions::default(), threads, 4).0 {
                SearchResult::Unsafe(ce, _) => {
                    assert_eq!(replay(&ce.path, 977), 123, "threads={threads}");
                }
                r => panic!("expected Unsafe at threads={threads}, got {r:?}"),
            }
        }
    }

    #[test]
    fn violating_initial_state_caught() {
        let sys = Counter {
            n: 10,
            bad: Some(0),
        };
        match ws_search(&sys, BfsOptions::default(), 2, 8).0 {
            SearchResult::Unsafe(ce, _) => assert!(ce.path.is_empty()),
            r => panic!("expected Unsafe, got {r:?}"),
        }
    }

    #[test]
    fn state_limit_reports_bounded() {
        let sys = Counter {
            n: 100_000,
            bad: None,
        };
        let r = ws_search(&sys, BfsOptions::new().max_states(50), 2, 4).0;
        assert!(matches!(r, SearchResult::Bounded(_)), "{r:?}");
    }

    #[test]
    fn depth_limit_reports_bounded() {
        let sys = Counter { n: 1000, bad: None };
        let r = ws_search(
            &sys,
            BfsOptions::new().max_states(usize::MAX).max_depth(3),
            2,
            4,
        )
        .0;
        assert!(matches!(r, SearchResult::Bounded(_)), "{r:?}");
        let r = ws_search(
            &sys,
            BfsOptions::new().max_states(usize::MAX).max_depth(0),
            2,
            4,
        )
        .0;
        assert!(matches!(r, SearchResult::Bounded(_)), "{r:?}");
    }

    #[test]
    fn unreachable_violation_is_safe() {
        // bad = 981 > n is never reached.
        let sys = Counter {
            n: 977,
            bad: Some(981),
        };
        let r = ws_search(&sys, BfsOptions::default(), 3, 16).0;
        assert!(r.is_safe());
    }

    /// Interrupt with a state budget at various cut points and thread
    /// counts, resume, and demand exact verdict + state-count parity with
    /// a clean run.
    #[test]
    fn interrupt_resume_matches_clean_run() {
        let sys = Counter { n: 977, bad: None };
        let (clean, _) = ws_search(&sys, BfsOptions::default(), 4, 8);
        assert_eq!(clean.stats().states, 977);
        for threads in [1usize, 4] {
            for cut in [2usize, 50, 400, 900] {
                let ctrl = RunControl::new(&Budget::unlimited().states(cut), CancelToken::new());
                let (r, _) =
                    ws_search_controlled(&sys, BfsOptions::default(), threads, 8, &ctrl, None);
                let ControlledSearch::Interrupted {
                    reason, checkpoint, ..
                } = r
                else {
                    panic!("budget {cut} must interrupt (threads={threads})");
                };
                assert_eq!(reason, InterruptReason::StateBudget);
                assert_eq!(
                    checkpoint.seen.len(),
                    checkpoint.states,
                    "seen-set matches the admitted count (threads={threads}, cut={cut})"
                );
                let (resumed, _) = ws_search_controlled(
                    &sys,
                    BfsOptions::default(),
                    threads,
                    8,
                    &RunControl::unlimited(),
                    Some(checkpoint),
                );
                let ControlledSearch::Finished(r2) = resumed else {
                    panic!("unlimited resume must finish");
                };
                assert!(r2.is_safe(), "threads={threads}, cut={cut}");
                assert_eq!(
                    r2.stats().states,
                    977,
                    "state-count parity (threads={threads}, cut={cut})"
                );
            }
        }
    }

    /// A violation beyond the interrupt point is still found after
    /// resuming, and the merged (base + new) parent logs replay.
    #[test]
    fn resume_finds_violation_past_cut() {
        let sys = Counter {
            n: 977,
            bad: Some(955),
        };
        let ctrl = RunControl::new(&Budget::unlimited().states(100), CancelToken::new());
        let (r, _) = ws_search_controlled(&sys, BfsOptions::default(), 3, 8, &ctrl, None);
        let ControlledSearch::Interrupted { checkpoint, .. } = r else {
            panic!("expected interrupt");
        };
        let (resumed, _) = ws_search_controlled(
            &sys,
            BfsOptions::default(),
            3,
            8,
            &RunControl::unlimited(),
            Some(checkpoint),
        );
        let ControlledSearch::Finished(SearchResult::Unsafe(ce, _)) = resumed else {
            panic!("resume must find the violation");
        };
        assert_eq!(
            replay(&ce.path, 977),
            955,
            "path must replay to the bad state"
        );
    }

    /// A depth-bounded search interrupted before it reaches the depth
    /// limit, or after, still resumes to `Bounded` with the clean count:
    /// states admitted at the limit are queued, so the checkpoint keeps
    /// them.
    #[test]
    fn depth_limited_resume_stays_bounded() {
        let sys = Counter { n: 1000, bad: None };
        let opts = BfsOptions::new().max_states(usize::MAX).max_depth(3);
        // Depths 0..=3 hold {0}, {1}, {2}, {3, 4}.
        let (clean, _) = ws_search(&sys, opts, 1, 8);
        assert!(matches!(clean, SearchResult::Bounded(_)), "{clean:?}");
        assert_eq!(clean.stats().states, 5);
        for threads in [1usize, 2] {
            for cut in [2usize, 3, 5] {
                let ctrl = RunControl::new(&Budget::unlimited().states(cut), CancelToken::new());
                let (r, _) = ws_search_controlled(&sys, opts, threads, 8, &ctrl, None);
                let ControlledSearch::Interrupted { checkpoint, .. } = r else {
                    panic!("budget {cut} must interrupt (threads={threads}): {r:?}");
                };
                let (resumed, _) = ws_search_controlled(
                    &sys,
                    opts,
                    threads,
                    8,
                    &RunControl::unlimited(),
                    Some(checkpoint),
                );
                let ControlledSearch::Finished(r2) = resumed else {
                    panic!("unlimited resume must finish");
                };
                assert!(
                    matches!(r2, SearchResult::Bounded(_)),
                    "threads={threads} cut={cut}: {r2:?}"
                );
                assert_eq!(r2.stats().states, 5, "threads={threads} cut={cut}");
            }
        }
    }

    /// A pre-cancelled token interrupts before any expansion and the
    /// checkpoint carries the full (singleton) frontier.
    #[test]
    fn cancel_interrupts_and_checkpoint_is_resumable() {
        let sys = Counter { n: 977, bad: None };
        let token = CancelToken::new();
        token.cancel();
        let ctrl = RunControl::new(&Budget::unlimited(), token);
        let (r, _) = ws_search_controlled(&sys, BfsOptions::default(), 2, 8, &ctrl, None);
        let ControlledSearch::Interrupted {
            reason, checkpoint, ..
        } = r
        else {
            panic!("expected interrupt");
        };
        assert_eq!(reason, InterruptReason::Cancelled);
        let (resumed, _) = ws_search_controlled(
            &sys,
            BfsOptions::default(),
            2,
            8,
            &RunControl::unlimited(),
            Some(checkpoint),
        );
        let ControlledSearch::Finished(r2) = resumed else {
            panic!("resume must finish");
        };
        assert!(r2.is_safe());
        assert_eq!(r2.stats().states, 977);
    }
}
