//! The vocabulary of explicit-state reachability: transition systems,
//! fingerprints, search limits, statistics, results and checkpoints. The
//! search itself is the one core in [`crate::ws`].

use std::hash::{BuildHasher, Hash, RandomState};
use std::time::Duration;

use crate::control::InterruptReason;
use crate::sip::SipBuild;

/// 128-bit state fingerprints for the seen-set.
///
/// Storing full states for every visited state is the memory bottleneck of
/// explicit-state search; both searchers instead record two independent
/// 64-bit hashes per state (full states live only in the current
/// frontier). A collision would silently merge two distinct states — with
/// 128 bits the probability across even 10⁹ states is ~10⁻²⁰, far below
/// any practical concern (the same trade Holzmann's bitstate hashing makes
/// far more aggressively).
///
/// Hashing is keyed SipHash-1-3 ([`crate::sip`]) under four explicit
/// 64-bit seeds. A fresh fingerprinter draws random seeds, so fingerprints
/// are only comparable within one search — but the seeds can be extracted
/// ([`Fingerprinter::seeds`]), serialized into a checkpoint, and restored
/// ([`Fingerprinter::from_seeds`]), which is what lets a resumed search
/// reuse the interrupted run's seen-set and parent logs verbatim.
///
/// Public so [`TransitionSystem::expand_admitted`] implementations can
/// fingerprint successors *before* materializing them.
pub struct Fingerprinter {
    a: SipBuild,
    b: SipBuild,
}

impl Fingerprinter {
    pub(crate) fn new() -> Self {
        // Four fresh random seeds per fingerprinter, derived from the
        // standard library's randomly-keyed hasher.
        let r = RandomState::new();
        Fingerprinter::from_seeds([
            r.hash_one(0u64),
            r.hash_one(1u64),
            r.hash_one(2u64),
            r.hash_one(3u64),
        ])
    }

    /// Rebuild a fingerprinter from extracted seeds; it reproduces the
    /// exact fingerprints of the instance the seeds came from.
    pub fn from_seeds(seeds: [u64; 4]) -> Self {
        Fingerprinter {
            a: SipBuild::new(seeds[0], seeds[1]),
            b: SipBuild::new(seeds[2], seeds[3]),
        }
    }

    /// The four hash seeds, in [`Fingerprinter::from_seeds`] order.
    pub fn seeds(&self) -> [u64; 4] {
        let (a0, a1) = self.a.keys();
        let (b0, b1) = self.b.keys();
        [a0, a1, b0, b1]
    }

    /// The 128-bit fingerprint of any hashable value. Implementations of
    /// [`TransitionSystem::expand_admitted`] must ensure the value they
    /// hash here is hash-identical to the `State` they would materialize.
    pub fn fp<S: Hash>(&self, s: &S) -> u128 {
        (self.a.hash_one(s) as u128) << 64 | self.b.hash_one(s) as u128
    }

    /// A half-width fingerprint (one hasher pass instead of two) for
    /// worker-local caching, where a collision costs a wrong cache answer
    /// bounded by the cache's size, not the whole search. At ≤2^16 cached
    /// keys the collision probability is ~2^-33 per cache lifetime —
    /// negligible next to the 128-bit birthday bound the global seen-set
    /// already accepts.
    pub(crate) fn fp64<S: Hash>(&self, s: &S) -> u64 {
        self.a.hash_one(s)
    }
}

/// Opaque per-worker scratch space for [`TransitionSystem::expand_admitted`].
///
/// The search core obtains one per worker via [`TransitionSystem::expand_scratch`]
/// and thread it through every expansion on that worker; what lives inside
/// is the system's business (the product system keeps replay copies of the
/// observer/checker, encoding arenas, and its orbit-seal cache here).
/// Systems that don't override the lazy path use [`ExpandScratch::none`].
pub struct ExpandScratch(Box<dyn std::any::Any + Send>);

impl ExpandScratch {
    /// The empty scratch used by the default (materialize-first) path.
    pub fn none() -> Self {
        ExpandScratch(Box::new(()))
    }

    /// Wrap a concrete scratch value.
    pub fn new<S: std::any::Any + Send>(scratch: S) -> Self {
        ExpandScratch(Box::new(scratch))
    }

    /// Downcast to the concrete scratch type, if this is one.
    pub fn get_mut<S: std::any::Any + Send>(&mut self) -> Option<&mut S> {
        self.0.downcast_mut::<S>()
    }
}

/// The reference implementation of admission-gated expansion: materialize
/// every successor eagerly, fingerprint them, then let `admit` filter.
///
/// This is both the trait default (correct for any system) and the
/// explicit "eager" mode of the product system — it reproduces the
/// pre-gating cost profile (full clone + encode per successor, admitted or
/// not), which is what the lazy path is benchmarked against.
pub fn eager_expand<T: TransitionSystem + ?Sized>(
    sys: &T,
    s: &T::State,
    fper: &Fingerprinter,
    admit: &mut dyn FnMut(&[u128], &mut Vec<bool>),
    out: &mut Vec<(T::Label, T::State, u128)>,
) {
    let mut succs = Vec::new();
    sys.successors_into(s, &mut succs);
    let fps: Vec<u128> = succs.iter().map(|(_, t)| fper.fp(t)).collect();
    let mut keep = Vec::new();
    admit(&fps, &mut keep);
    debug_assert_eq!(keep.len(), fps.len());
    for (i, (label, t)) in succs.into_iter().enumerate() {
        if keep[i] {
            out.push((label, t, fps[i]));
        }
    }
}

/// A finite labeled transition system with a safety predicate.
pub trait TransitionSystem {
    /// State type (hashable; `Send` for the parallel searcher).
    type State: Clone + Eq + Hash + Send;
    /// Transition label (used in counterexamples).
    type Label: Clone + Send;
    /// Violation diagnosis carried by counterexamples. Structured systems
    /// use a typed reason (see `RejectReason` in the verify layer); toy
    /// systems can use `String`.
    type Violation: Clone + Send;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// All successors of a state, with labels.
    fn successors(&self, s: &Self::State) -> Vec<(Self::Label, Self::State)>;

    /// A safety violation in `s`, if any (checked on every reachable
    /// state, including the initial one).
    fn violation(&self, s: &Self::State) -> Option<Self::Violation>;

    /// Append all successors of `s` to `out` instead of allocating a
    /// fresh `Vec`. Checkpoint replay and [`eager_expand`] call this with
    /// a reused buffer; implementations that can generate successors
    /// in place should override it (the default delegates to
    /// [`TransitionSystem::successors`]).
    fn successors_into(&self, s: &Self::State, out: &mut Vec<(Self::Label, Self::State)>) {
        out.extend(self.successors(s));
    }

    /// Per-worker scratch for [`TransitionSystem::expand_admitted`];
    /// the search core creates one per worker and reuses it for every
    /// expansion.
    fn expand_scratch(&self) -> ExpandScratch {
        ExpandScratch::none()
    }

    /// Admission-gated expansion: fingerprint every successor of `s`
    /// first, ask `admit` which fingerprints are worth keeping, and push
    /// only the admitted `(label, state, fingerprint)` triples to `out`.
    ///
    /// The contract, which the search core relies on:
    ///
    /// * every candidate successor's fingerprint is passed to `admit`
    ///   (possibly across several calls), and `admit` fills one `bool` per
    ///   fingerprint — `true` means materialize;
    /// * an admitted triple's fingerprint is exactly what `admit` saw, and
    ///   hashing the materialized state through `fper` reproduces it;
    /// * `admit` is a *hint*, not a claim: the core still inserts admitted
    ///   fingerprints into its seen-set authoritatively, so false
    ///   positives (a racing worker admitted the state first, or the same
    ///   fingerprint appears twice in one expansion) cost a wasted
    ///   materialization, never a duplicate or dropped state.
    ///
    /// The default materializes everything first (via
    /// [`TransitionSystem::successors_into`]) and filters afterwards —
    /// correct for any system; systems with expensive states override this
    /// to defer the clone/allocate work until after admission.
    fn expand_admitted(
        &self,
        s: &Self::State,
        scratch: &mut ExpandScratch,
        fper: &Fingerprinter,
        admit: &mut dyn FnMut(&[u128], &mut Vec<bool>),
        out: &mut Vec<(Self::Label, Self::State, u128)>,
    ) {
        let _ = scratch;
        eager_expand(self, s, fper, admit, out);
    }
}

/// Search limits.
///
/// Construct with the builder: `BfsOptions::new().max_states(50_000)`.
/// The struct is `#[non_exhaustive]` so new limits can be added without
/// breaking callers; `BfsOptions::default()` remains as an escape hatch
/// (fields stay public for reading and in-place mutation) but literal
/// construction outside this crate is no longer possible.
///
/// These are *scope* limits: hitting one yields a `Bounded` verdict ("the
/// state space is larger than I was asked to cover"). Resource limits that
/// interrupt a run resumably live in [`crate::control::Budget`] instead.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct BfsOptions {
    /// Stop after visiting this many states.
    pub max_states: usize,
    /// Explore at most this many BFS levels.
    pub max_depth: usize,
}

impl Default for BfsOptions {
    fn default() -> Self {
        BfsOptions {
            max_states: 1_000_000,
            max_depth: usize::MAX,
        }
    }
}

impl BfsOptions {
    /// Default limits (1M states, unbounded depth); chain builder methods
    /// to adjust.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stop after visiting this many states.
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Explore at most this many BFS levels.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct McStats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions explored.
    pub transitions: usize,
    /// Depth reached.
    pub depth: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Worker threads used (1 for sequential BFS).
    pub workers: usize,
    /// Successful chunk steals across all workers (0 with one worker).
    pub steals: usize,
    /// Seen-set lock acquisitions, i.e. batch inserts.
    pub seen_batches: usize,
    /// Peak number of states queued for expansion at any instant.
    pub peak_frontier: usize,
}

impl McStats {
    /// Distinct states visited per second of wall-clock time.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.states as f64 / secs
        } else {
            0.0
        }
    }
}

/// A violating run: the labels from the initial state to the bad state,
/// and the violation diagnosis.
#[derive(Clone, Debug)]
pub struct Counterexample<L, V = String> {
    /// Transition labels along the path.
    pub path: Vec<L>,
    /// The safety predicate's diagnosis.
    pub reason: V,
}

/// Result of a search.
#[derive(Clone, Debug)]
pub enum SearchResult<L, V = String> {
    /// Every reachable state (within limits) is safe, and no limit was hit.
    Safe(McStats),
    /// Every explored state is safe but a limit stopped the search.
    Bounded(McStats),
    /// A violation was found.
    Unsafe(Counterexample<L, V>, McStats),
}

impl<L, V> SearchResult<L, V> {
    /// Search statistics regardless of outcome.
    pub fn stats(&self) -> McStats {
        match self {
            SearchResult::Safe(s) | SearchResult::Bounded(s) => *s,
            SearchResult::Unsafe(_, s) => *s,
        }
    }

    /// Did the search prove safety exhaustively?
    pub fn is_safe(&self) -> bool {
        matches!(self, SearchResult::Safe(_))
    }
}

/// Everything an interrupted search needs to continue exactly where it
/// stopped: the fingerprint seeds, the seen-set, the unexpanded frontier
/// (with per-state BFS depths), the parent edges accumulated so far, and
/// the running totals.
///
/// The *consistency point* invariant the search core guarantees before handing
/// one of these back: every expanded state has all of its successors
/// admitted, and every admitted-but-unexpanded state appears in
/// `frontier`. Resuming therefore never re-expands or skips a state, and
/// the final verdict and state count match an uninterrupted run.
#[derive(Clone, Debug)]
pub struct SearchCheckpoint<S, L> {
    /// The [`Fingerprinter`] seeds; resume must hash under the same keys.
    pub seeds: [u64; 4],
    /// Fingerprint of the initial state (parent-chain terminator, and a
    /// resume-time sanity check that the system is the same one).
    pub init_fp: u128,
    /// Every admitted fingerprint.
    pub seen: Vec<u128>,
    /// Admitted-but-unexpanded states: `(state, fingerprint, depth)`.
    pub frontier: Vec<(S, u128, usize)>,
    /// Parent edges `(child_fp, parent_fp, label)` for counterexample
    /// reconstruction after resume.
    pub parents: Vec<(u128, u128, L)>,
    /// Distinct states admitted so far.
    pub states: usize,
    /// Transitions explored so far.
    pub transitions: usize,
    /// Deepest BFS level admitted so far.
    pub depth: usize,
}

/// Outcome of a budget-/cancel-aware search.
#[derive(Clone, Debug)]
pub enum ControlledSearch<S, L, V = String> {
    /// The search ran to a verdict (safe, bounded, or unsafe).
    Finished(SearchResult<L, V>),
    /// A budget tripped or a cancel arrived; the search drained to a
    /// consistent point and packaged the partial search.
    Interrupted {
        /// Which limit stopped the run.
        reason: InterruptReason,
        /// Resumable snapshot of the partial search.
        checkpoint: SearchCheckpoint<S, L>,
        /// Statistics at the interrupt point.
        stats: McStats,
    },
}

impl<S, L, V> ControlledSearch<S, L, V> {
    /// Search statistics regardless of outcome.
    pub fn stats(&self) -> McStats {
        match self {
            ControlledSearch::Finished(r) => r.stats(),
            ControlledSearch::Interrupted { stats, .. } => *stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{Budget, CancelToken, RunControl};
    use crate::ws::{bfs_controlled, ws_search, DEFAULT_BATCH};

    /// A counter modulo n that "violates" at a designated value.
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

    /// Sequential BFS without run control: the search core with one
    /// worker.
    fn bfs(sys: &Counter, opts: BfsOptions) -> SearchResult<&'static str> {
        ws_search(sys, opts, 1, DEFAULT_BATCH).0
    }

    #[test]
    fn safe_system_explores_all_states() {
        let sys = Counter { n: 97, bad: None };
        let r = bfs(&sys, BfsOptions::default());
        assert!(r.is_safe());
        assert_eq!(r.stats().states, 97);
        assert_eq!(r.stats().workers, 1);
        assert!(
            r.stats().peak_frontier > 0,
            "one worker reports its frontier"
        );
    }
    #[test]
    fn violation_found_with_shortest_path() {
        let sys = Counter {
            n: 97,
            bad: Some(5),
        };
        match bfs(&sys, BfsOptions::default()) {
            SearchResult::Unsafe(ce, _) => {
                assert_eq!(ce.reason, "hit 5");
                // Shortest path to 5: 0->1->2->4->5 (inc,dbl,dbl,inc) = 4 steps
                // or 0->1->2->3->... BFS guarantees minimality: length 4.
                assert_eq!(ce.path.len(), 4);
                // Replay the path.
                let mut s = 0u32;
                for l in &ce.path {
                    s = match *l {
                        "inc" => (s + 1) % 97,
                        _ => (s * 2) % 97,
                    };
                }
                assert_eq!(s, 5);
            }
            r => panic!("expected Unsafe, got {r:?}"),
        }
    }

    #[test]
    fn state_limit_reports_bounded() {
        let sys = Counter { n: 1000, bad: None };
        let r = bfs(&sys, BfsOptions::new().max_states(10));
        assert!(matches!(r, SearchResult::Bounded(_)));
    }

    #[test]
    fn depth_limit_reports_bounded() {
        let sys = Counter { n: 1000, bad: None };
        let r = bfs(&sys, BfsOptions::new().max_states(usize::MAX).max_depth(3));
        assert!(matches!(r, SearchResult::Bounded(_)));
    }

    #[test]
    fn violating_initial_state_caught() {
        let sys = Counter {
            n: 10,
            bad: Some(0),
        };
        match bfs(&sys, BfsOptions::default()) {
            SearchResult::Unsafe(ce, _) => assert!(ce.path.is_empty()),
            r => panic!("expected Unsafe, got {r:?}"),
        }
    }

    /// Interrupt a sequential run with a state budget, then resume from
    /// the checkpoint: verdict and total state count must match a clean
    /// run, and the interrupt must report accurate coverage.
    #[test]
    fn sequential_interrupt_resume_matches_clean_run() {
        let sys = Counter { n: 977, bad: None };
        let clean = bfs(&sys, BfsOptions::default());
        for cut in [1usize, 7, 100, 500] {
            let ctrl = RunControl::new(&Budget::unlimited().states(cut), CancelToken::new());
            let r = bfs_controlled(&sys, BfsOptions::default(), &ctrl, None);
            let ControlledSearch::Interrupted {
                reason,
                checkpoint,
                stats,
            } = r
            else {
                panic!("budget of {cut} must interrupt a 977-state space");
            };
            assert_eq!(reason, InterruptReason::StateBudget);
            assert!(stats.states >= cut);
            assert!(!checkpoint.frontier.is_empty(), "cut {cut}");
            assert_eq!(checkpoint.seen.len(), checkpoint.states, "cut {cut}");
            let resumed = bfs_controlled(
                &sys,
                BfsOptions::default(),
                &RunControl::unlimited(),
                Some(checkpoint),
            );
            let ControlledSearch::Finished(r2) = resumed else {
                panic!("unlimited resume must finish");
            };
            assert!(r2.is_safe(), "cut {cut}");
            assert_eq!(r2.stats().states, clean.stats().states, "cut {cut}");
            assert_eq!(r2.stats().depth, clean.stats().depth, "cut {cut}");
        }
    }

    /// A resumed run still finds violations, and the reconstructed path
    /// replays to the bad state.
    #[test]
    fn resume_still_finds_violation() {
        let sys = Counter {
            n: 977,
            bad: Some(900),
        };
        let ctrl = RunControl::new(&Budget::unlimited().states(50), CancelToken::new());
        let ControlledSearch::Interrupted { checkpoint, .. } =
            bfs_controlled(&sys, BfsOptions::default(), &ctrl, None)
        else {
            panic!("expected interrupt");
        };
        let ControlledSearch::Finished(SearchResult::Unsafe(ce, stats)) = bfs_controlled(
            &sys,
            BfsOptions::default(),
            &RunControl::unlimited(),
            Some(checkpoint),
        ) else {
            panic!("resume must find the violation");
        };
        let mut s = 0u32;
        for l in &ce.path {
            s = match *l {
                "inc" => (s + 1) % 977,
                _ => (s * 2) % 977,
            };
        }
        assert_eq!(s, 900, "path must replay to the bad state");
        // The checkpoint keeps the BFS queue order, so the resumed run
        // finds the clean run's shortest counterexample at the same count.
        let SearchResult::Unsafe(clean, clean_stats) = bfs(&sys, BfsOptions::default()) else {
            panic!("the clean run must find the violation");
        };
        assert_eq!(ce.path, clean.path);
        assert_eq!(stats.states, clean_stats.states);
    }

    /// Cancellation interrupts promptly and the checkpoint resumes.
    #[test]
    fn cancel_interrupts_sequential_run() {
        let sys = Counter { n: 977, bad: None };
        let token = CancelToken::new();
        token.cancel();
        let ctrl = RunControl::new(&Budget::unlimited(), token);
        match bfs_controlled(&sys, BfsOptions::default(), &ctrl, None) {
            ControlledSearch::Interrupted { reason, .. } => {
                assert_eq!(reason, InterruptReason::Cancelled)
            }
            r => panic!("expected Interrupted, got stats {:?}", r.stats()),
        }
    }

    /// Fingerprinter seeds round-trip: same seeds, same fingerprints.
    #[test]
    fn fingerprinter_seed_roundtrip() {
        let f1 = Fingerprinter::new();
        let f2 = Fingerprinter::from_seeds(f1.seeds());
        for v in [0u64, 1, 42, u64::MAX] {
            assert_eq!(f1.fp(&v), f2.fp(&v));
            assert_eq!(f1.fp64(&v), f2.fp64(&v));
        }
        let f3 = Fingerprinter::new();
        assert_ne!(
            f1.fp(&7u64),
            f3.fp(&7u64),
            "independent fingerprinters should disagree"
        );
    }
}
