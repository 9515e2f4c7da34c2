//! The §3.4 verification method as a transition system: protocol ⊗
//! observer ⊗ checker, optionally explored modulo the protocol's
//! symmetry group.

use crate::canon::{self, CanonScratch, FastPlan};
use crate::checkpoint::{CheckpointError, CheckpointFile};
use crate::control::{Budget, CancelToken, Coverage, InterruptReason, RunControl};
use crate::mc::{
    eager_expand, BfsOptions, ControlledSearch, ExpandScratch, Fingerprinter, McStats,
    SearchCheckpoint, SearchResult, TransitionSystem,
};
use crate::ws::{ws_search_controlled, DEFAULT_BATCH};
use scv_checker::{ScChecker, ScError};
use scv_descriptor::Symbol;
use scv_observer::{Observer, ObserverConfig};
use scv_protocol::{location_maps, Action, Step, Symmetry, Transition};
use scv_types::{Op, SymDims, SymPerm, Trace};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a product state was rejected — the typed replacement for the old
/// stringly error channel. [`fmt::Display`] reproduces the exact text the
/// strings used to carry ("rejected at symbol {p}: {kind:?}" for
/// mid-stream rejections, prefixed with "at run end: " for end-of-string
/// ones), so log-diffing across versions stays stable while callers can
/// now match on [`scv_checker::ScErrorKind`] structurally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// The checker rejected a descriptor symbol mid-stream: some prefix of
    /// the run already has no acyclic-constraint-graph witness.
    Stream(ScError),
    /// The run's symbols were accepted but the end-of-string conditions
    /// failed (order totality, outstanding forced obligations), possibly
    /// after replaying pending serializations.
    RunEnd(ScError),
}

impl RejectReason {
    /// The underlying checker error, whichever stage raised it.
    pub fn error(&self) -> &ScError {
        match self {
            RejectReason::Stream(e) | RejectReason::RunEnd(e) => e,
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Stream(e) => write!(f, "{e}"),
            RejectReason::RunEnd(e) => write!(f, "at run end: {e}"),
        }
    }
}

/// How much of the protocol's declared symmetry group the search quotients
/// by (CLI: `--symmetry=off|proc|full|full-enum`).
///
/// The *effective* group is always the intersection of what is requested
/// here with what the protocol declares sound via
/// [`Symmetry::symmetry_dims`] — requesting `Full` on a protocol that only
/// declares processor symmetry quotients by processors alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SymmetryMode {
    /// No reduction: explore the raw product space.
    #[default]
    Off,
    /// Processor permutations only.
    Proc,
    /// Everything the protocol declares: processors, blocks, and values.
    Full,
    /// The same quotient as [`SymmetryMode::Full`], computed by the
    /// brute-force reference canonicalizer (one renamed encoding per group
    /// element) instead of the sort-based fast path. Canonical encodings —
    /// and therefore fingerprints, state counts, and checkpoints — are
    /// byte-identical to `Full`; this mode exists as the differential
    /// oracle the fast path is tested against, and as the baseline arm of
    /// the canonicalization benchmarks.
    FullEnum,
}

impl SymmetryMode {
    /// The dimensions this mode requests (before intersecting with the
    /// protocol's declaration).
    pub fn requested_dims(self) -> SymDims {
        match self {
            SymmetryMode::Off => SymDims::NONE,
            SymmetryMode::Proc => SymDims::PROCS,
            SymmetryMode::Full | SymmetryMode::FullEnum => SymDims::FULL,
        }
    }

    /// The single-byte encoding used by the checkpoint file format.
    pub fn as_byte(self) -> u8 {
        match self {
            SymmetryMode::Off => 0,
            SymmetryMode::Proc => 1,
            SymmetryMode::Full => 2,
            SymmetryMode::FullEnum => 3,
        }
    }

    /// Inverse of [`SymmetryMode::as_byte`].
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(SymmetryMode::Off),
            1 => Some(SymmetryMode::Proc),
            2 => Some(SymmetryMode::Full),
            3 => Some(SymmetryMode::FullEnum),
            _ => None,
        }
    }
}

/// Upper bound on the symmetry-group order the checker will enumerate per
/// state seal. [`SymPerm::group`] drops whole dimensions (values, then
/// blocks, then processors) until the order fits, which keeps the
/// remaining set a true subgroup — required for soundness of the
/// orbit-minimum representative.
const GROUP_CAP: usize = 1024;

/// A product state: the protocol state paired with the live observer and
/// checker. Equality and hashing go through the canonical encoding, so
/// two product states that behave identically compare equal — this is
/// what makes the composed state space finite. Under symmetry reduction
/// the encoding is additionally the *orbit minimum* over the symmetry
/// group, so all members of an orbit compare equal; the stored components
/// remain the genuinely reached member (not the representative), which
/// keeps counterexample paths valid runs of the unreduced system.
///
/// The encoding is not stored: the search core keys everything by the
/// fingerprint taken at admission, so a state at rest holds only its
/// components. [`VerifyState::encoding`], `Hash` and `Eq` reseal on
/// demand. A symmetry-reduced state keeps a shared handle to its system's
/// seal core for that, since its encoding depends on the group.
#[derive(Clone)]
pub struct VerifyState<PS> {
    /// The protocol component.
    pub proto: PS,
    /// The observer component.
    pub obs: Observer,
    /// The checker component.
    pub chk: ScChecker,
    /// Rejection raised while reaching this state, if any (boxed: set
    /// only on the absorbing reject).
    pub error: Option<Box<RejectReason>>,
    /// The seal core when the encoding is an orbit minimum that already
    /// covers the protocol component (hash/eq then ignore `proto`).
    group: Option<Arc<dyn Reseal<PS>>>,
}

impl<PS> VerifyState<PS> {
    /// The canonical encoding this state hashes and compares through,
    /// resealed from the components.
    pub fn encoding(&self) -> Vec<u64> {
        let mut enc = Vec::with_capacity(160);
        match &self.group {
            Some(core) => core.reseal(&self.proto, &self.obs, &self.chk, &mut enc),
            None => {
                with_thread_bufs(|bufs| seal_plain(&self.obs, &self.chk, &mut bufs.ids, &mut enc))
            }
        }
        enc
    }
}

/// The hashable projection of a product state: protocol component iff the
/// encoding is not symmetry-sealed, then the canonical encoding. The
/// admission gate fingerprints it *before* materializing a candidate, and
/// [`VerifyState`] hashes through it, so the two agree by construction.
struct FpParts<'a, PS> {
    proto: Option<&'a PS>,
    enc: &'a [u64],
}

impl<PS: Hash> Hash for FpParts<'_, PS> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        if let Some(p) = self.proto {
            p.hash(state);
        }
        self.enc.hash(state);
    }
}

impl<PS: Eq> PartialEq for VerifyState<PS> {
    fn eq(&self, other: &Self) -> bool {
        let sym = self.group.is_some();
        debug_assert_eq!(sym, other.group.is_some(), "mixed-seal comparison");
        self.error == other.error
            && (sym || self.proto == other.proto)
            && self.encoding() == other.encoding()
    }
}

impl<PS: Eq> Eq for VerifyState<PS> {}

impl<PS: Hash> Hash for VerifyState<PS> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let enc = self.encoding();
        FpParts {
            proto: self.group.is_none().then_some(&self.proto),
            enc: &enc,
        }
        .hash(state);
    }
}

/// One precomputed symmetry-group element: the identity renaming plus the
/// location maps it induces through [`Symmetry::permute_loc`].
pub(crate) struct PermEntry {
    pub(crate) perm: SymPerm,
    pub(crate) locs: Vec<u32>,
    pub(crate) locs_inv: Vec<u32>,
}

/// Slot count of the per-worker L1 orbit-seal cache — a direct-mapped
/// array (no probing, no wholesale clears), so a cold or adversarial
/// workload costs one array read per candidate and nothing else. At 24
/// bytes per slot the full array is under 1 MB per worker.
const SEAL_L1_SLOTS: usize = 1 << 15;

/// The L1/L2 hit-rate gate: after this many probes, a worker whose hit
/// count stayed below [`SEAL_GATE_MIN_HITS`] turns its seal cache off for
/// the rest of the run — on orbit-dense spaces where re-derivations are
/// rare, the per-candidate key hash and probe are pure overhead.
const SEAL_GATE_WINDOW: u32 = 8192;

/// Minimum hits per [`SEAL_GATE_WINDOW`] probes (≈1.6%) to keep probing.
const SEAL_GATE_MIN_HITS: u32 = 128;

/// Stripe count of the shared L2 orbit-seal cache (power of two).
const SEAL_L2_STRIPES: usize = 64;

/// Per-stripe entry bound of the L2 cache; a stripe at capacity is
/// cleared wholesale (≈1M entries total across stripes).
const SEAL_L2_STRIPE_CAP: usize = 1 << 14;

/// The shared second-level orbit-seal cache, living in the
/// [`VerifySystem`] so every worker (and every slice of a stop-and-go
/// run) sees it: identity-encoding key → orbit-minimum fingerprint. It
/// holds fingerprints only, never encodings; a hit skips the group
/// enumeration, and an admitted hit needs nothing more, since states store
/// no encoding.
///
/// Keys are [`Fingerprinter::fp64`] values and therefore seed-dependent;
/// `seed_tag` folds the fingerprinter seeds, and a mismatch (a new search
/// over the same system) clears the cache before first use. Runs never
/// overlap on one system, so the raced clear is at worst a few wasted
/// fresh inserts.
struct SealCacheL2 {
    stripes: Vec<Mutex<HashMap<u64, u128>>>,
    seed_tag: AtomicU64,
}

impl SealCacheL2 {
    fn new() -> SealCacheL2 {
        SealCacheL2 {
            stripes: (0..SEAL_L2_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            seed_tag: AtomicU64::new(0),
        }
    }

    /// Clear the cache if it was populated under different fingerprinter
    /// seeds. Called once per expansion — one atomic load in steady state.
    fn ensure_seeds(&self, seeds: [u64; 4]) {
        let tag = (seeds[0]
            ^ seeds[1].rotate_left(16)
            ^ seeds[2].rotate_left(32)
            ^ seeds[3].rotate_left(48))
            | 1;
        let old = self.seed_tag.load(Ordering::Acquire);
        if old == tag {
            return;
        }
        if self
            .seed_tag
            .compare_exchange(old, tag, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            for stripe in &self.stripes {
                stripe.lock().expect("seal L2 poisoned").clear();
            }
        }
    }

    fn stripe(&self, key: u64) -> &Mutex<HashMap<u64, u128>> {
        // High bits pick the stripe so it decorrelates from the L1 index
        // (low bits).
        &self.stripes[((key >> 32) as usize) & (SEAL_L2_STRIPES - 1)]
    }

    fn get(&self, key: u64) -> Option<u128> {
        self.stripe(key)
            .lock()
            .expect("seal L2 poisoned")
            .get(&key)
            .copied()
    }

    fn insert(&self, key: u64, fp: u128) {
        let mut m = self.stripe(key).lock().expect("seal L2 poisoned");
        if m.len() >= SEAL_L2_STRIPE_CAP {
            m.clear();
        }
        m.entry(key).or_insert(fp);
    }
}

/// The per-worker L1 orbit-seal cache: a direct-mapped array keyed by the
/// half-width fingerprint of the *identity* encoding, holding the
/// orbit-minimum state fingerprint. The identity encoding starts with the
/// injective protocol encoding, so it determines the product state;
/// re-deriving the same state from another parent hits here and skips the
/// whole canonicalization. Key 0 marks an empty slot (a real key of 0
/// simply never caches — the same 2⁻⁶⁴-class event as an fp64
/// collision). A miss falls through to the shared [`SealCacheL2`].
struct SealCacheL1 {
    keys: Box<[u64]>,
    fps: Box<[u128]>,
    /// Hit-rate gate over both levels (see [`SEAL_GATE_WINDOW`]): on
    /// orbit-dense spaces with almost no re-derivations the cache turns
    /// itself off, dropping the per-candidate key hash *and* the identity
    /// encoding's observer/checker walk the key is hashed from.
    probes: u32,
    hits: u32,
    off: bool,
}

impl SealCacheL1 {
    fn new() -> Self {
        SealCacheL1 {
            keys: vec![0u64; SEAL_L1_SLOTS].into_boxed_slice(),
            fps: vec![0u128; SEAL_L1_SLOTS].into_boxed_slice(),
            probes: 0,
            hits: 0,
            off: false,
        }
    }

    /// Look `key` up in L1, then in the shared L2 (filling L1 on an L2
    /// hit), and advance the hit-rate gate.
    fn probe(&mut self, l2: &SealCacheL2, key: u64) -> Option<u128> {
        use scv_telemetry::recorder::{self, InstantKind};
        use scv_telemetry::Metric;
        self.probes += 1;
        let slot = (key as usize) & (SEAL_L1_SLOTS - 1);
        let hit = if key != 0 && self.keys[slot] == key {
            Some(self.fps[slot])
        } else {
            let hit = l2.get(key);
            match hit {
                Some(fp) => {
                    scv_telemetry::add(Metric::SealCacheL2Hits, 1);
                    if key != 0 {
                        self.keys[slot] = key;
                        self.fps[slot] = fp;
                    }
                }
                None => scv_telemetry::add(Metric::SealCacheL2Misses, 1),
            }
            hit
        };
        if self.probes >= SEAL_GATE_WINDOW {
            if self.hits < SEAL_GATE_MIN_HITS {
                self.off = true;
            }
            self.probes = 0;
            self.hits = 0;
        }
        let (metric, kind) = match hit {
            Some(_) => {
                self.hits += 1;
                (Metric::SealCacheHits, InstantKind::SealCacheHit)
            }
            None => (Metric::SealCacheMisses, InstantKind::SealCacheMiss),
        };
        scv_telemetry::add(metric, 1);
        if scv_telemetry::recorder_enabled() {
            recorder::instant(kind, 0);
        }
        hit
    }

    /// Record a freshly sealed fingerprint in both levels.
    fn insert(&mut self, l2: &SealCacheL2, key: u64, fp: u128) {
        if key != 0 {
            let slot = (key as usize) & (SEAL_L1_SLOTS - 1);
            self.keys[slot] = key;
            self.fps[slot] = fp;
        }
        l2.insert(key, fp);
    }
}

/// Reusable work buffers of [`SealCore::seal_into`]: the aux-ID renaming,
/// the orbit-minimization incumbent and candidate, and the sort-based
/// canonicalization scratch.
struct SealBufs {
    /// Aux-ID renaming for the identity encodings (no location map —
    /// `'static` is the no-borrow case).
    ids: scv_descriptor::IdCanon<'static>,
    best: Vec<u64>,
    cand: Vec<u64>,
    canon: CanonScratch,
}

impl SealBufs {
    fn new() -> Self {
        SealBufs {
            ids: scv_descriptor::IdCanon::new(0),
            best: Vec::with_capacity(160),
            cand: Vec::with_capacity(160),
            canon: CanonScratch::new(),
        }
    }
}

/// Run `f` on this thread's [`SealBufs`] — the scratch of every seal off
/// the lazy path (which carries its own in [`SealScratch`]).
fn with_thread_bufs<R>(f: impl FnOnce(&mut SealBufs) -> R) -> R {
    thread_local! {
        static BUFS: std::cell::RefCell<SealBufs> = std::cell::RefCell::new(SealBufs::new());
    }
    BUFS.with(|cell| f(&mut cell.borrow_mut()))
}

/// The seal without symmetry: the aux-ID-canonical encodings of observer
/// and checker, renamed through one [`scv_descriptor::IdCanon`] so product
/// states differing only by an aux-ID permutation (which are bisimilar)
/// seal identically. The protocol state is hashed natively alongside (see
/// [`FpParts`]). It reads no system state, so a state without symmetry
/// reseals from its own components.
fn seal_plain(
    obs: &Observer,
    chk: &ScChecker,
    ids: &mut scv_descriptor::IdCanon<'static>,
    out: &mut Vec<u64>,
) {
    let _t = scv_telemetry::timer_sampled(scv_telemetry::Phase::DescriptorEncode);
    ids.reset_with(obs.location_count());
    obs.canonical_encoding(out, ids);
    chk.canonical_encoding(out, ids);
}

/// An orbit-seal cache lookup keyed by a candidate's identity words (see
/// [`SealCore::seal_into`]).
type SealProbe<'a> = &'a mut dyn FnMut(&[u64]) -> Option<u128>;

/// What every seal reads: the protocol, its effective symmetry group and
/// the sort-based canonicalization plan. The system owns it behind an
/// `Arc`, and every symmetry-reduced state it materializes holds a clone
/// (as a [`Reseal`] handle) so it can reseal on demand.
///
/// Aligned to a cache line so the `Arc` reference counts, which every
/// materialized and dropped state updates, do not share a line with the
/// fields the workers read on every expansion.
#[repr(align(64))]
struct SealCore<P> {
    protocol: P,
    /// Identity-first symmetry group; empty when reduction is off or the
    /// effective group is trivial.
    perms: Vec<PermEntry>,
    /// The sort-based canonicalization plan; `None` selects the
    /// full-enumeration reference path ([`SymmetryMode::FullEnum`], or a
    /// protocol with no sortable dimension).
    fast: Option<FastPlan>,
}

/// A symmetry-reduced state's way back to its system's seal core: the
/// protocol type erased, so [`VerifyState`] names only the protocol
/// *state* type.
trait Reseal<PS>: Send + Sync {
    /// Append the state's canonical words to `out`, bypassing every seal
    /// cache.
    fn reseal(&self, proto: &PS, obs: &Observer, chk: &ScChecker, out: &mut Vec<u64>);
}

impl<P: Symmetry> Reseal<P::State> for SealCore<P> {
    fn reseal(&self, proto: &P::State, obs: &Observer, chk: &ScChecker, out: &mut Vec<u64>) {
        with_thread_bufs(|bufs| self.seal_into(proto, obs, chk, bufs, out, None));
    }
}

impl<P: Symmetry> SealCore<P> {
    /// Append the canonical words of the product state `(proto, obs, chk)`
    /// to `out` — the one seal routine every path goes through.
    ///
    /// Without symmetry the words are [`seal_plain`]'s. With symmetry they
    /// are the lexicographic minimum, over every group element `g`, of
    /// `encode(g · (proto, obs, chk))`, whose leading protocol encoding is
    /// injective because `proto` no longer participates in the hash. The
    /// minimum is computed without materialising any renamed structure, by
    /// the sort-based fast path when a plan exists and by the
    /// full-enumeration reference otherwise; both produce the same bytes.
    ///
    /// `probe`, when given, keys the orbit-seal cache: it sees the identity
    /// words, which determine the product state, before the minimum is
    /// computed. If it returns a fingerprint the seal stops there, appends
    /// nothing, and returns that fingerprint.
    fn seal_into(
        &self,
        proto: &P::State,
        obs: &Observer,
        chk: &ScChecker,
        bufs: &mut SealBufs,
        out: &mut Vec<u64>,
        probe: Option<SealProbe<'_>>,
    ) -> Option<u128> {
        if self.perms.is_empty() {
            seal_plain(obs, chk, &mut bufs.ids, out);
            return None;
        }
        let _t = scv_telemetry::timer_sampled(scv_telemetry::Phase::Canonicalize);
        let base = obs.location_count();
        let best = &mut bufs.best;
        best.clear();
        self.protocol.encode_state(proto, best);
        let proto_len = best.len();
        // The fast path seeds its incumbent from the first enumerated
        // candidate, so the identity's observer/checker walk is needed
        // only to key the cache or to seed the reference enumeration.
        let have_identity = probe.is_some() || self.fast.is_none();
        let mut obs_end = 0usize;
        if have_identity {
            bufs.ids.reset_with(base);
            obs.canonical_encoding(best, &mut bufs.ids);
            obs_end = best.len();
            chk.canonical_encoding(best, &mut bufs.ids);
            if let Some(fp) = probe.and_then(|probe| probe(best)) {
                return Some(fp);
            }
        }
        match &self.fast {
            Some(plan) => canon::fast_min(
                &self.protocol,
                plan,
                &self.perms,
                proto,
                obs,
                chk,
                base,
                proto_len,
                best,
                &mut bufs.cand,
                &mut bufs.canon,
                have_identity,
                obs_end,
            ),
            None => self.orbit_min(proto, obs, chk, base, proto_len, best, &mut bufs.cand),
        }
        out.extend_from_slice(best);
        None
    }

    /// The full-enumeration reference canonicalizer behind
    /// [`SealCore::seal_into`]. On entry `best` holds the identity
    /// candidate (injective protocol prefix of `proto_len` words, then the
    /// plain canonical encodings); on exit it holds the lexicographic
    /// minimum over the whole group. A cheap prefix comparison on the
    /// protocol part prunes most candidates before the expensive
    /// observer/checker walk.
    #[allow(clippy::too_many_arguments)]
    fn orbit_min(
        &self,
        proto: &P::State,
        obs: &Observer,
        chk: &ScChecker,
        base: u32,
        proto_len: usize,
        best: &mut Vec<u64>,
        cand: &mut Vec<u64>,
    ) {
        let mut ties = 1usize; // group elements mapping this state to the current minimum
        let mut beaten = false;
        // One renaming map reused across the whole group enumeration.
        let mut ids = scv_descriptor::IdCanon::new(base);
        for e in &self.perms[1..] {
            cand.clear();
            let ps = self.protocol.permute_state(proto, &e.perm);
            self.protocol.encode_state(&ps, cand);
            // Lexicographic fast path: if the renamed protocol prefix
            // already exceeds the current minimum's, the full candidate
            // cannot win or tie — skip the observer/checker walk.
            if cand.as_slice() > &best[..proto_len] {
                continue;
            }
            let view = scv_descriptor::SymView {
                perm: &e.perm,
                loc: &e.locs,
                loc_inv: &e.locs_inv,
            };
            ids.reset();
            ids.set_locs(&e.locs);
            obs.canonical_encoding_into(cand, &mut ids, Some(&view));
            chk.canonical_encoding_into(cand, &mut ids, Some(&view));
            match (*cand).cmp(best) {
                std::cmp::Ordering::Less => {
                    std::mem::swap(best, cand);
                    ties = 1;
                    beaten = true;
                }
                std::cmp::Ordering::Equal => ties += 1,
                std::cmp::Ordering::Greater => {}
            }
        }
        if scv_telemetry::enabled() {
            use scv_telemetry::{Hist, Metric};
            scv_telemetry::add(Metric::SymCanonicalized, 1);
            scv_telemetry::add(Metric::SymCanonHits, beaten as u64);
            // Orbit-stabilizer: |orbit| = |G| / |{g : E(g·s) = min}|.
            scv_telemetry::record(Hist::SymOrbitSize, (self.perms.len() / ties) as u64);
        }
    }
}

/// One replay slot of the lazy expansion scratch: the observer/checker
/// copies (and protocol successor) for a single candidate transition.
///
/// `proto`/`obs`/`chk` are `Option` so an admitted candidate's components
/// can be *moved* into the materialized state with no extra copy; the
/// next expansion re-fills an emptied slot with a fresh clone, and a
/// still-full slot through allocation-reusing `clone_from`.
struct CandSlot<PS> {
    action: Action,
    proto: Option<PS>,
    obs: Option<Observer>,
    chk: Option<ScChecker>,
    /// The transition emitted no symbols, so the candidate's checker state
    /// *is* the parent's: the slot's `chk` copy was skipped (encoding read
    /// the parent directly) and materialization clones the parent instead.
    chk_is_parent: bool,
    error: Option<Box<RejectReason>>,
}

/// Per-worker scratch for admission-gated lazy expansion, carried by the
/// search core inside an opaque [`ExpandScratch`]. Everything here is reused
/// across expansions: the replay slots, the symbol and encoding buffers,
/// and the L1 orbit-seal cache (per worker, hence lock-free).
pub(crate) struct SealScratch<PS> {
    slots: Vec<CandSlot<PS>>,
    syms: Vec<Symbol>,
    /// Reused transition-enumeration buffer (fed to
    /// [`scv_protocol::Protocol::transitions_into`]).
    trans: Vec<Transition<PS>>,
    /// The current candidate's canonical words, fingerprinted and dropped.
    enc: Vec<u64>,
    /// Candidate fingerprints and the admission verdicts they received.
    fps: Vec<u128>,
    keep: Vec<bool>,
    bufs: SealBufs,
    l1: SealCacheL1,
}

impl<PS> SealScratch<PS> {
    fn new() -> Self {
        SealScratch {
            slots: Vec::new(),
            syms: Vec::new(),
            trans: Vec::new(),
            enc: Vec::with_capacity(1024),
            fps: Vec::new(),
            keep: Vec::new(),
            bufs: SealBufs::new(),
            l1: SealCacheL1::new(),
        }
    }
}

/// The product transition system for a protocol.
///
/// Built plain ([`VerifySystem::new`]) or with symmetry reduction
/// ([`VerifySystem::with_symmetry`]); the reduction canonicalizes each
/// product state to its orbit-minimum encoding before the seen-set sees
/// its fingerprint, at every thread count.
pub struct VerifySystem<P: Symmetry> {
    /// Protocol, group and plan, shared with the symmetry-reduced states
    /// (see [`SealCore`]).
    core: Arc<SealCore<P>>,
    /// Shared second-level orbit-seal cache (see [`SealCacheL2`]).
    l2: SealCacheL2,
    /// The mode the system was built with (recorded in checkpoint files so
    /// a resume under a different quotient is rejected up front).
    mode: SymmetryMode,
    /// Admission-gated lazy materialization (the default). `false` forces
    /// the eager reference path in `expand_admitted`: every successor is
    /// fully materialized before the seen-set probe — the pre-gating cost
    /// profile, kept for differential testing and benchmarking.
    lazy: bool,
}

impl<P: Symmetry> VerifySystem<P> {
    /// Build the product system without symmetry reduction.
    pub fn new(protocol: P) -> Self {
        Self::with_symmetry(protocol, SymmetryMode::Off)
    }

    /// Build the product system, quotienting by the protocol's symmetry
    /// group as far as `mode` requests and the protocol declares sound.
    pub fn with_symmetry(protocol: P, mode: SymmetryMode) -> Self {
        let dims = mode.requested_dims().intersect(protocol.symmetry_dims());
        let mut perms = Vec::new();
        let mut fast = None;
        if dims.any() {
            let capped = SymPerm::capped_dims(protocol.params(), dims, GROUP_CAP);
            if capped != dims && scv_telemetry::enabled() {
                // The cap degraded the quotient: record by how much (the
                // ratio of the requested group order to the enumerated
                // one — an upper bound on the forfeited state reduction).
                let requested = SymPerm::group_order(protocol.params(), dims) as f64;
                let kept = SymPerm::group_order(protocol.params(), capped) as f64;
                scv_telemetry::set_gauge("symmetry.cap_degradation", requested / kept);
            }
            let group = SymPerm::group(protocol.params(), capped, GROUP_CAP);
            if group.len() > 1 {
                debug_assert!(group[0].is_identity(), "group must lead with identity");
                perms = group
                    .into_iter()
                    .map(|perm| {
                        let (locs, locs_inv) = location_maps(&protocol, &perm);
                        PermEntry {
                            perm,
                            locs,
                            locs_inv,
                        }
                    })
                    .collect();
                if mode != SymmetryMode::FullEnum {
                    fast = FastPlan::build(&protocol, capped, &perms);
                }
            }
        }
        if scv_telemetry::enabled() {
            scv_telemetry::set_gauge("symmetry.group_size", perms.len().max(1) as f64);
        }
        VerifySystem {
            core: Arc::new(SealCore {
                protocol,
                perms,
                fast,
            }),
            l2: SealCacheL2::new(),
            mode,
            lazy: true,
        }
    }

    /// The wrapped protocol.
    pub fn protocol(&self) -> &P {
        &self.core.protocol
    }

    /// The symmetry mode this system was built with.
    pub fn symmetry_mode(&self) -> SymmetryMode {
        self.mode
    }

    /// Select admission-gated lazy materialization (`true`, the default)
    /// or the eager reference expansion path (`false`). This is the only
    /// way to select the eager path, which exists as the oracle the parity
    /// tests compare the lazy path against.
    /// Consuming builder, consistent with [`VerifySystem::with_symmetry`]:
    ///
    /// ```ignore
    /// let sys = VerifySystem::with_symmetry(p, SymmetryMode::Full).lazy(false);
    /// ```
    pub fn lazy(mut self, lazy: bool) -> Self {
        self.lazy = lazy;
        self
    }

    /// Is lazy (admission-gated) expansion active?
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// Order of the effective symmetry group (1 = no reduction).
    pub fn symmetry_group_order(&self) -> usize {
        self.core.perms.len().max(1)
    }

    /// Assemble a product state; under symmetry it shares the seal core.
    fn state(
        &self,
        proto: P::State,
        obs: Observer,
        chk: ScChecker,
        error: Option<Box<RejectReason>>,
    ) -> VerifyState<P::State> {
        let group = if self.core.perms.is_empty() {
            None
        } else {
            Some(Arc::clone(&self.core) as Arc<dyn Reseal<P::State>>)
        };
        VerifyState {
            proto,
            obs,
            chk,
            error,
            group,
        }
    }

    /// Recompute the canonical encoding of a product state from scratch,
    /// bypassing every seal cache — the key differential-testing and
    /// benchmarking hook: two systems over the same protocol must produce
    /// byte-identical results here whether they canonicalize via the
    /// sort-based fast path ([`SymmetryMode::Full`]) or the brute-force
    /// reference ([`SymmetryMode::FullEnum`]).
    pub fn canonical_encoding_of(&self, s: &VerifyState<P::State>) -> Vec<u64> {
        let mut enc = Vec::with_capacity(160);
        self.core.reseal(&s.proto, &s.obs, &s.chk, &mut enc);
        enc
    }
}

impl<P: Symmetry> TransitionSystem for VerifySystem<P>
where
    P::State: Send + 'static,
{
    type State = VerifyState<P::State>;
    type Label = Action;
    type Violation = RejectReason;

    fn initial(&self) -> Self::State {
        let obs = Observer::new(ObserverConfig::from_protocol(self.protocol()));
        let chk = ScChecker::new(obs.k());
        self.state(self.protocol().initial(), obs, chk, None)
    }

    fn successors(&self, s: &Self::State) -> Vec<(Action, Self::State)> {
        let mut out = Vec::new();
        self.successors_into(s, &mut out);
        out
    }

    // Only the eager reference path (`eager_expand`) expands through
    // this; production runs and checkpoint replay use `expand_admitted`.
    fn successors_into(&self, s: &Self::State, out: &mut Vec<(Action, Self::State)>) {
        if s.error.is_some() {
            return; // rejection is absorbing
        }
        let _t = scv_telemetry::timer(scv_telemetry::Phase::Expand);
        let mut syms = Vec::new(); // hoisted: one symbol buffer per expansion
        for t in self.protocol().transitions(&s.proto) {
            let Transition {
                action,
                next,
                tracking,
            } = t;
            let mut obs = s.obs.clone();
            let mut chk = s.chk.clone();
            syms.clear();
            obs.step(&Step { action, tracking }, &mut syms);
            let mut error = None;
            {
                let _t = scv_telemetry::timer_sampled(scv_telemetry::Phase::CheckerStep);
                for sym in &syms {
                    if let Err(e) = chk.step(sym) {
                        error = Some(Box::new(RejectReason::Stream(e)));
                        break;
                    }
                }
            }
            out.push((action, self.state(next, obs, chk, error)));
        }
    }

    fn expand_scratch(&self) -> ExpandScratch {
        ExpandScratch::new(SealScratch::<P::State>::new())
    }

    // The admission-gated hot path: replay each candidate transition into
    // reused scratch copies, seal only as far as a fingerprint, let the
    // search's `admit` probe reject duplicates, and materialize (move out
    // of the scratch slots) only what survived. In dense product graphs
    // the majority of candidates are duplicates, so the majority of
    // clone/alloc work is skipped — `mc.clones_avoided` counts exactly how
    // much. The sealed words are dropped once fingerprinted.
    fn expand_admitted(
        &self,
        s: &Self::State,
        scratch: &mut ExpandScratch,
        fper: &Fingerprinter,
        admit: &mut dyn FnMut(&[u128], &mut Vec<bool>),
        out: &mut Vec<(Action, Self::State, u128)>,
    ) {
        if s.error.is_some() {
            return; // rejection is absorbing
        }
        if !self.lazy {
            let _t = scv_telemetry::timer(scv_telemetry::Phase::Expand);
            eager_expand(self, s, fper, admit, out);
            return;
        }
        let Some(sc) = scratch.get_mut::<SealScratch<P::State>>() else {
            // A foreign scratch: some caller didn't thread ours through.
            // The reference path is always correct.
            eager_expand(self, s, fper, admit, out);
            return;
        };
        let _t = scv_telemetry::timer(scv_telemetry::Phase::Expand);
        let core = &*self.core;
        let sym = !core.perms.is_empty();
        // Keying the cache costs a hash pass over the identity encoding,
        // while a hit saves the whole canonicalization — worthwhile only
        // when the group is big enough to amortize the key, and only until
        // the hit-rate gate trips.
        let cached = core.perms.len() >= 4;
        if cached {
            // The shared L2 is keyed by identity-encoding fp64, which
            // depends on the fingerprinter seeds: (re)seed it, clearing
            // stale entries when the seeds changed since the last run.
            self.l2.ensure_seeds(fper.seeds());
        }
        // Taken out of the scratch so the loop can mutate `sc` while
        // draining it; the allocation is handed back at the end.
        let mut trans = std::mem::take(&mut sc.trans);
        trans.clear();
        core.protocol.transitions_into(&s.proto, &mut trans);
        let n = trans.len();
        if n == 0 {
            sc.trans = trans;
            return;
        }
        sc.fps.clear();
        for (i, t) in trans.drain(..).enumerate() {
            let Transition {
                action,
                next,
                tracking,
            } = t;
            if sc.slots.len() <= i {
                sc.slots.push(CandSlot {
                    action,
                    proto: None,
                    obs: None,
                    chk: None,
                    chk_is_parent: false,
                    error: None,
                });
            }
            let slot = &mut sc.slots[i];
            slot.action = action;
            slot.error = None;
            slot.proto = Some(next);
            // Replay into the slot's scratch copies: `clone_from` reuses
            // the previous round's allocations; only an emptied slot (its
            // components were moved into an admitted state) pays a fresh
            // clone — which the eager path paid for *every* candidate.
            match &mut slot.obs {
                Some(o) => o.clone_from(&s.obs),
                None => slot.obs = Some(s.obs.clone()),
            }
            sc.syms.clear();
            slot.obs
                .as_mut()
                .expect("slot.obs filled above")
                .step(&Step { action, tracking }, &mut sc.syms);
            // A transition with no symbols (an internal protocol action)
            // leaves the checker untouched: skip the checker copy and
            // encode through the parent's checker directly. Materializing
            // such a candidate clones the parent checker then — but only
            // for admitted candidates, where the eager path cloned it for
            // every one.
            slot.chk_is_parent = sc.syms.is_empty();
            if !slot.chk_is_parent {
                match &mut slot.chk {
                    Some(c) => c.clone_from(&s.chk),
                    None => slot.chk = Some(s.chk.clone()),
                }
                let _t = scv_telemetry::timer_sampled(scv_telemetry::Phase::CheckerStep);
                let chk = slot.chk.as_mut().expect("slot.chk filled above");
                for symbol in &sc.syms {
                    if let Err(e) = chk.step(symbol) {
                        slot.error = Some(Box::new(RejectReason::Stream(e)));
                        break;
                    }
                }
            }
            // Fingerprint-only seal: canonical words into the scratch
            // buffer, no state construction.
            let proto = slot.proto.as_ref().expect("slot.proto filled above");
            let obs = slot.obs.as_ref().expect("slot.obs filled above");
            let chk = if slot.chk_is_parent {
                &s.chk
            } else {
                slot.chk.as_ref().expect("slot.chk filled above")
            };
            sc.enc.clear();
            let mut key = None;
            let hit = if cached && !sc.l1.off {
                let l1 = &mut sc.l1;
                let mut probe = |identity: &[u64]| {
                    let k = fper.fp64(&FpParts::<P::State> {
                        proto: None,
                        enc: identity,
                    });
                    key = Some(k);
                    l1.probe(&self.l2, k)
                };
                core.seal_into(proto, obs, chk, &mut sc.bufs, &mut sc.enc, Some(&mut probe))
            } else {
                core.seal_into(proto, obs, chk, &mut sc.bufs, &mut sc.enc, None)
            };
            let fp = hit.unwrap_or_else(|| {
                let fp = fper.fp(&FpParts {
                    proto: (!sym).then_some(proto),
                    enc: &sc.enc,
                });
                if let Some(k) = key {
                    sc.l1.insert(&self.l2, k, fp);
                }
                fp
            });
            sc.fps.push(fp);
        }
        sc.trans = trans; // drained; hand the allocation back

        admit(&sc.fps, &mut sc.keep);
        debug_assert_eq!(sc.keep.len(), n);
        if scv_telemetry::enabled() {
            let admitted = sc.keep.iter().filter(|k| **k).count();
            scv_telemetry::add(
                scv_telemetry::Metric::McClonesAvoided,
                (n - admitted) as u64,
            );
        }
        for i in 0..n {
            if !sc.keep[i] {
                continue;
            }
            let slot = &mut sc.slots[i];
            let chk = if slot.chk_is_parent {
                s.chk.clone()
            } else {
                slot.chk.take().expect("admitted slot has chk")
            };
            let state = self.state(
                slot.proto.take().expect("admitted slot has proto"),
                slot.obs.take().expect("admitted slot has obs"),
                chk,
                slot.error.take(),
            );
            out.push((slot.action, state, sc.fps[i]));
        }
    }

    fn violation(&self, s: &Self::State) -> Option<RejectReason> {
        if let Some(e) = &s.error {
            return Some(RejectReason::clone(e));
        }
        let _t = scv_telemetry::timer_sampled(scv_telemetry::Phase::CheckerEnd);
        // Traces are prefix-closed: every reachable state is a possible
        // end of run, so the end-of-string conditions (order totality,
        // outstanding forced obligations) must hold here too.
        if !s.obs.has_pending() {
            // Nothing left to serialize: probe the checker in place.
            return s.chk.check_end().err().map(RejectReason::RunEnd);
        }
        // Pending serializations: replay the observer's trailing symbols
        // on copies.
        let mut obs = s.obs.clone();
        let mut chk = s.chk.clone();
        let mut syms = Vec::new();
        obs.finish(&mut syms);
        for sym in &syms {
            if let Err(e) = chk.step(sym) {
                return Some(RejectReason::RunEnd(e));
            }
        }
        chk.check_end().err().map(RejectReason::RunEnd)
    }
}

/// Limits and parallelism for [`verify_protocol`].
///
/// Construct with the chained builder:
///
/// ```
/// use scv_mc::{SymmetryMode, VerifyOptions};
/// let opts = VerifyOptions::new()
///     .threads(4)
///     .max_states(500_000)
///     .symmetry(SymmetryMode::Full);
/// # assert_eq!(opts.threads, 4);
/// ```
///
/// The struct is `#[non_exhaustive]`, so literal construction outside this
/// crate no longer compiles; `VerifyOptions::default()` remains as an
/// escape hatch (fields stay public for reading and in-place mutation)
/// for one release while callers migrate.
///
/// Run control rides along here too: a [`Budget`] and [`CancelToken`]
/// bound the run (tripping yields [`Outcome::Inconclusive`], not
/// `Bounded`), and the checkpoint fields make interrupted searches
/// resumable — see [`VerifySystem::try_search`]. These fields made the
/// struct `Clone`-but-not-`Copy`.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct VerifyOptions {
    /// BFS limits.
    pub bfs: BfsOptions,
    /// Worker threads (1 = sequential BFS).
    pub threads: usize,
    /// Batch granularity: states per deque chunk and fingerprints claimed
    /// per seen-set lock acquisition.
    pub batch_size: usize,
    /// Symmetry reduction: quotient the product space by the protocol's
    /// declared symmetry group. [`verify_protocol`] builds the system with
    /// this mode; [`VerifySystem::try_search`] panics if it differs from
    /// the mode the system was built with.
    pub symmetry: SymmetryMode,
    /// Resource budget for the run (wall clock, admitted states, resident
    /// memory). Tripping yields [`Outcome::Inconclusive`].
    pub budget: Budget,
    /// Cooperative cancellation handle polled at admission boundaries.
    pub cancel: CancelToken,
    /// Write a checkpoint this often while the run is in progress (the
    /// search is paused at a consistent point, serialized, and resumed
    /// in-process). Requires [`VerifyOptions::checkpoint_path`].
    pub checkpoint_every: Option<Duration>,
    /// Where periodic and final (budget-trip) checkpoints are written.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume a previous run from this checkpoint file instead of
    /// starting fresh. The file must match the protocol, parameters,
    /// symmetry mode, and initial state, or the search fails with
    /// [`CheckpointError::Mismatch`].
    pub resume_from: Option<PathBuf>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            bfs: BfsOptions::new().max_states(200_000),
            threads: 1,
            batch_size: DEFAULT_BATCH,
            symmetry: SymmetryMode::Off,
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
            checkpoint_every: None,
            checkpoint_path: None,
            resume_from: None,
        }
    }
}

impl VerifyOptions {
    /// Default options (sequential, 200k-state cap, no symmetry); chain
    /// builder methods to adjust.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker threads (1 = sequential).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Stop after visiting this many states.
    pub fn max_states(mut self, n: usize) -> Self {
        self.bfs.max_states = n;
        self
    }

    /// Explore at most this many BFS levels.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.bfs.max_depth = d;
        self
    }

    /// Replace the whole [`BfsOptions`] block.
    pub fn bfs(mut self, bfs: BfsOptions) -> Self {
        self.bfs = bfs;
        self
    }

    /// Batch granularity (states per chunk, fingerprints per seen-set
    /// batch).
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = n;
        self
    }

    /// Symmetry reduction mode.
    pub fn symmetry(mut self, m: SymmetryMode) -> Self {
        self.symmetry = m;
        self
    }

    /// Resource budget for the run.
    pub fn budget(mut self, b: Budget) -> Self {
        self.budget = b;
        self
    }

    /// Wall-clock deadline, measured from the start of the run. Shorthand
    /// for `budget(self.budget.deadline(d))`.
    pub fn timeout(mut self, d: Duration) -> Self {
        self.budget = self.budget.deadline(d);
        self
    }

    /// Cancellation token the search polls at admission boundaries.
    pub fn cancel_token(mut self, t: CancelToken) -> Self {
        self.cancel = t;
        self
    }

    /// Write a checkpoint to [`VerifyOptions::checkpoint_path`] this often.
    pub fn checkpoint_every(mut self, d: Duration) -> Self {
        self.checkpoint_every = Some(d);
        self
    }

    /// Where checkpoints (periodic and budget-trip) are written.
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Resume from a checkpoint file instead of starting fresh.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }
}

/// Outcome of verifying a protocol.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Every reachable observer run describes an acyclic constraint graph:
    /// the observer is a witness and the protocol is **sequentially
    /// consistent** (Theorem 3.1).
    Verified {
        /// Search statistics.
        stats: McStats,
    },
    /// Some run's witness graph is not an acyclic constraint graph: the
    /// protocol is not in the class Γ for the generated tracking labels
    /// and ST order generator (for real protocols this means a genuine SC
    /// violation; the run is returned for inspection).
    Violation {
        /// The actions of the violating run.
        run: Vec<Action>,
        /// The memory operations of the violating run.
        trace: Trace,
        /// The checker's diagnosis.
        reason: RejectReason,
        /// Search statistics.
        stats: McStats,
    },
    /// A search limit was reached with no violation found.
    Bounded {
        /// Search statistics.
        stats: McStats,
    },
    /// The run was interrupted — budget tripped or cancel requested —
    /// before reaching a verdict. Unlike `Bounded` ("the space is bigger
    /// than I was asked to cover"), an inconclusive run is *resumable*: if
    /// a checkpoint path was configured, the partial search is on disk and
    /// [`VerifyOptions::resume_from`] continues it exactly.
    Inconclusive {
        /// Which limit stopped the run.
        reason: InterruptReason,
        /// How much of the state space was covered before the interrupt.
        coverage: Coverage,
        /// Search statistics at the interrupt point.
        stats: McStats,
    },
}

impl Outcome {
    /// Search statistics regardless of outcome.
    pub fn stats(&self) -> McStats {
        match self {
            Outcome::Verified { stats }
            | Outcome::Violation { stats, .. }
            | Outcome::Bounded { stats }
            | Outcome::Inconclusive { stats, .. } => *stats,
        }
    }

    /// Did verification succeed exhaustively?
    pub fn is_verified(&self) -> bool {
        matches!(self, Outcome::Verified { .. })
    }

    /// Was the run interrupted before reaching a verdict?
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Outcome::Inconclusive { .. })
    }

    /// The typed violation diagnosis, if this outcome is a violation.
    ///
    /// Borrows, so there is no allocation, and the caller can match on
    /// [`scv_checker::ScErrorKind`] structurally instead of parsing text.
    /// The message text is `reason.to_string()` (its `Display` is pinned
    /// by the `options_and_reasons` test battery).
    pub fn reject_reason(&self) -> Option<&RejectReason> {
        match self {
            Outcome::Violation { reason, .. } => Some(reason),
            _ => None,
        }
    }

    /// Coverage of an interrupted run, if this outcome is inconclusive.
    pub fn coverage(&self) -> Option<Coverage> {
        match self {
            Outcome::Inconclusive { coverage, .. } => Some(*coverage),
            _ => None,
        }
    }
}

impl<P> VerifySystem<P>
where
    P: Symmetry + Sync,
    P::State: Send + Sync + 'static,
{
    /// Run a search over this product system, honouring every
    /// [`VerifyOptions`] knob including run control and checkpointing.
    ///
    /// Panics if checkpoint I/O fails or a resume file does not match
    /// this system; use [`VerifySystem::try_search`] to handle those.
    pub fn search(&self, opts: &VerifyOptions) -> Outcome {
        match self.try_search(opts) {
            Ok(out) => out,
            Err(e) => panic!("checkpoint error (use try_search to handle): {e}"),
        }
    }

    /// Run a search over this product system.
    ///
    /// This is the stop-and-go driver behind every public entry point:
    ///
    /// 1. If [`VerifyOptions::resume_from`] is set, load the checkpoint
    ///    file, validate it against this system (protocol name,
    ///    parameters, symmetry mode, initial-state fingerprint), and
    ///    rebuild the in-memory search state — frontier states are
    ///    reconstructed by replaying their parent chains of actions from
    ///    the initial state, fingerprint-checking every step.
    /// 2. Run the search core in *slices*: each slice's deadline is
    ///    the earlier of the budget deadline and the next
    ///    [`VerifyOptions::checkpoint_every`] tick. A slice that ends at a
    ///    checkpoint tick serializes the paused search to
    ///    [`VerifyOptions::checkpoint_path`] and resumes in-process.
    /// 3. A verdict maps to `Verified`/`Violation`/`Bounded` exactly as
    ///    before; a tripped budget or cancel writes a final checkpoint (if
    ///    a path is configured) and returns [`Outcome::Inconclusive`] with
    ///    the reason and coverage counts.
    ///
    /// The resume path is exact: verdicts and state counts match an
    /// uninterrupted run (the search drains to a consistent point before
    /// checkpointing; see `crate::control`).
    ///
    /// With telemetry installed, every run that reaches an [`Outcome`]
    /// emits one [`scv_telemetry::RunReport`] named `verify/<protocol>`
    /// with the verdict and search stats (and, for an inconclusive run,
    /// the interrupt reason and frontier size).
    ///
    /// Panics if [`VerifyOptions::symmetry`] is not the mode this system
    /// was built with: a run has one symmetry mode, named in both places.
    pub fn try_search(&self, opts: &VerifyOptions) -> Result<Outcome, CheckpointError> {
        assert!(
            opts.symmetry == self.mode,
            "VerifyOptions::symmetry is {:?} but the system was built with {:?}",
            opts.symmetry,
            self.mode
        );
        let out = self.run_slices(opts)?;
        if scv_telemetry::enabled() {
            self.emit_run_report(opts, &out);
        }
        Ok(out)
    }

    /// The run report [`VerifySystem::try_search`] emits for `out`.
    fn emit_run_report(&self, opts: &VerifyOptions, out: &Outcome) {
        let name = self.protocol().name();
        let params = self.protocol().params();
        let s = out.stats();
        let mut report = scv_telemetry::RunReport::new(format!("verify/{name}"))
            .param("protocol", name)
            .param("p", params.p.to_string())
            .param("b", params.b.to_string())
            .param("v", params.v.to_string())
            .param("threads", opts.threads.to_string())
            .param("batch", opts.batch_size.to_string())
            .param("max_states", opts.bfs.max_states.to_string())
            .param("symmetry", format!("{:?}", self.mode))
            .param("symmetry_group", self.symmetry_group_order().to_string())
            .param("expand", if self.is_lazy() { "lazy" } else { "eager" })
            .with_verdict(verdict_str(out))
            .metric("states", s.states as f64)
            .metric("transitions", s.transitions as f64)
            .metric("depth", s.depth as f64)
            .metric("elapsed_secs", s.elapsed.as_secs_f64())
            .metric("states_per_sec", s.states_per_sec())
            .metric("peak_frontier", s.peak_frontier as f64)
            .metric("steals", s.steals as f64)
            .metric("seen_batches", s.seen_batches as f64);
        // Omitted (not zero) when the platform can't report it.
        if let Some(rss) = scv_telemetry::peak_rss_bytes() {
            report = report.metric("peak_rss_bytes", rss as f64);
        }
        if let Outcome::Inconclusive {
            reason, coverage, ..
        } = out
        {
            report = report
                .param("interrupt", reason.to_string())
                .metric("frontier", coverage.frontier as f64);
        }
        scv_telemetry::emit_report(report);
    }

    /// The search loop behind [`VerifySystem::try_search`]: resume, run
    /// slice by slice, checkpoint at ticks and trips.
    fn run_slices(&self, opts: &VerifyOptions) -> Result<Outcome, CheckpointError> {
        let run_start = Instant::now();
        let mut resume = match &opts.resume_from {
            Some(path) => Some(self.rebuild_checkpoint(&CheckpointFile::load(path)?)?),
            None => None,
        };
        // The budget deadline is absolute (measured from run start); each
        // slice additionally caps itself at the next checkpoint tick.
        let budget_deadline = opts.budget.deadline.map(|d| run_start + d);
        let sliced_budget = Budget {
            deadline: None,
            ..opts.budget
        };
        // Floor the tick: a zero-length slice would trip before expanding
        // anything. `effective_every` then adapts upward (doubling) any
        // time a slice makes no progress — as the seen-set grows, resume
        // setup costs O(states), and a fixed short tick could otherwise be
        // consumed entirely by setup, livelocking the run.
        let mut effective_every = opts
            .checkpoint_every
            .map(|e| e.max(Duration::from_millis(1)));
        let mut last_states = resume.as_ref().map_or(0, |ck| ck.states);
        loop {
            let mut ctrl = RunControl::new(&sliced_budget, opts.cancel.clone());
            if let Some(d) = budget_deadline {
                ctrl = ctrl.with_deadline(d);
            }
            if let Some(every) = effective_every {
                ctrl = ctrl.with_deadline(Instant::now() + every);
            }
            let taken = resume.take();
            let result =
                ws_search_controlled(self, opts.bfs, opts.threads, opts.batch_size, &ctrl, taken).0;
            match result {
                ControlledSearch::Finished(r) => {
                    let mut stats = r.stats();
                    stats.elapsed = run_start.elapsed();
                    return Ok(match r {
                        SearchResult::Safe(_) => Outcome::Verified { stats },
                        SearchResult::Bounded(_) => Outcome::Bounded { stats },
                        SearchResult::Unsafe(ce, _) => {
                            let ops: Vec<Op> = ce.path.iter().filter_map(|a| a.op()).collect();
                            Outcome::Violation {
                                run: ce.path,
                                trace: Trace::from_ops(ops),
                                reason: ce.reason,
                                stats,
                            }
                        }
                    });
                }
                ControlledSearch::Interrupted {
                    reason,
                    checkpoint,
                    mut stats,
                } => {
                    // A deadline trip with the *budget* deadline still in
                    // the future is a checkpoint tick, not a budget trip:
                    // snapshot and keep going.
                    let tick = reason == InterruptReason::Deadline
                        && budget_deadline.is_none_or(|d| Instant::now() < d);
                    if let Some(path) = &opts.checkpoint_path {
                        self.write_checkpoint(path, &checkpoint)?;
                    }
                    if tick {
                        if checkpoint.states <= last_states {
                            if let Some(e) = &mut effective_every {
                                *e = e.saturating_mul(2);
                            }
                        }
                        last_states = checkpoint.states;
                        resume = Some(checkpoint);
                        continue;
                    }
                    scv_telemetry::add(scv_telemetry::Metric::McBudgetTrips, 1);
                    let coverage = Coverage {
                        explored: stats.states,
                        frontier: checkpoint.frontier.len(),
                        depth: stats.depth,
                    };
                    stats.elapsed = run_start.elapsed();
                    return Ok(Outcome::Inconclusive {
                        reason,
                        coverage,
                        stats,
                    });
                }
            }
        }
    }

    /// Package a search checkpoint into the portable file form.
    fn checkpoint_file(
        &self,
        ck: &SearchCheckpoint<VerifyState<P::State>, Action>,
    ) -> CheckpointFile {
        let p = self.protocol().params();
        CheckpointFile {
            protocol: self.protocol().name().to_string(),
            dims: (p.p, p.b, p.v),
            symmetry: self.mode.as_byte(),
            seeds: ck.seeds,
            states: ck.states as u64,
            transitions: ck.transitions as u64,
            depth: ck.depth as u64,
            init_fp: ck.init_fp,
            seen: ck.seen.clone(),
            parents: ck.parents.clone(),
            frontier: ck
                .frontier
                .iter()
                .map(|(_, fp, d)| (*fp, *d as u32))
                .collect(),
        }
    }

    fn write_checkpoint(
        &self,
        path: &std::path::Path,
        ck: &SearchCheckpoint<VerifyState<P::State>, Action>,
    ) -> Result<(), CheckpointError> {
        let bytes = self.checkpoint_file(ck).save(path)?;
        scv_telemetry::add(scv_telemetry::Metric::McCheckpointBytes, bytes);
        if scv_telemetry::recorder_enabled() {
            scv_telemetry::recorder::instant(
                scv_telemetry::recorder::InstantKind::Checkpoint,
                bytes,
            );
        }
        Ok(())
    }

    /// Validate a checkpoint file against this system and rebuild the
    /// in-memory [`SearchCheckpoint`], rematerializing every frontier
    /// state by replaying its parent chain from the initial state.
    fn rebuild_checkpoint(
        &self,
        file: &CheckpointFile,
    ) -> Result<SearchCheckpoint<VerifyState<P::State>, Action>, CheckpointError> {
        let name = self.protocol().name();
        if file.protocol != name {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is for protocol {:?}, not {name:?}",
                file.protocol
            )));
        }
        let p = self.protocol().params();
        if file.dims != (p.p, p.b, p.v) {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint parameters {:?} do not match ({}, {}, {})",
                file.dims, p.p, p.b, p.v
            )));
        }
        if file.symmetry != self.mode.as_byte() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint symmetry byte {} does not match mode {:?}",
                file.symmetry, self.mode
            )));
        }
        let fper = Fingerprinter::from_seeds(file.seeds);
        let init = self.initial();
        let init_fp = fper.fp(&init);
        if init_fp != file.init_fp {
            return Err(CheckpointError::Mismatch(
                "initial-state fingerprint does not match (different system?)".into(),
            ));
        }
        // Parent edges keyed by child fingerprint, for chain walking.
        let mut up: HashMap<u128, (u128, Action)> = HashMap::with_capacity(file.parents.len());
        for &(child, parent, action) in &file.parents {
            up.insert(child, (parent, action));
        }
        // Replayed states are cached by fingerprint so frontier states
        // sharing a prefix walk it only once.
        let mut cache: HashMap<u128, VerifyState<P::State>> = HashMap::new();
        cache.insert(init_fp, init);
        let mut frontier = Vec::with_capacity(file.frontier.len());
        // Replay through the production expansion path, admitting only the
        // candidate whose fingerprint is the recorded child's.
        let mut scratch = self.expand_scratch();
        let mut admitted = Vec::new();
        for &(fp, depth) in &file.frontier {
            let mut chain = Vec::new();
            let mut cur = fp;
            while !cache.contains_key(&cur) {
                let Some(&(parent, action)) = up.get(&cur) else {
                    return Err(CheckpointError::Corrupt(format!(
                        "frontier fingerprint {cur:#034x} has no parent chain to the initial state"
                    )));
                };
                chain.push((cur, action));
                if chain.len() > file.parents.len() {
                    return Err(CheckpointError::Corrupt("parent-edge cycle".into()));
                }
                cur = parent;
            }
            let mut state = cache[&cur].clone();
            for &(child_fp, action) in chain.iter().rev() {
                admitted.clear();
                let mut admit = |fps: &[u128], keep: &mut Vec<bool>| {
                    keep.clear();
                    keep.extend(fps.iter().map(|&fp| fp == child_fp));
                };
                self.expand_admitted(&state, &mut scratch, &fper, &mut admit, &mut admitted);
                let next = admitted.drain(..).find(|(a, _, _)| *a == action);
                let Some((_, s, _)) = next else {
                    return Err(CheckpointError::Mismatch(format!(
                        "replaying {action:?} did not reproduce fingerprint {child_fp:#034x} \
                         (protocol behaviour changed since the checkpoint?)"
                    )));
                };
                cache.insert(child_fp, s.clone());
                state = s;
            }
            frontier.push((state, fp, depth as usize));
        }
        Ok(SearchCheckpoint {
            seeds: file.seeds,
            init_fp,
            seen: file.seen.clone(),
            frontier,
            parents: file.parents.clone(),
            states: file.states as usize,
            transitions: file.transitions as usize,
            depth: file.depth as usize,
        })
    }
}

/// Canonical short verdict string for an [`Outcome`] — the single
/// spelling shared by the `verify/…` run reports, the CLI summary lines,
/// and the benchmark records.
pub fn verdict_str(out: &Outcome) -> &'static str {
    match out {
        Outcome::Verified { .. } => "verified",
        Outcome::Violation { .. } => "violation",
        Outcome::Bounded { .. } => "bounded",
        Outcome::Inconclusive { .. } => "inconclusive",
    }
}

/// Run the complete §3.4 method on a protocol.
pub fn verify_protocol<P>(protocol: P, opts: VerifyOptions) -> Outcome
where
    P: Symmetry + Sync,
    P::State: Send + Sync + 'static,
{
    VerifySystem::with_symmetry(protocol, opts.symmetry).search(&opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ws::ws_search_controlled;
    use scv_protocol::{
        Fig4Protocol, LazyCaching, MsiProtocol, Protocol, SerialMemory, StoreBufferTso,
    };
    use scv_types::Params;

    fn opts(max_states: usize) -> VerifyOptions {
        VerifyOptions::new().max_states(max_states)
    }

    /// "Safe within the cap": either fully verified, or the cap was hit
    /// with no violation — never a violation. Product spaces here run to
    /// millions of states even for tiny protocols (see DESIGN.md §6), so
    /// most positive tests assert bounded safety and only the smallest
    /// configuration is proved exhaustively.
    fn safe_within(out: &Outcome) -> bool {
        !matches!(out, Outcome::Violation { .. })
    }

    /// Sequential BFS is deterministic, so an exhaustive proof's class
    /// count is pinned exactly (the same figure the benchmark's `proof`
    /// workload checks).
    #[test]
    #[ignore = "exhaustive proof (~120k product states): run with `cargo test --release -p scv-mc --lib -- --ignored`"]
    fn serial_memory_2_1_1_verifies_exhaustively() {
        let out = verify_protocol(SerialMemory::new(Params::new(2, 1, 1)), opts(400_000));
        assert!(
            out.is_verified(),
            "serial memory must verify: {:?}",
            out.stats()
        );
        assert_eq!(out.stats().states, 121_469);
    }

    /// The full-symmetry twin of the proof above, pinned the same way.
    #[test]
    #[ignore = "exhaustive proof (~60k product classes): run with `cargo test --release -p scv-mc --lib -- --ignored`"]
    fn serial_memory_2_1_1_verifies_exhaustively_under_full_symmetry() {
        let out = verify_protocol(
            SerialMemory::new(Params::new(2, 1, 1)),
            opts(400_000).symmetry(SymmetryMode::Full),
        );
        assert!(
            out.is_verified(),
            "serial memory must verify: {:?}",
            out.stats()
        );
        assert_eq!(out.stats().states, 61_064);
    }

    #[test]
    fn serial_memory_2_1_1_safe_within_cap() {
        let out = verify_protocol(SerialMemory::new(Params::new(2, 1, 1)), opts(30_000));
        assert!(safe_within(&out), "{:?}", out.stats());
    }

    #[test]
    fn serial_memory_2_1_2_safe_within_cap() {
        let out = verify_protocol(SerialMemory::new(Params::new(2, 1, 2)), opts(60_000));
        assert!(
            safe_within(&out),
            "no violation may appear: {:?}",
            out.stats()
        );
    }

    #[test]
    fn msi_safe_within_cap() {
        let out = verify_protocol(MsiProtocol::new(Params::new(2, 1, 2)), opts(60_000));
        assert!(safe_within(&out), "MSI must not violate: {:?}", out.stats());
    }

    #[test]
    fn lazy_caching_safe_within_cap() {
        let out = verify_protocol(LazyCaching::new(Params::new(2, 1, 1), 1, 1), opts(60_000));
        assert!(
            safe_within(&out),
            "lazy caching must not violate: {:?}",
            out.stats()
        );
    }

    #[test]
    fn buggy_msi_violates() {
        let out = verify_protocol(MsiProtocol::buggy(Params::new(2, 2, 1)), opts(2_000_000));
        match out {
            Outcome::Violation { trace, reason, .. } => {
                // The violating run's trace must itself be non-SC — the
                // bug is real, not a verification artifact.
                assert!(
                    !scv_graph::has_serial_reordering(&trace),
                    "counterexample trace should violate SC: {trace} ({reason})"
                );
            }
            o => panic!("expected Violation, got {:?}", o.stats()),
        }
    }

    #[test]
    fn tso_violates() {
        let out = verify_protocol(
            StoreBufferTso::new(Params::new(2, 2, 1), 1),
            opts(2_000_000),
        );
        match out {
            Outcome::Violation { trace, .. } => {
                assert!(!scv_graph::has_serial_reordering(&trace));
            }
            o => panic!("expected Violation, got {:?}", o.stats()),
        }
    }

    #[test]
    fn fig4_not_verified() {
        // The Get-Shared protocol is outside the class Γ for the real-time
        // ST order generator (stale views re-fetched via Get-Shared make
        // the real-time store order wrong), so verification must fail.
        // Note the *shortest* rejected run may still have an SC trace —
        // rejection means "no witness under this generator", and the
        // protocol also has genuinely non-SC traces (shown in
        // scv-protocol's fig4 tests).
        let out = verify_protocol(Fig4Protocol::new(Params::new(2, 1, 2), 1), opts(2_000_000));
        assert!(
            matches!(out, Outcome::Violation { .. }),
            "expected Violation, got {:?}",
            out.stats()
        );
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        // Verdicts must agree on a violation hunt (counterexamples are
        // found quickly in parallel too).
        let seq = verify_protocol(MsiProtocol::buggy(Params::new(2, 2, 1)), opts(2_000_000));
        assert!(matches!(seq, Outcome::Violation { .. }));
        let par = verify_protocol(
            MsiProtocol::buggy(Params::new(2, 2, 1)),
            opts(2_000_000).threads(4),
        );
        assert!(matches!(par, Outcome::Violation { .. }));
    }

    /// An admitted seal-cache hit (in a search, mostly a probe race between
    /// workers) must reseal to exactly the state's canonical encoding and
    /// fingerprint. Expanding one state twice through the same scratch
    /// makes every second-pass candidate a cache hit, and admitting
    /// everything sends each one down the reseal path.
    #[test]
    fn admitted_seal_cache_hits_reseal_canonically() {
        let sys =
            VerifySystem::with_symmetry(MsiProtocol::new(Params::new(2, 1, 2)), SymmetryMode::Full);
        assert!(
            sys.symmetry_group_order() >= 4,
            "the seal cache needs |G| >= 4"
        );
        // A few steps in, so the candidates carry observer and checker
        // content.
        let mut s = sys.initial();
        for _ in 0..4 {
            s = sys.successors(&s).pop().expect("MSI has successors").1;
        }
        let fper = Fingerprinter::from_seeds([1, 2, 3, 4]);
        let mut scratch = sys.expand_scratch();
        let mut admit_all = |fps: &[u128], keep: &mut Vec<bool>| {
            keep.clear();
            keep.resize(fps.len(), true);
        };
        let mut first = Vec::new();
        sys.expand_admitted(&s, &mut scratch, &fper, &mut admit_all, &mut first);
        let mut second = Vec::new();
        sys.expand_admitted(&s, &mut scratch, &fper, &mut admit_all, &mut second);
        let hits = scratch
            .get_mut::<SealScratch<<MsiProtocol as scv_protocol::Protocol>::State>>()
            .expect("the system's own scratch")
            .l1
            .hits;
        assert!(!second.is_empty());
        assert!(hits as usize >= second.len(), "{hits} hits");
        assert_eq!(first.len(), second.len());
        for ((a1, _, fp1), (a2, state, fp2)) in first.iter().zip(&second) {
            assert_eq!((a1, fp1), (a2, fp2));
            assert_eq!(*fp2, fper.fp(state));
            assert_eq!(state.encoding(), sys.canonical_encoding_of(state));
        }
    }

    /// Delegates to a product system and, for every state its lazy path
    /// admits, checks that the state hashes to its admission fingerprint
    /// and reseals to its canonical encoding.
    struct ResealCheck<'a, P: Symmetry> {
        sys: &'a VerifySystem<P>,
        checked: AtomicU64,
    }

    impl<P: Symmetry> TransitionSystem for ResealCheck<'_, P>
    where
        P::State: Send + 'static,
    {
        type State = VerifyState<P::State>;
        type Label = Action;
        type Violation = RejectReason;

        fn initial(&self) -> Self::State {
            self.sys.initial()
        }

        fn successors(&self, s: &Self::State) -> Vec<(Action, Self::State)> {
            self.sys.successors(s)
        }

        fn violation(&self, s: &Self::State) -> Option<RejectReason> {
            self.sys.violation(s)
        }

        fn expand_scratch(&self) -> ExpandScratch {
            self.sys.expand_scratch()
        }

        fn expand_admitted(
            &self,
            s: &Self::State,
            scratch: &mut ExpandScratch,
            fper: &Fingerprinter,
            admit: &mut dyn FnMut(&[u128], &mut Vec<bool>),
            out: &mut Vec<(Action, Self::State, u128)>,
        ) {
            let before = out.len();
            self.sys.expand_admitted(s, scratch, fper, admit, out);
            for (_, t, fp) in &out[before..] {
                assert_eq!(fper.fp(t), *fp, "a resealed state changed fingerprint");
                assert_eq!(t.encoding(), self.sys.canonical_encoding_of(t));
                self.checked.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// States store no encoding, so hashing and `encoding()` reseal: on
    /// every lazily admitted state of a 5k-state search, in every symmetry
    /// mode and at one and two workers, both must reproduce what the
    /// admission gate saw.
    #[test]
    fn lazily_admitted_states_reseal_exactly() {
        for mode in [
            SymmetryMode::Off,
            SymmetryMode::Full,
            SymmetryMode::FullEnum,
        ] {
            let sys = VerifySystem::with_symmetry(MsiProtocol::new(Params::new(2, 1, 2)), mode);
            for threads in [1, 2] {
                let check = ResealCheck {
                    sys: &sys,
                    checked: AtomicU64::new(0),
                };
                let bfs = BfsOptions::new().max_states(5_000);
                let ctrl = RunControl::unlimited();
                let (r, _) = ws_search_controlled(&check, bfs, threads, DEFAULT_BATCH, &ctrl, None);
                assert!(matches!(
                    r,
                    ControlledSearch::Finished(SearchResult::Bounded(_))
                ));
                let checked = check.checked.into_inner();
                assert!(checked >= 4_999, "{mode:?} t={threads}: {checked} states");
            }
        }
    }

    /// Layout pin: the search holds every frontier state inline, so
    /// growth should be a deliberate choice.
    #[test]
    fn msi_state_layout_stays_lean() {
        let size = std::mem::size_of::<VerifyState<<MsiProtocol as Protocol>::State>>();
        assert!(size <= 480, "{size}");
    }

    #[test]
    fn bounded_outcome_on_tiny_limit() {
        let out = verify_protocol(MsiProtocol::new(Params::new(2, 2, 2)), opts(50));
        assert!(matches!(out, Outcome::Bounded { .. }));
    }

    #[test]
    fn symmetry_reduces_msi_with_same_verdict() {
        // Depth-bounded so both runs cut the same frontier: the quotient
        // must explore at least 2× fewer states (the (2,1,2) group has
        // order 4) and reach the same verdict.
        let depth = 8;
        let base = opts(500_000).max_depth(depth);
        let off = verify_protocol(MsiProtocol::new(Params::new(2, 1, 2)), base.clone());
        let on = verify_protocol(
            MsiProtocol::new(Params::new(2, 1, 2)),
            base.symmetry(SymmetryMode::Full),
        );
        assert_eq!(
            matches!(off, Outcome::Bounded { .. }),
            matches!(on, Outcome::Bounded { .. }),
            "verdicts must agree"
        );
        assert!(!matches!(off, Outcome::Violation { .. }));
        assert!(!matches!(on, Outcome::Violation { .. }));
        let (s_off, s_on) = (off.stats().states, on.stats().states);
        assert!(
            s_on * 2 <= s_off,
            "symmetry must at least halve the explored states: {s_on} vs {s_off}"
        );
    }

    #[test]
    fn symmetry_preserves_buggy_msi_violation() {
        let out = verify_protocol(
            MsiProtocol::buggy(Params::new(2, 2, 1)),
            opts(2_000_000).symmetry(SymmetryMode::Full),
        );
        match out {
            Outcome::Violation { trace, reason, .. } => {
                assert!(
                    !scv_graph::has_serial_reordering(&trace),
                    "reduced-search counterexample must still be a real violation: {trace} ({reason})"
                );
            }
            o => panic!("expected Violation, got {:?}", o.stats()),
        }
    }

    /// Unique temp path for checkpoint tests.
    fn tmp_ckpt(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("scv-verify-{}-{name}.ckpt", std::process::id()));
        p
    }

    #[test]
    fn state_budget_trip_is_inconclusive_with_coverage() {
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys.search(&opts(100_000).budget(Budget::unlimited().states(1_000)));
        match out {
            Outcome::Inconclusive {
                reason,
                coverage,
                stats,
            } => {
                assert_eq!(reason, InterruptReason::StateBudget);
                assert!(coverage.explored >= 1_000, "{coverage}");
                assert!(coverage.frontier > 0, "{coverage}");
                assert_eq!(coverage.explored, stats.states);
            }
            o => panic!("expected Inconclusive, got {:?}", o.stats()),
        }
    }

    #[test]
    fn zero_timeout_is_inconclusive_deadline() {
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys.search(&opts(100_000).timeout(std::time::Duration::ZERO));
        assert!(
            matches!(
                out,
                Outcome::Inconclusive {
                    reason: InterruptReason::Deadline,
                    ..
                }
            ),
            "got {:?}",
            out.stats()
        );
    }

    #[test]
    fn cancelled_search_is_inconclusive() {
        let token = CancelToken::new();
        token.cancel();
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys.search(&opts(100_000).cancel_token(token));
        assert!(matches!(
            out,
            Outcome::Inconclusive {
                reason: InterruptReason::Cancelled,
                ..
            }
        ));
    }

    #[test]
    fn driver_checkpoint_resume_matches_clean_run() {
        let clean = verify_protocol(SerialMemory::new(Params::new(2, 1, 1)), opts(30_000));
        assert!(matches!(clean, Outcome::Bounded { .. }));
        let clean_stats = clean.stats();

        let path = tmp_ckpt("resume-parity");
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys
            .try_search(
                &opts(30_000)
                    .budget(Budget::unlimited().states(2_000))
                    .checkpoint_to(&path),
            )
            .unwrap();
        assert!(out.is_inconclusive(), "{:?}", out.stats());

        // The file on disk round-trips through the codec.
        let file = CheckpointFile::load(&path).unwrap();
        assert_eq!(file.protocol, "serial-memory");
        assert!(file.states >= 2_000);

        // Resuming finishes the run with the clean run's verdict and —
        // for the deterministic one-worker search — its exact totals.
        let resumed = sys.try_search(&opts(30_000).resume_from(&path)).unwrap();
        assert!(
            matches!(resumed, Outcome::Bounded { .. }),
            "{:?}",
            resumed.stats()
        );
        assert_eq!(resumed.stats().states, clean_stats.states);

        // Four workers may overshoot the cap differently, but the
        // verdict and the cap itself must hold.
        let resumed_ws = sys
            .try_search(&opts(30_000).threads(4).resume_from(&path))
            .unwrap();
        assert!(
            matches!(resumed_ws, Outcome::Bounded { .. }),
            "{:?}",
            resumed_ws.stats()
        );
        assert!(resumed_ws.stats().states >= 30_000);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn periodic_checkpoints_do_not_change_the_verdict() {
        let clean = verify_protocol(SerialMemory::new(Params::new(2, 1, 1)), opts(20_000));
        let path = tmp_ckpt("periodic");
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys
            .try_search(
                &opts(20_000)
                    .checkpoint_every(std::time::Duration::from_millis(1))
                    .checkpoint_to(&path),
            )
            .unwrap();
        assert!(matches!(out, Outcome::Bounded { .. }), "{:?}", out.stats());
        assert_eq!(out.stats().states, clean.stats().states);
        // The run was long enough for at least one tick, so a valid
        // snapshot must be on disk.
        assert!(path.exists(), "no periodic checkpoint written");
        CheckpointFile::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_mismatched_system() {
        let path = tmp_ckpt("mismatch");
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
        let out = sys
            .try_search(
                &opts(30_000)
                    .budget(Budget::unlimited().states(500))
                    .checkpoint_to(&path),
            )
            .unwrap();
        assert!(out.is_inconclusive());

        // Wrong protocol.
        let err = VerifySystem::new(MsiProtocol::new(Params::new(2, 1, 1)))
            .try_search(&opts(30_000).resume_from(&path))
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");

        // Wrong parameters.
        let err = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 2)))
            .try_search(&opts(30_000).resume_from(&path))
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");

        // Wrong symmetry mode.
        let err = VerifySystem::with_symmetry(
            SerialMemory::new(Params::new(2, 1, 1)),
            SymmetryMode::Full,
        )
        .try_search(&opts(30_000).symmetry(SymmetryMode::Full).resume_from(&path))
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "VerifyOptions::symmetry is Off but the system was built with Full")]
    fn options_naming_another_symmetry_mode_are_rejected() {
        let sys = VerifySystem::with_symmetry(
            SerialMemory::new(Params::new(2, 1, 1)),
            SymmetryMode::Full,
        );
        let _ = sys.try_search(&opts(1_000));
    }

    #[test]
    fn reject_reason_accessor_borrows_the_typed_reason() {
        let out = verify_protocol(MsiProtocol::buggy(Params::new(2, 2, 1)), opts(2_000_000));
        let reason = out.reject_reason().expect("buggy MSI violates");
        // The accessor borrows the outcome's own reason, whose Display is
        // the message text.
        let Outcome::Violation { reason: field, .. } = &out else {
            unreachable!("reject_reason is Some only for violations");
        };
        assert!(std::ptr::eq(reason, field));
        assert!(!reason.to_string().is_empty());
        assert!(
            verify_protocol(SerialMemory::new(Params::new(2, 1, 1)), opts(5_000))
                .reject_reason()
                .is_none()
        );
    }

    #[test]
    fn lazy_builder_toggles_the_expansion_path() {
        let sys = VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1))).lazy(false);
        assert!(!sys.is_lazy());
        let sys = sys.lazy(true);
        assert!(sys.is_lazy());
        assert_eq!(sys.symmetry_mode(), SymmetryMode::Off);
    }

    #[test]
    fn symmetry_mode_byte_roundtrip() {
        for mode in [
            SymmetryMode::Off,
            SymmetryMode::Proc,
            SymmetryMode::Full,
            SymmetryMode::FullEnum,
        ] {
            assert_eq!(SymmetryMode::from_byte(mode.as_byte()), Some(mode));
        }
        assert_eq!(SymmetryMode::from_byte(4), None);
    }

    #[test]
    fn proc_mode_intersects_with_protocol_dims() {
        // Buggy MSI declares blocks+values only, so requesting Proc yields
        // the trivial group and Full yields blocks·values.
        let sys = VerifySystem::with_symmetry(
            MsiProtocol::buggy(Params::new(2, 2, 2)),
            SymmetryMode::Proc,
        );
        assert_eq!(sys.symmetry_group_order(), 1);
        let sys = VerifySystem::with_symmetry(
            MsiProtocol::buggy(Params::new(2, 2, 2)),
            SymmetryMode::Full,
        );
        assert_eq!(sys.symmetry_group_order(), 4); // 2! blocks × 2! values
    }
}
