//! Striped open-addressing seen-set over 128-bit state fingerprints.
//!
//! The profile of the old level-synchronous searcher (EXPERIMENTS.md E9)
//! showed a sharded-`HashMap` seen-set absorbing the parallelism: one
//! mutex acquisition *per successor*, plus `HashMap`'s per-entry overhead.
//! This table is built for the search core's access pattern instead
//! (a one-worker search uses a single stripe; see [`crate::ws`]):
//!
//! * **Striping.** The table is split into independently locked shards,
//!   selected by the fingerprint's high bits (the low bits index within a
//!   shard, so shard choice and probe position stay uncorrelated).
//! * **Batched claiming.** Workers group successor fingerprints by shard
//!   and call [`StripedSeen::insert_batch`], paying one lock acquisition
//!   per *batch* (64–256 fingerprints in the intended configuration)
//!   instead of one per fingerprint.
//! * **Open addressing.** Each shard is a power-of-two linear-probing
//!   table of raw `u128`s at ≤ 50% load — no per-entry allocation, no
//!   hashing (fingerprints are already uniform), cache-friendly probes.
//!
//! Zero is reserved as the empty-slot sentinel; the all-zero fingerprint
//! (probability 2⁻¹²⁸ per state) is remapped to 1, which merely aliases
//! it with fingerprint 1 — far below the baseline collision probability
//! of the 128-bit fingerprint scheme itself.

use std::sync::Mutex;

/// Slots per shard at creation (must be a power of two).
const INITIAL_SHARD_CAPACITY: usize = 1024;

struct Shard {
    /// Power-of-two slot array; 0 = empty.
    slots: Box<[u128]>,
    /// Occupied slots.
    len: usize,
    /// Cached `slots.len() / 2`: the occupancy at which the next insert
    /// must grow first. Hot single inserts compare against this field
    /// instead of recomputing the load factor (the old code called
    /// `reserve(1)` — a function call plus two multiplies — per insert).
    grow_at: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            slots: vec![0u128; INITIAL_SHARD_CAPACITY].into_boxed_slice(),
            len: 0,
            grow_at: INITIAL_SHARD_CAPACITY / 2,
        }
    }

    /// Insert without growth check; returns true if newly inserted.
    fn insert_raw(&mut self, fp: u128) -> bool {
        self.insert_raw_probed(fp).0
    }

    /// [`Shard::insert_raw`], also reporting the number of slots probed
    /// (1 = direct hit) for the telemetry probe-length histogram.
    fn insert_raw_probed(&mut self, fp: u128) -> (bool, u64) {
        let mask = self.slots.len() - 1;
        let mut i = (fp as usize) & mask;
        let mut probes = 1u64;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                self.slots[i] = fp;
                self.len += 1;
                return (true, probes);
            }
            if slot == fp {
                return (false, probes);
            }
            i = (i + 1) & mask;
            probes += 1;
        }
    }

    fn contains(&self, fp: u128) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = (fp as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return false;
            }
            if slot == fp {
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Keep load at or below 1/2 for short probe chains.
    fn reserve(&mut self, incoming: usize) {
        let needed = self.len + incoming;
        if needed <= self.grow_at {
            return;
        }
        let mut cap = self.slots.len();
        while needed * 2 > cap {
            cap *= 2;
        }
        let old = std::mem::replace(&mut self.slots, vec![0u128; cap].into_boxed_slice());
        self.len = 0;
        self.grow_at = cap / 2;
        for fp in old.iter().copied().filter(|&fp| fp != 0) {
            self.insert_raw(fp);
        }
    }
}

/// A concurrent set of 128-bit fingerprints, striped across mutex-guarded
/// open-addressing shards. See the module docs for the design rationale.
pub struct StripedSeen {
    shards: Box<[Mutex<Shard>]>,
}

/// Never let a fingerprint collide with the empty-slot sentinel.
#[inline]
fn desentinel(fp: u128) -> u128 {
    if fp == 0 {
        1
    } else {
        fp
    }
}

impl StripedSeen {
    /// Create with `shards` stripes (any count ≥ 1 works; the search core
    /// uses one for a lone worker and a few per worker otherwise).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        StripedSeen {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
        }
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The stripe a fingerprint belongs to. Uses the high 64 bits so the
    /// in-shard probe index (low bits) stays independent of shard choice.
    ///
    /// The map is a fixed-point multiply-shift — `(hi · n) >> 64` sends a
    /// uniform 64-bit value to `[0, n)` with at most one slot of bias —
    /// instead of `hi % n`: a 64×64→128 multiply retires in a few cycles
    /// where the hardware divide the `%` compiled to costs tens, and this
    /// runs once per successor fingerprint on the hot path.
    #[inline]
    pub fn shard_of(&self, fp: u128) -> usize {
        let hi = (desentinel(fp) >> 64) as u64;
        ((hi as u128 * self.shards.len() as u128) >> 64) as usize
    }

    /// Insert one fingerprint; returns `true` if it was not yet present.
    pub fn insert(&self, fp: u128) -> bool {
        let fp = desentinel(fp);
        let mut shard = self.shards[self.shard_of(fp)].lock().unwrap();
        if shard.len >= shard.grow_at {
            shard.reserve(1);
        }
        shard.insert_raw(fp)
    }

    /// Is the fingerprint present?
    pub fn contains(&self, fp: u128) -> bool {
        let fp = desentinel(fp);
        self.shards[self.shard_of(fp)].lock().unwrap().contains(fp)
    }

    /// Insert a batch of fingerprints that all map to shard `shard`
    /// (callers group by [`StripedSeen::shard_of`]), paying a single lock
    /// acquisition. Pushes one bool per fingerprint onto `is_new`, in
    /// order: `true` iff that fingerprint was absent before this call
    /// (duplicates *within* the batch: only the first occurrence reports
    /// `true`). Returns the number of new fingerprints.
    pub fn insert_batch(&self, shard: usize, fps: &[u128], is_new: &mut Vec<bool>) -> usize {
        debug_assert!(fps.iter().all(|&fp| self.shard_of(fp) == shard));
        let telemetry = scv_telemetry::enabled();
        let mut probes_total = 0u64;
        let mut guard = self.shards[shard].lock().unwrap();
        guard.reserve(fps.len());
        let mut new = 0usize;
        for &fp in fps {
            let (inserted, probes) = guard.insert_raw_probed(desentinel(fp));
            new += inserted as usize;
            is_new.push(inserted);
            probes_total += probes;
        }
        drop(guard);
        if scv_telemetry::recorder_enabled() {
            // Timeline instant for each admission batch: when the batch
            // landed and how many of its states were new.
            scv_telemetry::recorder::instant(
                scv_telemetry::recorder::InstantKind::AdmissionBatch,
                new as u64,
            );
        }
        if telemetry {
            // Probe lengths at batch granularity: the total probe count
            // feeds the average; the histogram gets one batch-mean sample
            // per lock acquisition so hot inserts stay cheap.
            scv_telemetry::add(scv_telemetry::Metric::SeenInserts, fps.len() as u64);
            scv_telemetry::add(scv_telemetry::Metric::SeenProbes, probes_total);
            if !fps.is_empty() {
                scv_telemetry::record(
                    scv_telemetry::Hist::SeenProbeLen,
                    probes_total / fps.len() as u64,
                );
            }
        }
        new
    }

    /// Probe a batch of fingerprints that all map to shard `shard` under a
    /// single lock acquisition, **without inserting anything**. Pushes one
    /// bool per fingerprint onto `absent`, in order: `true` iff the
    /// fingerprint is not in the set. This is the admission gate's read
    /// side: a `true` answer is a *hint* (a racing worker may insert the
    /// fingerprint right after the lock drops), so callers must still
    /// treat [`StripedSeen::insert_batch`] as the authoritative admission.
    /// A `false` answer is definitive — fingerprints are never removed.
    pub fn probe_batch(&self, shard: usize, fps: &[u128], absent: &mut Vec<bool>) {
        debug_assert!(fps.iter().all(|&fp| self.shard_of(fp) == shard));
        let guard = self.shards[shard].lock().unwrap();
        absent.extend(fps.iter().map(|&fp| !guard.contains(desentinel(fp))));
    }

    /// Probe an unsorted batch of fingerprints (any mix of stripes),
    /// writing `absent[i] == true` iff `fps[i]` is not in the set. Groups
    /// the batch by stripe internally so each touched stripe is locked
    /// exactly once; `order` is caller-provided scratch (cleared here,
    /// reused across calls to stay allocation-free in steady state).
    /// Duplicates *within* the batch all report the same answer — the
    /// authoritative dedup happens at [`StripedSeen::insert_batch`].
    pub fn probe_many(&self, fps: &[u128], absent: &mut Vec<bool>, order: &mut Vec<(u32, u32)>) {
        absent.clear();
        absent.resize(fps.len(), false);
        order.clear();
        order.extend(
            fps.iter()
                .enumerate()
                .map(|(i, &fp)| (self.shard_of(fp) as u32, i as u32)),
        );
        order.sort_unstable();
        let mut at = 0usize;
        while at < order.len() {
            let stripe = order[at].0;
            let end = at
                + order[at..]
                    .iter()
                    .take_while(|&&(s, _)| s == stripe)
                    .count();
            let guard = self.shards[stripe as usize].lock().unwrap();
            for &(_, i) in &order[at..end] {
                absent[i as usize] = !guard.contains(desentinel(fps[i as usize]));
            }
            at = end;
        }
    }

    /// Snapshot every stored fingerprint (in arbitrary order), for
    /// checkpoint serialization. Exact when no concurrent inserts are in
    /// flight; the values are post-sentinel-remap, so re-inserting them
    /// into a fresh set reproduces the same membership answers.
    pub fn fingerprints(&self) -> Vec<u128> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            let guard = shard.lock().unwrap();
            out.extend(guard.slots.iter().copied().filter(|&fp| fp != 0));
        }
        out
    }

    /// Occupancy of every stripe, for end-of-run load-balance gauges.
    pub fn stripe_loads(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().unwrap().len).collect()
    }

    /// Total fingerprints stored. Exact when no concurrent inserts are in
    /// flight (each shard is summed under its lock).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains_roundtrip() {
        let seen = StripedSeen::new(8);
        for i in 1..1000u128 {
            assert!(seen.insert(i * 0x9E3779B97F4A7C15));
        }
        for i in 1..1000u128 {
            let fp = i * 0x9E3779B97F4A7C15;
            assert!(seen.contains(fp));
            assert!(!seen.insert(fp), "reinsert must report seen");
        }
        assert_eq!(seen.len(), 999);
    }

    #[test]
    fn zero_fingerprint_is_handled() {
        let seen = StripedSeen::new(4);
        assert!(!seen.contains(0));
        assert!(seen.insert(0));
        assert!(seen.contains(0));
        assert!(!seen.insert(0));
        // 0 aliases to 1 by design.
        assert!(!seen.insert(1));
    }

    #[test]
    fn growth_beyond_initial_capacity() {
        let seen = StripedSeen::new(1);
        let n = (INITIAL_SHARD_CAPACITY * 4) as u128;
        for i in 1..=n {
            assert!(seen.insert(i << 32));
        }
        assert_eq!(seen.len(), n as usize);
        for i in 1..=n {
            assert!(seen.contains(i << 32));
        }
    }

    #[test]
    fn shard_of_covers_every_stripe() {
        // The multiply-shift map must still reach every shard (it sends
        // uniform high bits to [0, n) with at most one slot of bias).
        for shards in [1usize, 3, 8, 13] {
            let seen = StripedSeen::new(shards);
            let mut hit = vec![false; shards];
            for i in 0..4096u128 {
                let fp = (i * 0x9E3779B97F4A7C15) << 64 | i;
                let s = seen.shard_of(fp);
                assert!(s < shards);
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "{shards} stripes all reachable");
        }
    }

    #[test]
    fn probe_batch_and_probe_many_report_membership_without_inserting() {
        let seen = StripedSeen::new(5);
        let present: Vec<u128> = (1..100u128).map(|i| i * 0x1234567890AB).collect();
        for &fp in &present {
            seen.insert(fp);
        }
        let absent_fps: Vec<u128> = (1..100u128).map(|i| i * 0xFEDCBA987654321).collect();
        // probe_batch: per-stripe, membership answers in order.
        let mut by_shard: Vec<Vec<u128>> = vec![Vec::new(); seen.shard_count()];
        for &fp in present.iter().chain(&absent_fps) {
            by_shard[seen.shard_of(fp)].push(fp);
        }
        for (shard, group) in by_shard.iter().enumerate() {
            let mut flags = Vec::new();
            seen.probe_batch(shard, group, &mut flags);
            for (i, &fp) in group.iter().enumerate() {
                assert_eq!(flags[i], !present.contains(&fp), "fp {fp:x}");
            }
        }
        // probe_many: interleaved stripes, same answers, nothing inserted.
        let mixed: Vec<u128> = present
            .iter()
            .zip(&absent_fps)
            .flat_map(|(&a, &b)| [a, b])
            .collect();
        let mut flags = Vec::new();
        let mut order = Vec::new();
        seen.probe_many(&mixed, &mut flags, &mut order);
        for (i, &fp) in mixed.iter().enumerate() {
            assert_eq!(flags[i], !present.contains(&fp));
        }
        assert_eq!(seen.len(), present.len(), "probing must not insert");
        // The zero fingerprint probes through the sentinel remap.
        let mut flags = Vec::new();
        seen.probe_many(&[0], &mut flags, &mut order);
        assert!(flags[0]);
        seen.insert(0);
        let mut flags = Vec::new();
        seen.probe_many(&[0, 1], &mut flags, &mut order);
        assert!(!flags[0] && !flags[1], "0 aliases to 1 by design");
    }

    #[test]
    fn fingerprints_snapshot_roundtrips_into_fresh_set() {
        let seen = StripedSeen::new(7);
        let fps: Vec<u128> = (0..500u128).map(|i| i * 0x9E3779B97F4A7C15).collect();
        for &fp in &fps {
            seen.insert(fp);
        }
        let snap = seen.fingerprints();
        assert_eq!(snap.len(), seen.len());
        let rebuilt = StripedSeen::new(3);
        for &fp in &snap {
            assert!(rebuilt.insert(fp), "snapshot has no duplicates");
        }
        for &fp in &fps {
            assert!(rebuilt.contains(fp), "membership preserved for {fp:x}");
        }
    }

    #[test]
    fn batch_insert_reports_new_flags_in_order() {
        let seen = StripedSeen::new(3); // deliberately non-power-of-two
        let fps: Vec<u128> = (1..200u128).map(|i| i * 0xABCDEF123457).collect();
        let mut by_shard: Vec<Vec<u128>> = vec![Vec::new(); seen.shard_count()];
        for &fp in &fps {
            by_shard[seen.shard_of(fp)].push(fp);
        }
        for (shard, group) in by_shard.iter().enumerate() {
            // Duplicate the group: first copies new, second copies seen.
            let doubled: Vec<u128> = group.iter().chain(group.iter()).copied().collect();
            let mut flags = Vec::new();
            let new = seen.insert_batch(shard, &doubled, &mut flags);
            assert_eq!(new, group.len());
            assert_eq!(flags.len(), doubled.len());
            assert!(flags[..group.len()].iter().all(|&b| b));
            assert!(flags[group.len()..].iter().all(|&b| !b));
        }
        assert_eq!(seen.len(), fps.len());
    }
}
