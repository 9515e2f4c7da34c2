//! Protocol symmetry: permutation groups over processor, block, and value
//! identities.
//!
//! Most protocols in the zoo treat processor numbers, block numbers, and
//! data values interchangeably: renaming them maps runs to runs and
//! preserves sequential consistency verbatim. A [`Symmetry`]
//! implementation declares which dimensions are interchangeable
//! ([`Symmetry::symmetry_dims`]) and how one renaming acts on a protocol
//! state ([`Symmetry::permute_state`]) and on storage-location IDs
//! ([`Symmetry::permute_loc`]). The model checker then explores one
//! representative per orbit of the symmetry group — the *quotient* of the
//! product space — which shrinks the reachable state count by up to the
//! group order `p!·b!·v!`.
//!
//! Soundness rests on *equivariance*: for every renaming `g` in the
//! declared group, `g` must map the successor set of `s` onto the
//! successor set of `g·s` (with actions and tracking labels renamed
//! consistently), and must fix the initial state. Fault-injected protocol
//! variants routinely break this in one dimension — buggy MSI spares the
//! *highest-numbered* sharer, so renaming processors does not commute with
//! its transition relation — and must exclude that dimension (the buggy
//! variants here keep block/value symmetry only). Declaring a dimension
//! that is not actually equivariant makes the quotient search unsound.

use crate::api::{LocId, Protocol};
use crate::directory::DirEntry;
use crate::{
    DirectoryProtocol, Fig4Protocol, LazyCaching, MesiProtocol, MsiProtocol, SerialMemory,
    StoreBufferTso,
};
use scv_types::{SortKeyBuf, SymDim, SymDims, SymPerm};

/// A protocol with a declared symmetry group.
///
/// Every method has a default that declares *no* symmetry, so any
/// [`Protocol`] can opt in with an empty `impl Symmetry for P {}` and
/// still be verified (the quotient layer degenerates to the identity).
/// A protocol that overrides [`Symmetry::symmetry_dims`] MUST also
/// override the other three methods consistently:
///
/// * [`Symmetry::permute_state`] must be a group action of the declared
///   group under which the transition relation is equivariant;
/// * [`Symmetry::permute_loc`] must rename storage locations the same way
///   the tracking labels of renamed transitions are renamed;
/// * [`Symmetry::encode_state`] must be *injective* on reachable states
///   (two different states must never encode equal) — the encoding is the
///   orbit-minimum comparison key, so a collision would merge
///   inequivalent product states and could mask a violation.
///
/// The model checker shares the protocol between its worker threads and
/// with the symmetry-reduced states it stores (which reseal through it),
/// hence `Send + Sync + 'static`.
pub trait Symmetry: Protocol + Send + Sync + 'static {
    /// Which identity dimensions the transition relation is equivariant
    /// in. Defaults to none (no reduction).
    fn symmetry_dims(&self) -> SymDims {
        SymDims::NONE
    }

    /// The renamed state `g·s`.
    fn permute_state(&self, s: &Self::State, perm: &SymPerm) -> Self::State {
        let _ = perm;
        s.clone()
    }

    /// The renamed storage-location ID.
    fn permute_loc(&self, loc: LocId, perm: &SymPerm) -> LocId {
        let _ = perm;
        loc
    }

    /// Append an injective encoding of `s` to `out`.
    fn encode_state(&self, s: &Self::State, out: &mut Vec<u64>) {
        let _ = (s, out);
    }

    /// Per-element composite sort keys enabling the sort-based
    /// canonicalization fast path for one symmetric dimension.
    ///
    /// A dimension acts *positionally* on a prefix of
    /// [`Symmetry::encode_state`]'s output when permuting its elements
    /// only moves whole word groups around (and renames nothing inside
    /// any word of the prefix). For such a dimension, this method fills
    /// `keys` with one key per element — the words that element
    /// contributes to the prefix, in position order — and returns
    /// `Some(covered)`, the prefix length in words. The contract is:
    ///
    /// * every word in `[0..covered)` either belongs to exactly one
    ///   element's key or is invariant under all perms of the dimension;
    /// * all keys have the same length, and the prefix decomposes into
    ///   *segments* (contiguous word ranges) such that within each
    ///   segment the elements' words appear in ascending element order
    ///   with a uniform shape (whole chunks or strided columns);
    /// * words at positions `>= covered` may depend on the dimension
    ///   arbitrarily (e.g. element numbers stored *inside* words).
    ///
    /// Under that contract, stably sorting elements by key yields the
    /// lexicographically minimal arrangement of the prefix over the
    /// dimension's permutations, and the tied runs of the sort are
    /// exactly the residual subgroup that can still move the words at
    /// `>= covered` (enumerated by `scv_types::ResidualEnum`). Returning
    /// `None` (the default) declares the dimension content-acting — the
    /// canonicalizer falls back to enumerating its perms outright. The
    /// answer must not depend on `s` (only on the protocol and `dim`).
    fn sort_keys(&self, s: &Self::State, dim: SymDim, keys: &mut SortKeyBuf) -> Option<usize> {
        let _ = (s, dim, keys);
        None
    }
}

/// Forward and inverse location maps (`1..=L`, index 0 unused) induced by
/// `perm` through [`Symmetry::permute_loc`].
pub fn location_maps<P: Symmetry + ?Sized>(p: &P, perm: &SymPerm) -> (Vec<u32>, Vec<u32>) {
    let mut fwd = Vec::new();
    let mut inv = Vec::new();
    location_maps_into(p, perm, &mut fwd, &mut inv);
    (fwd, inv)
}

/// [`location_maps`] into caller-owned buffers — the canonicalization
/// fast path rebuilds the maps once per orbit candidate and must not
/// allocate per candidate.
pub fn location_maps_into<P: Symmetry + ?Sized>(
    p: &P,
    perm: &SymPerm,
    fwd: &mut Vec<u32>,
    inv: &mut Vec<u32>,
) {
    let l = p.locations() as usize;
    fwd.clear();
    fwd.resize(l + 1, 0);
    inv.clear();
    inv.resize(l + 1, 0);
    for old in 1..=l as u32 {
        let new = p.permute_loc(old, perm);
        debug_assert!(
            (1..=l as u32).contains(&new) && inv[new as usize] == 0,
            "permute_loc must be a permutation of 1..=L"
        );
        fwd[old as usize] = new;
        inv[new as usize] = old;
    }
}

/// The lexicographically minimal [`Symmetry::encode_state`] encoding of
/// `s` over `group` — the orbit-canonical protocol-state key. Two states
/// in the same orbit of `group` canonicalize identically.
pub fn canonical_state_encoding<P: Symmetry>(p: &P, s: &P::State, group: &[SymPerm]) -> Vec<u64> {
    let mut best = Vec::new();
    p.encode_state(s, &mut best);
    let mut scratch = Vec::with_capacity(best.len());
    for g in group {
        if g.is_identity() {
            continue;
        }
        scratch.clear();
        p.encode_state(&p.permute_state(s, g), &mut scratch);
        if scratch < best {
            std::mem::swap(&mut best, &mut scratch);
        }
    }
    best
}

// ----- helpers -------------------------------------------------------------

/// Rename a processor-major `(p × b)` table, renaming cell contents with
/// `f`.
fn permute_pb_table<T: Copy>(
    src: &[T],
    p: usize,
    b: usize,
    perm: &SymPerm,
    mut f: impl FnMut(T) -> T,
) -> Vec<T> {
    let mut out = src.to_vec();
    for pi in 0..p {
        for bi in 0..b {
            out[perm.proc_idx(pi) * b + perm.block_idx(bi)] = f(src[pi * b + bi]);
        }
    }
    out
}

/// Rename a per-block array, renaming contents with `f`.
fn permute_blocks<T: Copy>(src: &[T], perm: &SymPerm, mut f: impl FnMut(T) -> T) -> Vec<T> {
    let mut out = src.to_vec();
    for (bi, &x) in src.iter().enumerate() {
        out[perm.block_idx(bi)] = f(x);
    }
    out
}

/// Rename a processor-major array of `chunk`-sized per-processor groups,
/// keeping in-group order and renaming entries with `f`.
fn permute_proc_chunks<T: Copy>(
    src: &[T],
    chunk: usize,
    perm: &SymPerm,
    mut f: impl FnMut(T) -> T,
) -> Vec<T> {
    let mut out = src.to_vec();
    let procs = src.len() / chunk;
    for pi in 0..procs {
        for i in 0..chunk {
            out[perm.proc_idx(pi) * chunk + i] = f(src[pi * chunk + i]);
        }
    }
    out
}

/// Renamed 1-based block number.
fn re_block(b: u8, perm: &SymPerm) -> u8 {
    perm.block_idx((b - 1) as usize) as u8 + 1
}

/// Location renaming for the common `caches(p×b), mem(b), tail…` layout.
/// `loc` is decoded against the ranges in order; ranges beyond the listed
/// ones are handled by the caller.
fn permute_cache_mem_loc(loc: LocId, p: u32, b: u32, perm: &SymPerm) -> Option<LocId> {
    let i = loc - 1;
    if i < p * b {
        let (pi, bi) = (i / b, i % b);
        Some(perm.proc_idx(pi as usize) as u32 * b + perm.block_idx(bi as usize) as u32 + 1)
    } else if i < p * b + b {
        let bi = i - p * b;
        Some(p * b + perm.block_idx(bi as usize) as u32 + 1)
    } else {
        None
    }
}

// ----- zoo implementations --------------------------------------------------

impl Symmetry for SerialMemory {
    fn symmetry_dims(&self) -> SymDims {
        SymDims::FULL
    }

    fn permute_state(&self, s: &Self::State, perm: &SymPerm) -> Self::State {
        permute_blocks(s, perm, |v| perm.value(v))
    }

    fn permute_loc(&self, loc: LocId, perm: &SymPerm) -> LocId {
        perm.block_idx((loc - 1) as usize) as u32 + 1
    }

    fn encode_state(&self, s: &Self::State, out: &mut Vec<u64>) {
        out.extend(s.iter().map(|v| v.0 as u64));
    }

    fn sort_keys(&self, s: &Self::State, dim: SymDim, keys: &mut SortKeyBuf) -> Option<usize> {
        keys.clear();
        match dim {
            // No processor occurs in the state at all: every word is
            // invariant, so procs "cover" the whole encoding with empty
            // keys (the residual subgroup is all of S_p — the observer/
            // checker tail of the product encoding decides).
            SymDim::Procs => {
                for _ in 0..self.params().p {
                    keys.begin_key();
                }
                Some(s.len())
            }
            SymDim::Blocks => {
                for &v in s.iter() {
                    keys.begin_key();
                    keys.push(v.0 as u64);
                }
                Some(s.len())
            }
            // Values are word *contents*, not positions.
            SymDim::Values => None,
        }
    }
}

impl Symmetry for MsiProtocol {
    fn symmetry_dims(&self) -> SymDims {
        if self.is_buggy() {
            // The injected fault spares the *highest-numbered* sharer, so
            // processor renaming is not equivariant.
            SymDims {
                procs: false,
                blocks: true,
                values: true,
            }
        } else {
            SymDims::FULL
        }
    }

    fn permute_state(&self, s: &Self::State, perm: &SymPerm) -> Self::State {
        let pr = self.params();
        crate::msi::MsiState {
            lines: permute_pb_table(&s.lines, pr.p as usize, pr.b as usize, perm, |(l, v)| {
                (l, perm.value(v))
            }),
            mem: permute_blocks(&s.mem, perm, |v| perm.value(v)),
        }
    }

    fn permute_loc(&self, loc: LocId, perm: &SymPerm) -> LocId {
        let pr = self.params();
        permute_cache_mem_loc(loc, pr.p as u32, pr.b as u32, perm).expect("loc in range")
    }

    fn encode_state(&self, s: &Self::State, out: &mut Vec<u64>) {
        use crate::msi::Line;
        out.extend(s.lines.iter().map(|&(l, v)| {
            let l = match l {
                Line::M => 0u64,
                Line::S => 1,
                Line::I => 2,
            };
            l << 8 | v.0 as u64
        }));
        out.extend(s.mem.iter().map(|v| v.0 as u64));
    }

    fn sort_keys(&self, s: &Self::State, dim: SymDim, keys: &mut SortKeyBuf) -> Option<usize> {
        use crate::msi::Line;
        let pr = self.params();
        let (p, b) = (pr.p as usize, pr.b as usize);
        let word = |(l, v): (Line, scv_types::Value)| {
            let l = match l {
                Line::M => 0u64,
                Line::S => 1,
                Line::I => 2,
            };
            l << 8 | v.0 as u64
        };
        keys.clear();
        match dim {
            // Proc keys are whole cache rows; mem is proc-invariant.
            SymDim::Procs => {
                for pi in 0..p {
                    keys.begin_key();
                    for bi in 0..b {
                        keys.push(word(s.lines[pi * b + bi]));
                    }
                }
                Some(p * b + b)
            }
            // Block keys are strided cache columns plus the mem word.
            SymDim::Blocks => {
                for bi in 0..b {
                    keys.begin_key();
                    for pi in 0..p {
                        keys.push(word(s.lines[pi * b + bi]));
                    }
                    keys.push(s.mem[bi].0 as u64);
                }
                Some(p * b + b)
            }
            SymDim::Values => None,
        }
    }
}

impl Symmetry for MesiProtocol {
    fn symmetry_dims(&self) -> SymDims {
        if self.is_buggy() {
            // Buggy runs can reach double-M states, where BusRdX serves
            // the lowest-numbered M holder first — not proc-equivariant.
            SymDims {
                procs: false,
                blocks: true,
                values: true,
            }
        } else {
            SymDims::FULL
        }
    }

    fn permute_state(&self, s: &Self::State, perm: &SymPerm) -> Self::State {
        let pr = self.params();
        crate::mesi::MesiState {
            lines: permute_pb_table(&s.lines, pr.p as usize, pr.b as usize, perm, |(l, v)| {
                (l, perm.value(v))
            }),
            mem: permute_blocks(&s.mem, perm, |v| perm.value(v)),
        }
    }

    fn permute_loc(&self, loc: LocId, perm: &SymPerm) -> LocId {
        let pr = self.params();
        permute_cache_mem_loc(loc, pr.p as u32, pr.b as u32, perm).expect("loc in range")
    }

    fn encode_state(&self, s: &Self::State, out: &mut Vec<u64>) {
        use crate::mesi::MesiLine;
        out.extend(s.lines.iter().map(|&(l, v)| {
            let l = match l {
                MesiLine::M => 0u64,
                MesiLine::E => 1,
                MesiLine::S => 2,
                MesiLine::I => 3,
            };
            l << 8 | v.0 as u64
        }));
        out.extend(s.mem.iter().map(|v| v.0 as u64));
    }

    fn sort_keys(&self, s: &Self::State, dim: SymDim, keys: &mut SortKeyBuf) -> Option<usize> {
        use crate::mesi::MesiLine;
        let pr = self.params();
        let (p, b) = (pr.p as usize, pr.b as usize);
        let word = |(l, v): (MesiLine, scv_types::Value)| {
            let l = match l {
                MesiLine::M => 0u64,
                MesiLine::E => 1,
                MesiLine::S => 2,
                MesiLine::I => 3,
            };
            l << 8 | v.0 as u64
        };
        keys.clear();
        match dim {
            SymDim::Procs => {
                for pi in 0..p {
                    keys.begin_key();
                    for bi in 0..b {
                        keys.push(word(s.lines[pi * b + bi]));
                    }
                }
                Some(p * b + b)
            }
            SymDim::Blocks => {
                for bi in 0..b {
                    keys.begin_key();
                    for pi in 0..p {
                        keys.push(word(s.lines[pi * b + bi]));
                    }
                    keys.push(s.mem[bi].0 as u64);
                }
                Some(p * b + b)
            }
            SymDim::Values => None,
        }
    }
}

impl Symmetry for DirectoryProtocol {
    fn symmetry_dims(&self) -> SymDims {
        SymDims::FULL
    }

    fn permute_state(&self, s: &Self::State, perm: &SymPerm) -> Self::State {
        let pr = self.params();
        let (p, b) = (pr.p as usize, pr.b as usize);
        let dir = permute_blocks(&s.dir, perm, |e| match e {
            DirEntry::Uncached => DirEntry::Uncached,
            DirEntry::Shared(mask) => {
                let mut m = 0u8;
                for i in 0..p {
                    if mask & (1 << i) != 0 {
                        m |= 1 << perm.proc_idx(i);
                    }
                }
                DirEntry::Shared(m)
            }
            DirEntry::Owned(q) => DirEntry::Owned(perm.proc_idx((q - 1) as usize) as u8 + 1),
        });
        let mut resp = s.resp.clone();
        for (pi, &v) in s.resp.iter().enumerate() {
            resp[perm.proc_idx(pi)] = perm.value(v);
        }
        crate::directory::DirState {
            lines: permute_pb_table(&s.lines, p, b, perm, |(l, v)| (l, perm.value(v))),
            mem: permute_blocks(&s.mem, perm, |v| perm.value(v)),
            dir,
            resp,
        }
    }

    fn permute_loc(&self, loc: LocId, perm: &SymPerm) -> LocId {
        let pr = self.params();
        let (p, b) = (pr.p as u32, pr.b as u32);
        match permute_cache_mem_loc(loc, p, b, perm) {
            Some(l) => l,
            None => {
                let pi = loc - 1 - (p + 1) * b;
                (p + 1) * b + perm.proc_idx(pi as usize) as u32 + 1
            }
        }
    }

    fn encode_state(&self, s: &Self::State, out: &mut Vec<u64>) {
        use crate::directory::DirLine;
        out.extend(s.lines.iter().map(|&(l, v)| {
            let l = match l {
                DirLine::I => 0u64,
                DirLine::S => 1,
                DirLine::M => 2,
                DirLine::WaitS => 3,
                DirLine::WaitM => 4,
            };
            l << 8 | v.0 as u64
        }));
        out.extend(s.mem.iter().map(|v| v.0 as u64));
        out.extend(s.dir.iter().map(|e| match e {
            DirEntry::Uncached => 0u64,
            DirEntry::Shared(m) => 1 << 16 | *m as u64,
            DirEntry::Owned(q) => 2 << 16 | *q as u64,
        }));
        out.extend(s.resp.iter().map(|v| v.0 as u64));
    }

    fn sort_keys(&self, s: &Self::State, dim: SymDim, keys: &mut SortKeyBuf) -> Option<usize> {
        use crate::directory::DirLine;
        let pr = self.params();
        let (p, b) = (pr.p as usize, pr.b as usize);
        let word = |(l, v): (DirLine, scv_types::Value)| {
            let l = match l {
                DirLine::I => 0u64,
                DirLine::S => 1,
                DirLine::M => 2,
                DirLine::WaitS => 3,
                DirLine::WaitM => 4,
            };
            l << 8 | v.0 as u64
        };
        keys.clear();
        match dim {
            // Processor numbers occur *inside* the dir words (sharer
            // bitmask bits, owner number) and the resp array is
            // proc-positional but sits after dir — the positional prefix
            // stops at lines + mem; dir/resp are resolved by the residual
            // enumeration's full comparison.
            SymDim::Procs => {
                for pi in 0..p {
                    keys.begin_key();
                    for bi in 0..b {
                        keys.push(word(s.lines[pi * b + bi]));
                    }
                }
                Some(p * b + b)
            }
            // Blocks move lines columns, mem and dir words positionally
            // (dir *contents* name procs, not blocks) and leave resp
            // untouched: the whole encoding is covered.
            SymDim::Blocks => {
                for bi in 0..b {
                    keys.begin_key();
                    for pi in 0..p {
                        keys.push(word(s.lines[pi * b + bi]));
                    }
                    keys.push(s.mem[bi].0 as u64);
                    keys.push(match s.dir[bi] {
                        DirEntry::Uncached => 0u64,
                        DirEntry::Shared(m) => 1 << 16 | m as u64,
                        DirEntry::Owned(q) => 2 << 16 | q as u64,
                    });
                }
                Some(p * b + b + b + p)
            }
            SymDim::Values => None,
        }
    }
}

impl Symmetry for Fig4Protocol {
    fn symmetry_dims(&self) -> SymDims {
        SymDims::FULL
    }

    fn permute_state(&self, s: &Self::State, perm: &SymPerm) -> Self::State {
        let slots = (self.locations() / self.params().p as u32) as usize;
        permute_proc_chunks(s, slots, perm, |slot| {
            slot.map(|(b, v)| (re_block(b, perm), perm.value(v)))
        })
    }

    fn permute_loc(&self, loc: LocId, perm: &SymPerm) -> LocId {
        let slots = self.locations() / self.params().p as u32;
        let i = loc - 1;
        let (pi, si) = (i / slots, i % slots);
        perm.proc_idx(pi as usize) as u32 * slots + si + 1
    }

    fn encode_state(&self, s: &Self::State, out: &mut Vec<u64>) {
        out.extend(
            s.iter()
                .map(|slot| slot.map_or(u64::MAX, |(b, v)| (b as u64) << 8 | v.0 as u64)),
        );
    }

    fn sort_keys(&self, s: &Self::State, dim: SymDim, keys: &mut SortKeyBuf) -> Option<usize> {
        let slots = (self.locations() / self.params().p as u32) as usize;
        keys.clear();
        match dim {
            // Proc keys are whole per-processor slot chunks.
            SymDim::Procs => {
                for chunk in s.chunks(slots) {
                    keys.begin_key();
                    for slot in chunk {
                        keys.push(slot.map_or(u64::MAX, |(b, v)| (b as u64) << 8 | v.0 as u64));
                    }
                }
                Some(s.len())
            }
            // Block and value numbers occur inside the slot words.
            SymDim::Blocks | SymDim::Values => None,
        }
    }
}

impl Symmetry for StoreBufferTso {
    fn symmetry_dims(&self) -> SymDims {
        SymDims::FULL
    }

    fn permute_state(&self, s: &Self::State, perm: &SymPerm) -> Self::State {
        crate::tso::TsoState {
            buf: permute_proc_chunks(&s.buf, self.depth() as usize, perm, |e| {
                e.map(|(b, v)| (re_block(b, perm), perm.value(v)))
            }),
            mem: permute_blocks(&s.mem, perm, |v| perm.value(v)),
        }
    }

    fn permute_loc(&self, loc: LocId, perm: &SymPerm) -> LocId {
        let pr = self.params();
        let (p, d, b) = (pr.p as u32, self.depth() as u32, pr.b as u32);
        let i = loc - 1;
        if i < p * d {
            let (pi, si) = (i / d, i % d);
            perm.proc_idx(pi as usize) as u32 * d + si + 1
        } else {
            let bi = i - p * d;
            debug_assert!(bi < b);
            p * d + perm.block_idx(bi as usize) as u32 + 1
        }
    }

    fn encode_state(&self, s: &Self::State, out: &mut Vec<u64>) {
        out.extend(
            s.buf
                .iter()
                .map(|e| e.map_or(u64::MAX, |(b, v)| (b as u64) << 8 | v.0 as u64)),
        );
        out.extend(s.mem.iter().map(|v| v.0 as u64));
    }

    fn sort_keys(&self, s: &Self::State, dim: SymDim, keys: &mut SortKeyBuf) -> Option<usize> {
        let d = self.depth() as usize;
        keys.clear();
        match dim {
            // Proc keys are whole store-buffer chunks; mem is
            // proc-invariant.
            SymDim::Procs => {
                for chunk in s.buf.chunks(d) {
                    keys.begin_key();
                    for e in chunk {
                        keys.push(e.map_or(u64::MAX, |(b, v)| (b as u64) << 8 | v.0 as u64));
                    }
                }
                Some(s.buf.len() + s.mem.len())
            }
            // Block numbers occur inside the buffered-store words (which
            // precede mem), and values inside every data word.
            SymDim::Blocks | SymDim::Values => None,
        }
    }
}

impl Symmetry for LazyCaching {
    fn symmetry_dims(&self) -> SymDims {
        // Value symmetry is deliberately excluded: the queue contents pin
        // broadcast order to concrete values, and the serialization-policy
        // machinery is only exercised under the conservative group.
        SymDims {
            procs: true,
            blocks: true,
            values: false,
        }
    }

    fn permute_state(&self, s: &Self::State, perm: &SymPerm) -> Self::State {
        let pr = self.params();
        let (p, b) = (pr.p as usize, pr.b as usize);
        crate::lazy::LazyState {
            cache: permute_pb_table(&s.cache, p, b, perm, |v| v.map(|v| perm.value(v))),
            mem: permute_blocks(&s.mem, perm, |v| perm.value(v)),
            out: permute_proc_chunks(&s.out, self.out_depth() as usize, perm, |e| {
                e.map(|(blk, v)| (re_block(blk, perm), perm.value(v)))
            }),
            inq: permute_proc_chunks(&s.inq, self.in_depth() as usize, perm, |e| {
                e.map(|(blk, v, star)| (re_block(blk, perm), perm.value(v), star))
            }),
        }
    }

    fn permute_loc(&self, loc: LocId, perm: &SymPerm) -> LocId {
        let pr = self.params();
        let (p, b) = (pr.p as u32, pr.b as u32);
        if let Some(l) = permute_cache_mem_loc(loc, p, b, perm) {
            return l;
        }
        let (qo, qi) = (self.out_depth() as u32, self.in_depth() as u32);
        let base = (p + 1) * b;
        let i = loc - 1 - base;
        if i < p * qo {
            let (pi, si) = (i / qo, i % qo);
            base + perm.proc_idx(pi as usize) as u32 * qo + si + 1
        } else {
            let i = i - p * qo;
            debug_assert!(i < p * qi);
            let (pi, si) = (i / qi, i % qi);
            base + p * qo + perm.proc_idx(pi as usize) as u32 * qi + si + 1
        }
    }

    fn encode_state(&self, s: &Self::State, out: &mut Vec<u64>) {
        out.extend(s.cache.iter().map(|v| v.map_or(u64::MAX, |v| v.0 as u64)));
        out.extend(s.mem.iter().map(|v| v.0 as u64));
        out.extend(
            s.out
                .iter()
                .map(|e| e.map_or(u64::MAX, |(b, v)| (b as u64) << 8 | v.0 as u64)),
        );
        out.extend(s.inq.iter().map(|e| {
            e.map_or(u64::MAX, |(b, v, star)| {
                (b as u64) << 16 | (v.0 as u64) << 8 | star as u64
            })
        }));
    }

    fn sort_keys(&self, s: &Self::State, dim: SymDim, keys: &mut SortKeyBuf) -> Option<usize> {
        let pr = self.params();
        let (p, b) = (pr.p as usize, pr.b as usize);
        let (qo, qi) = (self.out_depth() as usize, self.in_depth() as usize);
        keys.clear();
        match dim {
            // Proc keys span three segments — cache row, out-queue chunk,
            // in-queue chunk — with the proc-invariant mem array between
            // the first two. Segment-uniform, so the composite sort is
            // exact over the whole encoding.
            SymDim::Procs => {
                for pi in 0..p {
                    keys.begin_key();
                    for bi in 0..b {
                        keys.push(s.cache[pi * b + bi].map_or(u64::MAX, |v| v.0 as u64));
                    }
                    for e in &s.out[pi * qo..(pi + 1) * qo] {
                        keys.push(e.map_or(u64::MAX, |(blk, v)| (blk as u64) << 8 | v.0 as u64));
                    }
                    for e in &s.inq[pi * qi..(pi + 1) * qi] {
                        keys.push(e.map_or(u64::MAX, |(blk, v, star)| {
                            (blk as u64) << 16 | (v.0 as u64) << 8 | star as u64
                        }));
                    }
                }
                Some(p * b + b + p * qo + p * qi)
            }
            // Block keys cover the cache columns and mem word; the queue
            // entries carry block numbers *inside* their words, so the
            // positional prefix stops at mem and the queues are resolved
            // by the residual enumeration's full comparison.
            SymDim::Blocks => {
                for bi in 0..b {
                    keys.begin_key();
                    for pi in 0..p {
                        keys.push(s.cache[pi * b + bi].map_or(u64::MAX, |v| v.0 as u64));
                    }
                    keys.push(s.mem[bi].0 as u64);
                }
                Some(p * b + b)
            }
            SymDim::Values => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scv_types::Params;

    fn enc<P: Symmetry>(proto: &P, s: &P::State) -> Vec<u64> {
        let mut out = Vec::new();
        proto.encode_state(s, &mut out);
        out
    }

    /// Transition equivariance: the successor *states* of `g·s` are
    /// exactly `g` applied to the successor states of `s`, and renamed
    /// memory actions match renamed ops. This is the soundness core of
    /// the quotient search. (Successor sets are compared through the
    /// injective encoding, since states don't implement `Ord`.)
    fn check_equivariance<P: Symmetry + Clone>(proto: &P, seed: u64, steps: usize) {
        let group = SymPerm::group(proto.params(), proto.symmetry_dims(), 64);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut r = Runner::new(proto.clone());
        for _ in 0..steps {
            let s = r.state().clone();
            for g in &group {
                let gs = proto.permute_state(&s, g);
                let mut of_gs: Vec<Vec<u64>> = proto
                    .transitions(&gs)
                    .into_iter()
                    .map(|t| enc(proto, &t.next))
                    .collect();
                let mut g_of_s: Vec<Vec<u64>> = proto
                    .transitions(&s)
                    .into_iter()
                    .map(|t| enc(proto, &proto.permute_state(&t.next, g)))
                    .collect();
                of_gs.sort_unstable();
                g_of_s.sort_unstable();
                assert_eq!(of_gs, g_of_s, "successors not equivariant under {g:?}");
                // Memory actions rename consistently.
                let mut of_gs_ops: Vec<_> = proto
                    .transitions(&gs)
                    .into_iter()
                    .filter_map(|t| t.action.op())
                    .collect();
                let mut g_ops: Vec<_> = proto
                    .transitions(&s)
                    .into_iter()
                    .filter_map(|t| t.action.op().map(|o| g.op(o)))
                    .collect();
                of_gs_ops.sort_unstable();
                g_ops.sort_unstable();
                assert_eq!(of_gs_ops, g_ops, "actions not equivariant under {g:?}");
            }
            if !r.step_random(&mut rng) {
                break;
            }
        }
    }

    fn check_action_and_locs<P: Symmetry>(proto: &P) {
        let group = SymPerm::group(proto.params(), proto.symmetry_dims(), 64);
        let init = proto.initial();
        for g in &group {
            // The initial state is a fixed point of the whole group.
            assert_eq!(
                proto.permute_state(&init, g),
                init,
                "initial state must be symmetric"
            );
            // permute_loc is a permutation of 1..=L (checked inside).
            let (fwd, inv) = location_maps(proto, g);
            for old in 1..=proto.locations() {
                assert_eq!(inv[fwd[old as usize] as usize], old);
            }
            // Group action: identity fixes everything.
            if g.is_identity() {
                for l in 1..=proto.locations() {
                    assert_eq!(proto.permute_loc(l, g), l);
                }
            }
        }
    }

    /// The `sort_keys` contract, checked by brute force: for every
    /// supported dimension and every reachable state on a random walk,
    /// the stably-sorted key order must achieve the lexicographically
    /// minimal `covered`-prefix over *all* perms of that dimension, and
    /// the tie runs (fed through `ResidualEnum`) must reproduce the exact
    /// argmin set — no winning arrangement missed, none invented.
    fn check_sort_keys<P: Symmetry + Clone>(proto: &P, seed: u64, steps: usize) {
        use scv_types::ResidualEnum;
        let dims = proto.symmetry_dims();
        let params = proto.params();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut r = Runner::new(proto.clone());
        let id = |n: u8| (0..n).collect::<Vec<u8>>();
        let single = |dim: SymDim, fwd: &[u8]| match dim {
            SymDim::Procs => SymPerm::from_parts(fwd.to_vec(), id(params.b), id(params.v)),
            SymDim::Blocks => SymPerm::from_parts(id(params.p), fwd.to_vec(), id(params.v)),
            SymDim::Values => SymPerm::from_parts(id(params.p), id(params.b), fwd.to_vec()),
        };
        let mut supported = 0;
        for _ in 0..steps {
            let s = r.state().clone();
            for dim in SymDim::ALL {
                if !dims.has(dim) {
                    continue;
                }
                let mut keys = SortKeyBuf::new();
                let Some(covered) = proto.sort_keys(&s, dim, &mut keys) else {
                    continue;
                };
                supported += 1;
                let n = dim.count(params) as usize;
                assert_eq!(keys.len(), n, "one key per element");
                let full = enc(proto, &s);
                assert!(covered <= full.len(), "covered prefix within encoding");
                // Brute force: every single-dimension perm's prefix.
                let mut all = ResidualEnum::new();
                let order: Vec<u8> = (0..n as u8).collect();
                let runs = if n >= 2 {
                    vec![(0u32, n as u32)]
                } else {
                    vec![]
                };
                all.reset(&order, &runs);
                let mut best: Option<Vec<u64>> = None;
                let mut argmin: Vec<Vec<u8>> = Vec::new();
                while let Some(arr) = all.next() {
                    // arr[rank] = element ⇒ fwd[element] = rank.
                    let mut fwd = vec![0u8; n];
                    for (rank, &el) in arr.iter().enumerate() {
                        fwd[el as usize] = rank as u8;
                    }
                    let g = single(dim, &fwd);
                    let e = enc(proto, &proto.permute_state(&s, &g));
                    assert_eq!(e.len(), full.len(), "perms preserve length");
                    let pre = e[..covered].to_vec();
                    match &mut best {
                        None => {
                            best = Some(pre);
                            argmin.push(arr.to_vec());
                        }
                        Some(b) if pre < *b => {
                            *b = pre;
                            argmin.clear();
                            argmin.push(arr.to_vec());
                        }
                        Some(b) if pre == *b => argmin.push(arr.to_vec()),
                        _ => {}
                    }
                }
                // Prediction: stable sort by composite key; tie runs give
                // the residual subgroup.
                let mut pred: Vec<u8> = (0..n as u8).collect();
                pred.sort_by(|&x, &y| keys.key(x as usize).cmp(keys.key(y as usize)));
                let mut runs: Vec<(u32, u32)> = Vec::new();
                let mut start = 0usize;
                for i in 1..=n {
                    if i == n || keys.key(pred[i] as usize) != keys.key(pred[start] as usize) {
                        if i - start >= 2 {
                            runs.push((start as u32, (i - start) as u32));
                        }
                        start = i;
                    }
                }
                let mut re = ResidualEnum::new();
                re.reset(&pred, &runs);
                let mut predicted: Vec<Vec<u8>> = Vec::new();
                while let Some(a) = re.next() {
                    predicted.push(a.to_vec());
                }
                predicted.sort_unstable();
                argmin.sort_unstable();
                assert_eq!(
                    predicted, argmin,
                    "sorted-key argmin set must equal brute force for {dim:?}"
                );
            }
            if !r.step_random(&mut rng) {
                break;
            }
        }
        assert!(supported > 0, "protocol supports no sortable dimension");
    }

    #[test]
    fn sort_keys_match_brute_force_argmin_on_the_zoo() {
        check_sort_keys(&SerialMemory::new(Params::new(3, 2, 2)), 51, 25);
        check_sort_keys(&MsiProtocol::new(Params::new(3, 2, 2)), 52, 25);
        check_sort_keys(&MsiProtocol::buggy(Params::new(3, 2, 2)), 53, 25);
        check_sort_keys(&MesiProtocol::new(Params::new(3, 2, 2)), 54, 25);
        check_sort_keys(&MesiProtocol::buggy(Params::new(3, 2, 2)), 55, 25);
        check_sort_keys(&DirectoryProtocol::new(Params::new(3, 2, 2)), 56, 25);
        check_sort_keys(&Fig4Protocol::new(Params::new(3, 2, 2), 2), 57, 25);
        check_sort_keys(&StoreBufferTso::new(Params::new(3, 2, 2), 2), 58, 25);
        check_sort_keys(&LazyCaching::new(Params::new(3, 2, 2), 2, 2), 59, 25);
    }

    #[test]
    fn serial_memory_is_fully_symmetric() {
        let p = SerialMemory::new(Params::new(2, 2, 2));
        check_action_and_locs(&p);
        check_equivariance(&p, 31, 30);
    }

    #[test]
    fn msi_is_fully_symmetric() {
        let p = MsiProtocol::new(Params::new(3, 2, 2));
        assert_eq!(p.symmetry_dims(), SymDims::FULL);
        check_action_and_locs(&p);
        check_equivariance(&p, 32, 25);
    }

    #[test]
    fn buggy_msi_keeps_block_value_symmetry_only() {
        let p = MsiProtocol::buggy(Params::new(3, 2, 2));
        assert!(!p.symmetry_dims().procs);
        assert!(p.symmetry_dims().blocks && p.symmetry_dims().values);
        check_action_and_locs(&p);
        check_equivariance(&p, 33, 25);
    }

    #[test]
    fn mesi_symmetry() {
        let p = MesiProtocol::new(Params::new(3, 2, 2));
        check_action_and_locs(&p);
        check_equivariance(&p, 34, 25);
        assert!(
            !MesiProtocol::buggy(Params::new(2, 1, 1))
                .symmetry_dims()
                .procs
        );
        check_equivariance(&MesiProtocol::buggy(Params::new(2, 2, 2)), 35, 25);
    }

    #[test]
    fn directory_symmetry_renames_bitmask_and_owner() {
        let p = DirectoryProtocol::new(Params::new(3, 2, 2));
        check_action_and_locs(&p);
        check_equivariance(&p, 36, 25);
    }

    #[test]
    fn fig4_and_tso_symmetry() {
        let f = Fig4Protocol::new(Params::new(2, 2, 2), 2);
        check_action_and_locs(&f);
        check_equivariance(&f, 37, 25);
        let t = StoreBufferTso::new(Params::new(2, 2, 2), 2);
        check_action_and_locs(&t);
        check_equivariance(&t, 38, 25);
    }

    #[test]
    fn lazy_caching_excludes_value_symmetry() {
        let p = LazyCaching::new(Params::new(2, 2, 2), 2, 2);
        assert!(!p.symmetry_dims().values);
        check_action_and_locs(&p);
        check_equivariance(&p, 39, 25);
    }

    #[test]
    fn canonical_state_encoding_is_orbit_invariant() {
        let proto = MsiProtocol::new(Params::new(2, 2, 2));
        let group = SymPerm::group(proto.params(), proto.symmetry_dims(), 1024);
        let mut rng = SmallRng::seed_from_u64(40);
        let mut r = Runner::new(proto.clone());
        for _ in 0..40 {
            let s = r.state().clone();
            let canon = canonical_state_encoding(&proto, &s, &group);
            for g in &group {
                let gs = proto.permute_state(&s, g);
                assert_eq!(
                    canonical_state_encoding(&proto, &gs, &group),
                    canon,
                    "orbit members must canonicalize identically"
                );
            }
            if !r.step_random(&mut rng) {
                break;
            }
        }
    }
}
