//! What a frontier state holds at rest, component by component, measured
//! with a counting allocator.
//!
//! ```text
//! cargo run --release -p scv-bench --bin state_bytes
//! ```
//!
//! Runs msi (2,1,1) under full symmetry on one thread until 100,000
//! states are admitted (so the frontier is the same states on every run
//! and every commit), then frees the interrupted search's frontier one
//! state at a time, component by component. Each free reports the allocation's
//! real size, so the table shows the heap each component keeps at rest:
//! capacity included, allocator bookkeeping excluded. "rest" is whatever
//! the state holds besides its four public components, together with
//! anything it shares with sibling states (freed with the last holder).

use scv_mc::{
    ws_search_controlled, Budget, CancelToken, ControlledSearch, RunControl, SymmetryMode,
    TransitionSystem, VerifyOptions, VerifyState, VerifySystem,
};
use scv_protocol::{MsiProtocol, Protocol};
use scv_types::Params;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Forwards to the system allocator and counts every free.
struct Counting;

static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Relaxed);
        FREED_ALLOCS.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes and allocations freed by `f`.
fn freed_by(f: impl FnOnce()) -> (u64, u64) {
    let (b0, a0) = (FREED_BYTES.load(Relaxed), FREED_ALLOCS.load(Relaxed));
    f();
    (
        FREED_BYTES.load(Relaxed) - b0,
        FREED_ALLOCS.load(Relaxed) - a0,
    )
}

/// States admitted before the frontier is measured.
const STATES: usize = 100_000;

fn main() {
    let sys =
        VerifySystem::with_symmetry(MsiProtocol::new(Params::new(2, 1, 1)), SymmetryMode::Full);
    let opts = VerifyOptions::new().max_states(usize::MAX);
    let ctrl = RunControl::new(&Budget::unlimited().states(STATES), CancelToken::new());
    let (result, _) = ws_search_controlled(&sys, opts.bfs, 1, opts.batch_size, &ctrl, None);
    let ControlledSearch::Interrupted { checkpoint, .. } = result else {
        panic!("the state budget must interrupt the search");
    };
    let frontier: Vec<VerifyState<<MsiProtocol as Protocol>::State>> =
        checkpoint.frontier.into_iter().map(|(s, _, _)| s).collect();
    let n = frontier.len() as f64;
    let words: usize = frontier.iter().map(|s| s.encoding().len()).sum();

    // [proto, obs, chk, error, rest] × (bytes, allocations)
    let mut heap = [(0u64, 0u64); 5];
    let mut add = |i: usize, (b, a): (u64, u64)| {
        heap[i].0 += b;
        heap[i].1 += a;
    };
    // Each component is swapped for a copy of the initial state's before
    // it is freed, so the state stays whole; the copies are freed with the
    // rest and taken off it.
    let init = sys.initial();
    let spares = || (init.proto.clone(), init.obs.clone(), init.chk.clone());
    let spare_heap = freed_by(|| drop(spares()));
    for mut s in frontier {
        let (proto, obs, chk) = spares();
        add(0, freed_by(|| drop(std::mem::replace(&mut s.proto, proto))));
        add(1, freed_by(|| drop(std::mem::replace(&mut s.obs, obs))));
        add(2, freed_by(|| drop(std::mem::replace(&mut s.chk, chk))));
        add(3, freed_by(|| drop(s.error.take())));
        let (b, a) = freed_by(|| drop(s));
        add(4, (b - spare_heap.0, a - spare_heap.1));
    }

    let inline = std::mem::size_of::<VerifyState<<MsiProtocol as Protocol>::State>>();
    println!(
        "msi (2,1,1) full symmetry: {} frontier states after {STATES} admitted",
        n as u64
    );
    println!("| component | bytes/state | allocations/state |");
    println!("|---|---:|---:|");
    println!("| inline `VerifyState` | {inline} | – |");
    let names = [
        "protocol heap",
        "observer heap",
        "checker heap",
        "error heap",
        "rest",
    ];
    let mut total = (inline as f64, 0.0);
    for (name, (b, a)) in names.iter().zip(heap) {
        let (b, a) = (b as f64 / n, a as f64 / n);
        total.0 += b;
        total.1 += a;
        println!("| {name} | {b:.0} | {a:.1} |");
    }
    println!("| **total** | {:.0} | {:.1} |", total.0, total.1);
    println!(
        "canonical encoding: {:.0} words/state ({:.0} B if stored)",
        words as f64 / n,
        8.0 * words as f64 / n
    );
}
