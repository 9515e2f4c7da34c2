//! Experiments E5/E9: full verification cost (model checking the
//! protocol ⊗ observer ⊗ checker product) and parallel speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scv_mc::{verify_protocol, Outcome as sc_outcome, VerifyOptions};
use scv_protocol::{MsiProtocol, SerialMemory, StoreBufferTso};
use scv_types::Params;

fn opts(threads: usize) -> VerifyOptions {
    VerifyOptions::new().max_states(2_000_000).threads(threads)
}

/// Positive benchmarks cap the search (product spaces exceed millions of
/// states; see DESIGN.md §6) — a correct protocol must never yield a
/// violation within the cap.
fn capped(threads: usize, max_states: usize) -> VerifyOptions {
    VerifyOptions::new().max_states(max_states).threads(threads)
}

fn bench_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("tab_verification");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function(BenchmarkId::new("serial_memory_60k", "2_1_2"), |b| {
        b.iter(|| {
            let out = verify_protocol(SerialMemory::new(Params::new(2, 1, 2)), capped(1, 60_000));
            assert!(!matches!(out, sc_outcome::Violation { .. }));
        })
    });
    group.bench_function(BenchmarkId::new("msi_60k", "2_1_2"), |b| {
        b.iter(|| {
            let out = verify_protocol(MsiProtocol::new(Params::new(2, 1, 2)), capped(1, 60_000));
            assert!(!matches!(out, sc_outcome::Violation { .. }));
        })
    });
    group.bench_function(BenchmarkId::new("msi_buggy_finds_cex", "2_2_1"), |b| {
        b.iter(|| {
            assert!(
                !verify_protocol(MsiProtocol::buggy(Params::new(2, 2, 1)), opts(1)).is_verified()
            )
        })
    });
    group.bench_function(BenchmarkId::new("tso_finds_cex", "2_2_1"), |b| {
        b.iter(|| {
            assert!(
                !verify_protocol(StoreBufferTso::new(Params::new(2, 2, 1), 1), opts(1))
                    .is_verified()
            )
        })
    });
    group.finish();

    // E9: parallel speedup on a bounded sweep of MSI's product space.
    let mut group = c.benchmark_group("fig_par_mc");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("msi_2_1_2_150k_ws", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let out = verify_protocol(
                        MsiProtocol::new(Params::new(2, 1, 2)),
                        capped(threads, 150_000),
                    );
                    assert!(!matches!(out, sc_outcome::Violation { .. }));
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_verify);
criterion_main!(benches);
