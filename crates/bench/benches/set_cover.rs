//! Criterion micro-benchmarks for the DR-SC set-cover kernels
//! (the algorithmic core behind Fig. 7): the incremental-gain production
//! solver against the retained reference implementations, on the
//! 1000-device frame-cover instance and a 10k-device large-N stress point
//! (see `docs/KERNELS.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nbiot_bench::workload;
use nbiot_des::SeedSequence;
use nbiot_grouping::set_cover::{greedy_set_cover, reference, PoTimeline, WindowCover};
use nbiot_time::{SimDuration, SimInstant};
use rand::Rng;

/// Synthetic PO timelines: `n` devices, POs every `cycle_s` seconds with a
/// random phase, over a fixed horizon.
fn synth_events(n: usize, cycle_s: u64, horizon_s: u64, seed: u64) -> Vec<Vec<SimInstant>> {
    let mut rng = SeedSequence::new(seed).rng(0);
    (0..n)
        .map(|_| {
            let phase: u64 = rng.gen_range(0..cycle_s * 1000);
            (0..)
                .map(|k| SimInstant::from_ms(phase + k * cycle_s * 1000))
                .take_while(|t| t.as_ms() < horizon_s * 1000)
                .collect()
        })
        .collect()
}

fn bench_window_cover(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_cover");
    for &n in &[100usize, 500, 1000] {
        let events = synth_events(n, 2600, 2 * 10_486, 42);
        let dense = vec![false; n];
        let timeline = PoTimeline::from_events(&events, &dense);
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                WindowCover::new(SimDuration::from_secs(10))
                    .solve_incremental(SimInstant::ZERO, &timeline)
                    .expect("coverable")
            })
        });
        group.bench_with_input(BenchmarkId::new("sweep", n), &n, |b, _| {
            b.iter(|| {
                WindowCover::new(SimDuration::from_secs(10))
                    .solve_sweep(SimInstant::ZERO, &timeline)
                    .expect("coverable")
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| {
                reference::window_cover_solve(
                    SimDuration::from_secs(10),
                    SimInstant::ZERO,
                    &events,
                    &dense,
                )
                .expect("coverable")
            })
        });
    }
    group.finish();
}

fn bench_generic_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("generic_greedy");
    for &n in &[50usize, 200] {
        let mut rng = SeedSequence::new(7).rng(1);
        let mut sets: Vec<Vec<usize>> = (0..n * 4)
            .map(|_| {
                let len = rng.gen_range(1..8);
                (0..len).map(|_| rng.gen_range(0..n)).collect()
            })
            .collect();
        // Ensure coverability.
        sets.push((0..n).collect());
        group.bench_with_input(BenchmarkId::new("chvatal", n), &n, |b, _| {
            b.iter(|| greedy_set_cover(n, &sets).expect("coverable"))
        });
    }
    group.finish();
}

/// The incremental kernel against the reference oracle on `universe`
/// devices of the frame-cover shape `dense_share` (same instances as
/// bench_report's `set_cover_*` and `set_cover_stress_*` stages).
fn bench_frame_cover(c: &mut Criterion, universe: usize, dense_share: f64) {
    let mut group = c.benchmark_group(&format!("frame_cover_{universe}"));
    let (universe, sets) = workload::frame_cover_instance_with(universe, dense_share, 42);
    assert_eq!(
        greedy_set_cover(universe, &sets),
        reference::greedy_set_cover(universe, &sets),
        "solvers must agree before being compared"
    );
    group.bench_with_input(
        BenchmarkId::new("incremental", universe),
        &universe,
        |b, _| b.iter(|| greedy_set_cover(universe, &sets).expect("coverable")),
    );
    group.bench_with_input(
        BenchmarkId::new("reference", universe),
        &universe,
        |b, _| b.iter(|| reference::greedy_set_cover(universe, &sets).expect("coverable")),
    );
    group.finish();
}

/// The realistic frame-cover shape: wide sets (the paper's dense devices
/// appear in every candidate window).
fn bench_frame_cover_kernels(c: &mut Criterion) {
    bench_frame_cover(c, 1_000, 0.3);
}

/// The `large-n-stress` scale (10k devices), on the post-dense-filtering
/// shape the DR-SC pipeline actually hands the kernel — the regime the
/// inverted-index update model targets.
fn bench_stress_kernels(c: &mut Criterion) {
    bench_frame_cover(c, 10_000, 0.0);
}

criterion_group!(
    benches,
    bench_window_cover,
    bench_generic_greedy,
    bench_frame_cover_kernels,
    bench_stress_kernels
);
criterion_main!(benches);
