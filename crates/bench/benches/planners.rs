//! Criterion micro-benchmarks for the three grouping planners on realistic
//! populations (plan computation only, no simulation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nbiot_des::SeedSequence;
use nbiot_grouping::{DaSc, DrSc, DrSi, GroupingInput, GroupingMechanism, GroupingParams};
use nbiot_traffic::TrafficMix;

fn input(n: usize) -> GroupingInput {
    let mut rng = SeedSequence::new(0xBEEF).rng(0);
    let pop = TrafficMix::ericsson_city()
        .generate(n, &mut rng)
        .expect("population");
    GroupingInput::from_population(&pop, GroupingParams::default()).expect("input")
}

fn bench_planners(c: &mut Criterion) {
    let mut group = c.benchmark_group("planners");
    for &n in &[100usize, 500] {
        let inp = input(n);
        // DR-SC plans a copy per iteration: an input memoizes its cover,
        // so a reused one would time a memo read. `inp` itself is never
        // planned, so each copy starts cold.
        group.bench_with_input(BenchmarkId::new("dr_sc", n), &n, |b, _| {
            let mut rng = SeedSequence::new(1).rng(0);
            b.iter(|| DrSc::new().plan(&inp.clone(), &mut rng).expect("plan"))
        });
        group.bench_with_input(BenchmarkId::new("da_sc", n), &n, |b, _| {
            let mut rng = SeedSequence::new(2).rng(0);
            b.iter(|| DaSc::new().plan(&inp, &mut rng).expect("plan"))
        });
        group.bench_with_input(BenchmarkId::new("dr_si", n), &n, |b, _| {
            let mut rng = SeedSequence::new(3).rng(0);
            b.iter(|| DrSi::new().plan(&inp, &mut rng).expect("plan"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_planners);
criterion_main!(benches);
