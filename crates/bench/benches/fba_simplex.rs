//! Flux balance analysis solve time versus synthetic Geobacter model size,
//! and the reference pair `GeobacterFluxProblem` solves at construction.
//!
//! The `reference_pair` group compares max-biomass plus max-electron solved
//! through one `maximize_reactions` call, which runs the simplex phase 1
//! once, against two `maximize_reaction` calls, which run it twice. The two
//! paths return bit-identical fluxes.
//!
//! Set `PATHWAY_BENCH_PROFILE=quick` (CI does) to drop the 608-reaction
//! paper-scale model and take fewer samples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_fba::geobacter::GeobacterModel;
use pathway_fba::FluxBalanceAnalysis;

/// `(model sizes, sample_size)` — up to paper scale by default, reduced
/// under `PATHWAY_BENCH_PROFILE=quick`.
fn profile() -> (&'static [usize], usize) {
    match std::env::var("PATHWAY_BENCH_PROFILE").as_deref() {
        Ok("quick") => (&[152, 304], 3),
        _ => (&[152, 304, 608], 10),
    }
}

fn bench_fba(c: &mut Criterion) {
    let (sizes, sample_size) = profile();
    let mut group = c.benchmark_group("fba_simplex");
    group.sample_size(sample_size);
    for &reactions in sizes {
        group.bench_with_input(
            BenchmarkId::from_parameter(reactions),
            &reactions,
            |b, &reactions| {
                let model = GeobacterModel::builder().reactions(reactions).build();
                b.iter(|| {
                    model
                        .max_biomass()
                        .expect("biomass FBA is feasible")
                        .objective_value
                });
            },
        );
    }
    group.finish();
}

fn bench_reference_pair(c: &mut Criterion) {
    let (sizes, sample_size) = profile();
    let mut group = c.benchmark_group("reference_pair");
    group.sample_size(sample_size);
    for &reactions in sizes {
        let geobacter = GeobacterModel::builder().reactions(reactions).build();
        let fba = FluxBalanceAnalysis::new(geobacter.model());
        let pair = [geobacter.biomass_reaction(), geobacter.electron_reaction()];
        group.bench_with_input(
            BenchmarkId::new("shared_phase1", reactions),
            &pair,
            |b, pair| {
                b.iter(|| {
                    fba.maximize_reactions(pair)
                        .expect("reference LPs are feasible")
                        .len()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("two_solves", reactions),
            &pair,
            |b, pair| {
                b.iter(|| {
                    pair.iter()
                        .map(|&reaction| {
                            fba.maximize_reaction(reaction)
                                .expect("reference LPs are feasible")
                                .iterations
                        })
                        .sum::<usize>()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fba, bench_reference_pair);
criterion_main!(benches);
