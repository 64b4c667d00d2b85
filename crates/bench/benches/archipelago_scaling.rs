//! PMO2 wall time versus island count at a fixed per-island budget — the
//! coarse-grained parallelism ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_bench::{pmo2_spec, run_search};
use pathway_core::prelude::*;

fn bench_archipelago_scaling(c: &mut Criterion) {
    let problem = LeafRedesignProblem::new(Scenario::present_low_export());
    let mut group = c.benchmark_group("archipelago_scaling");
    group.sample_size(10);
    for &islands in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(islands),
            &islands,
            |b, &islands| {
                let mut spec = pmo2_spec(24, 20, 10, 3);
                if let OptimizerSpec::Archipelago(archipelago) = &mut spec.optimizer {
                    archipelago.islands = islands;
                }
                b.iter(|| run_search(&spec, &problem).0.len());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_archipelago_scaling);
criterion_main!(benches);
