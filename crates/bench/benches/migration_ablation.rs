//! Migration ablation: quality (hypervolume) and cost of PMO2 with broadcast
//! migration, ring migration and no migration at all, at a fixed budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_bench::{pmo2_spec, run_search};
use pathway_core::prelude::*;
use pathway_moo::metrics::hypervolume;

fn run_with_topology(topology: MigrationTopology, problem: &LeafRedesignProblem) -> f64 {
    let mut spec = pmo2_spec(24, 30, 10, 5);
    if let OptimizerSpec::Archipelago(archipelago) = &mut spec.optimizer {
        archipelago.topology = topology;
    }
    let (front, _) = run_search(&spec, problem);
    let matrix: Vec<Vec<f64>> = front.iter().map(|i| i.objectives.clone()).collect();
    let normalized: Vec<Vec<f64>> = matrix
        .iter()
        .map(|p| {
            vec![
                p[0] / 45.0 + 1.0,
                p[1] / (4.0 * EnzymePartition::NATURAL_NITROGEN),
            ]
        })
        .collect();
    hypervolume(&normalized, &[1.0, 1.0])
}

fn bench_migration_ablation(c: &mut Criterion) {
    let problem = LeafRedesignProblem::new(Scenario::present_low_export());
    let mut group = c.benchmark_group("migration_ablation");
    group.sample_size(10);
    for (name, topology) in [
        ("broadcast", MigrationTopology::Broadcast),
        ("ring", MigrationTopology::Ring),
        ("isolated", MigrationTopology::Isolated),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &topology,
            |b, &topology| {
                b.iter(|| run_with_topology(topology, &problem));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_migration_ablation);
criterion_main!(benches);
