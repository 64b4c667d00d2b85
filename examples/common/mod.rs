//! Helpers shared by every example (not itself an example target).

use pathway_core::prelude::*;

/// `true` when shrunk budgets are requested via
/// `PATHWAY_EXAMPLE_BUDGET=quick`, as the CI examples step does.
pub fn quick_budget() -> bool {
    std::env::var("PATHWAY_EXAMPLE_BUDGET").is_ok_and(|v| v == "quick")
}

/// Parses an example's committed `.spec` twin. Under quick budgets the
/// archipelago's island population, generation budget and migration
/// interval shrink to `quick = (population, generations, interval)`;
/// nothing else about the spec changes.
pub fn load_spec(text: &str, quick: (usize, usize, usize)) -> RunSpec {
    let mut spec = RunSpec::from_text(text).expect("the committed spec parses");
    if quick_budget() {
        let (population, generations, interval) = quick;
        let OptimizerSpec::Archipelago(archipelago) = &mut spec.optimizer else {
            panic!("the example specs run the archipelago");
        };
        archipelago.island.population = population;
        archipelago.migration_interval = interval;
        spec.stopping.max_generations = generations;
    }
    spec
}
