//! Robust metabolic pathway design — the public API of this workspace.
//!
//! This crate reproduces the end-to-end methodology of *Design of Robust
//! Metabolic Pathways* (Umeton et al., DAC 2011):
//!
//! 1. express a metabolic redesign task as a [`pathway_moo::MultiObjectiveProblem`]
//!    — the C3 **leaf redesign** problem (maximize CO₂ uptake, minimize
//!    protein nitrogen) and the ***Geobacter sulfurreducens*** flux problem
//!    (maximize electron and biomass production near steady state);
//! 2. approximate the Pareto front with **PMO2** (an archipelago of NSGA-II
//!    islands with periodic migration): a declarative
//!    [`RunSpec`](pathway_moo::engine::RunSpec) configures the search and
//!    [`spec_driver`] drives it through the step-driven engine of
//!    [`pathway_moo::engine`] (observers, early stopping,
//!    checkpoint/resume);
//! 3. **mine** the front: closest-to-ideal, shadow minima, equally spaced
//!    representatives;
//! 4. score the mined candidates with the **robustness yield** Γ under
//!    Monte-Carlo perturbation of the design variables.
//!
//! # Quick start
//!
//! ```
//! use pathway_core::prelude::*;
//!
//! // A deliberately small search so the example runs in a few seconds.
//! let spec = RunSpec::from_text("\
//! pathway-spec v1
//! [problem]
//! name = leaf-design
//! [optimizer]
//! kind = archipelago
//! population = 24
//! migration_interval = 40
//! [run]
//! seed = 7
//! [stop]
//! max_generations = 40
//! ").unwrap();
//! let scenario = Scenario::present_low_export();
//! let executor = Executor::shared(spec.optimizer.backend());
//! let mut driver = spec_driver(&spec, LeafRedesignProblem::new(scenario), executor);
//! let front = driver.run();
//! let outcome = LeafDesignOutcome::from_front(scenario, front, driver.optimizer().evaluations());
//! assert!(!outcome.front.is_empty());
//! let best_uptake = outcome.max_uptake();
//! assert!(best_uptake.uptake > Scenario::NATURAL_UPTAKE * 0.8);
//! let closest = outcome.closest_to_ideal();
//! assert!((0.0..=100.0).contains(&outcome.robustness_percent(closest, 200)));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod design;
mod geobacter_problem;
mod ode_leaf_problem;
mod photosynthesis_problem;
mod registry;
mod report;

pub mod jsonlite;
pub mod obs;
pub mod prelude;
pub mod sweep;

pub use design::{GeobacterOutcome, LeafDesign, LeafDesignOutcome, SelectedLeafDesigns};
pub use geobacter_problem::{GeobacterFluxProblem, GeobacterSolution};
pub use ode_leaf_problem::OdeLeafRedesignProblem;
pub use photosynthesis_problem::LeafRedesignProblem;
pub use registry::{
    resume_spec_driver, spec_driver, validate_spec_against_problem, AnyProblem, ProblemInfo,
    PROBLEM_CATALOG,
};
pub use report::{render_table, CoverageRow, SelectionRow};
