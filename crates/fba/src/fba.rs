use pathway_linalg::simplex::{self, SimplexOptions};
use pathway_linalg::{LinearProgram, Objective};

use crate::{FbaError, MetabolicModel};

/// Result of a flux balance analysis solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FbaSolution {
    /// Optimal value of the objective flux.
    pub objective_value: f64,
    /// The full flux vector (one entry per reaction, model order).
    pub fluxes: Vec<f64>,
    /// Number of simplex pivots used, counting the phase-1 pivots it shares
    /// with the other objectives of the same call.
    pub iterations: usize,
}

/// Flux variability range of one reaction at a fixed objective level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluxVariability {
    /// Minimum attainable flux.
    pub minimum: f64,
    /// Maximum attainable flux.
    pub maximum: f64,
}

/// Flux balance analysis over a [`MetabolicModel`]: maximize (or minimize) one
/// reaction flux subject to the steady-state constraint `S·v = 0` and the
/// per-reaction bounds, exactly the LP the COBRA toolbox solves.
///
/// # Example
///
/// ```
/// use pathway_fba::{FluxBalanceAnalysis, geobacter::GeobacterModel};
///
/// # fn main() -> Result<(), pathway_fba::FbaError> {
/// let model = GeobacterModel::builder().reactions(96).build().into_model();
/// let fba = FluxBalanceAnalysis::new(&model);
/// let biomass = model.reaction_index("biomass").expect("biomass reaction exists");
/// let solution = fba.maximize_reaction(biomass)?;
/// assert_eq!(solution.fluxes.len(), model.num_reactions());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FluxBalanceAnalysis<'a> {
    model: &'a MetabolicModel,
}

impl<'a> FluxBalanceAnalysis<'a> {
    /// Creates an analysis bound to a model.
    pub fn new(model: &'a MetabolicModel) -> Self {
        FluxBalanceAnalysis { model }
    }

    /// The steady-state LP `S·v = 0` within the flux bounds; the objective
    /// is supplied per solve.
    fn build_program(&self) -> LinearProgram {
        let n = self.model.num_reactions();
        let mut lp = LinearProgram::new(n, Objective::default());
        for (i, bound) in self.model.flux_bounds().into_iter().enumerate() {
            lp.set_bound(i, bound).expect("model bounds are valid");
        }
        let s = self.model.stoichiometric_matrix();
        for row in 0..s.rows() {
            let coefficients: Vec<(usize, f64)> = s.row_entries(row).collect();
            if !coefficients.is_empty() {
                lp.add_equal(&coefficients, 0.0)
                    .expect("stoichiometric coefficients reference valid reactions");
            }
        }
        lp
    }

    /// Optimizes each `(reaction, sense)` objective over the same LP, with
    /// one shared simplex phase 1. Fails with the first error in objective
    /// order.
    fn solve_each(&self, objectives: &[(usize, Objective)]) -> Result<Vec<FbaSolution>, FbaError> {
        let n = self.model.num_reactions();
        if let Some(&(found, _)) = objectives.iter().find(|&&(reaction, _)| reaction >= n) {
            return Err(FbaError::DimensionMismatch { expected: n, found });
        }
        let lp_objectives: Vec<(Objective, Vec<f64>)> = objectives
            .iter()
            .map(|&(reaction, sense)| {
                let mut coefficients = vec![0.0; n];
                coefficients[reaction] = 1.0;
                (sense, coefficients)
            })
            .collect();
        simplex::solve_each(
            &self.build_program(),
            &lp_objectives,
            &SimplexOptions::default(),
        )
        .into_iter()
        .map(|solution| {
            let solution = solution?;
            Ok(FbaSolution {
                objective_value: solution.objective_value,
                fluxes: solution.variables,
                iterations: solution.iterations,
            })
        })
        .collect()
    }

    /// Maximizes the flux through each of `reactions` in turn, solving the
    /// shared constraints once: the solutions are bit for bit those of one
    /// [`FluxBalanceAnalysis::maximize_reaction`] call per reaction,
    /// `iterations` included.
    ///
    /// # Errors
    ///
    /// Returns an error if a reaction index is out of range or an LP is
    /// infeasible/unbounded.
    pub fn maximize_reactions(&self, reactions: &[usize]) -> Result<Vec<FbaSolution>, FbaError> {
        let objectives: Vec<(usize, Objective)> = reactions
            .iter()
            .map(|&reaction| (reaction, Objective::Maximize))
            .collect();
        self.solve_each(&objectives)
    }

    /// Maximizes the flux through `objective_reaction`.
    ///
    /// # Errors
    ///
    /// Returns an error if the reaction index is out of range or the LP is
    /// infeasible/unbounded.
    pub fn maximize_reaction(&self, objective_reaction: usize) -> Result<FbaSolution, FbaError> {
        self.maximize_reactions(&[objective_reaction])
            .map(single_solution)
    }

    /// Minimizes the flux through `objective_reaction`.
    ///
    /// # Errors
    ///
    /// Same as [`FluxBalanceAnalysis::maximize_reaction`].
    pub fn minimize_reaction(&self, objective_reaction: usize) -> Result<FbaSolution, FbaError> {
        self.solve_each(&[(objective_reaction, Objective::Minimize)])
            .map(single_solution)
    }

    /// Flux variability analysis of one reaction: its attainable flux range
    /// over the steady-state polytope (without constraining the objective).
    /// Both ends share one simplex phase 1.
    ///
    /// # Errors
    ///
    /// Same as [`FluxBalanceAnalysis::maximize_reaction`].
    pub fn variability(&self, reaction: usize) -> Result<FluxVariability, FbaError> {
        let range = self.solve_each(&[
            (reaction, Objective::Minimize),
            (reaction, Objective::Maximize),
        ])?;
        Ok(FluxVariability {
            minimum: range[0].objective_value,
            maximum: range[1].objective_value,
        })
    }
}

fn single_solution(mut solutions: Vec<FbaSolution>) -> FbaSolution {
    solutions.pop().expect("one solution per objective")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_models::toy_model;

    #[test]
    fn toy_biomass_is_limited_by_uptake() {
        let model = toy_model();
        let fba = FluxBalanceAnalysis::new(&model);
        let biomass = model.reaction_index("biomass").unwrap();
        let solution = fba.maximize_reaction(biomass).unwrap();
        assert!((solution.objective_value - 10.0).abs() < 1e-6);
        // At the optimum the whole uptake is converted, nothing leaks.
        let leak = model.reaction_index("leak").unwrap();
        assert!(solution.fluxes[leak].abs() < 1e-6);
    }

    #[test]
    fn steady_state_holds_at_the_optimum() {
        let model = toy_model();
        let fba = FluxBalanceAnalysis::new(&model);
        let solution = fba
            .maximize_reaction(model.reaction_index("biomass").unwrap())
            .unwrap();
        let s = model.stoichiometric_matrix();
        let v = pathway_linalg::Vector::from(solution.fluxes.clone());
        let residual = s.mat_vec(&v).unwrap();
        assert!(residual.norm_inf() < 1e-6);
    }

    #[test]
    fn pinning_a_reaction_propagates_to_the_solution() {
        let mut model = toy_model();
        model.pin_reaction("leak", 0.45).unwrap();
        let fba = FluxBalanceAnalysis::new(&model);
        let solution = fba
            .maximize_reaction(model.reaction_index("biomass").unwrap())
            .unwrap();
        let leak = model.reaction_index("leak").unwrap();
        assert!((solution.fluxes[leak] - 0.45).abs() < 1e-6);
        // Biomass loses exactly the pinned leak.
        assert!((solution.objective_value - 9.55).abs() < 1e-6);
    }

    #[test]
    fn minimization_and_variability() {
        let model = toy_model();
        let fba = FluxBalanceAnalysis::new(&model);
        let biomass = model.reaction_index("biomass").unwrap();
        let min = fba.minimize_reaction(biomass).unwrap();
        assert!(min.objective_value.abs() < 1e-6);
        let range = fba.variability(biomass).unwrap();
        assert!(range.minimum.abs() < 1e-6);
        assert!((range.maximum - 10.0).abs() < 1e-6);
    }

    #[test]
    fn shared_phase_one_matches_separate_solves_bit_for_bit() {
        let geobacter = crate::geobacter::GeobacterModel::builder()
            .reactions(96)
            .build();
        let fba = FluxBalanceAnalysis::new(geobacter.model());
        let reactions = [geobacter.biomass_reaction(), geobacter.electron_reaction()];
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let shared = fba.maximize_reactions(&reactions).unwrap();
        for (&reaction, shared) in reactions.iter().zip(&shared) {
            let alone = fba.maximize_reaction(reaction).unwrap();
            assert_eq!(bits(&shared.fluxes), bits(&alone.fluxes));
            assert_eq!(
                shared.objective_value.to_bits(),
                alone.objective_value.to_bits()
            );
            assert_eq!(shared.iterations, alone.iterations);

            let range = fba.variability(reaction).unwrap();
            let minimum = fba.minimize_reaction(reaction).unwrap().objective_value;
            assert_eq!(range.minimum.to_bits(), minimum.to_bits());
            assert_eq!(range.maximum.to_bits(), alone.objective_value.to_bits());
        }
    }

    #[test]
    fn invalid_reaction_index_is_rejected() {
        let model = toy_model();
        let fba = FluxBalanceAnalysis::new(&model);
        assert!(matches!(
            fba.maximize_reaction(99),
            Err(FbaError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            fba.maximize_reactions(&[0, 99]),
            Err(FbaError::DimensionMismatch { found: 99, .. })
        ));
    }
}
