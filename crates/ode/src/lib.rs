//! Ordinary differential equation solver for metabolic pathway simulation.
//!
//! The C3 photosynthesis model in `pathway-photosynthesis` is a set of coupled,
//! moderately stiff ODEs that must be integrated to steady state before its
//! CO₂ uptake rate can be read off. The Rust ODE ecosystem is thin, so this
//! crate hand-rolls the one integrator the workspace needs:
//!
//! * [`BackwardEuler`] — a semi-implicit first-order method with a damped
//!   Newton corrector and finite-difference Jacobian, stable on stiff
//!   kinetics at large steps.
//! * [`SteadyStateDriver`] — repeatedly integrates until the state stops
//!   changing, which is how uptake rates are evaluated.
//!
//! # Example
//!
//! ```
//! use pathway_ode::{BackwardEuler, OdeSystem};
//! use pathway_linalg::Vector;
//!
//! /// Exponential decay dy/dt = -y.
//! struct Decay;
//! impl OdeSystem for Decay {
//!     fn dim(&self) -> usize { 1 }
//!     fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
//!         dydt[0] = -y[0];
//!     }
//! }
//!
//! # fn main() -> Result<(), pathway_ode::OdeError> {
//! let solver = BackwardEuler::new(1e-3);
//! let result = solver.integrate(&Decay, 0.0, Vector::from(vec![1.0]), 1.0)?;
//! // First order: the error shrinks in proportion to the step.
//! assert!((result.state[0] - (-1.0f64).exp()).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod error;
mod implicit;
mod stats;
mod steady_state;
mod system;

pub use error::OdeError;
pub use implicit::BackwardEuler;
pub use stats::IntegrationStats;
pub use steady_state::{SteadyState, SteadyStateDriver, SteadyStateOptions};
pub use system::{IntegrationResult, OdeSystem};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, OdeError>;
