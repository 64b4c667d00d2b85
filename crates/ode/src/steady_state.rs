use pathway_linalg::Vector;

use crate::{BackwardEuler, IntegrationStats, OdeError, OdeSystem};

/// Options for the steady-state driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStateOptions {
    /// Length of each integration window between convergence checks.
    pub window: f64,
    /// Convergence threshold on the infinity norm of the derivative, scaled by
    /// `1 + |y|`.
    pub derivative_tol: f64,
    /// Convergence threshold on the relative state change across a window.
    pub state_change_tol: f64,
    /// Maximum simulated time before giving up.
    pub max_time: f64,
}

impl Default for SteadyStateOptions {
    fn default() -> Self {
        SteadyStateOptions {
            window: 10.0,
            derivative_tol: 1e-6,
            state_change_tol: 1e-7,
            max_time: 10_000.0,
        }
    }
}

/// A steady-state point of an ODE system.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    /// Steady-state state vector.
    pub state: Vector,
    /// Simulated time needed to reach the steady state.
    pub simulated_time: f64,
    /// Infinity norm of the derivative at the reported state.
    pub residual: f64,
    /// Accumulated integration statistics.
    pub stats: IntegrationStats,
}

/// Repeatedly integrates a system in windows until the state stops changing.
///
/// This is how the photosynthesis model is evaluated: enzyme concentrations
/// define the system, the driver finds the metabolic steady state, and the
/// CO₂ uptake rate is read from that state.
///
/// # Example
///
/// ```
/// use pathway_ode::{BackwardEuler, OdeSystem, SteadyStateDriver, SteadyStateOptions};
/// use pathway_linalg::Vector;
///
/// /// Relaxation towards y = 3.
/// struct Relax;
/// impl OdeSystem for Relax {
///     fn dim(&self) -> usize { 1 }
///     fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) { dydt[0] = 3.0 - y[0]; }
/// }
///
/// # fn main() -> Result<(), pathway_ode::OdeError> {
/// let driver = SteadyStateDriver::new(BackwardEuler::new(0.1), SteadyStateOptions::default());
/// let steady = driver.run(&Relax, Vector::from(vec![0.0]))?;
/// assert!((steady.state[0] - 3.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SteadyStateDriver {
    integrator: BackwardEuler,
    options: SteadyStateOptions,
}

impl SteadyStateDriver {
    /// Creates a driver around an integrator.
    pub fn new(integrator: BackwardEuler, options: SteadyStateOptions) -> Self {
        SteadyStateDriver {
            integrator,
            options,
        }
    }

    /// The configured options.
    pub fn options(&self) -> &SteadyStateOptions {
        &self.options
    }

    /// Runs the system to steady state starting from `y0`.
    ///
    /// # Errors
    ///
    /// * [`OdeError::InvalidParameter`] if the options are inconsistent.
    /// * [`OdeError::SteadyStateNotReached`] if `max_time` is exhausted.
    /// * Any error of [`BackwardEuler::integrate`].
    pub fn run<S: OdeSystem>(&self, system: &S, y0: Vector) -> crate::Result<SteadyState> {
        if !is_strictly_positive(self.options.window) {
            return Err(OdeError::InvalidParameter(
                "steady-state window must be positive".into(),
            ));
        }
        if !is_at_least(self.options.max_time, self.options.window) {
            return Err(OdeError::InvalidParameter(
                "max_time must be at least one window".into(),
            ));
        }

        let dim = system.dim();
        let mut stats = IntegrationStats::new();
        let mut t = 0.0;
        let mut y = y0;
        let mut dydt = Vector::zeros(dim);

        while t < self.options.max_time {
            let window_end = (t + self.options.window).min(self.options.max_time);
            let before = y.clone();
            let result = self.integrator.integrate(system, t, y, window_end)?;
            stats.merge(&result.stats);
            y = result.state;
            t = result.time;

            system.rhs(t, &y, &mut dydt);
            stats.rhs_evaluations += 1;
            let residual = dydt.norm_inf() / (1.0 + y.norm_inf());
            let change = {
                let diff = &y - &before;
                diff.norm_inf() / (1.0 + y.norm_inf())
            };
            if residual <= self.options.derivative_tol || change <= self.options.state_change_tol {
                return Ok(SteadyState {
                    state: y,
                    simulated_time: t,
                    residual,
                    stats,
                });
            }
        }

        system.rhs(t, &y, &mut dydt);
        Err(OdeError::SteadyStateNotReached {
            simulated_time: t,
            residual: dydt.norm_inf(),
        })
    }
}

/// `true` when `x` is strictly positive; false for NaN, so option validation
/// rejects NaN inputs.
fn is_strictly_positive(x: f64) -> bool {
    x > 0.0
}

/// `true` when `a >= b`; false when either side is NaN, so option validation
/// rejects NaN inputs.
fn is_at_least(a: f64, b: f64) -> bool {
    a >= b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::test_systems::{Decay, Logistic};
    use crate::BackwardEuler;

    struct Relax {
        target: f64,
    }

    impl OdeSystem for Relax {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
            dydt[0] = self.target - y[0];
        }
    }

    #[test]
    fn relaxation_reaches_its_target() {
        let driver =
            SteadyStateDriver::new(BackwardEuler::new(0.01), SteadyStateOptions::default());
        let steady = driver
            .run(&Relax { target: 5.0 }, Vector::from(vec![0.0]))
            .unwrap();
        assert!((steady.state[0] - 5.0).abs() < 1e-4);
        assert!(steady.simulated_time > 0.0);
    }

    #[test]
    fn decay_reaches_zero() {
        let driver = SteadyStateDriver::new(BackwardEuler::new(0.1), SteadyStateOptions::default());
        let steady = driver
            .run(&Decay { k: 0.7 }, Vector::from(vec![10.0]))
            .unwrap();
        assert!(steady.state[0].abs() < 1e-3);
    }

    #[test]
    fn logistic_growth_saturates_at_carrying_capacity() {
        let driver =
            SteadyStateDriver::new(BackwardEuler::new(0.01), SteadyStateOptions::default());
        let steady = driver
            .run(&Logistic { r: 2.0 }, Vector::from(vec![0.01]))
            .unwrap();
        assert!((steady.state[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn implicit_integrator_also_reaches_steady_state() {
        let driver = SteadyStateDriver::new(BackwardEuler::new(0.1), SteadyStateOptions::default());
        let steady = driver
            .run(&Relax { target: -2.0 }, Vector::from(vec![4.0]))
            .unwrap();
        assert!((steady.state[0] + 2.0).abs() < 1e-3);
    }

    #[test]
    fn oscillating_system_never_converges_and_reports_failure() {
        use crate::system::test_systems::Harmonic;
        let options = SteadyStateOptions {
            window: 5.0,
            max_time: 50.0,
            derivative_tol: 1e-12,
            state_change_tol: 1e-12,
        };
        let driver = SteadyStateDriver::new(BackwardEuler::new(0.01), options);
        let err = driver
            .run(&Harmonic, Vector::from(vec![1.0, 0.0]))
            .unwrap_err();
        assert!(matches!(err, OdeError::SteadyStateNotReached { .. }));
    }

    #[test]
    fn invalid_options_are_rejected() {
        let options = SteadyStateOptions {
            window: 0.0,
            ..Default::default()
        };
        let driver = SteadyStateDriver::new(BackwardEuler::new(0.01), options);
        assert!(matches!(
            driver.run(&Decay { k: 1.0 }, Vector::from(vec![1.0])),
            Err(OdeError::InvalidParameter(_))
        ));
        let options = SteadyStateOptions {
            window: 10.0,
            max_time: 1.0,
            ..Default::default()
        };
        let driver = SteadyStateDriver::new(BackwardEuler::new(0.01), options);
        assert!(matches!(
            driver.run(&Decay { k: 1.0 }, Vector::from(vec![1.0])),
            Err(OdeError::InvalidParameter(_))
        ));
    }

    #[test]
    fn stats_accumulate_across_windows() {
        let driver = SteadyStateDriver::new(
            BackwardEuler::new(0.01),
            SteadyStateOptions {
                window: 1.0,
                derivative_tol: 1e-9,
                state_change_tol: 1e-10,
                max_time: 100.0,
            },
        );
        let steady = driver
            .run(&Relax { target: 1.0 }, Vector::from(vec![0.0]))
            .unwrap();
        assert!(steady.stats.steps_accepted >= 100);
        assert!(steady.stats.rhs_evaluations > steady.stats.steps_accepted);
    }
}
