/// Counters accumulated while integrating an ODE system.
///
/// They show how much work a solve took (steps, right-hand-side and
/// Jacobian evaluations, Newton iterations); the benchmark harness reports
/// them per steady-state evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntegrationStats {
    /// Number of accepted steps.
    pub steps_accepted: usize,
    /// Number of right-hand-side evaluations.
    pub rhs_evaluations: usize,
    /// Number of Jacobian evaluations.
    pub jacobian_evaluations: usize,
    /// Number of Newton iterations.
    pub newton_iterations: usize,
}

impl IntegrationStats {
    /// Creates a zeroed statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of attempted steps. A step either succeeds or fails
    /// the whole integration, so this equals
    /// [`IntegrationStats::steps_accepted`].
    pub fn steps_attempted(&self) -> usize {
        self.steps_accepted
    }

    /// Merges counters from another record into this one.
    pub fn merge(&mut self, other: &IntegrationStats) {
        self.steps_accepted += other.steps_accepted;
        self.rhs_evaluations += other.rhs_evaluations;
        self.jacobian_evaluations += other.jacobian_evaluations;
        self.newton_iterations += other.newton_iterations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_all_fields() {
        let mut a = IntegrationStats {
            steps_accepted: 1,
            rhs_evaluations: 3,
            jacobian_evaluations: 4,
            newton_iterations: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.steps_accepted, 2);
        assert_eq!(a.steps_attempted(), 2);
        assert_eq!(a.rhs_evaluations, 6);
        assert_eq!(a.jacobian_evaluations, 8);
        assert_eq!(a.newton_iterations, 10);
    }
}
