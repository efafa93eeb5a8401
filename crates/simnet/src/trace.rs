//! Convergence reporting.

use crate::event::SimTime;
use serde::{Deserialize, Serialize};

/// Result of running the emulator until quiescence (or a safety cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvergenceReport {
    /// Whether the event queue drained (true) or the event cap hit (false).
    pub converged: bool,
    /// Events processed during the run.
    pub events_processed: u64,
    /// Simulated time when the run stopped.
    pub finished_at: SimTime,
}

impl ConvergenceReport {
    /// Panic with context if the network failed to converge — experiments
    /// treat non-convergence (e.g. a persistent routing loop churning
    /// forever) as a hard failure unless they are specifically probing it.
    pub fn expect_converged(self) -> Self {
        assert!(
            self.converged,
            "network failed to converge after {} events (t={}us)",
            self.events_processed, self.finished_at
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expect_converged_passes_through() {
        let r = ConvergenceReport {
            converged: true,
            events_processed: 5,
            finished_at: 10,
        };
        assert_eq!(r.expect_converged(), r);
    }

    #[test]
    #[should_panic(expected = "failed to converge")]
    fn expect_converged_panics_on_cap() {
        ConvergenceReport {
            converged: false,
            events_processed: 5,
            finished_at: 10,
        }
        .expect_converged();
    }
}
