//! Simple queueing-model FCT predictions — the reference line of Fig. 15
//! ("FatPaths results are close to predictions from a simple queueing
//! model"; the paper omits the model details for space).
//!
//! The access link is modeled as an **M/M/1-PS** server (processor
//! sharing, the classic TCP fair-sharing model) at utilization
//! `ρ = λ·E[S]`: a job of service time `S` has expected sojourn
//! `S / (1 − ρ)`, insensitive to the size distribution.

/// Inputs: per-flow service time `service_s` (size / line rate), arrival
/// rate `lambda` (flows/s at the bottleneck), mean service time
/// `mean_service_s` of the flow mix.
#[derive(Clone, Copy, Debug)]
pub struct QueueModel {
    /// Arrival rate at the bottleneck link (flows per second).
    pub lambda: f64,
    /// Mean service time of the flow mix (seconds).
    pub mean_service_s: f64,
}

impl QueueModel {
    /// Utilization `ρ = λ·E[S]`, clamped below 1 for stability.
    pub fn utilization(&self) -> f64 {
        (self.lambda * self.mean_service_s).min(0.99)
    }

    /// M/M/1-PS sojourn prediction for a flow needing `service_s` of link
    /// time: `S / (1 − ρ)`.
    pub fn mm1_ps_fct(&self, service_s: f64) -> f64 {
        service_s / (1.0 - self.utilization())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_is_pure_service() {
        let m = QueueModel {
            lambda: 0.0,
            mean_service_s: 0.001,
        };
        assert_eq!(m.mm1_ps_fct(0.002), 0.002);
    }

    #[test]
    fn sojourn_grows_with_load() {
        let lo = QueueModel {
            lambda: 100.0,
            mean_service_s: 0.001,
        };
        let hi = QueueModel {
            lambda: 800.0,
            mean_service_s: 0.001,
        };
        assert!(hi.mm1_ps_fct(0.001) > lo.mm1_ps_fct(0.001));
    }

    #[test]
    fn ps_at_half_load_doubles() {
        let m = QueueModel {
            lambda: 500.0,
            mean_service_s: 0.001,
        };
        assert!((m.mm1_ps_fct(0.001) - 0.002).abs() < 1e-12);
    }
}
