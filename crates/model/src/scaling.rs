//! Scaling metrics and performance-unit conversions used by the paper's
//! evaluation (Figs. 13, 14).

/// Seconds per day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// Simulation throughput: physical time units advanced per wall-clock day
/// (tau/day for LJ, ps/day for metal — the paper reports the latter as
/// us/day after conversion).
#[must_use]
pub fn units_per_day(timestep: f64, seconds_per_step: f64) -> f64 {
    assert!(seconds_per_step > 0.0);
    timestep * SECONDS_PER_DAY / seconds_per_step
}

/// Convert ps/day to us/day (the paper's EAM headline unit).
#[must_use]
pub fn ps_to_us_per_day(ps_per_day: f64) -> f64 {
    ps_per_day * 1e-6
}

/// Parallel efficiency relative to a baseline point, as in Fig. 13a:
/// `(t_base * n_base) / (t * n)` — 100 % means perfect strong scaling.
#[must_use]
pub fn parallel_efficiency(
    base_nodes: usize,
    base_step_time: f64,
    nodes: usize,
    step_time: f64,
) -> f64 {
    (base_step_time * base_nodes as f64) / (step_time * nodes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_lj_performance() {
        // 8.77M tau/day at dt = 0.005 tau corresponds to ~49.2 us/step.
        let per_step = 0.005 * SECONDS_PER_DAY / 8.77e6;
        assert!((per_step - 49.26e-6).abs() < 0.2e-6);
        let back = units_per_day(0.005, per_step);
        assert!((back - 8.77e6).abs() < 1.0);
    }

    #[test]
    fn paper_headline_eam_performance() {
        // 2.87 us/day at dt = 0.005 ps -> 2.87e6 ps/day -> ~150.5 us/step.
        let ps_per_day = 2.87e6;
        let per_step = 0.005 * SECONDS_PER_DAY / ps_per_day;
        assert!((per_step - 150.5e-6).abs() < 0.5e-6);
        assert!((ps_to_us_per_day(ps_per_day) - 2.87).abs() < 1e-9);
    }

    #[test]
    fn efficiency_is_100_percent_at_baseline() {
        assert!((parallel_efficiency(768, 1.0e-3, 768, 1.0e-3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_scaling_keeps_efficiency() {
        // Doubling nodes halving time -> efficiency 1.
        assert!((parallel_efficiency(768, 1.0e-3, 1536, 0.5e-3) - 1.0).abs() < 1e-12);
        // No improvement at 2x nodes -> 50%.
        assert!((parallel_efficiency(768, 1.0e-3, 1536, 1.0e-3) - 0.5).abs() < 1e-12);
    }
}
