use crate::{comm_time_seconds, Topology};
use serde::{Deserialize, Serialize};

/// A simulated walltime clock for the federation's control plane: time is
/// a pure function of the round index (`now = round × round_ms`), so lease
/// expiry and membership decisions replay bit-identically and survive a
/// checkpoint restore without persisting any clock state.
///
/// This deliberately reuses the paper's round-synchronous time model
/// (Appendix B.1): one federated round advances the clock by one nominal
/// round duration, matching how `round_deadline_ms` already measures
/// straggler lateness in simulated milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimClock {
    /// Nominal duration of one federated round in simulated milliseconds.
    pub round_ms: u64,
}

impl SimClock {
    /// Creates a clock that advances `round_ms` per round.
    ///
    /// # Panics
    /// Panics if `round_ms` is zero (time would stand still).
    pub fn new(round_ms: u64) -> Self {
        assert!(round_ms > 0, "round duration must be positive");
        SimClock { round_ms }
    }

    /// Simulated milliseconds at the *start* of `round`.
    pub fn now_ms(&self, round: u64) -> u64 {
        round.saturating_mul(self.round_ms)
    }

    /// Simulated microseconds at the *start* of `round` — the value
    /// federation drivers publish to `photon_trace::set_sim_time_us` so
    /// trace timestamps replay bit-identically.
    pub fn now_us(&self, round: u64) -> u64 {
        self.now_ms(round).saturating_mul(1_000)
    }
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock { round_ms: 1_000 }
    }
}

/// One federated round's time breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundTime {
    /// Local compute seconds (Eq. 1: `τ / ν`).
    pub compute_s: f64,
    /// Communication seconds (Eqs. 2–4, by topology).
    pub comm_s: f64,
}

impl RoundTime {
    /// Total round seconds (Eq. 5).
    pub fn total(&self) -> f64 {
        self.compute_s + self.comm_s
    }

    /// Fraction of the round spent communicating (the percentages atop the
    /// bars in Figs. 6, 9, 10).
    pub fn comm_fraction(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.comm_s / self.total()
        }
    }
}

/// The Appendix B.1 wall-time model.
///
/// Local compute does **not** scale with the number of clients per round
/// (all clients run the same recipe in parallel on equipollent hardware);
/// communication depends on the topology, cohort size, model size and the
/// bottleneck bandwidth.
///
/// ```
/// use photon_comms::{Topology, WallTimeModel};
/// // 125M model: ν = 2 batches/s, τ = 512 local steps, S = 500 MB over
/// // 10 Gbps.
/// let m = WallTimeModel::new(2.0, 512, 500.0, 1250.0, Topology::RingAllReduce);
/// let round = m.round_time(8);
/// assert_eq!(round.compute_s, 256.0);
/// assert!(round.comm_s < round.compute_s);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WallTimeModel {
    /// Local throughput ν in batches/second.
    pub nu: f64,
    /// Local steps per round τ.
    pub tau: u64,
    /// Model payload size in MB.
    pub model_mb: f64,
    /// Bottleneck bandwidth in MB/s.
    pub bandwidth_mbps: f64,
    /// Aggregation topology.
    pub topology: Topology,
}

impl WallTimeModel {
    /// Creates a wall-time model.
    ///
    /// # Panics
    /// Panics if `nu`, `model_mb` or `bandwidth_mbps` is not positive, or
    /// `tau` is zero.
    pub fn new(nu: f64, tau: u64, model_mb: f64, bandwidth_mbps: f64, topology: Topology) -> Self {
        assert!(nu > 0.0, "throughput must be positive");
        assert!(tau > 0, "local steps must be positive");
        assert!(model_mb > 0.0, "model size must be positive");
        assert!(bandwidth_mbps > 0.0, "bandwidth must be positive");
        WallTimeModel {
            nu,
            tau,
            model_mb,
            bandwidth_mbps,
            topology,
        }
    }

    /// Local compute time per round (Eq. 1).
    pub(crate) fn local_time(&self) -> f64 {
        self.tau as f64 / self.nu
    }

    /// One round's breakdown for a cohort of `k` clients (Eq. 5).
    pub fn round_time(&self, k: usize) -> RoundTime {
        RoundTime {
            compute_s: self.local_time(),
            comm_s: comm_time_seconds(self.topology, k, self.model_mb, self.bandwidth_mbps),
        }
    }

    /// Total wall time over `rounds` rounds (Eq. 6).
    pub fn total_time(&self, k: usize, rounds: u64) -> RoundTime {
        let r = self.round_time(k);
        RoundTime {
            compute_s: r.compute_s * rounds as f64,
            comm_s: r.comm_s * rounds as f64,
        }
    }

    /// Round time when the client overlaps communication with cleanup and
    /// the next round's setup (Appendix B.2: clients "offload the
    /// communication process and simultaneously clean up"). Communication
    /// hides behind compute up to the round's compute time; only the
    /// excess is exposed.
    pub fn round_time_overlapped(&self, k: usize) -> RoundTime {
        let r = self.round_time(k);
        RoundTime {
            compute_s: r.compute_s,
            comm_s: (r.comm_s - r.compute_s).max(0.0),
        }
    }

    /// The centralized-DDP equivalent: synchronizing every batch step is a
    /// round of τ = 1 (communication at every step) — how Table 2 derives
    /// the centralized communication burden from the same machinery.
    pub fn centralized(nu: f64, model_mb: f64, bandwidth_mbps: f64, topology: Topology) -> Self {
        WallTimeModel::new(nu, 1, model_mb, bandwidth_mbps, topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_is_a_pure_function_of_the_round() {
        let clock = SimClock::new(250);
        assert_eq!(clock.now_ms(0), 0);
        assert_eq!(clock.now_ms(4), 1_000);
        // Restoring at round 4 sees exactly the time the uninterrupted run
        // saw — there is no hidden clock state.
        assert_eq!(SimClock::new(250).now_ms(4), clock.now_ms(4));
        assert_eq!(SimClock::default().round_ms, 1_000);
    }

    #[test]
    #[should_panic(expected = "round duration must be positive")]
    fn zero_round_duration_panics() {
        SimClock::new(0);
    }

    #[test]
    fn eq1_local_time() {
        let m = WallTimeModel::new(2.0, 512, 100.0, 100.0, Topology::ParameterServer);
        assert_eq!(m.local_time(), 256.0);
        // Local time is independent of cohort size.
        assert_eq!(m.round_time(2).compute_s, m.round_time(16).compute_s);
    }

    #[test]
    fn totals_scale_linearly_with_rounds() {
        let m = WallTimeModel::new(1.0, 64, 100.0, 100.0, Topology::RingAllReduce);
        let one = m.round_time(4);
        let ten = m.total_time(4, 10);
        assert!((ten.total() - 10.0 * one.total()).abs() < 1e-9);
        assert!((ten.comm_fraction() - one.comm_fraction()).abs() < 1e-12);
    }

    #[test]
    fn federated_communicates_tau_times_less() {
        // Same cohort/model/bandwidth: the federated model communicates
        // once per τ steps, centralized once per step. Over a fixed number
        // of *optimizer steps*, comm time differs by exactly τ.
        let tau = 512u64;
        let fed = WallTimeModel::new(2.0, tau, 500.0, 1250.0, Topology::RingAllReduce);
        let cen = WallTimeModel::centralized(2.0, 500.0, 1250.0, Topology::RingAllReduce);
        let steps = 5120u64;
        let fed_total = fed.total_time(8, steps / tau);
        let cen_total = cen.total_time(8, steps);
        assert!((cen_total.comm_s / fed_total.comm_s - tau as f64).abs() < 1e-6);
        // And compute time is identical.
        assert!((cen_total.compute_s - fed_total.compute_s).abs() < 1e-9);
    }

    #[test]
    fn comm_fraction_bounds() {
        let m = WallTimeModel::new(10.0, 1, 10_000.0, 1.0, Topology::ParameterServer);
        let r = m.round_time(16);
        assert!(r.comm_fraction() > 0.99);
        let quiet = WallTimeModel::new(0.1, 512, 1.0, 10_000.0, Topology::RingAllReduce);
        assert!(quiet.round_time(2).comm_fraction() < 0.01);
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn invalid_nu_panics() {
        WallTimeModel::new(0.0, 1, 1.0, 1.0, Topology::AllReduce);
    }

    #[test]
    fn overlap_hides_communication_behind_compute() {
        // Compute-bound round: overlap removes all exposed comm time.
        let m = WallTimeModel::new(1.0, 512, 100.0, 1250.0, Topology::RingAllReduce);
        let plain = m.round_time(8);
        let overlapped = m.round_time_overlapped(8);
        assert!(plain.comm_s > 0.0);
        assert_eq!(overlapped.comm_s, 0.0);
        assert_eq!(overlapped.compute_s, plain.compute_s);

        // Comm-bound round: only the excess over compute is exposed.
        let slow = WallTimeModel::new(10.0, 1, 10_000.0, 10.0, Topology::ParameterServer);
        let p = slow.round_time(8);
        let o = slow.round_time_overlapped(8);
        assert!((o.comm_s - (p.comm_s - p.compute_s)).abs() < 1e-9);
    }
}
