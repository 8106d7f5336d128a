use serde::{Deserialize, Serialize};

/// Aggregation topology for pseudo-gradient exchange (§4, "Topology
/// Between Clients").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Topology {
    /// Central parameter server receives all updates: `O(K·M)` at the hub;
    /// required when privacy forbids peer-to-peer links.
    ParameterServer,
    /// Every worker exchanges with every other: `O(K²·M)` total.
    AllReduce,
    /// Bandwidth-optimal ring: each worker moves `O(M)`; bottlenecked by
    /// the slowest ring link and intolerant of dropouts.
    RingAllReduce,
}

impl Topology {
    /// All three variants.
    pub fn all() -> [Topology; 3] {
        [
            Topology::ParameterServer,
            Topology::AllReduce,
            Topology::RingAllReduce,
        ]
    }

    /// Short label used in figures ("PS", "AR", "RAR").
    pub fn label(&self) -> &'static str {
        match self {
            Topology::ParameterServer => "PS",
            Topology::AllReduce => "AR",
            Topology::RingAllReduce => "RAR",
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Communication time for one aggregation, per Appendix B.1:
///
/// * PS (Eq. 2): `T = K·S / B`
/// * AR (Eq. 3): `T = (K−1)·S / B`
/// * RAR (Eq. 4): `T = 2·S·(K−1) / (K·B)`
///
/// with `K` clients, model size `S` in MB and bottleneck bandwidth `B` in
/// MB/s. A single client needs no communication (Appendix B.1's
/// "exceptional cases").
///
/// # Panics
/// Panics if `bandwidth_mbps` is not positive or `k == 0`.
pub fn comm_time_seconds(topology: Topology, k: usize, model_mb: f64, bandwidth_mbps: f64) -> f64 {
    assert!(k > 0, "need at least one client");
    assert!(bandwidth_mbps > 0.0, "bandwidth must be positive");
    if k == 1 {
        return 0.0;
    }
    let (k_f, s, b) = (k as f64, model_mb, bandwidth_mbps);
    match topology {
        Topology::ParameterServer => k_f * s / b,
        Topology::AllReduce => (k_f - 1.0) * s / b,
        Topology::RingAllReduce => 2.0 * s * (k_f - 1.0) / (k_f * b),
    }
}

/// Server-side aggregation time (Eq. 7): `T_agg = K·S / ζ` with server
/// capacity ζ in MB/s-equivalent (default 5 TFLOP/s in the paper; callers
/// pass the corresponding byte-processing rate). The paper treats this as
/// negligible next to communication but models it for completeness.
///
/// # Panics
/// Panics if `zeta` is not positive.
pub fn aggregation_time_seconds(k: usize, model_mb: f64, zeta_mbps: f64) -> f64 {
    assert!(zeta_mbps > 0.0, "server capacity must be positive");
    k as f64 * model_mb / zeta_mbps
}

/// Total bytes crossing the wide-area network in one aggregation round
/// (up + down for PS; per-worker sends for the collectives). Used to
/// verify the threaded collective implementations move exactly the
/// volume the analytic model charges.
pub fn bytes_on_wire(topology: Topology, k: usize, model_bytes: usize) -> usize {
    if k <= 1 {
        return 0;
    }
    match topology {
        // Each client uploads its update and downloads the new model.
        Topology::ParameterServer => 2 * k * model_bytes,
        // Each of K workers sends its model to K-1 peers.
        Topology::AllReduce => k * (k - 1) * model_bytes,
        // Each worker sends 2 (K-1)/K of the model; K workers total.
        Topology::RingAllReduce => 2 * (k - 1) * model_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_match_appendix_b1() {
        // K = 8 clients, S = 500 MB, B = 1250 MB/s (10 Gbps).
        let (k, s, b) = (8usize, 500.0, 1250.0);
        assert!((comm_time_seconds(Topology::ParameterServer, k, s, b) - 3.2).abs() < 1e-9);
        assert!((comm_time_seconds(Topology::AllReduce, k, s, b) - 2.8).abs() < 1e-9);
        let rar = 2.0 * 500.0 * 7.0 / (8.0 * 1250.0);
        assert!((comm_time_seconds(Topology::RingAllReduce, k, s, b) - rar).abs() < 1e-9);
    }

    #[test]
    fn rar_is_fastest_ps_slowest_at_scale() {
        for k in [2usize, 4, 8, 16] {
            let ps = comm_time_seconds(Topology::ParameterServer, k, 100.0, 100.0);
            let ar = comm_time_seconds(Topology::AllReduce, k, 100.0, 100.0);
            let rar = comm_time_seconds(Topology::RingAllReduce, k, 100.0, 100.0);
            assert!(rar <= ar && ar <= ps, "k={k}: {rar} {ar} {ps}");
        }
    }

    #[test]
    fn rar_is_bandwidth_optimal_asymptotically() {
        // RAR time approaches 2 S / B regardless of K.
        let t1000 = comm_time_seconds(Topology::RingAllReduce, 1000, 100.0, 100.0);
        assert!((t1000 - 2.0).abs() < 0.01);
    }

    #[test]
    fn single_client_is_free() {
        for t in Topology::all() {
            assert_eq!(comm_time_seconds(t, 1, 1000.0, 1.0), 0.0);
            assert_eq!(bytes_on_wire(t, 1, 1000), 0);
        }
    }

    #[test]
    fn aggregation_time_linear_in_k() {
        let one = aggregation_time_seconds(1, 100.0, 1e6);
        let eight = aggregation_time_seconds(8, 100.0, 1e6);
        assert!((eight - 8.0 * one).abs() < 1e-12);
    }

    #[test]
    fn wire_volumes() {
        assert_eq!(bytes_on_wire(Topology::ParameterServer, 4, 10), 80);
        assert_eq!(bytes_on_wire(Topology::AllReduce, 4, 10), 120);
        assert_eq!(bytes_on_wire(Topology::RingAllReduce, 4, 10), 60);
    }

    #[test]
    fn labels_and_dropout_semantics() {
        assert_eq!(Topology::ParameterServer.label(), "PS");
    }
}
