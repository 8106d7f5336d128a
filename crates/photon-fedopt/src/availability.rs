//! Client availability modelling: the paper's cross-silo setting assumes
//! accelerators "can be sporadically available throughout a full training
//! cycle" (§2.1), and the billion-scale runs assume "intermittent client
//! availability" (Appendix A). This module provides a two-state Markov
//! availability trace per client and a sampler that only selects clients
//! that are currently up.
//!
//! Traces are generated **lazily**: each client's Markov chain is walked on
//! demand and the materialized prefix cached, so a 10-round demo run never
//! pays for a 100k-round horizon. The chain for a given client and seed is
//! identical however far (or in how many steps) it is materialized.

use crate::ClientSampler;
use parking_lot::RwLock;
use photon_tensor::SeedStream;
use serde::{Deserialize, Serialize};

/// A two-state (up/down) Markov availability model, identical and
/// independent across clients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityModel {
    /// Probability an *up* client goes down at the next round.
    pub p_down: f64,
    /// Probability a *down* client comes back up at the next round.
    pub p_up: f64,
}

impl AvailabilityModel {
    /// A model where clients are always available.
    pub fn always_on() -> Self {
        AvailabilityModel {
            p_down: 0.0,
            p_up: 1.0,
        }
    }

    /// Steady-state fraction of time a client is available.
    #[cfg(test)]
    fn steady_state_up(&self) -> f64 {
        if self.p_down + self.p_up == 0.0 {
            return 1.0;
        }
        self.p_up / (self.p_down + self.p_up)
    }

    /// Validates probabilities.
    ///
    /// # Panics
    /// Panics if either probability is outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.p_down) && (0.0..=1.0).contains(&self.p_up),
            "availability probabilities must be in [0, 1]"
        );
    }
}

/// One client's Markov chain: the stream driving it, the state after the
/// last materialized round, and the cached prefix.
#[derive(Debug, Clone)]
struct Chain {
    rng: SeedStream,
    state: bool,
    trace: Vec<bool>,
}

impl Chain {
    fn extend_to(&mut self, model: &AvailabilityModel, round: usize) {
        while self.trace.len() <= round {
            let u = self.rng.next_f64();
            self.state = if self.state {
                u >= model.p_down
            } else {
                u < model.p_up
            };
            self.trace.push(self.state);
        }
    }
}

/// Lazily materialized availability traces for a population. Every client
/// starts up; each chain is extended on demand and cached, so queries at
/// any round are cheap and seed-stable regardless of query order.
#[derive(Debug)]
pub struct AvailabilityTraces {
    model: AvailabilityModel,
    chains: RwLock<Vec<Chain>>,
}

impl Clone for AvailabilityTraces {
    fn clone(&self) -> Self {
        AvailabilityTraces {
            model: self.model,
            chains: RwLock::new(self.chains.read().clone()),
        }
    }
}

impl AvailabilityTraces {
    /// Creates lazy traces for `population` clients; no rounds are sampled
    /// until queried.
    pub fn lazy(model: AvailabilityModel, population: usize, rng: &mut SeedStream) -> Self {
        model.validate();
        let chains = (0..population)
            .map(|c| Chain {
                rng: rng.split(&format!("avail-{c}")),
                state: true,
                trace: Vec::new(),
            })
            .collect();
        AvailabilityTraces {
            model,
            chains: RwLock::new(chains),
        }
    }

    /// Creates traces with the first `rounds` rounds materialized up front
    /// (the chains still extend on demand past that horizon). Equivalent to
    /// [`AvailabilityTraces::lazy`] for every query — this constructor only
    /// changes *when* the sampling work happens.
    pub fn sample(
        model: AvailabilityModel,
        population: usize,
        rounds: usize,
        rng: &mut SeedStream,
    ) -> Self {
        let traces = AvailabilityTraces::lazy(model, population, rng);
        if rounds > 0 {
            let mut chains = traces.chains.write();
            for chain in chains.iter_mut() {
                chain.extend_to(&model, rounds - 1);
            }
        }
        traces
    }

    /// Number of clients covered by these traces.
    pub fn population(&self) -> usize {
        self.chains.read().len()
    }

    /// Whether `client` is up at `round`, extending the chain on demand.
    #[cfg(test)]
    fn is_up(&self, client: usize, round: u64) -> bool {
        let idx = round as usize;
        {
            let chains = self.chains.read();
            let trace = &chains[client].trace;
            if idx < trace.len() {
                return trace[idx];
            }
        }
        let mut chains = self.chains.write();
        let chain = &mut chains[client];
        chain.extend_to(&self.model, idx);
        chain.trace[idx]
    }

    /// Clients up at `round`.
    ///
    /// Fast path: when every chain already covers `round`, the answer is
    /// collected under a single read lock. Otherwise all chains are
    /// extended and queried under **one** write lock, instead of the up to
    /// N per-client write-lock round-trips `is_up` in a loop would take.
    pub(crate) fn available_at(&self, round: u64) -> Vec<usize> {
        let idx = round as usize;
        {
            let chains = self.chains.read();
            if chains.iter().all(|c| idx < c.trace.len()) {
                return chains
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.trace[idx])
                    .map(|(i, _)| i)
                    .collect();
            }
        }
        let mut chains = self.chains.write();
        let mut up = Vec::new();
        for (i, chain) in chains.iter_mut().enumerate() {
            chain.extend_to(&self.model, idx);
            if chain.trace[idx] {
                up.push(i);
            }
        }
        up
    }
}

/// A sampler that draws uniformly from the *currently available* clients,
/// falling back to the full population when everyone is down (the
/// aggregator would otherwise stall forever).
#[derive(Debug, Clone)]
pub struct AvailabilitySampler {
    traces: AvailabilityTraces,
    k: usize,
    rng: SeedStream,
}

impl AvailabilitySampler {
    /// Samples up to `k` clients per round from the available subset.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(traces: AvailabilityTraces, k: usize, rng: SeedStream) -> Self {
        assert!(k > 0, "cohort size must be positive");
        AvailabilitySampler { traces, k, rng }
    }
}

impl ClientSampler for AvailabilitySampler {
    fn sample(&mut self, population: usize, round: u64) -> Vec<usize> {
        let mut candidates: Vec<usize> = self
            .traces
            .available_at(round)
            .into_iter()
            .filter(|&c| c < population)
            .collect();
        if candidates.is_empty() {
            candidates = (0..population).collect();
        }
        let k = self.k.min(candidates.len());
        // Round-keyed draw: restored runs sample the same cohorts.
        let picked = self
            .rng
            .fork(&format!("round-{round}"))
            .sample_indices(candidates.len(), k);
        let mut cohort: Vec<usize> = picked.into_iter().map(|i| candidates[i]).collect();
        cohort.sort_unstable();
        cohort
    }

    fn cohort_size(&self, population: usize) -> usize {
        self.k.min(population)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_math() {
        let m = AvailabilityModel {
            p_down: 0.1,
            p_up: 0.3,
        };
        assert!((m.steady_state_up() - 0.75).abs() < 1e-12);
        assert_eq!(AvailabilityModel::always_on().steady_state_up(), 1.0);
    }

    #[test]
    fn traces_match_steady_state_statistically() {
        let m = AvailabilityModel {
            p_down: 0.2,
            p_up: 0.6,
        };
        let mut rng = SeedStream::new(1);
        let traces = AvailabilityTraces::sample(m, 20, 500, &mut rng);
        let mut up = 0usize;
        let total = 20 * 500;
        for c in 0..20 {
            for r in 0..500 {
                if traces.is_up(c, r) {
                    up += 1;
                }
            }
        }
        let frac = up as f64 / total as f64;
        assert!(
            (frac - m.steady_state_up()).abs() < 0.05,
            "observed {frac}, expected {}",
            m.steady_state_up()
        );
    }

    #[test]
    fn lazy_matches_eager_and_query_order_is_irrelevant() {
        let m = AvailabilityModel {
            p_down: 0.3,
            p_up: 0.4,
        };
        let eager = AvailabilityTraces::sample(m, 6, 64, &mut SeedStream::new(11));
        let lazy = AvailabilityTraces::lazy(m, 6, &mut SeedStream::new(11));
        // Query the lazy traces backwards and scattered; every answer must
        // match the eagerly materialized chain.
        for &r in &[63u64, 0, 40, 7, 40, 12] {
            for c in 0..6 {
                assert_eq!(lazy.is_up(c, r), eager.is_up(c, r), "client {c} round {r}");
            }
        }
        // And past the eager horizon both keep extending identically.
        for c in 0..6 {
            assert_eq!(lazy.is_up(c, 200), eager.is_up(c, 200));
        }
    }

    #[test]
    fn always_on_traces_never_drop() {
        let mut rng = SeedStream::new(2);
        let traces = AvailabilityTraces::sample(AvailabilityModel::always_on(), 5, 50, &mut rng);
        assert_eq!(traces.available_at(25).len(), 5);
        // Lazy extension keeps everyone up too.
        assert_eq!(traces.available_at(5_000).len(), 5);
    }

    #[test]
    fn sampler_only_picks_available_clients() {
        let m = AvailabilityModel {
            p_down: 0.5,
            p_up: 0.5,
        };
        let mut rng = SeedStream::new(3);
        let traces = AvailabilityTraces::sample(m, 10, 40, &mut rng);
        let mut sampler = AvailabilitySampler::new(traces.clone(), 4, SeedStream::new(4));
        for round in 0..40 {
            let cohort = sampler.sample(10, round);
            assert!(!cohort.is_empty());
            assert!(cohort.windows(2).all(|w| w[0] < w[1]));
            let avail = traces.available_at(round);
            if !avail.is_empty() {
                for c in &cohort {
                    assert!(avail.contains(c), "round {round}: {c} was down");
                }
            }
        }
    }

    #[test]
    fn sampler_is_round_keyed() {
        let m = AvailabilityModel {
            p_down: 0.2,
            p_up: 0.7,
        };
        let traces = AvailabilityTraces::lazy(m, 8, &mut SeedStream::new(21));
        let mut walked = AvailabilitySampler::new(traces.clone(), 3, SeedStream::new(22));
        for round in 0..6 {
            walked.sample(8, round);
        }
        let mut jumped = AvailabilitySampler::new(traces, 3, SeedStream::new(22));
        assert_eq!(walked.sample(8, 6), jumped.sample(8, 6));
    }

    #[test]
    fn all_down_falls_back_to_population() {
        let m = AvailabilityModel {
            p_down: 1.0,
            p_up: 0.0,
        };
        let mut rng = SeedStream::new(5);
        let traces = AvailabilityTraces::sample(m, 4, 10, &mut rng);
        assert!(traces.available_at(5).is_empty());
        let mut sampler = AvailabilitySampler::new(traces, 2, SeedStream::new(6));
        let cohort = sampler.sample(4, 5);
        assert_eq!(cohort.len(), 2);
    }

    #[test]
    fn available_at_agrees_with_per_client_queries() {
        let m = AvailabilityModel {
            p_down: 0.4,
            p_up: 0.4,
        };
        // Query a fresh lazy trace (write-lock batch-extension path) and a
        // pre-materialized one (read-lock fast path); both must agree with
        // per-client is_up answers.
        let lazy = AvailabilityTraces::lazy(m, 7, &mut SeedStream::new(31));
        let eager = AvailabilityTraces::sample(m, 7, 30, &mut SeedStream::new(31));
        for round in [17u64, 3, 29, 3] {
            let batch = lazy.available_at(round);
            let single: Vec<usize> = (0..7).filter(|&c| eager.is_up(c, round)).collect();
            assert_eq!(batch, single, "round {round}");
            assert_eq!(
                eager.available_at(round),
                single,
                "fast path, round {round}"
            );
        }
    }

    #[test]
    fn all_down_fallback_draws_from_full_population() {
        let m = AvailabilityModel {
            p_down: 1.0,
            p_up: 0.0,
        };
        let mut rng = SeedStream::new(51);
        let traces = AvailabilityTraces::sample(m, 6, 12, &mut rng);
        let mut sampler = AvailabilitySampler::new(traces, 3, SeedStream::new(52));
        for round in 1..12 {
            let cohort = sampler.sample(6, round);
            // Everyone is down from round 1 on, yet the sampler still
            // returns a full-size cohort drawn from the whole population.
            assert_eq!(cohort.len(), 3, "round {round}");
            assert!(cohort.iter().all(|&c| c < 6));
            assert!(cohort.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sampler_replays_identical_cohorts_after_restore() {
        let m = AvailabilityModel {
            p_down: 0.3,
            p_up: 0.5,
        };
        let traces = AvailabilityTraces::lazy(m, 9, &mut SeedStream::new(61));
        let mut original = AvailabilitySampler::new(traces.clone(), 4, SeedStream::new(62));
        let cohorts: Vec<_> = (0..10).map(|r| original.sample(9, r)).collect();
        // A "restored" sampler rebuilt from the same seeds jumps straight
        // to round 6 and must see exactly the cohorts the uninterrupted
        // run saw — the round-keyed fork makes the draw history-free.
        let fresh = AvailabilityTraces::lazy(m, 9, &mut SeedStream::new(61));
        let mut restored = AvailabilitySampler::new(fresh, 4, SeedStream::new(62));
        for r in 6..10 {
            assert_eq!(restored.sample(9, r), cohorts[r as usize], "round {r}");
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_probabilities_panic() {
        AvailabilityModel {
            p_down: 1.5,
            p_up: 0.0,
        }
        .validate();
    }
}
