//! Pluggable chunk-service backends for the simulation engine.
//!
//! The engine owns everything that decides *which* chunks serve a request —
//! streaming arrivals, cache planning, probabilistic scheduling, per-node
//! FIFO queues — while a [`ChunkBackend`] supplies what actually *happens*
//! when a node serves a chunk: how long the read takes, whether the node is
//! online, and (for byte-accurate backends) whether the gathered chunks
//! really reconstruct the object.
//!
//! Two implementations exist:
//!
//! * [`AnalyticBackend`] (here) — the original model: each node is a service
//!   distribution; chunks are abstract. This is the fast path used for the
//!   paper's latency experiments.
//! * `StoreBackend` (in the `sprout` facade crate) — drives the real
//!   `StoreHandle`: actual coded bytes, degraded reads after node
//!   failures, cache contents, and a decode + verify on every completed
//!   request.
//!
//! Planning draws come from the engine's own RNG and service draws from the
//! backend's, so two backends given the same seed make **identical
//! chunk-source decisions** — the differential-testing hook the byte-accurate
//! backend exists for.
//!
//! [`AnalyticBackend`] keeps one service RNG **per node**, seeded from
//! `(seed, node)` only. A node's service-time stream therefore depends only
//! on that node's own sequence of chunk reads — never on what other nodes
//! serve — which is what lets the sharded engine run disjoint placement
//! components on separate event loops and still produce reports bit-identical
//! to the single-loop run (see [`crate::shard`]).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sprout_queueing::dist::ServiceDistribution;

use crate::policy::CacheScheme;

/// What a completed request looked like to the engine, handed to the backend
/// for byte-level settlement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedRequest<'a> {
    /// Index of the requested file.
    pub file: usize,
    /// Chunks served by the compute-server cache.
    pub cache_chunks: usize,
    /// Storage nodes that served one chunk each.
    pub storage_nodes: &'a [usize],
}

/// The service substrate behind the event loop.
pub trait ChunkBackend {
    /// Number of storage nodes.
    fn num_nodes(&self) -> usize;

    /// Whether `node` currently accepts chunk reads.
    fn is_online(&self, node: usize) -> bool;

    /// Marks a node failed (`false`) or recovered (`true`). Reads already
    /// queued on a failing node drain; the planner just stops selecting it.
    fn set_node_online(&mut self, node: usize, online: bool);

    /// Service time of one chunk read of `file` on `node` (seconds). Drawn
    /// from the backend's own RNG so planning decisions stay
    /// backend-independent.
    fn sample_service(&mut self, node: usize, file: usize) -> f64;

    /// Settles a completed request. Byte-accurate backends fetch the chunks
    /// the engine chose, decode and verify; the return value is `false` when
    /// reconstruction failed (counted in the report).
    fn finish_request(&mut self, request: FinishedRequest<'_>) -> bool {
        let _ = request;
        true
    }

    /// Latency of serving `chunks` cache chunks of `file`, or `None` to fall
    /// back to the engine's configured constant cache-read latency. Byte
    /// backends sample their cache device model (the SSD of Table V) here,
    /// from their own RNG — like [`ChunkBackend::sample_service`], this never
    /// influences the engine's planning decisions.
    fn sample_cache_read(&mut self, file: usize, chunks: usize) -> Option<f64> {
        let _ = (file, chunks);
        None
    }

    /// The engine's cache tier promoted `file` after a miss read (Ceph-style
    /// LRU). Byte backends mirror the decision by materializing the object's
    /// bytes in their own tier, so a later engine-declared hit always finds
    /// the chunks resident.
    fn tier_promote(&mut self, file: usize) {
        let _ = file;
    }

    /// The engine's cache tier evicted `file`. Byte backends drop the
    /// mirrored entry.
    fn tier_evict(&mut self, file: usize) {
        let _ = file;
    }

    /// Applies a new cache scheme mid-run (a scenario plan swap). Byte
    /// backends re-install cached chunks to match.
    fn apply_scheme(&mut self, scheme: &CacheScheme) {
        let _ = scheme;
    }
}

/// The analytic backend: nodes are service-time distributions, chunks are
/// abstract, reconstruction always succeeds.
#[derive(Debug, Clone)]
pub struct AnalyticBackend {
    dists: Vec<ServiceDistribution>,
    online: Vec<bool>,
    /// One decorrelated RNG stream per node, so a node's service draws are a
    /// function of its own read sequence alone (shard-decomposable).
    rngs: Vec<StdRng>,
}

impl AnalyticBackend {
    /// Creates a backend over per-node service distributions. `seed` feeds
    /// the per-node service-time RNG streams (the engine derives it from the
    /// run seed).
    pub fn new(dists: Vec<ServiceDistribution>, seed: u64) -> Self {
        let online = vec![true; dists.len()];
        let rngs = (0..dists.len())
            .map(|node| StdRng::seed_from_u64(crate::engine::service_seed(seed, node)))
            .collect();
        AnalyticBackend {
            dists,
            online,
            rngs,
        }
    }
}

impl ChunkBackend for AnalyticBackend {
    fn num_nodes(&self) -> usize {
        self.dists.len()
    }

    fn is_online(&self, node: usize) -> bool {
        self.online[node]
    }

    fn set_node_online(&mut self, node: usize, online: bool) {
        self.online[node] = online;
    }

    fn sample_service(&mut self, node: usize, _file: usize) -> f64 {
        self.dists[node].sample(&mut self.rngs[node])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_backend_tracks_online_state() {
        let mut b = AnalyticBackend::new(vec![ServiceDistribution::exponential(1.0); 3], 1);
        assert_eq!(b.num_nodes(), 3);
        assert!(b.is_online(2));
        b.set_node_online(2, false);
        assert!(!b.is_online(2));
        b.set_node_online(2, true);
        assert!(b.is_online(2));
    }

    #[test]
    fn service_samples_are_positive_and_seed_deterministic() {
        let mut a = AnalyticBackend::new(vec![ServiceDistribution::exponential(0.5); 2], 9);
        let mut b = AnalyticBackend::new(vec![ServiceDistribution::exponential(0.5); 2], 9);
        for _ in 0..100 {
            let s = a.sample_service(0, 0);
            assert!(s > 0.0);
            assert_eq!(s, b.sample_service(0, 0));
        }
    }

    #[test]
    fn per_node_service_streams_are_independent() {
        // Interleaving reads on other nodes must not perturb a node's own
        // service-time stream — the property the sharded engine relies on.
        let dists = vec![ServiceDistribution::exponential(0.5); 3];
        let mut solo = AnalyticBackend::new(dists.clone(), 77);
        let mut mixed = AnalyticBackend::new(dists, 77);
        for i in 0..50 {
            if i % 2 == 0 {
                mixed.sample_service(1, 0);
                mixed.sample_service(2, 0);
            }
            assert_eq!(solo.sample_service(0, 0), mixed.sample_service(0, 0));
        }
    }

    #[test]
    fn default_finish_request_always_succeeds() {
        let mut b = AnalyticBackend::new(vec![ServiceDistribution::exponential(1.0)], 0);
        assert!(b.finish_request(FinishedRequest {
            file: 0,
            cache_chunks: 1,
            storage_nodes: &[0],
        }));
        b.apply_scheme(&CacheScheme::NoCache); // default no-op must not panic

        // Default tier hooks are no-ops and defer cache latency to the engine.
        assert_eq!(b.sample_cache_read(0, 2), None);
        b.tier_promote(0);
        b.tier_evict(0);
    }
}
