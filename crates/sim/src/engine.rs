//! The discrete-event simulation engine.
//!
//! The engine is a *streaming*, *backend-generic*, *scenario-driven*,
//! *shardable* runtime:
//!
//! * **Streaming arrivals** — each file keeps exactly one pending arrival
//!   event (drawn lazily from an arrival stream), so event-heap residency
//!   is O(files + nodes) regardless of how many requests the horizon
//!   produces. [`SimReport::peak_event_queue`] records the high-water mark
//!   as a regression guard.
//! * **Pluggable backends** — everything that decides *which* chunks serve a
//!   request lives in the runtime; what a chunk read *costs* (and, for
//!   byte-accurate backends, the actual bytes) is delegated to a
//!   [`ChunkBackend`]. Planning and service randomness are decoupled, so two
//!   backends on the same seed make identical chunk-source decisions.
//! * **Dynamic scenarios** — timed [`Scenario`] events (node failures and
//!   recoveries, arrival-rate shifts, online cache-plan swaps) apply at
//!   deterministic epoch edges between event-loop drains.
//! * **Sharded execution** — [`Simulation::run`] partitions the cluster into
//!   logical shards (placement-graph components) and can run them as
//!   parallel epoch-synchronized event loops ([`crate::shard`]); the
//!   [`SimConfig::shards`] knob is purely an execution parameter and reports
//!   are bit-identical at any value. Every random stream is keyed per entity
//!   (`stream_seed`/`plan_seed` per file, `service_seed` per node) to
//!   make that possible.
//!
//! The event-loop mechanics themselves (queues, slab, planning, epoch
//! synchronization, report merging) live in [`crate::shard`]; this module
//! holds the model description ([`Simulation`], [`SimFile`]), the report
//! ([`SimReport`]) and the seed derivations.

use serde::{Deserialize, Serialize};
use sprout_queueing::dist::ServiceDistribution;
use sprout_workload::arrivals::RateProfile;
use sprout_workload::timebins::RateSchedule;

use crate::backend::ChunkBackend;
use crate::config::SimConfig;
use crate::metrics::{LatencySummary, SlotCounts};
use crate::policy::CacheScheme;
use crate::scenario::Scenario;
use crate::shard::{ShardPlan, ShardedEngine};

/// A file as seen by the simulator: its arrival rate, code dimension `k` and
/// the storage nodes hosting its chunks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimFile {
    /// Request arrival rate (requests per second).
    pub arrival_rate: f64,
    /// Number of chunks needed to reconstruct the file.
    pub k: usize,
    /// Hosting storage nodes (chunk row `i` lives on `placement[i]`).
    pub placement: Vec<usize>,
}

impl SimFile {
    /// Creates a file description.
    pub fn new(arrival_rate: f64, k: usize, placement: Vec<usize>) -> Self {
        SimFile {
            arrival_rate,
            k,
            placement,
        }
    }
}

/// Everything measured during a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Latency summary over all completed, post-warm-up requests.
    pub overall: LatencySummary,
    /// Per-file latency summaries.
    pub per_file: Vec<LatencySummary>,
    /// Per-node busy fraction over the horizon.
    pub node_utilization: Vec<f64>,
    /// Chunk-source counts per time slot (Fig. 7).
    pub slots: SlotCounts,
    /// Requests served entirely from the cache.
    pub full_cache_hits: u64,
    /// Total completed requests (including warm-up).
    pub completed_requests: u64,
    /// Chunks scheduled onto each storage node (the engine's chunk-source
    /// decisions; backend-independent for a fixed seed).
    pub node_chunks_served: Vec<u64>,
    /// Requests that could not be served because node failures left fewer
    /// than the needed number of online hosts.
    pub failed_requests: u64,
    /// Completed requests whose backend reconstruction failed (always zero
    /// for the analytic backend).
    pub reconstruction_failures: u64,
    /// High-water mark of pending events, maximized over logical shards —
    /// O(files_in_shard + nodes_in_shard) under streaming arrivals, *not*
    /// O(total requests). Independent of the shard count.
    pub peak_event_queue: usize,
    /// High-water mark of concurrently in-flight requests, maximized over
    /// logical shards. Guards the pooled-allocation property: the request
    /// slab grows to this count and steady-state arrivals then reuse slots
    /// instead of allocating.
    pub peak_in_flight: usize,
    /// Number of logical shards the run decomposed into: the connected
    /// components of the file–node placement graph (1 when a globally
    /// coupled cache scheme forces a single component). Independent of
    /// [`SimConfig::shards`], which only packs these onto event loops.
    pub logical_shards: usize,
    /// Objects promoted into the LRU cache tier (zero for other schemes).
    pub cache_promotions: u64,
    /// Objects evicted from the LRU cache tier by admission pressure.
    pub cache_evictions: u64,
}

/// SplitMix64 finalizer: decorrelates seeds derived from a base seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of replication `r` derived from a base seed — what
/// [`Simulation::run_replications`] gives each replication.
pub fn replication_seed(base: u64, replication: usize) -> u64 {
    splitmix64(base ^ (replication as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Mixes a base seed with an arbitrary salt (the sweep runner's
/// coordinate hash) into a decorrelated derived seed.
pub(crate) fn mix_seed(base: u64, salt: u64) -> u64 {
    splitmix64(base ^ salt.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Seed of a file's arrival stream. Per-file streams are what keep arrivals
/// independent of the event interleaving — a precondition for sharded
/// execution being bit-identical to the single loop.
pub(crate) fn stream_seed(base: u64, file: usize) -> u64 {
    splitmix64(base ^ (file as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Seed of a file's request-planning RNG (chunk-source sampling and offline
/// repair draws). One stream per file, so a file's planning decisions depend
/// only on its own request sequence — never on other files' interleaved
/// arrivals.
pub(crate) fn plan_seed(base: u64, file: usize) -> u64 {
    splitmix64(base ^ 0x5EED ^ (file as u64).wrapping_mul(0x9E6C_63D0_876A_3F6B))
}

/// Seed of a node's service-time RNG ([`crate::AnalyticBackend`] keeps one
/// stream per node). A node's service draws depend only on its own read
/// sequence, which is what lets disjoint placement components run on
/// separate event loops without perturbing each other's samples.
pub(crate) fn service_seed(base: u64, node: usize) -> u64 {
    splitmix64(base ^ 0x5E2F_1CE5 ^ (node as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD))
}

/// A configured simulation, ready to run.
#[derive(Debug, Clone)]
pub struct Simulation {
    pub(crate) nodes: Vec<ServiceDistribution>,
    pub(crate) files: Vec<SimFile>,
    pub(crate) scheme: CacheScheme,
    pub(crate) config: SimConfig,
    pub(crate) scenario: Scenario,
    pub(crate) profiles: Option<Vec<RateProfile>>,
}

impl Simulation {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if a file references a node out of range, has `k = 0`, or is
    /// hosted on fewer than `k` nodes.
    pub fn new(
        nodes: Vec<ServiceDistribution>,
        files: Vec<SimFile>,
        scheme: CacheScheme,
        config: SimConfig,
    ) -> Self {
        for (i, f) in files.iter().enumerate() {
            assert!(f.k > 0, "file {i} has k = 0");
            assert!(
                f.placement.len() >= f.k,
                "file {i} is hosted on fewer than k nodes"
            );
            assert!(
                f.placement.iter().all(|&n| n < nodes.len()),
                "file {i} references a node out of range"
            );
        }
        scheme.validate(files.len());
        Simulation {
            nodes,
            files,
            scheme,
            config,
            scenario: Scenario::default(),
            profiles: None,
        }
    }

    /// Attaches a dynamic scenario (node failures, rate shifts, plan swaps).
    ///
    /// # Panics
    ///
    /// Panics if the scenario references nodes or files out of range.
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        scenario.validate(self.nodes.len(), self.files.len());
        self.scenario = scenario;
        self
    }

    /// Drives arrivals from a piecewise-constant rate schedule instead of the
    /// per-file constant rates (the rate is zero past the schedule's end).
    ///
    /// A [`crate::scenario::ScenarioAction::SetRates`]/
    /// [`crate::scenario::ScenarioAction::SetFileRate`] event supersedes the
    /// remaining schedule for the affected files: from the event on, the
    /// scenario's rate holds as a constant.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's file count differs from the simulation's.
    pub fn with_rate_schedule(mut self, schedule: &RateSchedule) -> Self {
        assert_eq!(
            schedule.num_files(),
            self.files.len(),
            "rate schedule covers {} files but the simulation has {}",
            schedule.num_files(),
            self.files.len()
        );
        self.profiles = Some(schedule.file_profiles());
        self
    }

    /// Replaces the run seed (used by the replication runner).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation on the analytic backend and returns the report.
    ///
    /// Execution is sharded per [`SimConfig::shards`] (see
    /// [`ShardedEngine`]); the report is bit-identical at any shard count.
    pub fn run(&self) -> SimReport {
        ShardedEngine::new(self).run()
    }

    /// Runs the simulation on an explicit backend (e.g. the byte-accurate
    /// `StoreBackend` of the facade crate). Always a single event loop —
    /// external backends own global state the sharded engine cannot split —
    /// so the report is trivially independent of [`SimConfig::shards`].
    ///
    /// # Panics
    ///
    /// Panics if the backend's node count differs from the simulation's.
    pub fn run_on<B: ChunkBackend>(&self, backend: &mut B) -> SimReport {
        assert_eq!(
            backend.num_nodes(),
            self.nodes.len(),
            "backend has {} nodes but the simulation has {}",
            backend.num_nodes(),
            self.nodes.len()
        );
        let plan = ShardPlan::new(self);
        crate::shard::run_single(self, &plan, backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SchedulingRule;

    fn nodes(n: usize, rate: f64) -> Vec<ServiceDistribution> {
        vec![ServiceDistribution::exponential(rate); n]
    }

    fn simple_files(count: usize, rate: f64, k: usize, m: usize) -> Vec<SimFile> {
        (0..count)
            .map(|i| {
                let placement: Vec<usize> = (0..m).map(|j| (i + j) % m).collect();
                SimFile::new(rate, k, placement)
            })
            .collect()
    }

    #[test]
    fn no_cache_latency_close_to_mm1_fork_join_bounds() {
        // Single file, k = 1, one node: the system is exactly M/M/1 and the
        // mean sojourn time is 1/(mu - lambda).
        let sim = Simulation::new(
            vec![ServiceDistribution::exponential(1.0)],
            vec![SimFile::new(0.5, 1, vec![0])],
            CacheScheme::NoCache,
            SimConfig::new(200_000.0, 42),
        );
        let report = sim.run();
        let expect = 1.0 / (1.0 - 0.5);
        assert!(
            (report.overall.mean - expect).abs() / expect < 0.05,
            "M/M/1 sojourn {} vs {expect}",
            report.overall.mean
        );
        assert!(report.node_utilization[0] > 0.45 && report.node_utilization[0] < 0.55);
        assert_eq!(report.failed_requests, 0);
        assert_eq!(report.reconstruction_failures, 0);
        assert_eq!(
            report.node_chunks_served[0], report.completed_requests,
            "every request reads one chunk from the only node"
        );
        assert_eq!(report.logical_shards, 1);
    }

    #[test]
    fn fork_join_latency_exceeds_single_chunk_latency() {
        let nodes = nodes(6, 0.5);
        let one = Simulation::new(
            nodes.clone(),
            vec![SimFile::new(0.05, 1, vec![0, 1, 2, 3, 4, 5])],
            CacheScheme::NoCache,
            SimConfig::new(100_000.0, 1),
        )
        .run();
        let four = Simulation::new(
            nodes,
            vec![SimFile::new(0.05, 4, vec![0, 1, 2, 3, 4, 5])],
            CacheScheme::NoCache,
            SimConfig::new(100_000.0, 1),
        )
        .run();
        assert!(four.overall.mean > one.overall.mean);
    }

    #[test]
    fn functional_caching_reduces_latency_monotonically_in_d() {
        let m = 6;
        let files = simple_files(4, 0.05, 4, m);
        let service = nodes(m, 0.5);
        let mut prev = f64::INFINITY;
        for d in 0..=4usize {
            let cached = vec![d; 4];
            // spread the remaining k - d reads uniformly
            let scheduling: Vec<Vec<f64>> = files
                .iter()
                .map(|f| {
                    let mut row = vec![0.0; m];
                    for &j in &f.placement {
                        row[j] = (f.k - d) as f64 / f.placement.len() as f64;
                    }
                    row
                })
                .collect();
            let report = Simulation::new(
                service.clone(),
                files.clone(),
                CacheScheme::Functional {
                    cached_chunks: cached,
                    scheduling,
                    rule: SchedulingRule::Probabilistic,
                },
                SimConfig::new(50_000.0, 3),
            )
            .run();
            assert!(
                report.overall.mean <= prev + 0.2,
                "latency should fall as d grows: d={d}, {} vs {prev}",
                report.overall.mean
            );
            prev = report.overall.mean;
            if d == 4 {
                assert_eq!(
                    report.overall.mean, 0.0,
                    "fully cached files have zero latency"
                );
                assert!(report.full_cache_hits > 0);
            }
        }
    }

    #[test]
    fn slot_counts_track_cache_share() {
        let m = 6;
        let files = simple_files(3, 0.05, 4, m);
        let scheduling: Vec<Vec<f64>> = files
            .iter()
            .map(|f| {
                let mut row = vec![0.0; m];
                for &j in &f.placement {
                    row[j] = 2.0 / f.placement.len() as f64;
                }
                row
            })
            .collect();
        let report = Simulation::new(
            nodes(m, 0.5),
            files,
            CacheScheme::Functional {
                cached_chunks: vec![2, 2, 2],
                scheduling,
                rule: SchedulingRule::Probabilistic,
            },
            SimConfig::new(20_000.0, 9),
        )
        .run();
        // Half of each request's 4 chunks come from the cache.
        assert!((report.slots.cache_fraction() - 0.5).abs() < 0.02);
    }

    #[test]
    fn lru_cache_hits_after_first_access_when_capacity_allows() {
        let m = 4;
        let files = simple_files(2, 0.05, 2, m);
        let report = Simulation::new(
            nodes(m, 0.5),
            files,
            CacheScheme::ceph_lru(100),
            SimConfig::new(20_000.0, 5),
        )
        .run();
        // After both files are promoted every request is a full cache hit.
        assert!(report.full_cache_hits > report.completed_requests / 2);
        assert!(report.overall.mean < 1.0);
        // The global LRU tier couples all files into one logical shard.
        assert_eq!(report.logical_shards, 1);
    }

    #[test]
    fn lru_tier_reports_promotions_and_evictions() {
        let m = 4;
        let files = simple_files(4, 0.05, 2, m);
        // Capacity 4 chunks at replication 2 and k = 2 means a footprint of 4
        // per object: exactly one resident object, so promotions churn.
        let report = Simulation::new(
            nodes(m, 0.5),
            files.clone(),
            CacheScheme::ceph_lru(4),
            SimConfig::new(20_000.0, 5),
        )
        .run();
        assert!(report.cache_promotions > 1, "objects must be promoted");
        assert!(report.cache_evictions > 0, "the tier must churn");
        assert!(
            report.cache_promotions - report.cache_evictions <= 1,
            "at most one object fits the tier"
        );
        let none = Simulation::new(
            nodes(m, 0.5),
            files,
            CacheScheme::NoCache,
            SimConfig::new(1_000.0, 5),
        )
        .run();
        assert_eq!(none.cache_promotions, 0);
        assert_eq!(none.cache_evictions, 0);
    }

    #[test]
    fn lru_cache_with_tiny_capacity_behaves_like_no_cache() {
        let m = 4;
        let files = simple_files(4, 0.05, 2, m);
        let tiny = Simulation::new(
            nodes(m, 0.5),
            files.clone(),
            CacheScheme::ceph_lru(1),
            SimConfig::new(20_000.0, 6),
        )
        .run();
        let none = Simulation::new(
            nodes(m, 0.5),
            files,
            CacheScheme::NoCache,
            SimConfig::new(20_000.0, 6),
        )
        .run();
        assert!((tiny.overall.mean - none.overall.mean).abs() / none.overall.mean < 0.25);
        assert_eq!(tiny.full_cache_hits, 0);
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let files = simple_files(3, 0.05, 2, 4);
        let a = Simulation::new(
            nodes(4, 0.5),
            files.clone(),
            CacheScheme::NoCache,
            SimConfig::new(5_000.0, 77),
        )
        .run();
        let b = Simulation::new(
            nodes(4, 0.5),
            files,
            CacheScheme::NoCache,
            SimConfig::new(5_000.0, 77),
        )
        .run();
        assert_eq!(a, b, "same seed must give a bit-identical report");
    }

    #[test]
    fn in_flight_requests_stay_bounded_over_long_horizons() {
        // ~20k requests over the horizon, but only a handful in flight at
        // once: the slab must stay at the concurrency high-water mark, not
        // grow with the request count.
        let files = simple_files(8, 0.5, 2, 6);
        let report = Simulation::new(
            nodes(6, 2.0),
            files,
            CacheScheme::NoCache,
            SimConfig::new(10_000.0, 4),
        )
        .run();
        assert!(report.completed_requests > 10_000);
        assert!(
            report.peak_in_flight < 200,
            "peak in-flight {} should be far below the {} completed requests",
            report.peak_in_flight,
            report.completed_requests
        );
    }

    #[test]
    fn event_heap_residency_is_bounded_by_files_and_nodes() {
        let files = simple_files(8, 0.5, 2, 6);
        let report = Simulation::new(
            nodes(6, 2.0),
            files,
            CacheScheme::NoCache,
            SimConfig::new(10_000.0, 4),
        )
        .run();
        assert!(report.completed_requests > 10_000);
        // 8 pending arrivals + at most 6 in-service completions.
        assert!(
            report.peak_event_queue <= 8 + 6,
            "peak {} exceeds files + nodes",
            report.peak_event_queue
        );
    }

    #[test]
    fn node_failure_degrades_and_recovery_restores_service() {
        let files = simple_files(3, 0.1, 2, 4);
        let horizon = 40_000.0;
        let baseline = Simulation::new(
            nodes(4, 0.6),
            files.clone(),
            CacheScheme::NoCache,
            SimConfig::new(horizon, 12),
        );
        let with_failure = baseline.clone().with_scenario(
            Scenario::default()
                .node_down(10_000.0, 0)
                .node_up(30_000.0, 0),
        );
        let a = baseline.run();
        let b = with_failure.run();
        assert_eq!(b.failed_requests, 0, "3 online hosts still cover k = 2");
        assert!(
            b.node_chunks_served[0] < a.node_chunks_served[0],
            "the failed node must serve fewer chunks ({} vs {})",
            b.node_chunks_served[0],
            a.node_chunks_served[0]
        );
        assert!(
            b.overall.mean > a.overall.mean,
            "losing a node concentrates load and raises latency ({} vs {})",
            b.overall.mean,
            a.overall.mean
        );
    }

    #[test]
    fn failure_beyond_redundancy_fails_requests() {
        let sim = Simulation::new(
            nodes(2, 0.8),
            vec![SimFile::new(0.2, 2, vec![0, 1])],
            CacheScheme::NoCache,
            SimConfig::new(2_000.0, 3),
        )
        .with_scenario(Scenario::default().node_down(500.0, 0));
        let report = sim.run();
        assert!(report.failed_requests > 0);
        assert!(report.completed_requests > 0);
    }

    #[test]
    fn rate_shift_scenario_changes_throughput() {
        let sim = Simulation::new(
            nodes(4, 2.0),
            simple_files(2, 0.5, 1, 4),
            CacheScheme::NoCache,
            SimConfig::new(10_000.0, 8),
        )
        .with_scenario(Scenario::default().set_rates(5_000.0, vec![2.0, 2.0]));
        let report = sim.run();
        let base = Simulation::new(
            nodes(4, 2.0),
            simple_files(2, 0.5, 1, 4),
            CacheScheme::NoCache,
            SimConfig::new(10_000.0, 8),
        )
        .run();
        // Doubling both rates halfway through adds ~1.5e4 requests over the
        // baseline's ~1e4; allow generous slack.
        assert!(
            report.completed_requests as f64 > base.completed_requests as f64 * 1.8,
            "{} vs {}",
            report.completed_requests,
            base.completed_requests
        );
    }

    #[test]
    fn rate_schedule_stops_arrivals_past_the_last_bin() {
        use sprout_workload::timebins::{RateSchedule, TimeBin};
        let schedule = RateSchedule::new(vec![
            TimeBin::new(1_000.0, vec![1.0, 0.0]),
            TimeBin::new(1_000.0, vec![0.0, 1.0]),
        ]);
        let sim = Simulation::new(
            nodes(4, 5.0),
            simple_files(2, 123.0, 1, 4), // constant rates are overridden
            CacheScheme::NoCache,
            SimConfig::new(10_000.0, 5).with_warmup(0.0),
        )
        .with_rate_schedule(&schedule);
        let report = sim.run();
        let total = report.completed_requests as f64;
        assert!(
            (total - 2_000.0).abs() < 300.0,
            "~1 req/s over 2000 s expected, got {total}"
        );
    }

    #[test]
    fn swap_scheme_scenario_takes_effect() {
        let m = 4;
        let files = simple_files(2, 0.2, 2, m);
        let scheduling: Vec<Vec<f64>> = files
            .iter()
            .map(|f| {
                let mut row = vec![0.0; m];
                for &j in &f.placement {
                    row[j] = 0.0;
                }
                row
            })
            .collect();
        let full_cache = CacheScheme::Functional {
            cached_chunks: vec![2, 2],
            scheduling,
            rule: SchedulingRule::Probabilistic,
        };
        let sim = Simulation::new(
            nodes(m, 0.8),
            files,
            CacheScheme::NoCache,
            SimConfig::new(10_000.0, 21).with_warmup(0.0),
        )
        .with_scenario(Scenario::default().swap_scheme(5_000.0, full_cache));
        let report = sim.run();
        assert!(
            report.full_cache_hits > 0,
            "after the swap every request is a full cache hit"
        );
        let frac = report.full_cache_hits as f64 / report.completed_requests as f64;
        assert!(
            (frac - 0.5).abs() < 0.1,
            "~half the horizon runs fully cached, got {frac}"
        );
    }

    #[test]
    #[should_panic(expected = "fewer than k")]
    fn invalid_file_panics() {
        let _ = Simulation::new(
            nodes(2, 0.5),
            vec![SimFile::new(0.1, 3, vec![0, 1])],
            CacheScheme::NoCache,
            SimConfig::new(10.0, 0),
        );
    }

    #[test]
    #[should_panic(expected = "references node")]
    fn scenario_with_bad_node_panics() {
        let _ = Simulation::new(
            nodes(2, 0.5),
            vec![SimFile::new(0.1, 1, vec![0, 1])],
            CacheScheme::NoCache,
            SimConfig::new(10.0, 0),
        )
        .with_scenario(Scenario::default().node_down(1.0, 9));
    }
}
