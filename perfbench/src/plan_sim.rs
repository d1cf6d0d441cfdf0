//! `plan_sim`: Algorithm 1 on the paper's 12 heterogeneous servers, then
//! the analytic simulator under its plan. No bytes move; neither serving
//! layer runs.
//!
//! Each round reoptimizes the same system from scratch, as at the start of
//! a time bin, and the simulator replays about `SIM_REQUESTS` requests
//! under the plan with a seeded arrival stream. The optimizer's input does
//! not depend on the seed: its outer-iteration count (3 or 4 on seeded
//! variants of this system) would otherwise move its time by a third
//! between seeds. Rounds repeat until `--seconds` is spent; the run reports
//! per-round medians.

use std::collections::BTreeMap;
use std::time::Instant;

use sprout::sim::SimConfig;
use sprout::workload::spec::{paper_server_service_rates, MB};
use sprout::{CachePolicyChoice, SproutSystem, SystemSpec};

use crate::serving::mix;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Report;

/// The paper's evaluation has 1,000 files and 300 cache chunks; this keeps
/// its ratio at a size where Algorithm 1 takes seconds, not minutes.
const FILES: usize = 200;
const CACHE_CHUNKS: usize = 60;
/// Simulated requests per round.
const SIM_REQUESTS: f64 = 2.8e6;
/// System builds before each round; `setup_s` is the median of all of
/// them. Spreading them over the run samples the host as the rounds do: a
/// sub-millisecond build timed in one burst reads whatever speed the CPU
/// happens to run at for those few milliseconds.
const SETUPS_PER_ROUND: usize = 8;
/// The paper's convergence claim for Algorithm 1.
const MAX_OUTER_ITERATIONS: usize = 20;

/// Placement seed of the paper's evaluation system.
const PAPER_SEED: u64 = 2016;

/// The paper's system, with the paper's rates scaled so 200 files load the
/// servers as the paper's 1,000 do.
fn build() -> SproutSystem {
    let spec = SystemSpec::builder()
        .node_service_rates(&paper_server_service_rates())
        .paper_files(FILES, 7, 4, 100 * MB)
        .cache_capacity_chunks(CACHE_CHUNKS)
        .seed(PAPER_SEED)
        .build()
        .expect("paper spec is valid");
    let system = SproutSystem::new(spec).expect("paper system is valid");
    let scale = 1000.0 / FILES as f64;
    let rates: Vec<f64> = system
        .spec()
        .files
        .iter()
        .map(|f| f.arrival_rate * scale)
        .collect();
    system
        .with_arrival_rates(&rates)
        .expect("rate scaling keeps the spec valid")
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let root = tracer.open("run", 0);

    let mut setup_s = Vec::new();
    let start = Instant::now();
    let mut optimize_s = Vec::new();
    let mut sim_rate = Vec::new();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        let span = tracer.open("round", root);
        let mut system = None;
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            system = Some(tracer.time("setup", span, build));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let system = system.expect("at least one build");

        let t = Instant::now();
        let plan = tracer
            .time("optimizer.optimize", span, || system.optimize())
            .expect("Algorithm 1 converges on the paper system");
        optimize_s.push(t.elapsed().as_secs_f64());

        let horizon = SIM_REQUESTS / system.model().total_arrival_rate();
        let sim = system.simulation(
            CachePolicyChoice::Functional,
            Some(&plan),
            SimConfig::new(horizon, mix(seed, 22 + round as u64)),
        );
        let t = Instant::now();
        let sim_report = tracer.time("sim.run", span, || sim.run());
        let wall = t.elapsed().as_secs_f64();
        sim_rate.push(sim_report.completed_requests as f64 / wall);
        tracer.close(span);

        let iterations = plan.trace.outer_iterations();
        let mean = sim_report.overall.mean;
        report.check(
            iterations <= MAX_OUTER_ITERATIONS,
            format!("round {round}: Algorithm 1 took {iterations} <= {MAX_OUTER_ITERATIONS} outer iterations"),
        );
        report.check(
            mean <= plan.objective,
            format!(
                "round {round}: simulated mean latency {mean:.3} s <= Lemma 1 bound {:.3} s",
                plan.objective
            ),
        );
        report.check(
            sim_report.failed_requests == 0 && sim_report.completed_requests > 0,
            format!(
                "round {round}: {} requests completed, {} failed",
                sim_report.completed_requests, sim_report.failed_requests
            ),
        );
        report.attempted += sim_report.completed_requests + sim_report.failed_requests;
        report.failed += sim_report.failed_requests;
        report.note(format!(
            "round {round}: optimize {:.3} s ({iterations} outer iterations, bound {:.3} s); \
             simulate {} requests in {wall:.3} s (mean {mean:.3} s, peak event queue {})",
            optimize_s[round],
            plan.objective,
            sim_report.completed_requests,
            sim_report.peak_event_queue,
        ));
        if round == 0 && tracer.enabled() {
            report.layer("optimizer.outer_iterations", iterations as f64);
            report.layer("optimizer.objective_s", plan.objective);
            report.layer(
                "sim.completed_requests",
                sim_report.completed_requests as f64,
            );
            report.layer("sim.peak_event_queue", sim_report.peak_event_queue as f64);
            report.layer("sim.mean_latency_s", mean);
        }
        round += 1;
    }
    tracer.close(root);

    report.note(format!(
        "setup: {} system builds, median {:.6} s",
        setup_s.len(),
        median(&setup_s)
    ));
    let latency_ms = median(&optimize_s) * 1e3;
    let ops_per_s = median(&sim_rate);
    report.note(format!(
        "plan_sim: {FILES} files, (7,4) code, C = {CACHE_CHUNKS} chunks, 12 paper servers; \
         {round} rounds; latency_p50_ms = median Algorithm 1 wall time, \
         ops_per_s = median simulated requests per wall second"
    ));
    report.end_to_end = BTreeMap::from([
        ("latency_p50_ms", latency_ms),
        ("ops_per_s", ops_per_s),
        ("setup_s", median(&setup_s)),
    ]);
    if tracer.enabled() {
        report.layer("trace.latency_p50_ms", latency_ms);
        report.layer("trace.ops_per_s", ops_per_s);
    }
    report
}
