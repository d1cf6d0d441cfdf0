//! The two serving workloads: open-loop traffic through `Sproutd` over a
//! `StoreHandle`, a paced phase for latency and a saturate phase for
//! throughput, each with a live plan swap when the popularity shifts.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprout::cluster::{CachePolicy, ClusterConfig, StoreHandle};
use sprout::workload::ZipfPopularity;
use sprout::{
    FileConfig, LatencyHistogram, ServeOpts, ServePlan, ServeReport, SproutSystem, Sproutd,
    SystemSpec,
};

use crate::stats::{histogram_quantile, median, quantile};
use crate::trace::{SpanId, Tracer};
use crate::{layers, Report};

const NODES: usize = 12;
const CODE_N: usize = 7;
const CODE_K: usize = 4;
const QUEUE_DEPTH: usize = 256;
/// How long the saturating submitter sleeps while the queue is over half
/// full: far shorter than the worker takes to drain half the queue.
const REFILL_NAP: Duration = Duration::from_micros(200);
/// The paced phases together always run long enough for a supported p999.
const MIN_PACED_REQUESTS: usize = 12_000;
/// A phase whose swap has not come by this many times its length ends.
const MAX_PHASE_LENGTHS: f64 = 4.0;
/// Share of `--seconds` given to each of the paced and saturate phases.
const PHASE_SHARE: f64 = 0.45;
/// The run is this many rounds of setup, paced phase and saturate phase,
/// and reports the median round, so a few seconds of interference from the
/// host move one round rather than the whole reading.
const ROUNDS: usize = 7;

/// How a workload's cache plans are made.
#[derive(Debug, Clone, Copy)]
pub enum Plans {
    /// Algorithm 1 (`SproutSystem::optimize`) for the live popularity, with
    /// room for this many chunks.
    Optimized { cache_chunks: usize },
    /// Whole objects (`d = k`) for this share of the objects, the hottest
    /// by rank. Algorithm 1 is superlinear in file count, so at thousands of
    /// files it would dominate the run; uniform popularity leaves it no
    /// skew to exploit anyway.
    WholeObjects { share: f64 },
}

/// One serving workload.
#[derive(Debug)]
pub struct Shape {
    pub objects: usize,
    pub object_bytes: usize,
    /// Zipf exponent of popularity; `None` is uniform.
    pub zipf: Option<f64>,
    /// Share of requests that overwrite an object with a new version.
    pub put_share: f64,
    /// Offered load of the paced phase, requests per second: a fixed rate
    /// near a quarter of the saturate throughput on a 2-core x86-64 host.
    pub paced_rate: f64,
    pub plans: Plans,
}

pub const HOT_READ_64K: Shape = Shape {
    objects: 64,
    object_bytes: 64 * 1024,
    zipf: Some(0.9),
    put_share: 0.0,
    paced_rate: 1_400.0,
    plans: Plans::Optimized { cache_chunks: 128 },
};

pub const COLD_MIXED_4K: Shape = Shape {
    objects: 4096,
    object_bytes: 4 * 1024,
    zipf: None,
    put_share: 0.2,
    paced_rate: 4_500.0,
    plans: Plans::WholeObjects { share: 1.0 / 16.0 },
};

impl Shape {
    pub fn chunk_bytes(&self) -> usize {
        self.object_bytes.div_ceil(CODE_K)
    }

    fn cache_chunks(&self) -> usize {
        match self.plans {
            Plans::Optimized { cache_chunks } => cache_chunks,
            Plans::WholeObjects { share } => (self.objects as f64 * share) as usize * CODE_K,
        }
    }

    /// `Sproutd` workers: one per core left after the submitter. A workload
    /// with puts keeps one worker, so FIFO order makes every get-after-put
    /// verification exact.
    fn workers(&self) -> usize {
        if self.put_share > 0.0 {
            1
        } else {
            cores().saturating_sub(1).max(1)
        }
    }
}

/// Cores this process may run on.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: derives independent sub-seeds from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything the run feeds the program, all derived from `--seed`.
pub struct Inputs<'a> {
    pub shape: &'a Shape,
    pub seed: u64,
    /// Popularity by object before and after the mid-phase shift.
    popularity: [Vec<f64>; 2],
    /// Popularity by rank, the same for every seed.
    rank_mass: Vec<f64>,
    /// The object at each rank before and after the shift.
    ranked: [Vec<usize>; 2],
}

impl<'a> Inputs<'a> {
    fn new(shape: &'a Shape, seed: u64) -> Self {
        let n = shape.objects;
        let rank_mass: Vec<f64> = match shape.zipf {
            Some(s) => ZipfPopularity::new(n, s).arrival_rates(1.0),
            None => vec![1.0 / n as f64; n],
        };
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(mix(seed, 1));
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        // The shift hands each rank to the object half a turn away.
        let ranked = [0, n / 2].map(|turn| (0..n).map(|rank| order[(rank + turn) % n]).collect());
        let popularity = ranked.each_ref().map(|objects: &Vec<usize>| {
            let mut p = vec![0.0; n];
            for (&object, &mass) in objects.iter().zip(&rank_mass) {
                p[object] = mass;
            }
            p
        });
        Inputs {
            shape,
            seed,
            popularity,
            rank_mass,
            ranked,
        }
    }

    /// Version `version` of `object`'s bytes.
    pub fn payload(&self, object: usize, version: u32) -> Vec<u8> {
        let mut state = mix(self.seed, ((object as u64) << 32) | u64::from(version));
        let mut out = Vec::with_capacity(self.shape.object_bytes + 8);
        while out.len() < self.shape.object_bytes {
            state = mix(state, 2);
            out.extend_from_slice(&state.to_le_bytes());
        }
        out.truncate(self.shape.object_bytes);
        out
    }

    /// The request stream of one phase: `salt` picks the phase.
    pub fn requests(&self, salt: u64, rate: f64) -> Requests {
        Requests {
            rng: StdRng::seed_from_u64(mix(self.seed, salt)),
            rate,
            time: 0.0,
            cumulative: self.popularity.clone().map(|p| {
                p.iter()
                    .scan(0.0, |acc, x| {
                        *acc += x;
                        Some(*acc)
                    })
                    .collect()
            }),
            put_share: self.shape.put_share,
        }
    }

    pub fn store_config(&self) -> ClusterConfig {
        ClusterConfig::builder()
            .nodes(NODES)
            .code(CODE_N, CODE_K)
            .cache_policy(CachePolicy::Functional)
            // Room for two plans: a swap installs the new plan object by
            // object while the old one is still resident.
            .cache_capacity_bytes((2 * self.shape.cache_chunks() * self.shape.chunk_bytes()) as u64)
            .seed(mix(self.seed, 3))
            .build()
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Due time in seconds from the start of the phase.
    pub due: f64,
    pub object: usize,
    pub put: bool,
}

/// Poisson arrivals; each request's object is drawn from the popularity of
/// the half (`shifted`) the caller asks for.
pub struct Requests {
    rng: StdRng,
    rate: f64,
    time: f64,
    cumulative: [Vec<f64>; 2],
    put_share: f64,
}

impl Requests {
    pub fn next(&mut self, shifted: bool) -> Request {
        let u: f64 = self.rng.gen();
        self.time += -(1.0 - u).ln() / self.rate;
        let cdf = &self.cumulative[usize::from(shifted)];
        let x = self.rng.gen::<f64>() * cdf[cdf.len() - 1];
        let object = cdf.partition_point(|&c| c <= x).min(cdf.len() - 1);
        let put = self.put_share > 0.0 && self.rng.gen_bool(self.put_share);
        Request {
            due: self.time,
            object,
            put,
        }
    }
}

/// Salt of round `round`'s request stream in the paced or saturate phase.
pub fn stream_salt(paced: bool, round: usize) -> u64 {
    100 + 2 * round as u64 + u64::from(!paced)
}

/// A cache plan per popularity half, and how Algorithm 1 went.
pub struct PlanPair {
    pub plans: [ServePlan; 2],
    pub outer_iterations: usize,
    pub objective_s: f64,
}

/// Placement seed of the model system Algorithm 1 plans on.
const PLAN_SEED: u64 = 2016;

/// Plans cached chunks by popularity rank, then maps the ranks onto each
/// half's objects. The ranks' popularity is the same for every seed, so the
/// planning work is too: with the optimizer's input drawn from the seed,
/// setup time moved by a factor of two between seeds.
fn make_plans(inputs: &Inputs, tracer: &mut Tracer, parent: SpanId) -> PlanPair {
    let shape = inputs.shape;
    let (by_rank, outer_iterations, objective_s) = match shape.plans {
        Plans::Optimized { cache_chunks } => {
            // Only the relative popularity shapes the plan: rates are scaled
            // to 60% utilization of the model's 12 nodes.
            let mu = 40.0;
            let scale = 0.6 * NODES as f64 * mu / CODE_K as f64;
            let mut spec = SystemSpec::builder();
            spec.node_service_rates(&[mu; NODES])
                .cache_capacity_chunks(cache_chunks)
                .seed(PLAN_SEED);
            for &mass in &inputs.rank_mass {
                spec.file(FileConfig::new(
                    mass * scale,
                    CODE_N,
                    CODE_K,
                    shape.object_bytes as u64,
                ));
            }
            let system = SproutSystem::new(spec.build().expect("serving spec is valid"))
                .expect("serving system builds");
            let plan = tracer
                .time("optimizer.optimize", parent, || system.optimize())
                .expect("Algorithm 1 converges");
            let iterations = plan.trace.outer_iterations();
            (plan.cached_chunks, iterations, plan.objective)
        }
        Plans::WholeObjects { .. } => {
            let whole = shape.cache_chunks() / CODE_K;
            let by_rank = (0..shape.objects)
                .map(|rank| if rank < whole { CODE_K } else { 0 })
                .collect();
            (by_rank, 0, 0.0)
        }
    };
    let plans = [0, 1].map(|half| {
        let mut cached = vec![0; shape.objects];
        for (&object, &d) in inputs.ranked[half].iter().zip(&by_rank) {
            cached[object] = d;
        }
        ServePlan {
            cached_chunks: cached,
            label: format!("popularity half {half}"),
        }
    });
    PlanPair {
        plans,
        outer_iterations,
        objective_s,
    }
}

/// A fresh store with every object written and a daemon serving it with
/// the first plan installed: what a user waits for before serving.
fn setup(inputs: &Inputs, tracer: &mut Tracer, parent: SpanId) -> (Sproutd, PlanPair) {
    let store = tracer.time("cluster.new", parent, || {
        StoreHandle::new(inputs.store_config()).expect("store config is valid")
    });
    let plans = make_plans(inputs, tracer, parent);
    let versions = vec![0; inputs.shape.objects];
    let daemon = start_daemon(&store, inputs, &plans, &versions, tracer, parent);
    (daemon, plans)
}

/// A daemon over `store` with every object at its current version
/// (preload records the checksums `Sproutd` verifies against) and the first
/// plan installed.
fn start_daemon(
    store: &StoreHandle,
    inputs: &Inputs,
    plans: &PlanPair,
    versions: &[u32],
    tracer: &mut Tracer,
    parent: SpanId,
) -> Sproutd {
    let daemon = Sproutd::start(
        store.clone(),
        ServeOpts::default()
            .workers(inputs.shape.workers())
            .queue_depth(QUEUE_DEPTH),
    );
    for (object, &version) in versions.iter().enumerate() {
        let data = inputs.payload(object, version);
        tracer
            .time("serve.preload", parent, || {
                daemon.preload(object as u64, &data)
            })
            .expect("preload succeeds");
    }
    tracer
        .time("serve.swap_plan", parent, || {
            daemon.swap_plan(plans.plans[0].clone())
        })
        .expect("first plan installs");
    daemon
}

/// What the submitter saw in one phase, next to the daemon's report.
struct Phase {
    report: ServeReport,
    attempted: u64,
    /// Requests submitted after the shifted plan was installed.
    after_swap: u64,
    /// First submit to the end of shutdown (every request drained).
    traffic_s: f64,
    lag_us: Vec<f64>,
    queue_len_max: usize,
    swap_ms: f64,
    /// Queued requests the submitter saw when it installed the swap.
    swap_queued: usize,
    /// Puts drawn while writes were held back for the swap, sent as gets.
    held_puts: u64,
}

/// Spins until `due`. The submitter owns a core, and spinning keeps its
/// lag to a fraction of a microsecond where a sleep's wake-up costs tens.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Drives one phase on `daemon`. Paced: `count` requests at their due
/// times. Saturate (`count == None`): as fast as the queue takes them, for
/// `seconds`. The
/// popularity shifts at the midpoint, and the shifted plan is installed the
/// first time the submitter then sees queued requests.
///
/// The submitter holds writes back from the midpoint until the swap has
/// landed: it sends the drawn puts as gets, and swaps only once every put
/// already submitted has completed. `StoreHandle::set_cached_chunks` races
/// a concurrent put of the same object and can cache the old version's
/// chunks (the README's known defect); once the store fixes that, the hold
/// should go.
#[allow(clippy::too_many_arguments)]
fn drive(
    daemon: Sproutd,
    inputs: &Inputs,
    plans: &PlanPair,
    versions: &mut [u32],
    mut requests: Requests,
    count: Option<usize>,
    seconds: f64,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Phase {
    // Completion order is submit order only with one worker.
    assert!(inputs.shape.put_share == 0.0 || inputs.shape.workers() == 1);
    let paced = count.is_some();
    let mut attempted = 0u64;
    let mut held_puts = 0u64;
    let mut gets_since_put = 0u64;
    let mut lag_us = Vec::with_capacity(count.unwrap_or(0));
    let mut queue_len_max = 0;
    let mut swap_ms = None;
    let mut swap_queued = 0;
    // Requests submitted once the shifted plan is published; they are
    // served under its epoch.
    let mut after_swap = 0u64;
    // Saturate: submits left before the queue would be full.
    let mut room = 0;
    let start = Instant::now();
    loop {
        // How far through the phase, in requests (paced) or time (saturate).
        let progress = match count {
            Some(n) => attempted as f64 / n as f64,
            None => start.elapsed().as_secs_f64() / seconds,
        };
        // A phase ends once its length is done and a request has followed
        // the swap. The cap only stops a phase whose swap never comes (the
        // checks then fail it); it is far enough out that a stall of the
        // host, which moves a saturate phase's clock but not its requests,
        // cannot end a phase before its swap.
        if (progress >= 1.0 && after_swap > 0) || progress >= MAX_PHASE_LENGTHS {
            break;
        }
        let shifted = progress >= 0.5;
        let mut req = requests.next(shifted);
        if req.put && shifted && swap_ms.is_none() {
            req.put = false;
            held_puts += 1;
        }
        let data = req.put.then(|| {
            versions[req.object] += 1;
            inputs.payload(req.object, versions[req.object])
        });
        if paced {
            let due = start + Duration::from_secs_f64(req.due);
            wait_until(due);
            lag_us.push(due.elapsed().as_secs_f64() * 1e6);
        } else {
            // Top the queue up from half to full depth, and sleep instead of
            // blocking on a full queue: the worker then never wakes the
            // submitter, and throughput does not hang on the host's
            // wake-up latency.
            while room == 0 {
                let queued = daemon.queue_len();
                if queued <= QUEUE_DEPTH / 2 {
                    room = QUEUE_DEPTH - queued;
                } else {
                    std::thread::sleep(REFILL_NAP);
                }
            }
            room -= 1;
        }
        let accepted = match data {
            Some(data) => tracer.time("serve.submit_put", parent, || {
                daemon.submit_put(req.object as u64, data)
            }),
            None => tracer.time("serve.submit_get", parent, || {
                daemon.submit_get(req.object as u64)
            }),
        };
        assert!(accepted, "blocking submit is refused only after shutdown");
        attempted += 1;
        after_swap += u64::from(swap_ms.is_some());
        gets_since_put = if req.put { 0 } else { gets_since_put + 1 };
        // Paced: sample the queue after every submit. Saturate: the queue
        // is at least half full anyway, so sample sparsely to keep its lock
        // cold.
        if paced || attempted.is_multiple_of(64) || (shifted && swap_ms.is_none()) {
            let queued = daemon.queue_len();
            queue_len_max = queue_len_max.max(queued);
            // Two queued requests, not one: the worker may pop one between
            // this check and `swap_plan`'s own check for load. Fewer queued
            // requests than gets since the last put: that put has completed.
            let puts_done = (queued as u64) < gets_since_put;
            if shifted && swap_ms.is_none() && queued >= 2 && puts_done {
                let t = Instant::now();
                tracer
                    .time("serve.swap_plan", parent, || {
                        daemon.swap_plan(plans.plans[1].clone())
                    })
                    .expect("shifted plan installs");
                swap_ms = Some(t.elapsed().as_secs_f64() * 1e3);
                swap_queued = queued;
            }
        }
    }
    let report = tracer.time("serve.shutdown", parent, || daemon.shutdown());
    Phase {
        report,
        attempted,
        after_swap,
        traffic_s: start.elapsed().as_secs_f64(),
        lag_us,
        queue_len_max,
        swap_ms: swap_ms.unwrap_or(0.0),
        swap_queued,
        held_puts,
    }
}

fn check_phase(report: &mut Report, name: &str, phase: &Phase) {
    let r = &phase.report;
    report.check(
        r.submitted == phase.attempted && r.completed == r.submitted && r.verified == r.completed,
        format!(
            "{name}: attempted {} == submitted {} == completed {} == verified {}",
            phase.attempted, r.submitted, r.completed, r.verified
        ),
    );
    report.check(
        r.errors == 0 && r.dropped == 0,
        format!(
            "{name}: errors {} and drops {} are zero",
            r.errors, r.dropped
        ),
    );
    report.check(
        r.plan_swaps == 2 && r.swaps_under_load >= 1,
        format!(
            "{name}: shifted plan installed under load (swaps {}, under load {}, \
             {} queued when installed, {} requests after it)",
            r.plan_swaps, r.swaps_under_load, phase.swap_queued, phase.after_swap
        ),
    );
    report.check(
        r.min_epoch_served == 1 && r.max_epoch_served == 2,
        format!(
            "{name}: requests served under epochs {}..={} (want 1..=2)",
            r.min_epoch_served, r.max_epoch_served
        ),
    );
    report.attempted += phase.attempted;
    // Errored, unverified and dropped requests all fall short of verified.
    report.failed += phase.attempted.saturating_sub(r.verified);
}

pub fn run(shape: &Shape, seed: u64, seconds: f64, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let inputs = Inputs::new(shape, seed);
    let root = tracer.open("run", 0);

    let mut setup_s = Vec::with_capacity(ROUNDS);
    let mut last_plans = None;
    let round_s = seconds * PHASE_SHARE / ROUNDS as f64;
    let paced_count = ((shape.paced_rate * round_s) as usize).max(MIN_PACED_REQUESTS / ROUNDS);
    let mut paced = Vec::with_capacity(ROUNDS);
    let mut saturate = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let span = tracer.open("setup", root);
        let t = Instant::now();
        let (daemon, plans) = setup(&inputs, tracer, span);
        setup_s.push(t.elapsed().as_secs_f64());
        tracer.close(span);
        let store = daemon.store();
        let mut versions = vec![0u32; shape.objects];

        let span = tracer.open("phase.paced", root);
        paced.push(drive(
            daemon,
            &inputs,
            &plans,
            &mut versions,
            inputs.requests(stream_salt(true, round), shape.paced_rate),
            Some(paced_count),
            round_s,
            tracer,
            span,
        ));
        tracer.close(span);

        let span = tracer.open("phase.saturate", root);
        let daemon = start_daemon(&store, &inputs, &plans, &versions, tracer, span);
        saturate.push(drive(
            daemon,
            &inputs,
            &plans,
            &mut versions,
            inputs.requests(stream_salt(false, round), shape.paced_rate),
            None,
            round_s,
            tracer,
            span,
        ));
        tracer.close(span);
        last_plans = Some(plans);
    }
    tracer.close(root);
    let plans = last_plans.expect("at least one round");

    let mut histogram = LatencyHistogram::new();
    let mut round_p50_ms = Vec::with_capacity(ROUNDS);
    let mut lags = Vec::new();
    let mut queue_len_max = 0;
    for (round, phase) in paced.iter().enumerate() {
        check_phase(&mut report, &format!("paced round {round}"), phase);
        let p50 = histogram_quantile(&phase.report.histogram, 0.5);
        round_p50_ms.push(p50.value.expect("paced round has samples") / 1e3);
        histogram.merge(&phase.report.histogram);
        lags.extend_from_slice(&phase.lag_us);
        queue_len_max = queue_len_max.max(phase.queue_len_max);
    }
    let mut round_ops = Vec::with_capacity(ROUNDS);
    let mut round_sat_p50_ms = Vec::with_capacity(ROUNDS);
    for (round, phase) in saturate.iter().enumerate() {
        check_phase(&mut report, &format!("saturate round {round}"), phase);
        round_ops.push(phase.report.completed as f64 / phase.traffic_s);
        let p50 = histogram_quantile(&phase.report.histogram, 0.5);
        round_sat_p50_ms.push(p50.value.expect("saturate round has samples") / 1e3);
    }
    let paced_p50_ms = median(&round_p50_ms);
    let p50_ms = median(&round_sat_p50_ms);
    let ops_per_s = median(&round_ops);
    let setup = median(&setup_s);
    let pooled = [0.5, 0.99, 0.999].map(|q| histogram_quantile(&histogram, q));
    let lag50 = quantile(&mut lags, 0.5);
    let lag99 = quantile(&mut lags, 0.99);
    let swap_ms: Vec<f64> = paced.iter().map(|p| p.swap_ms).collect();
    let all = || paced.iter().chain(&saturate);
    let waits: u64 = all().map(|p| p.report.backpressure_waits).sum();
    let held: u64 = all().map(|p| p.held_puts).sum();

    let ops = if shape.put_share > 0.0 {
        "get+put"
    } else {
        "get"
    };
    report.note(format!(
        "workload: {} objects x {} B, ({CODE_N},{CODE_K}) code, {NODES} nodes, {} popularity, \
         {:.0}% puts, {} Sproutd worker(s), one submitter thread, {} available core(s), \
         {ROUNDS} rounds of paced {round_s:.2} s + saturate {round_s:.2} s",
        shape.objects,
        shape.object_bytes,
        shape
            .zipf
            .map_or("uniform".into(), |s| format!("Zipf({s})")),
        shape.put_share * 100.0,
        shape.workers(),
        cores(),
    ));
    report.note(format!(
        "paced: {paced_count} requests per round at {} /s; Sproutd {ops} p50 per round {:?} ms, \
         median {paced_p50_ms:.4} ms",
        shape.paced_rate, round_p50_ms
    ));
    report.note(format!(
        "paced, all rounds pooled: {} | {} | {}",
        pooled[0].describe("us"),
        pooled[1].describe("us"),
        pooled[2].describe("us"),
    ));
    report.note(
        "note: Sproutd timestamps a request when it is submitted, not when it was due; \
         the submitter's lag from due to submit is reported on its own as gen_lag",
    );
    if shape.put_share > 0.0 {
        report.note(format!(
            "writes held back from each phase's midpoint until its plan swap landed, \
             because of a known store race (README): {held} drawn puts sent as gets"
        ));
    }
    report.note(format!(
        "generator lag (due -> submit): {} | {}; queue_len max {queue_len_max}; \
         shifted plan installed in {swap_ms:?} ms",
        lag50.describe("us"),
        lag99.describe("us"),
    ));
    report.note(format!(
        "saturate: ops/s per round {:?}, median {ops_per_s:.1}; Sproutd {ops} p50 per round \
         {:?} ms, median {p50_ms:.4} ms (queue kept between {} and {QUEUE_DEPTH}); \
         backpressure waits, all phases: {waits}",
        round_ops,
        round_sat_p50_ms,
        QUEUE_DEPTH / 2
    ));
    report.note(format!(
        "setup, one per round (store build, plans, preload, install): {setup_s:?} s"
    ));

    report.end_to_end = BTreeMap::from([
        ("latency_p50_ms", p50_ms),
        ("ops_per_s", ops_per_s),
        ("setup_s", setup),
    ]);

    if tracer.enabled() {
        let ms = |q: crate::stats::Quantile| q.value.map_or(0.0, |v| v / 1e3);
        report.layer("serve.paced_p50_ms", paced_p50_ms);
        report.layer("serve.paced_samples", histogram.count() as f64);
        report.layer("serve.get_p99_ms", ms(pooled[1]));
        report.layer("serve.get_p999_ms", ms(pooled[2]));
        report.layer("serve.gen_lag_p50_ms", ms(lag50));
        report.layer("serve.gen_lag_p99_ms", ms(lag99));
        report.layer("serve.queue_len_max", queue_len_max as f64);
        report.layer("serve.backpressure_waits", waits as f64);
        report.layer("serve.swap_plan_ms", median(&swap_ms));
        if let Plans::Optimized { .. } = shape.plans {
            report.layer("optimizer.outer_iterations", plans.outer_iterations as f64);
            report.layer("optimizer.objective_s", plans.objective_s);
        }
        report.layer("trace.latency_p50_ms", p50_ms);
        report.layer("trace.ops_per_s", ops_per_s);
        layers::probe(
            &inputs,
            &plans,
            paced_count,
            paced_p50_ms * 1e3,
            &mut report,
            tracer,
        );
    }
    report
}
