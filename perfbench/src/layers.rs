//! The traced run's per-layer probes for the serving workloads, each timed
//! from outside through the layer's public functions:
//!
//! * `cluster`: the first paced round's request sequence replayed closed-loop on
//!   one thread against a fresh `StoreHandle`, with the same plan swap;
//! * `erasure`: encode of the workload's objects, and decode of the exact
//!   chunk sets (cache rows plus storage rows) the replayed gets used;
//! * `gf`: `mul_acc_slice` on the auto-selected kernel at the chunk size.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sprout::cluster::StoreHandle;
use sprout::erasure::{Chunk, CodeParams, FunctionalCacheCodec};
use sprout::gf::{kernel::mul_acc_slice, Gf256, Kernel};
use sprout::ServePlan;

use crate::serving::{stream_salt, Inputs, PlanPair};
use crate::stats::quantile;
use crate::trace::{SpanId, Tracer};
use crate::Report;

/// Chunk sets kept from the replay for the decode probe.
const DECODE_SETS: usize = 4_000;
/// Minimum encode samples.
const ENCODE_SAMPLES: usize = 2_000;
/// How long the GF kernel probe runs.
const GF_PROBE: Duration = Duration::from_millis(250);

fn install(store: &StoreHandle, plan: &ServePlan) {
    for (object, &d) in plan.cached_chunks.iter().enumerate() {
        store
            .set_cached_chunks(object as u64, d)
            .expect("plan fits the cache");
    }
}

fn p50(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5).value.unwrap_or(0.0)
}

/// A get the replay made: which bytes it must decode to, and from what.
struct DecodeSet {
    object: usize,
    version: u32,
    chunks: Vec<Chunk>,
}

/// Replays the paced sequence on `StoreHandle` and returns the chunk sets
/// its gets decoded; records the `cluster.*` metrics.
fn replay(
    inputs: &Inputs,
    plans: &PlanPair,
    count: usize,
    serve_p50_us: f64,
    report: &mut Report,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Vec<DecodeSet> {
    let shape = inputs.shape;
    let store = StoreHandle::new(inputs.store_config()).expect("store config is valid");
    let mut put_us = Vec::new();
    let mut get_us = Vec::new();
    let mut op_us = Vec::with_capacity(count);
    let mut timed = |name, f: &mut dyn FnMut()| {
        let t = Instant::now();
        tracer.time(name, parent, f);
        t.elapsed().as_secs_f64() * 1e6
    };
    for object in 0..shape.objects {
        let data = inputs.payload(object, 0);
        put_us.push(timed("cluster.put", &mut || {
            store.put(object as u64, &data).expect("put succeeds")
        }));
    }
    install(&store, &plans.plans[0]);

    let mut versions = vec![0u32; shape.objects];
    let mut requests = inputs.requests(stream_salt(true, 0), shape.paced_rate);
    let mut sets = Vec::with_capacity(DECODE_SETS);
    let (mut gets, mut cache_hits, mut full_hits, mut storage_chunks) = (0u64, 0u64, 0u64, 0u64);
    let mut model_latency = 0.0;
    let mut wrong_bytes = 0u64;
    let mut install_ms = 0.0;
    for i in 0..count {
        if i == count / 2 {
            install_ms = timed("cluster.set_cached_chunks", &mut || {
                install(&store, &plans.plans[1])
            }) / 1e3;
        }
        let req = requests.next(i >= count / 2);
        if req.put {
            versions[req.object] += 1;
            let data = inputs.payload(req.object, versions[req.object]);
            let us = timed("cluster.put", &mut || {
                store.put(req.object as u64, &data).expect("put succeeds")
            });
            put_us.push(us);
            op_us.push(us);
            continue;
        }
        let mut outcome = None;
        let us = timed("cluster.get", &mut || {
            outcome = Some(store.get(req.object as u64, req.due));
        });
        let outcome = outcome.expect("get ran").expect("every object is readable");
        get_us.push(us);
        op_us.push(us);
        gets += 1;
        cache_hits += u64::from(outcome.cache_chunks_used > 0);
        full_hits += u64::from(outcome.storage_chunks_used == 0);
        storage_chunks += outcome.storage_chunks_used as u64;
        model_latency += outcome.latency;
        if outcome.data != inputs.payload(req.object, versions[req.object]) {
            wrong_bytes += 1;
        }
        if sets.len() < DECODE_SETS {
            let mut chunks: Vec<Chunk> = store
                .cache()
                .peek(req.object as u64)
                .map(<[Chunk]>::to_vec)
                .unwrap_or_default();
            chunks.extend(
                outcome
                    .nodes_used
                    .iter()
                    .filter_map(|&node| store.chunk_on_node(req.object as u64, node)),
            );
            sets.push(DecodeSet {
                object: req.object,
                version: versions[req.object],
                chunks,
            });
        }
    }
    report.check(
        wrong_bytes == 0,
        format!("cluster replay: {wrong_bytes} of {gets} StoreHandle::get calls returned bytes other than those put"),
    );
    let gets_f = gets.max(1) as f64;
    let cluster_get = p50(&mut get_us);
    let cluster_op = p50(&mut op_us);
    report.layer("cluster.get_us", cluster_get);
    report.layer("cluster.put_us", p50(&mut put_us));
    report.layer("cluster.cache_hit_ratio", cache_hits as f64 / gets_f);
    report.layer("cluster.full_cache_hit_share", full_hits as f64 / gets_f);
    report.layer(
        "cluster.storage_chunks_per_get",
        storage_chunks as f64 / gets_f,
    );
    report.layer("cluster.set_cached_chunks_ms", install_ms);
    report.layer("cluster.model_latency_s", model_latency / gets_f);
    report.layer("serve.overhead_us", serve_p50_us - cluster_op);
    report.note(format!(
        "cluster replay: {count} requests closed-loop on one thread, {gets} gets \
         (cache hit {:.3}, full cache hit {:.3}, {:.3} storage chunks/get), {} puts",
        cache_hits as f64 / gets_f,
        full_hits as f64 / gets_f,
        storage_chunks as f64 / gets_f,
        put_us.len(),
    ));
    report.note(format!(
        "cluster p50 over the same op mix {cluster_op:.2} us; Sproutd p50 {serve_p50_us:.2} us; \
         serve.overhead_us {:.2}",
        serve_p50_us - cluster_op
    ));
    sets
}

/// Records the `erasure.*` metrics; returns the decode p50 in µs.
fn erasure(
    inputs: &Inputs,
    store_kernel: Kernel,
    sets: &[DecodeSet],
    report: &mut Report,
    tracer: &mut Tracer,
    parent: SpanId,
) -> f64 {
    let shape = inputs.shape;
    let config = inputs.store_config();
    let codec = FunctionalCacheCodec::with_kernel(
        CodeParams::new(config.n, config.k).expect("valid code"),
        store_kernel,
    )
    .expect("valid code")
    .with_striping(config.striping);

    let originals: Vec<Vec<u8>> = (0..shape.objects.min(256))
        .map(|o| inputs.payload(o, 0))
        .collect();
    let mut encode_us = Vec::with_capacity(ENCODE_SAMPLES);
    for data in originals
        .iter()
        .cycle()
        .take(ENCODE_SAMPLES.max(originals.len()))
    {
        let t = Instant::now();
        let encoded = tracer.time("erasure.encode", parent, || codec.encode(data));
        encode_us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(encoded.expect("encode succeeds"));
    }

    let mut decode_us = Vec::with_capacity(sets.len());
    let mut wrong = 0;
    for set in sets {
        let t = Instant::now();
        let decoded = tracer.time("erasure.decode", parent, || {
            codec.decode(&set.chunks, shape.object_bytes)
        });
        decode_us.push(t.elapsed().as_secs_f64() * 1e6);
        if decoded.ok() != Some(inputs.payload(set.object, set.version)) {
            wrong += 1;
        }
    }
    report.check(
        wrong == 0,
        format!(
            "erasure probe: {wrong} of {} replayed chunk sets decoded wrong",
            sets.len()
        ),
    );
    let (hits, misses) = codec.code().decode_memo_stats();
    let decode = p50(&mut decode_us);
    report.layer("erasure.encode_us", p50(&mut encode_us));
    report.layer("erasure.decode_us", decode);
    report.layer(
        "erasure.decode_memo_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    decode
}

/// Records `gf.mul_acc_gb_per_s` at the workload's chunk size.
fn gf(inputs: &Inputs, kernel: Kernel, report: &mut Report, tracer: &mut Tracer, parent: SpanId) {
    let len = inputs.shape.chunk_bytes();
    let src = inputs.payload(0, 0)[..len].to_vec();
    let mut dst = vec![0u8; len];
    let coeff = Gf256::new(0x8e);
    let mut calls = 0u64;
    let t = Instant::now();
    while t.elapsed() < GF_PROBE {
        tracer.time("gf.mul_acc_slice", parent, || {
            mul_acc_slice(kernel, coeff, black_box(&src), black_box(&mut dst))
        });
        calls += 1;
    }
    let secs = t.elapsed().as_secs_f64();
    report.layer(
        "gf.mul_acc_gb_per_s",
        (calls * len as u64) as f64 / secs / 1e9,
    );
}

pub fn probe(
    inputs: &Inputs,
    plans: &PlanPair,
    paced_count: usize,
    serve_p50_us: f64,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let root = tracer.open("layers", 0);
    let sets = replay(
        inputs,
        plans,
        paced_count,
        serve_p50_us,
        report,
        tracer,
        root,
    );
    let kernel = StoreHandle::new(inputs.store_config())
        .expect("store config is valid")
        .coding_kernel();
    let decode = erasure(inputs, kernel, &sets, report, tracer, root);
    gf(inputs, kernel, report, tracer, root);
    tracer.close(root);

    let get = report.per_layer["cluster.get_us"];
    let overhead = report.per_layer["serve.overhead_us"];
    report.note(format!(
        "ladder (p50, {} kernel): erasure.decode_us {decode:.2} -> cluster.get_us {get:.2} \
         (+{:.2}) -> Sproutd p50 {serve_p50_us:.2} us (+{overhead:.2} = serve.overhead_us, \
         {:.1}% of it)",
        kernel.name(),
        get - decode,
        overhead / serve_p50_us * 100.0,
    ));
}
