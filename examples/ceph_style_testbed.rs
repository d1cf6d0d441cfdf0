//! Ceph-style testbed: drive the byte-level cluster substrate end to end.
//!
//! Unlike the other examples, which work with the analytic model and the
//! queueing simulator, this one exercises the in-memory object store the way
//! the paper's prototype exercises Ceph: objects are really erasure-coded
//! onto 12 OSDs with HDD latency models (Table IV), functional cache chunks
//! are really constructed and installed on an SSD-model cache (Table V), and
//! reads reconstruct and verify the original bytes.
//!
//! Run with `cargo run --release --example ceph_style_testbed`.

use sprout::cluster::{CachePolicy, ClusterConfig, DeviceModel, StoreHandle};
use sprout::optimizer::{FileModel, Optimizer, OptimizerConfig, StorageModel};
use sprout::workload::spec::MB;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let num_objects = 24u64;
    let object_size = 16 * MB as usize / 4; // keep the example quick: 4 MB objects
    let chunk_bytes = (object_size / 4) as u64;

    // --- 1. Build the cluster: 12 HDD OSDs, a 10-chunk SSD cache, (7,4) code.
    let config = ClusterConfig::builder()
        .nodes(12)
        .code(7, 4)
        .uniform_device(DeviceModel::hdd())
        .cache_policy(CachePolicy::Functional)
        .cache_capacity_bytes(10 * chunk_bytes)
        .cache_device(DeviceModel::ssd())
        .seed(99)
        .build();
    let store = StoreHandle::new(config)?;

    // --- 2. Write the objects (really encoded and placed).
    println!(
        "writing {num_objects} objects of {} bytes each...",
        object_size
    );
    for id in 0..num_objects {
        let data: Vec<u8> = (0..object_size)
            .map(|i| (i as u64 * 31 + id) as u8)
            .collect();
        store.put(id, &data)?;
    }

    // --- 3. Ask the optimizer how to fill the cache, using the real device
    //        moments and the real placement the store chose.
    let service = DeviceModel::hdd().service_moments(chunk_bytes);
    let nodes = vec![service; 12];
    let hot_rate = 0.02;
    let cold_rate = 0.002;
    let files: Vec<FileModel> = (0..num_objects)
        .map(|id| {
            let placement = store.object_placement(id).unwrap().to_vec();
            let rate = if id < 4 { hot_rate } else { cold_rate };
            FileModel::new(rate, 4, placement)
        })
        .collect();
    let model = StorageModel::new(nodes, files)?;
    let plan = Optimizer::new(OptimizerConfig::default()).run(&model, 10)?;
    println!(
        "optimizer cache allocation (chunks per object): {:?}",
        plan.cached_chunks
    );

    // --- 4. Install the functional cache chunks and replay a read workload.
    for id in 0..num_objects {
        store.set_cached_chunks(id, plan.cached_chunks[id as usize])?;
    }
    let mut clock = 0.0;
    let mut total_latency = 0.0;
    let mut reads = 0u32;
    for round in 0..40u64 {
        for id in 0..num_objects {
            // hot objects are read every round, cold ones every 8th round
            if id >= 4 && round % 8 != 0 {
                continue;
            }
            let outcome = store.get(id, clock)?;
            assert_eq!(outcome.data.len(), object_size);
            total_latency += outcome.latency;
            reads += 1;
            clock += 0.05;
        }
    }
    println!(
        "replayed {reads} reads; mean latency {:.1} ms; cache stats {:?}",
        1000.0 * total_latency / reads as f64,
        store.cache_stats()
    );

    // --- 5. Show the benefit: repeat with the cache disabled.
    let config = ClusterConfig::builder()
        .nodes(12)
        .code(7, 4)
        .uniform_device(DeviceModel::hdd())
        .cache_policy(CachePolicy::None)
        .seed(99)
        .build();
    let baseline = StoreHandle::new(config)?;
    for id in 0..num_objects {
        let data: Vec<u8> = (0..object_size)
            .map(|i| (i as u64 * 31 + id) as u8)
            .collect();
        baseline.put(id, &data)?;
    }
    let mut clock = 0.0;
    let mut base_latency = 0.0;
    let mut base_reads = 0u32;
    for round in 0..40u64 {
        for id in 0..num_objects {
            if id >= 4 && round % 8 != 0 {
                continue;
            }
            base_latency += baseline.get(id, clock)?.latency;
            base_reads += 1;
            clock += 0.05;
        }
    }
    println!(
        "without a cache        : mean latency {:.1} ms",
        1000.0 * base_latency / base_reads as f64
    );
    println!(
        "functional caching cuts latency by {:.1} %",
        100.0 * (1.0 - (total_latency / reads as f64) / (base_latency / base_reads as f64))
    );
    Ok(())
}
