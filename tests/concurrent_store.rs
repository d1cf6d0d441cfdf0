//! Hammer the lock-sharded [`StoreHandle`] from many threads at once —
//! mixed puts, decoding gets, tier promotions and evictions, with the main
//! thread swapping the functional-cache plan (`set_cached_chunks`) in the
//! middle of the storm.
//!
//! Contracts under fire:
//!
//! * every `get` reconstructs the exact bytes that were written, whatever
//!   the cache plan looked like at the instant it ran;
//! * the cache tier's counters balance exactly against the operations the
//!   threads performed: one hit-or-miss per get, one promotion per
//!   `promote_object`, one eviction per successful `evict_cached`;
//! * thread-private objects written mid-storm read back verbatim;
//! * a plan swap racing a put of the same object never leaves chunks of the
//!   replaced version in the cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprout::backend::synthetic_payload;
use sprout::cluster::{CachePolicy, ClusterConfig, StoreHandle};

const NODES: usize = 12;
const CODE_N: usize = 7;
const CODE_K: usize = 4;
const SHARED_OBJECTS: u64 = 24;
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 240;
/// Thread-private object ids start here, one block per thread, so puts
/// never race gets for the same id with different bytes.
const PRIVATE_BASE: u64 = 10_000;

fn payload(object: u64) -> Vec<u8> {
    // Sizes straddle the stripe boundary and include odd (padded) lengths.
    let len = 6_000 + (object as usize % 7) * 2_345;
    synthetic_payload(object as usize, len, 41)
}

fn build_store() -> StoreHandle {
    let config = ClusterConfig::builder()
        .nodes(NODES)
        .code(CODE_N, CODE_K)
        .cache_policy(CachePolicy::Functional)
        .cache_capacity_bytes(64 * 1024 * 1024)
        .seed(77)
        .build();
    let store = StoreHandle::new(config).expect("store builds");
    for object in 0..SHARED_OBJECTS {
        store.put(object, &payload(object)).expect("preload put");
    }
    store
}

#[test]
fn a_thread_storm_with_live_plan_swaps_keeps_every_invariant() {
    let store = build_store();
    let gets = Arc::new(AtomicU64::new(0));
    let promotes = Arc::new(AtomicU64::new(0));
    let evictions = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            let gets = Arc::clone(&gets);
            let promotes = Arc::clone(&promotes);
            let evictions = Arc::clone(&evictions);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xABCD ^ t as u64);
                let mut next_private = PRIVATE_BASE + 1_000 * t as u64;
                for op in 0..OPS_PER_THREAD {
                    let object = rng.gen_range(0..SHARED_OBJECTS);
                    match rng.gen_range(0..10) {
                        // Decoding reads dominate; every one must verify.
                        0..=5 => {
                            let outcome = store
                                .get(object, op as f64)
                                .expect("shared objects stay readable");
                            gets.fetch_add(1, Ordering::Relaxed);
                            assert_eq!(
                                outcome.data,
                                payload(object),
                                "get({object}) must decode the written bytes"
                            );
                        }
                        // Whole-object promotion into the tier.
                        6 => {
                            store.promote_object(object).expect("promote decodes");
                            promotes.fetch_add(1, Ordering::Relaxed);
                        }
                        // Eviction, counted only when the object was resident.
                        7 => {
                            if store.evict_cached(object) {
                                evictions.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // Private put + immediate read-back.
                        _ => {
                            let id = next_private;
                            next_private += 1;
                            store.put(id, &payload(id)).expect("private put");
                            let outcome =
                                store.get(id, op as f64).expect("private object readable");
                            gets.fetch_add(1, Ordering::Relaxed);
                            assert_eq!(outcome.data, payload(id), "private read-back");
                        }
                    }
                }
            });
        }

        // Meanwhile: sweep the functional-cache plan across the shared
        // objects, twice, while the storm is running — exactly what a
        // mid-run re-optimization does to a live store.
        for sweep in 0..2u64 {
            for object in 0..SHARED_OBJECTS {
                let d = ((object + sweep) % ((CODE_N - CODE_K) as u64 + 1)) as usize;
                store
                    .set_cached_chunks(object, d)
                    .expect("plan swap applies under load");
            }
        }
    });

    // Cache counters balance exactly against what the threads did.
    let stats = store.cache_stats();
    let gets = gets.load(Ordering::Relaxed);
    let promotes = promotes.load(Ordering::Relaxed);
    let evictions = evictions.load(Ordering::Relaxed);
    assert!(gets > 0 && promotes > 0 && evictions > 0, "storm mix ran");
    assert_eq!(
        stats.hits + stats.misses,
        gets,
        "exactly one cache lookup per get"
    );
    assert_eq!(stats.promotions, promotes, "one promotion per promote call");
    assert_eq!(
        stats.evictions, evictions,
        "one eviction per successful evict call"
    );

    // After the dust settles every shared object still decodes verbatim.
    for object in 0..SHARED_OBJECTS {
        let outcome = store.get(object, 1e6).expect("still readable");
        assert_eq!(outcome.data, payload(object), "post-storm verify");
    }
}

#[test]
fn clones_hammering_disjoint_objects_never_interfere() {
    let store = build_store();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..40u64 {
                    let id = PRIVATE_BASE + 100 * t + i;
                    store.put(id, &payload(id)).expect("put");
                    assert_eq!(store.get(id, i as f64).expect("get").data, payload(id));
                    store.delete(id);
                    assert!(store.object_placement(id).is_none(), "deleted for good");
                }
            });
        }
    });
    assert_eq!(
        store.num_objects(),
        SHARED_OBJECTS as usize,
        "only the preloaded objects remain"
    );
}

/// `set_cached_chunks` rebuilds cache chunks from the chunks on the nodes.
/// If a put of the same object lands between that rebuild and the install,
/// the cache holds chunks of the old version; with `d = k` every later get
/// decodes from the cache alone and returns the old bytes. The store rules
/// this out by holding the object's metadata-stripe lock across the rebuild
/// and dropping the cache entry inside the put's write lock; this test
/// races the two calls round after round and reads back the winner.
#[test]
fn a_plan_swap_racing_a_put_never_caches_the_old_version() {
    const ROUNDS: u64 = 2_000;
    const OBJECT_BYTES: usize = 64 * 1024;
    let config = ClusterConfig::builder()
        .nodes(NODES)
        .code(CODE_N, CODE_K)
        .cache_policy(CachePolicy::Functional)
        .cache_capacity_bytes(64 * 1024 * 1024)
        .seed(78)
        .build();
    let store = StoreHandle::new(config).expect("store builds");
    let bases = [
        synthetic_payload(0, OBJECT_BYTES, 5),
        synthetic_payload(1, OBJECT_BYTES, 5),
    ];
    // Version i: one of two base payloads, stamped with the round number so
    // consecutive versions always differ.
    let version = |i: u64| {
        let mut v = bases[(i % 2) as usize].clone();
        v[..8].copy_from_slice(&i.to_le_bytes());
        v
    };
    store.put(1, &version(0)).expect("initial put");
    let mut stale = 0u64;
    for i in 1..=ROUNDS {
        let data = version(i);
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                store.put(1, &data).expect("put");
            });
            scope.spawn(|| {
                start.wait();
                store.set_cached_chunks(1, CODE_K).expect("plan swap");
            });
        });
        if store.get(1, i as f64).expect("get").data != data {
            stale += 1;
        }
    }
    assert_eq!(
        stale, 0,
        "{stale} of {ROUNDS} gets returned a replaced version"
    );
}
