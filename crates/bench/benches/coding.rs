//! Criterion micro-benchmarks for the coding layer: Reed–Solomon encoding,
//! decoding from mixed cache/storage chunk sets, and functional cache-chunk
//! construction (the per-request computational overhead the paper calls
//! "very minimal").
//!
//! Every group runs once per slice kernel (`scalar` is the seed's log/exp
//! reference; `word` and `simd` are the fast rungs), so the ids
//! read `rs_encode_7_4/word/1048576` and kernel-vs-kernel speedups can be
//! read straight off one run. A striped-encode group benches the
//! multi-threaded path at 1/2/4 workers. `cargo run -p sprout-bench --bin
//! bench_coding` produces the same measurements as machine-readable
//! `BENCH_coding.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sprout::erasure::{Chunk, CodeParams, FunctionalCacheCodec, Kernel, StripeOpts};
use sprout::gf::{kernel, Gf256};

const SIZES: [usize; 2] = [64 * 1024, 1024 * 1024];

fn codec_with(kernel: Kernel) -> FunctionalCacheCodec {
    FunctionalCacheCodec::with_kernel(CodeParams::new(7, 4).unwrap(), kernel).unwrap()
}

/// Raw slice-kernel throughput: one multiply–accumulate pass.
fn mul_acc_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf_mul_acc");
    for &size in &SIZES {
        let src: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
        let mut dst = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        for k in Kernel::ALL {
            group.bench_with_input(BenchmarkId::new(k.name(), size), &src, |b, src| {
                b.iter(|| kernel::mul_acc_slice(k, Gf256::new(0x8E), src, &mut dst));
            });
        }
    }
    group.finish();
}

fn coding_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_encode_7_4");
    for &size in &SIZES {
        let data: Vec<u8> = (0..size).map(|i| i as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        for k in Kernel::ALL {
            let codec = codec_with(k);
            group.bench_with_input(BenchmarkId::new(k.name(), size), &data, |b, data| {
                b.iter(|| codec.encode(data).unwrap());
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("functional_cache_chunks_7_4_d2");
    for &size in &SIZES {
        let data: Vec<u8> = (0..size).map(|i| (i * 7) as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        for k in Kernel::ALL {
            let codec = codec_with(k);
            group.bench_with_input(BenchmarkId::new(k.name(), size), &data, |b, data| {
                b.iter(|| codec.cache_chunks(data, 2).unwrap());
            });
        }
    }
    group.finish();

    // Striped multi-threaded encoding, auto kernel: 8 MiB objects split into
    // 64 KiB stripes (32 per chunk), so worker count is the variable.
    let mut group = c.benchmark_group("rs_encode_striped_7_4_8mib");
    let size = 8 * 1024 * 1024;
    let data: Vec<u8> = (0..size).map(|i| (i * 11 + 5) as u8).collect();
    group.throughput(Throughput::Bytes(size as u64));
    for workers in [1usize, 2, 4] {
        let codec = codec_with(Kernel::auto());
        let opts = StripeOpts::new(64 * 1024, workers);
        group.bench_with_input(BenchmarkId::new("workers", workers), &data, |b, data| {
            b.iter(|| codec.encode_striped(data, opts).unwrap());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("decode_from_cache_plus_storage");
    for &size in &SIZES {
        let data: Vec<u8> = (0..size).map(|i| (i * 13) as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        for k in Kernel::ALL {
            let codec = codec_with(k);
            let stored = codec.encode(&data).unwrap();
            let cached = codec.cache_chunks(&data, 2).unwrap();
            let mut have: Vec<Chunk> = cached;
            have.push(stored.chunks()[5].clone());
            have.push(stored.chunks()[6].clone());
            group.bench_with_input(BenchmarkId::new(k.name(), size), &have, |b, have| {
                b.iter(|| codec.decode(have, size).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = mul_acc_benches, coding_benches
}
criterion_main!(benches);
