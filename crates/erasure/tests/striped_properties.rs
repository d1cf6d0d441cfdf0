//! Differential property tests for striped (multi-threaded) coding and for
//! `encode_rows_into` edge cases.
//!
//! The striped paths must be **byte-identical** to the single-pass paths —
//! which are themselves proven byte-identical to the scalar reference in
//! `coding_properties.rs` — for:
//!
//! * every kernel (scalar, word, simd);
//! * arbitrary file lengths, including 0, lengths below `k`, and lengths
//!   whose chunk length is not a multiple of the 8-byte word or 32-byte
//!   SIMD block;
//! * stripe lengths from 1 byte (every stripe is a kernel tail) up to
//!   larger than the chunk (striping degenerates to a single pass);
//! * any worker-thread count.

use proptest::prelude::*;
use sprout_erasure::{Chunk, CodeParams, FunctionalCacheCodec, Kernel, ReedSolomon, StripeOpts};

fn sample_file(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + 7) as u8).collect()
}

proptest! {
    #[test]
    fn encode_striped_is_byte_identical(
        len in 0usize..2048,
        stripe_len in 1usize..300,
        threads in 1usize..5,
        kernel_idx in 0usize..Kernel::ALL.len(),
    ) {
        let kernel = Kernel::ALL[kernel_idx];
        let rs = ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), kernel).unwrap();
        let file = sample_file(len);
        let want = rs.encode(&file).unwrap();
        let got = rs.encode_striped(&file, StripeOpts::new(stripe_len, threads)).unwrap();
        prop_assert_eq!(got, want, "kernel {} stripe {} threads {}", kernel, stripe_len, threads);
    }

    #[test]
    fn decode_striped_is_byte_identical(
        len in 0usize..2048,
        stripe_len in 1usize..300,
        threads in 1usize..5,
        skip in 0usize..4,
        kernel_idx in 0usize..Kernel::ALL.len(),
    ) {
        let kernel = Kernel::ALL[kernel_idx];
        let rs = ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), kernel).unwrap();
        let file = sample_file(len);
        let encoded = rs.encode(&file).unwrap();
        // A sliding 4-subset that includes parity rows, so real GF work runs.
        let subset: Vec<Chunk> = encoded.chunks().iter().skip(skip).take(4).cloned().collect();
        let want = rs.decode(&subset, len).unwrap();
        let opts = StripeOpts::new(stripe_len, threads);
        let got = rs.decode_striped(&subset, len, opts).unwrap();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&got, &file, "decode_striped must recover the file");
    }

    #[test]
    fn encode_rows_striped_into_matches_single_pass(
        chunk_len in 0usize..700,
        stripe_len in 1usize..130,
        threads in 1usize..5,
        kernel_idx in 0usize..Kernel::ALL.len(),
    ) {
        let kernel = Kernel::ALL[kernel_idx];
        let rs = ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), kernel).unwrap();
        let data: Vec<Vec<u8>> = (0..4)
            .map(|j| (0..chunk_len).map(|i| (i * 31 + j * 17 + 3) as u8).collect())
            .collect();
        let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let rows = vec![4usize, 6, 9];

        let mut want = vec![vec![0u8; chunk_len]; rows.len()];
        {
            let mut outs: Vec<&mut [u8]> = want.iter_mut().map(Vec::as_mut_slice).collect();
            rs.encode_rows_into(&data_refs, &rows, &mut outs);
        }
        // Dirty buffers: the striped variant must fully overwrite them.
        let mut got = vec![vec![0xEEu8; chunk_len]; rows.len()];
        {
            let mut outs: Vec<&mut [u8]> = got.iter_mut().map(Vec::as_mut_slice).collect();
            rs.encode_rows_striped_into(&data_refs, &rows, &mut outs, StripeOpts::new(stripe_len, threads));
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn auto_striping_is_invisible_in_the_bytes(
        len in 0usize..4096,
        stripe_len in 1usize..600,
    ) {
        // A codec with automatic striping enabled must produce exactly the
        // bytes of one without, end to end (encode -> cache -> decode).
        let params = CodeParams::new(7, 4).unwrap();
        let plain = FunctionalCacheCodec::new(params).unwrap();
        let striped = FunctionalCacheCodec::new(params)
            .unwrap()
            .with_striping(Some(StripeOpts::new(stripe_len, 4)));
        let file = sample_file(len);
        let want = plain.encode(&file).unwrap();
        let got = striped.encode(&file).unwrap();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(
            striped.cache_chunks(&file, 2).unwrap(),
            plain.cache_chunks(&file, 2).unwrap()
        );
        let subset: Vec<Chunk> = got.chunks().iter().skip(3).take(4).cloned().collect();
        prop_assert_eq!(
            striped.decode(&subset, len).unwrap(),
            plain.decode(&subset, len).unwrap()
        );
    }
}

/// Satellite: `encode_rows_into` edge cases on every kernel — zero-length
/// objects, objects smaller than `k`, and deliberately unaligned chunk
/// lengths (neither 8-byte word nor 16/32-byte SIMD multiples).
#[test]
fn encode_rows_into_edge_cases_on_every_kernel() {
    // Chunk lengths straddling the word (8) and SIMD block (16/32) sizes.
    let edge_chunk_lens = [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 65];
    for kernel in Kernel::ALL {
        let rs = ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), kernel).unwrap();
        let reference =
            ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), Kernel::Scalar).unwrap();
        for &chunk_len in &edge_chunk_lens {
            let data: Vec<Vec<u8>> = (0..4)
                .map(|j| {
                    (0..chunk_len)
                        .map(|i| (i * 37 + j * 11 + 5) as u8)
                        .collect()
                })
                .collect();
            let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let rows: Vec<usize> = vec![0, 4, 5, 6, 8, 10];
            let mut want = vec![vec![0u8; chunk_len]; rows.len()];
            {
                let mut outs: Vec<&mut [u8]> = want.iter_mut().map(Vec::as_mut_slice).collect();
                reference.encode_rows_into(&data_refs, &rows, &mut outs);
            }
            let mut got = vec![vec![0xA5u8; chunk_len]; rows.len()];
            {
                let mut outs: Vec<&mut [u8]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                rs.encode_rows_into(&data_refs, &rows, &mut outs);
            }
            assert_eq!(got, want, "kernel {kernel} chunk_len {chunk_len}");
        }
    }
}

/// Satellite: whole-file encode of zero-length and smaller-than-`k` objects
/// on every kernel, striped and not.
#[test]
fn tiny_objects_round_trip_on_every_kernel() {
    for kernel in Kernel::ALL {
        let rs = ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), kernel).unwrap();
        // len < k means chunk_len 1 with padding; len 0 means empty chunks.
        for len in [0usize, 1, 2, 3] {
            let file = sample_file(len);
            for encoded in [
                rs.encode(&file).unwrap(),
                rs.encode_striped(&file, StripeOpts::new(3, 4)).unwrap(),
            ] {
                assert_eq!(encoded.original_len(), len, "kernel {kernel} len {len}");
                let subset: Vec<Chunk> = encoded.chunks()[3..7].to_vec();
                assert_eq!(rs.decode(&subset, len).unwrap(), file);
                assert_eq!(
                    rs.decode_striped(&subset, len, StripeOpts::new(2, 3))
                        .unwrap(),
                    file
                );
            }
        }
    }
}

/// Striped decode must hit the same decode-matrix memo as the single-pass
/// path (one miss, then hits — the elimination is never re-run per stripe).
#[test]
fn striped_decode_shares_the_matrix_memo() {
    let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
    let file = sample_file(4096);
    let encoded = rs.encode(&file).unwrap();
    let subset: Vec<Chunk> = encoded.chunks()[2..6].to_vec();
    let opts = StripeOpts::new(256, 4);
    for _ in 0..3 {
        assert_eq!(rs.decode_striped(&subset, file.len(), opts).unwrap(), file);
    }
    let (hits, misses) = rs.decode_memo_stats();
    assert_eq!((hits, misses), (2, 1));
}
