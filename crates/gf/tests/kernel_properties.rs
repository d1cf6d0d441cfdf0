//! Differential property tests for the GF(2^8) slice kernels.
//!
//! Every fast kernel ([`Kernel::Word`], [`Kernel::Simd`]) must be
//! byte-identical to the scalar log/exp reference ([`Kernel::Scalar`]) on:
//!
//! * arbitrary coefficients, including the 0 and 1 fast-path cases;
//! * lengths 0..=257 — below, at, and just past the 8-byte word size, so
//!   both the word body and the scalar tail (and the all-tail case) run;
//! * unaligned buffers — kernels see subslices at every offset in 0..8, so
//!   word loads/stores never start at an 8-byte boundary;
//! * "aliased" data patterns — accumulating into a destination that already
//!   holds the source bytes, and chaining one kernel's output into the next
//!   call's source, where a missed read-modify-write would go unnoticed on
//!   zeroed buffers.

use proptest::prelude::*;
use sprout_gf::kernel::{mul_acc_slice, mul_slice, scale_slice};
use sprout_gf::{Gf256, Kernel};

fn gf() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256::new)
}

/// Source and destination buffers of the same random length in 0..=257.
fn buffer_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    proptest::collection::vec(any::<u8>(), 0..258).prop_flat_map(|src| {
        let len = src.len();
        (
            Just(src),
            proptest::collection::vec(any::<u8>(), len..len + 1),
        )
    })
}

const FAST_KERNELS: [Kernel; 2] = [Kernel::Word, Kernel::Simd];

proptest! {
    #[test]
    fn mul_acc_matches_scalar_reference(coeff in gf(), (src, dst) in buffer_pair()) {
        let mut want = dst.clone();
        mul_acc_slice(Kernel::Scalar, coeff, &src, &mut want);
        for kernel in FAST_KERNELS {
            let mut got = dst.clone();
            mul_acc_slice(kernel, coeff, &src, &mut got);
            prop_assert_eq!(&got, &want, "mul_acc {} coeff {}", kernel, coeff);
        }
    }

    #[test]
    fn mul_matches_scalar_reference(coeff in gf(), (src, dst) in buffer_pair()) {
        let mut want = dst.clone();
        mul_slice(Kernel::Scalar, coeff, &src, &mut want);
        for kernel in FAST_KERNELS {
            let mut got = dst.clone();
            mul_slice(kernel, coeff, &src, &mut got);
            prop_assert_eq!(&got, &want, "mul {} coeff {}", kernel, coeff);
        }
    }

    #[test]
    fn scale_matches_scalar_reference(coeff in gf(), buf in proptest::collection::vec(any::<u8>(), 0..258)) {
        let mut want = buf.clone();
        scale_slice(Kernel::Scalar, coeff, &mut want);
        for kernel in FAST_KERNELS {
            let mut got = buf.clone();
            scale_slice(kernel, coeff, &mut got);
            prop_assert_eq!(&got, &want, "scale {} coeff {}", kernel, coeff);
        }
    }

    #[test]
    fn unaligned_tails_match_scalar_reference(
        coeff in gf(),
        offset in 0usize..8,
        (src, dst) in buffer_pair(),
    ) {
        prop_assume!(src.len() >= offset);
        let mut want = dst.clone();
        mul_acc_slice(Kernel::Scalar, coeff, &src[offset..], &mut want[offset..]);
        for kernel in FAST_KERNELS {
            let mut got = dst.clone();
            mul_acc_slice(kernel, coeff, &src[offset..], &mut got[offset..]);
            prop_assert_eq!(&got, &want, "unaligned {} offset {}", kernel, offset);
            // Bytes before the offset must be untouched.
            prop_assert_eq!(&got[..offset], &dst[..offset]);
        }
    }

    #[test]
    fn accumulating_into_the_source_pattern(coeff in gf(), src in proptest::collection::vec(any::<u8>(), 0..258)) {
        // dst starts as a copy of src: dst ^= c*src must equal (c+1)*src.
        for kernel in FAST_KERNELS {
            let mut got = src.clone();
            mul_acc_slice(kernel, coeff, &src, &mut got);
            let mut want = src.clone();
            scale_slice(Kernel::Scalar, coeff + Gf256::ONE, &mut want);
            prop_assert_eq!(&got, &want, "aliased-content {}", kernel);
        }
    }

    #[test]
    fn chained_kernel_outputs_match(a in gf(), b in gf(), src in proptest::collection::vec(any::<u8>(), 0..258)) {
        // (b * (a * src)) must equal ((b*a) * src) for every kernel chain.
        let mut want = vec![0u8; src.len()];
        mul_slice(Kernel::Scalar, a * b, &src, &mut want);
        for kernel in FAST_KERNELS {
            let mut mid = vec![0u8; src.len()];
            mul_slice(kernel, a, &src, &mut mid);
            let mut got = vec![0u8; src.len()];
            mul_slice(kernel, b, &mid, &mut got);
            prop_assert_eq!(&got, &want, "chained {}", kernel);
        }
    }

    #[test]
    fn accumulation_is_linear_across_kernels(
        a in gf(),
        b in gf(),
        (src1, src2) in buffer_pair(),
    ) {
        // a*src1 ^ b*src2 computed by any kernel mix equals the scalar result.
        let mut want = vec![0u8; src1.len()];
        mul_acc_slice(Kernel::Scalar, a, &src1, &mut want);
        mul_acc_slice(Kernel::Scalar, b, &src2, &mut want);
        for k1 in FAST_KERNELS {
            for k2 in FAST_KERNELS {
                let mut got = vec![0u8; src1.len()];
                mul_acc_slice(k1, a, &src1, &mut got);
                mul_acc_slice(k2, b, &src2, &mut got);
                prop_assert_eq!(&got, &want, "mix {} then {}", k1, k2);
            }
        }
    }
}
