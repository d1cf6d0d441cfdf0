//! Explicit-SIMD GF(2^8) block kernels — the nibble-table shuffle.
//!
//! The classic trick (Plank et al., "Screaming Fast Galois Field Arithmetic
//! Using Intel SIMD Instructions", FAST'13; the kernel at the heart of
//! ISA-L and every modern Reed–Solomon library): a GF(2^8) product
//! `c * x` splits over the nibbles of `x`,
//!
//! ```text
//! c * x == lo[x & 0xF] ^ hi[x >> 4]
//! ```
//!
//! and both 16-entry tables fit exactly in one SIMD register, so a single
//! byte-shuffle instruction (`pshufb` / `vpshufb`) performs sixteen (SSSE3)
//! or thirty-two (AVX2) table lookups at once. The per-coefficient `lo`/`hi`
//! tables are the ones [`MulTable`] already carries for the
//! word kernel's tail, so this module adds no table state of its own.
//!
//! The functions here process only the SIMD-block-aligned *prefix* of a
//! slice and report how many bytes they handled; the caller
//! ([`kernel`](crate::kernel)) finishes the tail with the portable word
//! kernel. On hardware without SSSE3 — or when the `SPROUT_DISABLE_SIMD`
//! environment variable is set — the prefix is empty and the whole slice
//! takes the portable path, so [`Kernel::Simd`](crate::Kernel::Simd) is
//! always safe to select.
//!
//! This is the only module in the crate allowed to use `unsafe` (the crate
//! is otherwise `#![deny(unsafe_code)]`): the intrinsics require it, every
//! unsafe block is commented with its safety argument, and the differential
//! property tests in `tests/kernel_properties.rs` prove the results
//! byte-identical to the scalar reference.

use std::sync::OnceLock;

use crate::kernel::MulTable;

/// The SIMD instruction-set rung detected on the running CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// No usable SIMD: non-x86 target, a CPU without SSSE3, or detection
    /// disabled via `SPROUT_DISABLE_SIMD`.
    None,
    /// SSE + SSSE3 `pshufb`: 16 bytes per shuffle.
    Ssse3,
    /// AVX2 `vpshufb`: 32 bytes per shuffle.
    Avx2,
}

impl SimdLevel {
    /// Stable lower-case name (used in benchmark artifact metadata).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::None => "none",
            SimdLevel::Ssse3 => "ssse3",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `true` when `SPROUT_DISABLE_SIMD` asks for the portable fallback (any
/// value except empty, `0` or `false` disables SIMD).
fn disabled_by_env() -> bool {
    match std::env::var("SPROUT_DISABLE_SIMD") {
        Ok(v) => !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")),
        Err(_) => false,
    }
}

/// The SIMD level of the running CPU, detected once per process.
///
/// Honors `SPROUT_DISABLE_SIMD` (read at first call): when set, reports
/// [`SimdLevel::None`] so every kernel — including an explicitly selected
/// [`Kernel::Simd`](crate::Kernel::Simd) — runs the portable word path.
/// This is the hook CI's fallback leg uses to keep the portable path
/// covered on SIMD-capable runners.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if disabled_by_env() {
            return SimdLevel::None;
        }
        detect()
    })
}

/// Whether [`Kernel::Simd`](crate::Kernel::Simd) has real SIMD behind it on
/// this CPU (`simd_level() != SimdLevel::None`).
pub fn simd_available() -> bool {
    simd_level() != SimdLevel::None
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    if is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else if is_x86_feature_detected!("ssse3") {
        SimdLevel::Ssse3
    } else {
        SimdLevel::None
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdLevel {
    SimdLevel::None
}

/// Multiply–accumulate (`dst[i] ^= c * src[i]`) over the SIMD-block prefix
/// of the slices; returns the number of bytes processed (a multiple of the
/// detected block size, `0` when SIMD is unavailable).
///
/// # Panics
///
/// Debug-asserts equal slice lengths; the public wrappers in
/// [`kernel`](crate::kernel) enforce it.
#[allow(unsafe_code)] // dispatch to runtime-detected `#[target_feature]` fns
pub(crate) fn mul_acc_prefix(t: &MulTable, src: &[u8], dst: &mut [u8]) -> usize {
    debug_assert_eq!(src.len(), dst.len());
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            let done = src.len() & !31;
            if done > 0 {
                // SAFETY: AVX2 was detected at runtime, and the first `done`
                // bytes are in bounds of both slices.
                unsafe { x86::mul_acc_avx2(t, src.as_ptr(), dst.as_mut_ptr(), done) };
            }
            done
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Ssse3 => {
            let done = src.len() & !15;
            if done > 0 {
                // SAFETY: SSSE3 was detected at runtime, and the first `done`
                // bytes are in bounds of both slices.
                unsafe { x86::mul_acc_ssse3(t, src.as_ptr(), dst.as_mut_ptr(), done) };
            }
            done
        }
        _ => 0,
    }
}

/// Multiply–overwrite (`dst[i] = c * src[i]`) over the SIMD-block prefix;
/// returns the number of bytes processed. See [`mul_acc_prefix`].
#[allow(unsafe_code)] // dispatch to runtime-detected `#[target_feature]` fns
pub(crate) fn mul_prefix(t: &MulTable, src: &[u8], dst: &mut [u8]) -> usize {
    debug_assert_eq!(src.len(), dst.len());
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            let done = src.len() & !31;
            if done > 0 {
                // SAFETY: AVX2 was detected at runtime, and the first `done`
                // bytes are in bounds of both slices.
                unsafe { x86::mul_avx2(t, src.as_ptr(), dst.as_mut_ptr(), done) };
            }
            done
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Ssse3 => {
            let done = src.len() & !15;
            if done > 0 {
                // SAFETY: SSSE3 was detected at runtime, and the first `done`
                // bytes are in bounds of both slices.
                unsafe { x86::mul_ssse3(t, src.as_ptr(), dst.as_mut_ptr(), done) };
            }
            done
        }
        _ => 0,
    }
}

/// The x86-64 intrinsic bodies. Callers guarantee (a) the required CPU
/// feature was detected at runtime and (b) `len` bytes are readable from
/// `src` and writable at `dst`; `len` is a multiple of the block size.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::*;

    use crate::kernel::MulTable;

    /// `dst[0..len] ^= c * src[0..len]`, 16 bytes per `pshufb` pair.
    ///
    /// # Safety
    ///
    /// Requires SSSE3; `len` must be a multiple of 16 and in bounds of both
    /// buffers, which must not overlap.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_acc_ssse3(t: &MulTable, src: *const u8, dst: *mut u8, len: usize) {
        let lo = _mm_loadu_si128(t.lo.as_ptr().cast());
        let hi = _mm_loadu_si128(t.hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let mut off = 0;
        while off < len {
            let sp = src.add(off).cast::<__m128i>();
            let dp = dst.add(off).cast::<__m128i>();
            let s = _mm_loadu_si128(sp);
            let prod = _mm_xor_si128(
                _mm_shuffle_epi8(lo, _mm_and_si128(s, mask)),
                _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask)),
            );
            _mm_storeu_si128(dp, _mm_xor_si128(_mm_loadu_si128(dp), prod));
            off += 16;
        }
    }

    /// `dst[0..len] = c * src[0..len]`, 16 bytes per `pshufb` pair.
    ///
    /// # Safety
    ///
    /// As [`mul_acc_ssse3`].
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_ssse3(t: &MulTable, src: *const u8, dst: *mut u8, len: usize) {
        let lo = _mm_loadu_si128(t.lo.as_ptr().cast());
        let hi = _mm_loadu_si128(t.hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let mut off = 0;
        while off < len {
            let s = _mm_loadu_si128(src.add(off).cast());
            let prod = _mm_xor_si128(
                _mm_shuffle_epi8(lo, _mm_and_si128(s, mask)),
                _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask)),
            );
            _mm_storeu_si128(dst.add(off).cast(), prod);
            off += 16;
        }
    }

    /// `dst[0..len] ^= c * src[0..len]`, 32 bytes per `vpshufb` pair. The
    /// 16-entry nibble tables are broadcast to both 128-bit lanes, so the
    /// in-lane shuffle semantics of `vpshufb` look up the same table in each
    /// lane.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `len` must be a multiple of 32 and in bounds of both
    /// buffers, which must not overlap.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_acc_avx2(t: &MulTable, src: *const u8, dst: *mut u8, len: usize) {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let mut off = 0;
        while off < len {
            let sp = src.add(off).cast::<__m256i>();
            let dp = dst.add(off).cast::<__m256i>();
            let s = _mm256_loadu_si256(sp);
            let prod = _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask)),
                _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)),
            );
            _mm256_storeu_si256(dp, _mm256_xor_si256(_mm256_loadu_si256(dp), prod));
            off += 32;
        }
    }

    /// `dst[0..len] = c * src[0..len]`, 32 bytes per `vpshufb` pair.
    ///
    /// # Safety
    ///
    /// As [`mul_acc_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_avx2(t: &MulTable, src: *const u8, dst: *mut u8, len: usize) {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let mut off = 0;
        while off < len {
            let s = _mm256_loadu_si256(src.add(off).cast());
            let prod = _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask)),
                _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)),
            );
            _mm256_storeu_si256(dst.add(off).cast(), prod);
            off += 32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    #[test]
    fn level_is_stable_and_named() {
        let level = simd_level();
        assert_eq!(level, simd_level(), "detection must be cached");
        assert!(matches!(level.name(), "none" | "ssse3" | "avx2"));
        assert_eq!(simd_available(), level != SimdLevel::None);
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
    }

    #[test]
    fn prefix_is_block_aligned_and_in_bounds() {
        let t = MulTable::for_coeff(Gf256::new(0x8E));
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 64, 257] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 5) as u8).collect();
            let mut dst = vec![0u8; len];
            let done = mul_acc_prefix(t, &src, &mut dst);
            assert!(done <= len, "len={len}");
            assert!(done.is_multiple_of(16), "len={len} done={done}");
            // Bytes past the prefix are untouched.
            assert!(dst[done..].iter().all(|&b| b == 0), "len={len}");
            // The prefix matches the full table.
            for (i, &b) in dst[..done].iter().enumerate() {
                assert_eq!(b, t.full[src[i] as usize], "len={len} i={i}");
            }
            let mut over = vec![0xA5u8; len];
            let done = mul_prefix(t, &src, &mut over);
            for (i, &b) in over[..done].iter().enumerate() {
                assert_eq!(b, t.full[src[i] as usize], "overwrite len={len} i={i}");
            }
            assert!(over[done..].iter().all(|&b| b == 0xA5), "len={len}");
        }
    }
}
