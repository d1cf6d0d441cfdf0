//! Word-parallel GF(2^8) slice kernels.
//!
//! Reed–Solomon encoding, decoding and functional cache-chunk construction
//! all reduce to two slice primitives over a fixed coefficient `c`:
//!
//! * `dst[i] ^= c * src[i]` — multiply–accumulate ([`mul_acc_slice`]);
//! * `dst[i]  = c * src[i]` — multiply–overwrite ([`mul_slice`]).
//!
//! The seed implementation walked both slices a byte at a time through the
//! log/exp tables with a per-byte zero branch. This module layers three
//! interchangeable kernels behind the [`Kernel`] enum so the fast paths can
//! be differentially tested against the original loop:
//!
//! * [`Kernel::Scalar`] — the original byte-at-a-time log/exp loop, kept
//!   verbatim as the reference implementation.
//! * [`Kernel::Word`] — the portable default: 8 bytes per step through
//!   `u64` words using the bit-sliced broadcast technique (the scalar-safe
//!   analogue of the SIMD kernels in Jerasure/ISA-L), with a table-driven
//!   scalar tail. The inner loop is branch-free straight-line integer code,
//!   which LLVM auto-vectorizes on any target with SIMD (see
//!   `.cargo/config.toml`).
//! * [`Kernel::Simd`] — explicit SSSE3/AVX2 nibble-table shuffles
//!   ([`crate::simd`]): 16 or 32 bytes per `pshufb`/`vpshufb` step, detected
//!   at runtime, with the word kernel as tail and as the fallback on
//!   hardware without SSSE3. [`Kernel::auto`] picks this rung when it is
//!   available.
//!
//! Per-coefficient tables are built lazily, once per process, and shared by
//! every caller ([`MulTable::for_coeff`]), so an encode that reuses the same
//! generator row across a whole stripe pays the table cost exactly once.

use std::sync::OnceLock;

use crate::field::{scalar_mul_acc, scalar_scale, Gf256};
use crate::simd;

/// Byte with the low bit of every lane set — the bit-slice extraction mask.
const LSB: u64 = 0x0101_0101_0101_0101;

/// Precomputed multiplication tables for one fixed coefficient `c`.
///
/// All four views are generated from the same products and are kept together
/// so a kernel can mix granularities (words for the body, nibbles or bytes
/// for the tail) without touching the log/exp tables:
///
/// * [`full`](Self::full) — `full[x] = c * x` for every byte `x`;
/// * [`lo`](Self::lo)/[`hi`](Self::hi) — split low/high-nibble products
///   (`c * x == lo[x & 0xF] ^ hi[x >> 4]`), the layout byte-shuffle SIMD
///   kernels consume;
/// * [`words`](Self::words) — `words[b] = c * 2^b` broadcast to all eight
///   lanes of a `u64`, consumed by the bit-sliced word kernel.
#[derive(Debug)]
pub struct MulTable {
    /// `full[x] = c * x`.
    pub full: [u8; 256],
    /// Products of `c` with the 16 low-nibble values.
    pub lo: [u8; 16],
    /// Products of `c` with the 16 high-nibble values (`x << 4`).
    pub hi: [u8; 16],
    /// `c * 2^b` replicated into every byte lane, for bit `b` of a source byte.
    pub words: [u64; 8],
}

impl MulTable {
    fn build(coeff: Gf256) -> MulTable {
        let mut full = [0u8; 256];
        for (x, slot) in full.iter_mut().enumerate() {
            *slot = (coeff * Gf256::new(x as u8)).value();
        }
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for x in 0..16 {
            lo[x] = full[x];
            hi[x] = full[x << 4];
        }
        let mut words = [0u64; 8];
        for (b, word) in words.iter_mut().enumerate() {
            *word = u64::from(full[1 << b]).wrapping_mul(LSB);
        }
        MulTable {
            full,
            lo,
            hi,
            words,
        }
    }

    /// The process-wide table for `coeff`, built on first use.
    ///
    /// Tables are cached per coefficient (at most 256 × ~350 bytes), so
    /// repeated stripe operations with the same generator coefficients reuse
    /// them for free.
    pub fn for_coeff(coeff: Gf256) -> &'static MulTable {
        static TABLES: [OnceLock<MulTable>; 256] = [const { OnceLock::new() }; 256];
        TABLES[coeff.value() as usize].get_or_init(|| MulTable::build(coeff))
    }
}

/// Selects one of the slice-kernel implementations.
///
/// All kernels produce byte-identical results (enforced by the differential
/// property tests in `tests/kernel_properties.rs`); they differ only in
/// throughput. [`Kernel::default`] is the fastest portable kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// Byte-at-a-time log/exp loop with a per-byte zero branch — the seed
    /// implementation, kept as the reference for differential testing.
    Scalar,
    /// Bit-sliced `u64` kernel: 8 bytes per step, table-driven tail.
    ///
    /// The portable default: correct and fast on every target. Prefer
    /// [`Kernel::auto`] when the caller can tolerate runtime CPU detection.
    #[default]
    Word,
    /// Explicit-SIMD nibble-table shuffle (SSSE3 `pshufb`, widened to AVX2
    /// `vpshufb` when available): 16 or 32 bytes per step, word-kernel tail.
    ///
    /// Selected instructions are detected at runtime
    /// ([`simd::simd_level`]); on hardware without
    /// SSSE3 — or with `SPROUT_DISABLE_SIMD` set — this rung transparently
    /// runs the [`Kernel::Word`] path, so it is always safe to pick.
    Simd,
}

impl Kernel {
    /// Every kernel, in reference-first order (useful for differential tests
    /// and benchmarks).
    pub const ALL: [Kernel; 3] = [Kernel::Scalar, Kernel::Word, Kernel::Simd];

    /// Stable lower-case name (used in benchmark ids and JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Word => "word",
            Kernel::Simd => "simd",
        }
    }

    /// The best rung for the running CPU: [`Kernel::Simd`] when SSSE3/AVX2
    /// is detected (and not disabled via `SPROUT_DISABLE_SIMD`), otherwise
    /// the portable [`Kernel::Word`].
    pub fn auto() -> Kernel {
        if simd::simd_available() {
            Kernel::Simd
        } else {
            Kernel::Word
        }
    }

    /// Parses a kernel name as emitted by [`Kernel::name`]; `"auto"` maps to
    /// [`Kernel::auto`]. Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Kernel> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Kernel::Scalar),
            "word" => Some(Kernel::Word),
            "simd" => Some(Kernel::Simd),
            "auto" => Some(Kernel::auto()),
            _ => None,
        }
    }

    /// Reads the `SPROUT_KERNEL` environment variable (the bench-bin
    /// override): `Ok(None)` when unset or empty, `Ok(Some(_))` for a valid
    /// kernel name, and the offending value as `Err` otherwise.
    ///
    /// # Errors
    ///
    /// Returns the unparseable variable value so callers can report it.
    pub fn from_env() -> Result<Option<Kernel>, String> {
        match std::env::var("SPROUT_KERNEL") {
            Ok(v) if v.trim().is_empty() => Ok(None),
            Ok(v) => Kernel::from_name(&v).map(Some).ok_or(v),
            Err(_) => Ok(None),
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Multiply–accumulate: `dst[i] ^= coeff * src[i]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_acc_slice(kernel: Kernel, coeff: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(
        src.len(),
        dst.len(),
        "mul_acc_slice requires equal-length slices"
    );
    if coeff.is_zero() {
        return;
    }
    if coeff == Gf256::ONE {
        xor_slice(src, dst);
        return;
    }
    match kernel {
        Kernel::Scalar => scalar_mul_acc(coeff, src, dst),
        Kernel::Word => word_mul_acc(MulTable::for_coeff(coeff), src, dst),
        Kernel::Simd => {
            let t = MulTable::for_coeff(coeff);
            // The SIMD prefix covers whole 16/32-byte blocks (none when the
            // CPU lacks SSSE3); the word kernel finishes the tail.
            let done = simd::mul_acc_prefix(t, src, dst);
            word_mul_acc(t, &src[done..], &mut dst[done..]);
        }
    }
}

/// Multiply–overwrite: `dst[i] = coeff * src[i]`.
///
/// The overwrite variant lets encode paths skip reading freshly zeroed
/// output buffers for the first source of a row.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_slice(kernel: Kernel, coeff: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(
        src.len(),
        dst.len(),
        "mul_slice requires equal-length slices"
    );
    if coeff.is_zero() {
        dst.fill(0);
        return;
    }
    if coeff == Gf256::ONE {
        dst.copy_from_slice(src);
        return;
    }
    match kernel {
        Kernel::Scalar => {
            dst.fill(0);
            scalar_mul_acc(coeff, src, dst);
        }
        Kernel::Word => word_mul(MulTable::for_coeff(coeff), src, dst),
        Kernel::Simd => {
            let t = MulTable::for_coeff(coeff);
            let done = simd::mul_prefix(t, src, dst);
            word_mul(t, &src[done..], &mut dst[done..]);
        }
    }
}

/// In-place scale: `buf[i] = coeff * buf[i]`.
pub fn scale_slice(kernel: Kernel, coeff: Gf256, buf: &mut [u8]) {
    if coeff == Gf256::ONE {
        return;
    }
    if coeff.is_zero() {
        buf.fill(0);
        return;
    }
    match kernel {
        Kernel::Scalar => scalar_scale(coeff, buf),
        // Scaling runs on matrix rows (k × k elements), never on bulk chunk
        // data, so a byte loop through the product table is plenty for every
        // fast rung.
        Kernel::Word | Kernel::Simd => {
            let t = MulTable::for_coeff(coeff);
            for b in buf.iter_mut() {
                *b = t.full[*b as usize];
            }
        }
    }
}

/// `dst ^= src`, eight bytes per step (the `coeff == 1` fast path shared by
/// every kernel).
fn xor_slice(src: &[u8], dst: &mut [u8]) {
    let mut s = src.chunks_exact(8);
    let mut d = dst.chunks_exact_mut(8);
    for (s8, d8) in (&mut s).zip(&mut d) {
        let w = load_u64(s8) ^ load_u64(d8);
        d8.copy_from_slice(&w.to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

#[inline(always)]
fn load_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("chunks_exact(8) yields 8 bytes"))
}

/// Multiplies all eight byte lanes of `w` by the table's coefficient.
///
/// Bit-sliced broadcast: bit `b` of source byte `x` contributes `c * 2^b`
/// to the product `c * x`. `(w >> b) & LSB` isolates bit `b` of every lane,
/// `* 0xFF` widens each 0/1 to a 0x00/0xFF mask, and the precomputed
/// broadcast word `t.words[b]` is accumulated under that mask. The loop body
/// is eight iterations of branch-free integer ops — exactly the shape LLVM's
/// auto-vectorizer turns into SIMD when the target has it.
#[inline(always)]
fn mul_word(t: &MulTable, w: u64) -> u64 {
    let mut acc = 0u64;
    let mut b = 0;
    while b < 8 {
        let mask = ((w >> b) & LSB).wrapping_mul(0xFF);
        acc ^= t.words[b] & mask;
        b += 1;
    }
    acc
}

fn word_mul_acc(t: &MulTable, src: &[u8], dst: &mut [u8]) {
    let mut s = src.chunks_exact(8);
    let mut d = dst.chunks_exact_mut(8);
    for (s8, d8) in (&mut s).zip(&mut d) {
        let w = load_u64(d8) ^ mul_word(t, load_u64(s8));
        d8.copy_from_slice(&w.to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= t.lo[(sb & 0xF) as usize] ^ t.hi[(sb >> 4) as usize];
    }
}

fn word_mul(t: &MulTable, src: &[u8], dst: &mut [u8]) {
    let mut s = src.chunks_exact(8);
    let mut d = dst.chunks_exact_mut(8);
    for (s8, d8) in (&mut s).zip(&mut d) {
        let w = mul_word(t, load_u64(s8));
        d8.copy_from_slice(&w.to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db = t.lo[(sb & 0xF) as usize] ^ t.hi[(sb >> 4) as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_table_views_agree() {
        for c in [0u8, 1, 2, 0x1D, 0x8E, 0xFF] {
            let coeff = Gf256::new(c);
            let t = MulTable::for_coeff(coeff);
            for x in 0..=255u8 {
                let want = (coeff * Gf256::new(x)).value();
                assert_eq!(t.full[x as usize], want, "full, c={c} x={x}");
                assert_eq!(
                    t.lo[(x & 0xF) as usize] ^ t.hi[(x >> 4) as usize],
                    want,
                    "nibbles, c={c} x={x}"
                );
            }
            for (b, &word) in t.words.iter().enumerate() {
                let prod = u64::from((coeff * Gf256::new(1 << b)).value());
                assert_eq!(word, prod.wrapping_mul(LSB), "words, c={c} b={b}");
            }
        }
    }

    #[test]
    fn for_coeff_returns_the_same_table() {
        let a = MulTable::for_coeff(Gf256::new(7)) as *const MulTable;
        let b = MulTable::for_coeff(Gf256::new(7)) as *const MulTable;
        assert_eq!(a, b, "tables must be cached per coefficient");
    }

    #[test]
    fn kernels_match_on_a_fixed_vector() {
        let src: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        for c in [0u8, 1, 2, 0x53, 0xCA, 0xFF] {
            let coeff = Gf256::new(c);
            let mut want = vec![0x5Au8; src.len()];
            mul_acc_slice(Kernel::Scalar, coeff, &src, &mut want);
            for kernel in [Kernel::Word, Kernel::Simd] {
                let mut got = vec![0x5Au8; src.len()];
                mul_acc_slice(kernel, coeff, &src, &mut got);
                assert_eq!(got, want, "mul_acc {kernel} c={c}");

                let mut got = vec![0xA5u8; src.len()];
                let mut wantm = vec![0x11u8; src.len()];
                mul_slice(Kernel::Scalar, coeff, &src, &mut wantm);
                mul_slice(kernel, coeff, &src, &mut got);
                assert_eq!(got, wantm, "mul {kernel} c={c}");

                let mut got = src.clone();
                let mut wants = src.clone();
                scale_slice(Kernel::Scalar, coeff, &mut wants);
                scale_slice(kernel, coeff, &mut got);
                assert_eq!(got, wants, "scale {kernel} c={c}");
            }
        }
    }

    #[test]
    fn kernel_names_and_display() {
        assert_eq!(Kernel::default(), Kernel::Word);
        assert_eq!(Kernel::ALL.len(), 3);
        assert_eq!(Kernel::ALL[0], Kernel::Scalar);
        assert_eq!(Kernel::Scalar.name(), "scalar");
        assert_eq!(Kernel::from_name("table"), None, "the table rung is gone");
        assert_eq!(Kernel::Word.to_string(), "word");
        assert_eq!(Kernel::Simd.to_string(), "simd");
    }

    #[test]
    fn auto_picks_simd_exactly_when_available() {
        let auto = Kernel::auto();
        if crate::simd::simd_available() {
            assert_eq!(auto, Kernel::Simd);
        } else {
            assert_eq!(auto, Kernel::Word);
        }
    }

    #[test]
    fn from_name_round_trips_and_rejects_unknown() {
        for kernel in Kernel::ALL {
            assert_eq!(Kernel::from_name(kernel.name()), Some(kernel));
        }
        assert_eq!(Kernel::from_name(" SIMD "), Some(Kernel::Simd));
        assert_eq!(Kernel::from_name("auto"), Some(Kernel::auto()));
        assert_eq!(Kernel::from_name("avx512"), None);
        assert_eq!(Kernel::from_name(""), None);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mul_slice_length_mismatch_panics() {
        let mut dst = [0u8; 2];
        mul_slice(Kernel::Word, Gf256::ONE, &[1, 2, 3], &mut dst);
    }
}
