//! The SHA-256 compression function on the x86 SHA extensions.
//!
//! `sha256rnds2` runs two rounds per instruction and `sha256msg1` /
//! `sha256msg2` extend the message schedule four words at a time. The
//! working state lives in two registers in the order the instructions
//! want it, `ABEF` and `CDGH` (first-named word in the top lane), and
//! is converted from and back to the `[a, b, c, d, e, f, g, h]` array
//! once per call, not once per block.
//!
//! This is the only module of the crate that may use `unsafe`: one
//! block calls the `#[target_feature]` kernel after the run-time check
//! in [`compress`], and the others load and store through pointers
//! whose bounds are stated next to them.

#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// Compresses `blocks`, a whole number of 64-byte blocks, into `state`
/// with the SHA-NI kernel and returns `true`; returns `false` without
/// touching `state` when the CPU lacks the extensions the kernel needs.
pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3"))
    {
        return false;
    }
    // SAFETY: the check above has just confirmed that this CPU supports
    // sha, sse4.1 and ssse3; sse2, the last feature `compress_blocks`
    // enables, is part of the x86_64 baseline.
    unsafe { compress_blocks(state, blocks) };
    true
}

/// The SHA-NI kernel.
///
/// # Safety
///
/// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1` target
/// features.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    // Byte-swaps each 32-bit lane: the message words are big-endian.
    let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is 32 bytes long, so the loads of words 0..4 and
    // 4..8 read 16 bytes each within it; `loadu` has no alignment need.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr().cast::<__m128i>()),
            _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>()),
        )
    };
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    // Four rounds on the schedule words in `$w` with the constants
    // `K[4i..4i + 4]` (`K[4i]` in the lowest lane), two per instruction.
    macro_rules! rounds {
        ($i:expr, $w:expr) => {{
            let k = _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            );
            let wk = _mm_add_epi32($w, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }
    // The next four schedule words, from the sixteen before them in
    // `$w0` (oldest) to `$w3`; they replace `$w0`.
    macro_rules! schedule {
        ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
            $w0 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            );
        };
    }

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `block` is 64 bytes long, so the four 16-byte loads at
        // offsets 0, 16, 32 and 48 stay within it; `loadu` has no
        // alignment need.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            [
                _mm_shuffle_epi8(_mm_loadu_si128(p), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), swap),
            ]
        };
        rounds!(0, w0);
        rounds!(1, w1);
        rounds!(2, w2);
        rounds!(3, w3);
        // Twelve more groups, unrolled so the four schedule registers
        // stay in registers.
        for i in [4, 8, 12] {
            schedule!(w0, w1, w2, w3);
            rounds!(i, w0);
            schedule!(w1, w2, w3, w0);
            rounds!(i + 1, w1);
            schedule!(w2, w3, w0, w1);
            rounds!(i + 2, w2);
            schedule!(w3, w0, w1, w2);
            rounds!(i + 3, w3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: as for the loads above, both 16-byte stores stay within
    // the 32 bytes of `state`.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast::<__m128i>(), hgef);
    }
}
