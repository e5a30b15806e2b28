//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! The simulator uses real digests so that object corruption — the
//! trigger for the paper's Side Effects 6 and 7 — is detected with
//! production fidelity: flip any bit of a published ROA and the relying
//! party's manifest/hash check fails, exactly as in a deployment.
//!
//! Two compression kernels sit behind one [`Sha256`]: the portable
//! 64-round scalar function from the specification, and on x86_64 CPUs
//! with the SHA extensions a hardware kernel (`sha256rnds2`,
//! `sha256msg1`/`msg2`) about seven times faster on long messages. The choice is made at
//! run time, once per [`Sha256::update`] over its whole run of full
//! blocks; the scalar kernel is the only path everywhere else and the
//! reference the tests hold the hardware kernel to. Both produce the
//! same digests bit for bit, and unit tests pin both to the NIST test
//! vectors.
//!
//! [`blocks_compressed`] counts the 64-byte blocks the calling thread
//! has hashed, a machine-independent measure of hash work that tests
//! can pin.

use std::cell::Cell;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The digest as raw bytes.
    #[inline]
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lower-case hex encoding.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// A short 8-hex-digit form for human-facing logs.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_owned()
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short())
    }
}

/// Error parsing a [`Digest`] from hex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestParseError;

impl fmt::Display for DigestParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid digest hex (want 64 hex chars)")
    }
}

impl std::error::Error for DigestParseError {}

impl FromStr for Digest {
    type Err = DigestParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 64 {
            return Err(DigestParseError);
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hex = std::str::from_utf8(chunk).map_err(|_| DigestParseError)?;
            out[i] = u8::from_str_radix(hex, 16).map_err(|_| DigestParseError)?;
        }
        Ok(Digest(out))
    }
}

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;

/// A compression kernel: folds a whole number of 64-byte blocks into
/// the state.
type Kernel = fn(&mut [u32; 8], &[u8]);

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

/// The number of 64-byte blocks the calling thread has compressed
/// since it started, padding blocks included. Each thread counts its
/// own hashing only, so a test can take the difference around a piece
/// of work while other tests hash on other threads.
pub fn blocks_compressed() -> u64 {
    BLOCKS.with(Cell::get)
}

/// The kernel every hash goes through: the SHA-NI kernel when the CPU
/// has it, the scalar one otherwise.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    BLOCKS.with(|n| n.set(n.get() + (blocks.len() / 64) as u64));
    #[cfg(target_arch = "x86_64")]
    if ni::compress(state, blocks) {
        return;
    }
    compress_scalar(state, blocks);
}

/// The portable kernel: the specification's 64-round compression
/// function, one block at a time.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Streaming SHA-256 state. Most callers want the one-shot [`sha256`].
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffered: 0, length: 0 }
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress);
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finish(compress)
    }

    /// Completes a buffered block if `data` fills it, hands the run of
    /// full blocks that follows to `kernel` in one call, straight from
    /// `data`, and buffers the tail.
    fn absorb(&mut self, mut data: &[u8], kernel: Kernel) {
        self.length += data.len() as u64;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            kernel(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let full = data.len() - data.len() % 64;
        if full > 0 {
            kernel(&mut self.state, &data[..full]);
        }
        let tail = &data[full..];
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Pads the buffered tail on the stack — 0x80, zeros to 56 (mod 64),
    /// the 64-bit big-endian bit length — compresses the one or two
    /// final blocks and reads out the digest.
    fn finish(mut self, kernel: Kernel) -> Digest {
        let mut tail = [0u8; 128];
        let n = self.buffered;
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&(self.length * 8).to_be_bytes());
        kernel(&mut self.state, &tail[..len]);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every kernel under test: the scalar reference, the run-time
    /// dispatch every caller gets, and — where the CPU has it — the
    /// hardware kernel on its own.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> =
            vec![("scalar", compress_scalar), ("dispatched", compress)];
        #[cfg(target_arch = "x86_64")]
        if ni::compress(&mut H0.clone(), &[0; 64]) {
            kernels.push(("sha-ni", |state, blocks| assert!(ni::compress(state, blocks))));
        }
        kernels
    }

    /// Hashes `parts`, fed one `update` each, through `kernel` alone.
    fn digest_with(kernel: Kernel, parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.absorb(part, kernel);
        }
        h.finish(kernel)
    }

    /// Checks `data` against a known digest through `sha256` and every
    /// kernel.
    fn assert_vector(data: &[u8], hex: &str) {
        assert_eq!(sha256(data).to_hex(), hex, "one-shot, {} bytes", data.len());
        for (name, kernel) in kernels() {
            assert_eq!(digest_with(kernel, &[data]).to_hex(), hex, "{name}, {} bytes", data.len());
        }
    }

    /// NIST FIPS 180-4 / de-facto standard vectors.
    #[test]
    fn empty_string() {
        assert_vector(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn abc() {
        assert_vector(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn two_block_message() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_vector(&data, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    }

    #[test]
    fn blocks_compressed_counts_this_threads_blocks() {
        let before = blocks_compressed();
        sha256(&[0; 55]); // one block: the length fits after the 0x80
        sha256(&[0; 56]); // two: it no longer does
        sha256(&[0; 200]); // three full blocks straight from the input, one padding block
        assert_eq!(blocks_compressed() - before, 1 + 2 + 4);
        let other = std::thread::spawn(|| {
            sha256(&[0; 1000]);
            blocks_compressed()
        });
        assert_eq!(other.join().unwrap(), 16);
        assert_eq!(blocks_compressed() - before, 7, "another thread's hashing is not counted");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any message up to 2 KiB, fed in up to four pieces at random
        /// split points, hashes the same through every kernel as
        /// through one-shot `sha256`.
        #[test]
        fn kernels_agree_on_random_streams(
            data in prop::collection::vec(any::<u8>(), 0..=2048),
            cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
        ) {
            let mut at: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
            at.sort_unstable();
            let mut parts: Vec<&[u8]> = Vec::new();
            let mut from = 0;
            for &to in &at {
                parts.push(&data[from..to]);
                from = to;
            }
            parts.push(&data[from..]);
            let want = sha256(&data);
            for (name, kernel) in kernels() {
                prop_assert_eq!(digest_with(kernel, &parts), want, "kernel {}", name);
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let want = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths straddling the 55/56/64-byte padding boundaries.
        let known = [
            (55usize, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
            (56usize, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
            (57usize, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"),
            (64usize, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"),
        ];
        for (len, hex) in known {
            assert_vector(&vec![b'a'; len], hex);
        }
    }

    #[test]
    fn digest_hex_round_trip() {
        let d = sha256(b"round trip");
        let parsed: Digest = d.to_hex().parse().unwrap();
        assert_eq!(parsed, d);
        assert!("zz".parse::<Digest>().is_err());
        assert!("00".repeat(31).parse::<Digest>().is_err());
    }

    #[test]
    fn short_form() {
        let d = sha256(b"abc");
        assert_eq!(d.short(), "ba7816bf");
    }
}
