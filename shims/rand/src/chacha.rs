//! ChaCha block function used by [`crate::rngs::StdRng`] and the
//! `rand_chacha` shim, plus the SplitMix64 seed expander.
//!
//! The permutation is the standard ChaCha quarter-round network (RFC 8439
//! layout, 64-bit block counter, zero nonce). Output is consumed as a byte
//! stream, so interleaving `next_u32` / `next_u64` / `fill_bytes` calls in
//! any split yields the same bytes.

/// SplitMix64 — used only to expand a `u64` seed into key material.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(state: u64) -> Self {
        SplitMix64 { state }
    }

    #[expect(
        clippy::should_implement_trait,
        reason = "mirrors SplitMix64's own `next`; not an Iterator"
    )]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// ChaCha stream generator with `R` rounds (R = 8, 12 or 20).
#[derive(Clone, Debug)]
pub struct ChaChaCore<const R: usize> {
    key: [u32; 8],
    counter: u64,
    buf: [u8; 64],
    /// Next unread byte in `buf`; 64 means "refill before reading".
    pos: usize,
}

#[inline(always)]
fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl<const R: usize> ChaChaCore<R> {
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            *k = u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().unwrap());
        }
        ChaChaCore { key, counter: 0, buf: [0u8; 64], pos: 64 }
    }

    fn refill(&mut self) {
        let mut s = [0u32; 16];
        s[0] = 0x6170_7865; // "expa"
        s[1] = 0x3320_646e; // "nd 3"
        s[2] = 0x7962_2d32; // "2-by"
        s[3] = 0x6b20_6574; // "te k"
        s[4..12].copy_from_slice(&self.key);
        s[12] = self.counter as u32;
        s[13] = (self.counter >> 32) as u32;
        s[14] = 0;
        s[15] = 0;
        let input = s;
        for _ in 0..R / 2 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for i in 0..16 {
            let word = s[i].wrapping_add(input[i]);
            self.buf[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        self.counter = self.counter.wrapping_add(1);
        self.pos = 0;
    }

    fn take(&mut self, out: &mut [u8]) {
        let mut filled = 0;
        while filled < out.len() {
            if self.pos == 64 {
                self.refill();
            }
            let n = (out.len() - filled).min(64 - self.pos);
            out[filled..filled + n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            filled += n;
        }
    }

    pub fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.take(&mut b);
        u32::from_le_bytes(b)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.take(&mut b);
        u64::from_le_bytes(b)
    }

    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.take(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_differ_and_stream_is_stable() {
        let mut a = ChaChaCore::<12>::from_seed([1u8; 32]);
        let mut b = ChaChaCore::<12>::from_seed([1u8; 32]);
        let first = a.next_u64();
        // 16 more words crosses the block boundary.
        let later: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        assert_eq!(first, b.next_u64());
        assert_eq!(later, (0..16).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert!(later.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn key_separation() {
        let mut a = ChaChaCore::<12>::from_seed([1u8; 32]);
        let mut b = ChaChaCore::<12>::from_seed([2u8; 32]);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
