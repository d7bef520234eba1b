//! A tiny deterministic SplitMix64 RNG for randomized property tests.
//!
//! The workspace's property tests were written for an environment without
//! network access, so instead of a `proptest` dependency they draw cases
//! from this generator. Tests seed it with a constant, making every run
//! reproducible; on failure, print the case index and re-run with the
//! same seed to shrink by hand.

/// SplitMix64: tiny, fast, full-period, good-enough mixing for test-case
/// generation (the same generator the `cec` crate uses for simulation
/// patterns).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (n > 0).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Multiply-shift; bias is negligible for test-case sizes.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform `usize` in `0..n`.
    pub fn usize_below(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform value in `lo..hi` (half-open).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.usize_below(hi - lo)
    }

    /// A random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `bytes` after one to four random edits: overwrite, insert or
    /// delete a byte, or truncate. `byte` draws each written byte, so a
    /// hostile-input test can favour the bytes its format gives meaning.
    pub fn mutate(&mut self, bytes: &[u8], mut byte: impl FnMut(&mut Rng) -> u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for _ in 0..self.range(1, 5) {
            let pos = self.usize_below(out.len() + 1);
            match self.below(4) {
                0 if pos < out.len() => out[pos] = byte(self),
                1 => out.insert(pos, byte(self)),
                2 if pos < out.len() => {
                    out.remove(pos);
                }
                3 => out.truncate(pos),
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let v = r.range(3, 10);
            assert!((3..10).contains(&v));
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn covers_all_residues() {
        let mut r = Rng::new(1);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.usize_below(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
