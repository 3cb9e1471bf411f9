//! Order statistics, the seeded input generator, the output digest, and
//! host memory.

/// Linear-interpolation quantile (`0.0 ≤ q ≤ 1.0`) of `values`; `None`
/// when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values` (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The SplitMix64 finalizer. `trainsim::chaos::soak` derives case `i`'s
/// plan seed as `mix64(base_seed ^ i)` with this same function, which lets
/// the traced chaos op replay a soak call step by step.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded generator of benchmark inputs. Op `index` of input `stream`
/// under `seed` always draws the same numbers, whatever ran before it.
pub struct Rng(u64);

impl Rng {
    /// The generator of one op's inputs.
    pub fn for_op(seed: u64, stream: u64, index: u64) -> Rng {
        Rng(mix64(mix64(seed ^ mix64(stream)) ^ index))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// FNV-1a over 64-bit words: the digest of a run's simulated outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an `f64` in by its exact bits.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// The digest's value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_and_leaves_ten_beyond_p90_of_a_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.5));
        let p90 = quantile(&v, 0.9).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::for_op(7, 0, 3).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::for_op(7, 0, 3).next_u64(),
            Rng::for_op(7, 1, 3).next_u64()
        );
        assert_ne!(
            Rng::for_op(7, 0, 3).next_u64(),
            Rng::for_op(8, 0, 3).next_u64()
        );
    }
}
