//! Seeded input generation: the same `--seed` gives the same inputs.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x005e_edba_5e0f_b0b5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// `n` indices in the exact proportions of `weights`: consecutive
    /// blocks, each holding every index its reduced weight's number of
    /// times, in shuffled order. Unlike independent draws, any stretch of
    /// the sequence keeps the mix, so the mix does not vary by seed.
    pub fn stratified(&mut self, weights: &[u32], n: usize) -> Vec<usize> {
        let g = weights.iter().fold(0, |a, &w| gcd(a, w));
        assert!(g > 0, "at least one weight must be positive");
        let block: Vec<usize> = weights
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, (w / g) as usize))
            .collect();
        let mut out = Vec::with_capacity(n + block.len());
        while out.len() < n {
            let mut b = block.clone();
            self.shuffle(&mut b);
            out.extend(b);
        }
        out.truncate(n);
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut r = SplitMix::new(seed);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SplitMix::new(1);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exp(10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "{mean}");
    }

    #[test]
    fn stratified_keeps_the_mix_in_every_block() {
        let mut r = SplitMix::new(2);
        let classes = r.stratified(&[10, 10, 40, 40], 1_005);
        assert_eq!(classes.len(), 1_005);
        for block in classes.chunks(10) {
            let mut hits = [0; 4];
            for &c in block {
                hits[c] += 1;
            }
            if block.len() == 10 {
                assert_eq!(hits, [1, 1, 4, 4], "{block:?}");
            }
        }
        assert_ne!(classes[..10], classes[10..20], "blocks are shuffled");
        assert_eq!(
            classes,
            SplitMix::new(2).stratified(&[10, 10, 40, 40], 1_005)
        );
    }
}
