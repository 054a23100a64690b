//! Deterministic random number generation for the whole workspace.
//!
//! Every stochastic component in Nebula (weight init, noisy top-k, data
//! synthesis, device sampling, drift) draws from a [`NebulaRng`] seeded from
//! the experiment configuration, so any experiment is reproducible from its
//! seed. `fork` derives independent child streams — e.g. one per simulated
//! device — so adding a device never perturbs another device's stream.
//!
//! The generator is xoshiro256** seeded through SplitMix64, written out
//! here: how many raw words each helper consumes, and in which order, is
//! part of every pinned trajectory (`tests/rng_pins.rs`).

/// Seedable RNG with the sampling helpers the workspace needs.
#[derive(Clone, Debug)]
pub struct NebulaRng {
    /// xoshiro256** state; never all-zero.
    s: [u64; 4],
}

impl NebulaRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        // SplitMix64 seed expansion, the reference initialisation for the
        // xoshiro family.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self { s: [next(), next(), next(), next()] }
    }

    /// Raw generator state (xoshiro256** words) for checkpoint/resume.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Restores an RNG from a captured [`Self::state`]. Returns `None`
    /// for the all-zero state — the xoshiro fixed point, which no seeded
    /// stream can reach: a corrupted snapshot rather than a real generator.
    pub fn from_state(state: [u64; 4]) -> Option<Self> {
        (state != [0; 4]).then_some(Self { s: state })
    }

    /// Derives an independent child stream labelled by `stream`.
    ///
    /// Children are decorrelated by hashing the label into the parent's
    /// next output, so `fork(0)` and `fork(1)` never overlap even though
    /// both derive from the same parent state.
    pub fn fork(&mut self, stream: u64) -> NebulaRng {
        let base = self.next_u64();
        // SplitMix64-style finalizer over (base ^ stream).
        let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        NebulaRng::seed(z)
    }

    /// Uniform `u64`: one xoshiro256** step.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, span)` by rejection sampling, `span > 0`.
    fn bounded(&mut self, span: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` from the top 53 bits of one raw word.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f32` in `[lo, hi)`, from the top 24 bits of one raw word.
    pub fn uniform_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range in uniform_f32");
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        let v = lo + unit * (hi - lo);
        // Guard the open upper bound against rounding.
        if v >= hi {
            lo
        } else {
            v
        }
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        self.bounded(n as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`). A
    /// certain success consumes no draw; everything else consumes one.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!(!p.is_nan(), "bernoulli probability is NaN");
        p >= 1.0 || self.unit_f64() < p
    }

    /// One `N(mean, std²)` draw by Box–Muller (cos branch): always two raw
    /// words, never a rejection. Computed in `f64`, scaled unfused.
    fn gaussian(&mut self, mean: f32, std: f32) -> f32 {
        assert!(mean.is_finite() && std.is_finite() && std >= 0.0, "invalid normal parameters");
        // u1 in (0, 1]: shifted away from zero so the log is finite.
        let u1 = ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let u2 = self.unit_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
        std * z as f32 + mean
    }

    /// Gaussian draw.
    pub fn normal_f32(&mut self, mean: f32, std: f32) -> f32 {
        if std <= 0.0 {
            return mean;
        }
        self.gaussian(mean, std)
    }

    /// Advances the stream by exactly what one [`Self::normal_f32`] draw
    /// with `std > 0` consumes — two raw `u64`s, whatever their values
    /// (Box–Muller never rejects) — without computing the Gaussian: for a
    /// draw whose value nothing can observe but whose place in the stream
    /// later draws depend on.
    pub fn skip_normal(&mut self) {
        self.next_u64();
        self.next_u64();
    }

    /// Log-normal draw parameterised by the underlying normal's `mu`/`sigma`.
    pub fn lognormal_f32(&mut self, mu: f32, sigma: f32) -> f32 {
        self.gaussian(mu, sigma).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: only the first k positions need shuffling.
        for i in 0..k {
            let j = i + self.bounded((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Picks one element of a slice uniformly.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Samples an index from an (unnormalised, non-negative) weight vector.
    pub fn weighted_index(&mut self, weights: &[f32]) -> usize {
        let total: f32 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index needs positive total weight");
        let mut target = self.uniform_f32(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Samples a probability vector from a symmetric Dirichlet(α) of size n.
    pub fn dirichlet(&mut self, alpha: f32, n: usize) -> Vec<f32> {
        // Gamma(α, 1) draws via Marsaglia–Tsang (with boost for α < 1),
        // then normalise.
        let mut draws: Vec<f32> = (0..n).map(|_| self.gamma(alpha)).collect();
        let sum: f32 = draws.iter().sum();
        if sum <= 0.0 {
            return vec![1.0 / n as f32; n];
        }
        draws.iter_mut().for_each(|v| *v /= sum);
        draws
    }

    fn gamma(&mut self, alpha: f32) -> f32 {
        if alpha < 1.0 {
            // Boost: Gamma(α) = Gamma(α+1) * U^{1/α}
            let u: f32 = self.uniform_f32(1e-7, 1.0);
            return self.gamma(alpha + 1.0) * u.powf(1.0 / alpha);
        }
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal_f32(0.0, 1.0);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f32 = self.uniform_f32(1e-7, 1.0);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = NebulaRng::seed(42);
        let mut b = NebulaRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_differ_from_parent_and_each_other() {
        let mut parent = NebulaRng::seed(1);
        let mut c0 = parent.fork(0);
        let mut parent2 = NebulaRng::seed(1);
        let mut c1 = parent2.fork(1);
        let a: Vec<u64> = (0..10).map(|_| c0.next_u64()).collect();
        let b: Vec<u64> = (0..10).map(|_| c1.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = NebulaRng::seed(7);
        for _ in 0..1000 {
            let v = rng.uniform_f32(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn normal_has_right_moments() {
        let mut rng = NebulaRng::seed(9);
        let n = 20_000;
        let draws: Vec<f32> = (0..n).map(|_| rng.normal_f32(2.0, 0.5)).collect();
        let mean = draws.iter().sum::<f32>() / n as f32;
        let var = draws.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn skip_normal_is_a_discarded_draw() {
        for n in [0usize, 1, 5, 1024] {
            let mut drawn = NebulaRng::seed(11);
            let mut skipped = drawn.clone();
            for _ in 0..n {
                drawn.normal_f32(0.0, 0.3);
                skipped.skip_normal();
            }
            assert_eq!(drawn.state(), skipped.state(), "after {n} draws");
            assert_eq!(drawn.normal_f32(0.0, 0.3).to_bits(), skipped.normal_f32(0.0, 0.3).to_bits());
        }
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = NebulaRng::seed(3);
        let idx = rng.sample_indices(100, 25);
        assert_eq!(idx.len(), 25);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 25);
        assert!(sorted.iter().all(|&i| i < 100));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = NebulaRng::seed(4);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = NebulaRng::seed(5);
        let weights = [0.0, 0.0, 1.0];
        for _ in 0..100 {
            assert_eq!(rng.weighted_index(&weights), 2);
        }
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = NebulaRng::seed(6);
        for &alpha in &[0.1f32, 0.5, 1.0, 5.0] {
            let p = rng.dirichlet(alpha, 8);
            assert_eq!(p.len(), 8);
            let s: f32 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "alpha {alpha}: sum {s}");
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = NebulaRng::seed(8);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }
}
