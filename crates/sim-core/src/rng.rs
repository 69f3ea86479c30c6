//! Deterministic randomness for workloads and experiments.
//!
//! Every random decision in the simulator flows through a [`DetRng`] seeded
//! explicitly by the experiment definition, so that a run is a pure function
//! of its configuration. The module also provides a [`Zipf`] sampler because
//! the key-value-store workload models (Redis, RocksDB, Memcached, Masstree)
//! draw keys from skewed distributions.

/// One SplitMix64 mixing step: a bijective avalanche of `x`.
///
/// This is the finalizer every seed in the simulator flows through —
/// both [`DetRng::new`]'s state expansion and [`derive_seed`]'s
/// per-run seed derivation — so nearby inputs (consecutive cell
/// indices, base seeds differing in one bit) map to statistically
/// independent outputs.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent per-run seed from a base seed, a stream tag
/// and an index.
///
/// Every experiment cell derives its seed through this single helper
/// *before* execution, so results are a pure function of
/// `(base, stream, index)` — never of execution order, thread count or
/// which runs happened earlier. Ad-hoc derivations (`seed ^ 0x5157`
/// and friends) are banned: XORing small constants produces correlated
/// streams and collides across experiments.
pub fn derive_seed(base: u64, stream: &str, index: u64) -> u64 {
    // Fold the tag with FNV-1a, then chain three SplitMix64 rounds so
    // base, tag and index each avalanche through the full 64 bits.
    let mut tag: u64 = 0xCBF2_9CE4_8422_2325;
    for b in stream.bytes() {
        tag = (tag ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    splitmix64(splitmix64(splitmix64(base) ^ tag).wrapping_add(index))
}

/// A deterministic, explicitly seeded random number generator.
///
/// The generator is a hand-rolled xoshiro256++ (public-domain
/// algorithm by Blackman & Vigna) seeded through SplitMix64, so the
/// simulator carries no external RNG dependency and the stream is
/// identical on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state, as
        // recommended by the xoshiro authors; it guarantees a non-zero
        // state for every seed.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output (xoshiro256++ step).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Derives an independent child generator; used to give each VM,
    /// workload and daemon its own stream without cross-coupling.
    pub fn fork(&mut self) -> Self {
        Self::new(self.next_u64())
    }

    /// Uniform integer in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Debiased multiply-shift (Lemire): a draw is rejected when the
        // low product word falls below `2^64 mod bound`. That threshold
        // is itself below `bound`, so the division computing it is paid
        // only when the low word is too; every other draw is accepted
        // outright, exactly as the threshold test would accept it.
        let mut m = (self.next_u64() as u128) * (bound as u128);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → the standard [0,1) double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.is_empty() {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// A Zipf-distributed sampler over `{0, 1, ..., n-1}` using
/// rejection-inversion (Hörmann & Derflinger), suitable for large `n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    exponent: f64,
    h_integral_x1: f64,
    h_integral_n: f64,
    s: f64,
}

impl Zipf {
    /// Creates a sampler over `n` items with skew `exponent` (> 0, != 1 is
    /// handled as well as the harmonic case).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `exponent <= 0`.
    pub fn new(n: u64, exponent: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(exponent > 0.0, "Zipf exponent must be positive");
        let h_integral_x1 = Self::h_integral(1.5, exponent) - 1.0;
        let h_integral_n = Self::h_integral(n as f64 + 0.5, exponent);
        let s = 2.0
            - Self::h_integral_inverse(
                Self::h_integral(2.5, exponent) - Self::h(2.0, exponent),
                exponent,
            );
        Self {
            n,
            exponent,
            h_integral_x1,
            h_integral_n,
            s,
        }
    }

    /// Draws one sample in `[0, n)` (rank 0 is the most popular item).
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        loop {
            let u = self.h_integral_n + rng.unit() * (self.h_integral_x1 - self.h_integral_n);
            let x = Self::h_integral_inverse(u, self.exponent);
            let mut k = (x + 0.5).floor() as i64;
            k = k.clamp(1, self.n as i64);
            let kf = k as f64;
            if kf - x <= self.s
                || u >= Self::h_integral(kf + 0.5, self.exponent) - Self::h(kf, self.exponent)
            {
                return (k - 1) as u64;
            }
        }
    }

    fn h(x: f64, e: f64) -> f64 {
        (-e * x.ln()).exp()
    }

    fn h_integral(x: f64, e: f64) -> f64 {
        let log_x = x.ln();
        Self::helper2((1.0 - e) * log_x) * log_x
    }

    fn h_integral_inverse(x: f64, e: f64) -> f64 {
        let mut t = x * (1.0 - e);
        if t < -1.0 {
            t = -1.0;
        }
        (Self::helper1(t) * x).exp()
    }

    /// `log1p(x)/x`, continuous at 0.
    fn helper1(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.ln_1p() / x
        } else {
            1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
        }
    }

    /// `expm1(x)/x`, continuous at 0.
    fn helper2(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.exp_m1() / x
        } else {
            1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_deterministic_and_avalanches() {
        assert_eq!(splitmix64(0), splitmix64(0));
        // Known vector: first output of the reference SplitMix64 with
        // state 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        // Single-bit input changes flip roughly half the output bits.
        let flipped = (splitmix64(1) ^ splitmix64(0)).count_ones();
        assert!((16..=48).contains(&flipped), "weak avalanche: {flipped}");
    }

    #[test]
    fn derive_seed_separates_streams_and_indices() {
        let a = derive_seed(42, "clean", 0);
        assert_eq!(a, derive_seed(42, "clean", 0), "pure function");
        assert_ne!(a, derive_seed(42, "clean", 1), "index matters");
        assert_ne!(a, derive_seed(42, "reused", 0), "stream matters");
        assert_ne!(a, derive_seed(43, "clean", 0), "base matters");
        // Consecutive indices must not produce correlated seeds the way
        // `seed ^ index` would.
        let d01 = derive_seed(42, "clean", 0) ^ derive_seed(42, "clean", 1);
        let d12 = derive_seed(42, "clean", 1) ^ derive_seed(42, "clean", 2);
        assert_ne!(d01, d12, "xor-deltas must not repeat");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64)
            .filter(|_| a.below(1 << 30) == b.below(1 << 30))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = DetRng::new(7);
        let mut parent2 = DetRng::new(7);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        assert_eq!(c1.below(1000), c2.below(1000));
    }

    #[test]
    fn below_draws_exactly_like_the_threshold_first_loop() {
        // The reference: Lemire's loop computing the rejection
        // threshold before the first draw.
        fn reference(rng: &mut DetRng, bound: u64) -> u64 {
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let m = (rng.next_u64() as u128) * (bound as u128);
                if (m as u64) >= threshold {
                    return (m >> 64) as u64;
                }
            }
        }
        let fixed = [
            1,
            2,
            3,
            511,
            512,
            513,
            (1 << 32) - 1,
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut bounds = DetRng::new(17);
        for seed in 0..8 {
            let mut fast = DetRng::new(seed);
            let mut slow = DetRng::new(seed);
            let drawn: Vec<u64> = (0..64)
                .map(|i| match i % 3 {
                    0 => bounds.below(1 << 12) + 1,
                    1 => bounds.below(u64::MAX) + 1,
                    _ => (1 << 63) + bounds.below(1 << 62),
                })
                .collect();
            for &bound in fixed.iter().chain(&drawn) {
                for _ in 0..32 {
                    assert_eq!(
                        fast.below(bound),
                        reference(&mut slow, bound),
                        "bound {bound}"
                    );
                    // Same state: the same number of draws was consumed.
                    assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "bound {bound}");
                }
            }
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
            let v = rng.range(5, 9);
            assert!((5..9).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        rng.shuffle(&mut [] as &mut [u32]);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = DetRng::new(11);
        let z = Zipf::new(10_000, 0.99);
        let mut head = 0u64;
        let samples = 20_000;
        for _ in 0..samples {
            let s = z.sample(&mut rng);
            assert!(s < 10_000);
            if s < 100 {
                head += 1;
            }
        }
        // With exponent ~1, the top 1% of items should draw far more than
        // 1% of accesses (roughly half).
        assert!(head as f64 / samples as f64 > 0.3, "head share too small");
    }

    #[test]
    fn zipf_uniformish_when_exponent_small() {
        let mut rng = DetRng::new(13);
        let z = Zipf::new(1000, 0.05);
        let mut head = 0u64;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Near-uniform: top 1% draws close to 1%.
        assert!((head as f64 / 10_000.0) < 0.08);
    }
}
