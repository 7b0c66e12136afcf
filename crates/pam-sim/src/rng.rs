//! Seeded, reproducible randomness.
//!
//! Every stochastic choice in the workspace (traffic inter-arrival jitter,
//! flow 5-tuples, workload sampling) goes through [`SimRng`], which wraps a
//! ChaCha-based PRNG seeded explicitly. The experiment harness fixes seeds so
//! that paper-reproduction runs are bit-for-bit repeatable; tests derive
//! independent sub-streams with [`SimRng::fork`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random-number generator with the sampling helpers used across
/// the workspace.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for a named sub-stream. Forking keeps
    /// unrelated consumers (e.g. traffic vs. workload shuffling) from
    /// perturbing each other's sequences when one of them draws more values.
    pub fn fork(&self, stream: u64) -> SimRng {
        // SplitMix64-style mixing of (seed, stream) into a new seed.
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        SimRng::seed_from(z ^ (z >> 31))
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A uniform `f64` in `[low, high)`.
    pub fn uniform_range(&mut self, low: f64, high: f64) -> f64 {
        if high <= low {
            return low;
        }
        low + self.uniform() * (high - low)
    }

    /// A uniform integer in `[0, n)`; `0` when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.inner.gen_range(0..n)
        }
    }

    /// A uniform integer in the inclusive range `[low, high]`.
    pub fn int_range(&mut self, low: u64, high: u64) -> u64 {
        if high <= low {
            return low;
        }
        self.inner.gen_range(low..=high)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed value with the given mean (used for
    /// Poisson arrival processes). Returns `0` for non-positive means.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse-CDF sampling; `1 - u` avoids ln(0).
        let u: f64 = self.uniform();
        -mean * (1.0 - u).ln()
    }

    /// A sample from a Zipf distribution over ranks `1..=n` with exponent
    /// `s`, via inverse-CDF over the precomputed weights of the caller.
    /// Kept here so flow-popularity sampling shares one implementation.
    pub fn zipf_rank(&mut self, cdf: &[f64]) -> usize {
        if cdf.is_empty() {
            return 0;
        }
        let u = self.uniform() * cdf[cdf.len() - 1];
        search_cdf(cdf, u)
    }

    /// [`SimRng::zipf_rank`] over a [`GuidedCdf`]: the same single draw and
    /// exactly the same rank, found through the guide table.
    pub fn guided_rank(&mut self, cdf: &GuidedCdf) -> usize {
        let Some(&total) = cdf.cdf.last() else {
            return 0;
        };
        let u = self.uniform() * total;
        cdf.index_of(u)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Access to the underlying [`rand::Rng`] for callers that need it.
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.inner
    }
}

/// The inverse-CDF search [`SimRng::zipf_rank`] performs for probe `u`.
fn search_cdf(cdf: &[f64], u: f64) -> usize {
    // CDF weights are finite by construction; treat a NaN probe as Less so
    // the search stays total instead of panicking.
    match cdf.binary_search_by(|probe| probe.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Less)) {
        Ok(i) => i,
        Err(i) => i.min(cdf.len() - 1),
    }
}

/// CDF entries per guide-table bucket: the guide (a `u32` per bucket) costs
/// a thirty-second of the CDF's memory, so a million-flow pool's peak RSS
/// stays flat, and narrows each search to about sixteen entries — two cache
/// lines of CDF.
const GUIDE_RATIO: usize = 16;

/// A cumulative weight table with a Chen–Asau guide table in front of it.
///
/// A binary search over a million-entry CDF (8 MB) misses the cache on most
/// of its twenty steps. The guide splits `[0, total]` into equal-width
/// buckets and records, per bucket, the first CDF entry that can answer a
/// probe falling in it, so a draw reads one guide entry and searches the few
/// CDF entries between two guide entries. The answer is exactly the index
/// [`SimRng::zipf_rank`]'s binary search returns: a probe equal to a CDF
/// entry (where a binary search over a run of equal entries may pick any of
/// them) is answered by that very binary search, and a CDF that is not
/// finite and non-decreasing gets no guide at all.
#[derive(Debug, Clone, Default)]
pub struct GuidedCdf {
    cdf: Vec<f64>,
    /// `guide[j]` is the number of CDF entries whose bucket is below `j`;
    /// `m + 1` entries for `m` buckets, empty when the CDF is unguided.
    guide: Vec<u32>,
    /// Buckets per unit of probe: `m / total`.
    scale: f64,
}

impl GuidedCdf {
    /// Builds the guide for `cdf`, a table of cumulative weights.
    pub fn new(cdf: Vec<f64>) -> Self {
        let mut table = GuidedCdf {
            cdf,
            guide: Vec::new(),
            scale: 0.0,
        };
        let n = table.cdf.len();
        let total = table.cdf.last().copied().unwrap_or(0.0);
        let buckets = n.div_ceil(GUIDE_RATIO);
        let scale = buckets as f64 / total;
        let sorted = table.cdf.windows(2).all(|pair| pair[0] <= pair[1]);
        let positive = total > 0.0;
        if !sorted || !positive || !scale.is_finite() || u32::try_from(n).is_err() {
            return table;
        }
        table.scale = scale;
        table.guide.reserve_exact(buckets + 1);
        for (i, &weight) in table.cdf.iter().enumerate() {
            // Entries whose bucket is below `j` precede every probe in
            // bucket `j`: the bucket map is monotone in its argument.
            let bucket = table.bucket(weight);
            while table.guide.len() <= bucket {
                table.guide.push(i as u32);
            }
        }
        while table.guide.len() <= buckets {
            table.guide.push(n as u32);
        }
        table
    }

    /// The cumulative weights.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// The probe's bucket; monotone non-decreasing in `value`.
    fn bucket(&self, value: f64) -> usize {
        ((value * self.scale) as usize).min(self.guide_buckets() - 1)
    }

    fn guide_buckets(&self) -> usize {
        self.cdf.len().div_ceil(GUIDE_RATIO)
    }

    /// The index [`SimRng::zipf_rank`]'s search returns for probe `u`.
    pub fn index_of(&self, u: f64) -> usize {
        let n = self.cdf.len();
        if n == 0 {
            return 0;
        }
        if self.guide.is_empty() || u.is_nan() {
            return search_cdf(&self.cdf, u);
        }
        // Every entry before `guide[j]` is below `u`, every entry from
        // `guide[j + 1]` on is above it, so the first entry not below `u`
        // lies in between.
        let j = self.bucket(u);
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        let first = lo + self.cdf[lo..hi].partition_point(|&weight| weight < u);
        if first < n && self.cdf[first] == u {
            // An exact tie: the binary search's own choice among equal
            // entries is the answer.
            return search_cdf(&self.cdf, u);
        }
        first.min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        let seq_a: Vec<f64> = (0..32).map(|_| a.uniform()).collect();
        let seq_b: Vec<f64> = (0..32).map(|_| b.uniform()).collect();
        assert_eq!(seq_a, seq_b);
        assert_eq!(a.seed(), 42);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let seq_a: Vec<u64> = (0..8).map(|_| a.int_range(0, u64::MAX - 1)).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| b.int_range(0, u64::MAX - 1)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let root = SimRng::seed_from(7);
        let mut f1 = root.fork(1);
        let mut f2 = root.fork(2);
        let mut f1_again = root.fork(1);
        assert_eq!(f1.uniform(), f1_again.uniform());
        let a: Vec<f64> = (0..8).map(|_| f1.uniform()).collect();
        let b: Vec<f64> = (0..8).map(|_| f2.uniform()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_range_and_index_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let v = rng.uniform_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
            let i = rng.index(10);
            assert!(i < 10);
            let n = rng.int_range(5, 9);
            assert!((5..=9).contains(&n));
        }
        assert_eq!(rng.index(0), 0);
        assert_eq!(rng.int_range(9, 3), 9);
        assert_eq!(rng.uniform_range(5.0, 2.0), 5.0);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let mean = 4.0;
        let total: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = total / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.15,
            "sample mean {sample_mean}"
        );
        assert_eq!(rng.exponential(0.0), 0.0);
        assert_eq!(rng.exponential(-1.0), 0.0);
    }

    #[test]
    fn chance_respects_probability() {
        let mut rng = SimRng::seed_from(5);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(13);
        let mut items: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_rank_prefers_low_ranks() {
        // Build a Zipf CDF with exponent 1 over 100 ranks.
        let weights: Vec<f64> = (1..=100).map(|r| 1.0 / r as f64).collect();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cdf.push(acc);
        }
        let mut rng = SimRng::seed_from(17);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            counts[rng.zipf_rank(&cdf)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        assert_eq!(rng.zipf_rank(&[]), 0);
    }

    #[test]
    fn guided_rank_draws_the_same_ranks_as_zipf_rank() {
        let mut acc = 0.0;
        let cdf: Vec<f64> = (1..=10_000u32)
            .map(|rank| {
                acc += 1.0 / f64::from(rank);
                acc
            })
            .collect();
        let guided = GuidedCdf::new(cdf.clone());
        assert_eq!(guided.cdf(), &cdf[..]);
        let mut plain = SimRng::seed_from(23);
        let mut fast = SimRng::seed_from(23);
        for _ in 0..50_000 {
            assert_eq!(fast.guided_rank(&guided), plain.zipf_rank(&cdf));
        }
        assert_eq!(fast.guided_rank(&GuidedCdf::new(Vec::new())), 0);
    }

    #[test]
    fn unguidable_cdfs_fall_back_to_the_search() {
        for cdf in [
            vec![3.0, 1.0, 2.0],
            vec![0.0, f64::NAN, 2.0],
            vec![0.0, 0.0],
            vec![1.0, f64::INFINITY],
            vec![-2.0, -1.0],
        ] {
            let guided = GuidedCdf::new(cdf.clone());
            for u in [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, f64::INFINITY, f64::NAN] {
                assert_eq!(guided.index_of(u), search_cdf(&cdf, u), "{cdf:?} at {u}");
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The guide table answers every probe exactly as the binary search
        /// does: random non-decreasing CDFs with runs of equal entries (zero
        /// weights), probed at exact entries (ties), at fractions of the
        /// total and past both ends.
        #[test]
        fn guided_cdf_matches_the_binary_search(
            weights in proptest::collection::vec((0u8..4, 0.0f64..3.0), 1..400),
            probes in proptest::collection::vec((0u8..4, 0u32..4096), 1..64),
        ) {
            let mut acc = 0.0;
            let cdf: Vec<f64> = weights
                .iter()
                .map(|&(kind, weight)| {
                    // Zero weights make ties; whole weights make exact sums.
                    acc += match kind {
                        0 => 0.0,
                        1 => weight.floor(),
                        _ => weight,
                    };
                    acc
                })
                .collect();
            let total = cdf[cdf.len() - 1];
            let guided = GuidedCdf::new(cdf.clone());
            for (kind, x) in probes {
                let u = match kind {
                    0 => cdf[x as usize % cdf.len()],
                    1 => total * f64::from(x) / 4096.0,
                    2 => f64::from(x) / 64.0,
                    _ => total + f64::from(x),
                };
                prop_assert_eq!(guided.index_of(u), search_cdf(&cdf, u));
            }
        }
    }
}
