//! Synthetic flow populations.
//!
//! Real traffic is made of flows whose popularity is heavily skewed: a few
//! elephants carry most bytes while most flows are mice. The generator builds
//! a fixed pool of synthetic 5-tuples and draws the flow of each packet from
//! a Zipf distribution over that pool, so stateful vNFs (monitor, NAT, load
//! balancer) see realistic flow-table sizes and hit rates.

use std::net::Ipv4Addr;

use pam_sim::{GuidedCdf, SimRng};
use pam_wire::FiveTuple;
use serde::{Deserialize, Serialize};

/// Configuration of a flow population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowGeneratorConfig {
    /// Number of distinct flows in the pool.
    pub flow_count: usize,
    /// Zipf exponent of flow popularity (0 = uniform, ~1 = realistic skew).
    pub zipf_exponent: f64,
    /// Fraction of flows that are TCP (the rest are UDP).
    pub tcp_fraction: f64,
}

impl Default for FlowGeneratorConfig {
    fn default() -> Self {
        FlowGeneratorConfig {
            flow_count: 10_000,
            zipf_exponent: 1.0,
            tcp_fraction: 0.8,
        }
    }
}

/// A deterministic pool of flows with skewed popularity.
#[derive(Debug, Clone)]
pub struct FlowGenerator {
    flows: Vec<FiveTuple>,
    popularity: GuidedCdf,
}

impl FlowGenerator {
    /// Builds a flow pool from its configuration, deterministically derived
    /// from `rng`'s seed.
    pub fn new(config: &FlowGeneratorConfig, rng: &mut SimRng) -> Self {
        let count = config.flow_count.max(1);
        let mut flows = Vec::with_capacity(count);
        for i in 0..count {
            let i = i as u32;
            let src = Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
            let dst = Ipv4Addr::new(198, 18, (i >> 8) as u8, (i % 251) as u8);
            let src_port = 1024 + (i % 60_000) as u16;
            let dst_port = match i % 5 {
                0 => 80,
                1 => 443,
                2 => 53,
                3 => 8080,
                _ => 5060,
            };
            let is_tcp = rng.chance(config.tcp_fraction);
            let tuple = if is_tcp {
                FiveTuple::tcp(src, src_port, dst, dst_port)
            } else {
                FiveTuple::udp(src, src_port, dst, dst_port)
            };
            flows.push(tuple);
        }
        // Zipf popularity over ranks 1..=count; the flow order is shuffled so
        // flow index does not correlate with addresses.
        rng.shuffle(&mut flows);
        let exponent = config.zipf_exponent.max(0.0);
        let mut cdf = Vec::with_capacity(count);
        let mut acc = 0.0;
        for rank in 1..=count {
            acc += 1.0 / zipf_weight_denominator(rank as f64, exponent);
            cdf.push(acc);
        }
        FlowGenerator {
            flows,
            popularity: GuidedCdf::new(cdf),
        }
    }

    /// Number of distinct flows in the pool.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Draws the flow of the next packet.
    pub fn sample(&self, rng: &mut SimRng) -> FiveTuple {
        let rank = rng.guided_rank(&self.popularity);
        self.flows[rank.min(self.flows.len() - 1)]
    }

    /// All flows in the pool.
    pub fn flows(&self) -> &[FiveTuple] {
        &self.flows
    }
}

/// `rank^exponent`, skipping the `powf` call for the realistic exponent
/// `1.0`, where `x.powf(1.0) == x` exactly (pinned by a test over every rank
/// of a million-flow pool), so the CDF is bit-identical either way.
fn zipf_weight_denominator(rank: f64, exponent: f64) -> f64 {
    if exponent == 1.0 {
        rank
    } else {
        rank.powf(exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_wire::IpProtocol;
    use std::collections::HashMap;

    fn generator(count: usize, exponent: f64) -> (FlowGenerator, SimRng) {
        let mut rng = SimRng::seed_from(42);
        let config = FlowGeneratorConfig {
            flow_count: count,
            zipf_exponent: exponent,
            tcp_fraction: 0.8,
        };
        let gen = FlowGenerator::new(&config, &mut rng);
        (gen, rng)
    }

    #[test]
    fn pool_has_requested_size_and_distinct_tuples() {
        let (gen, _) = generator(5000, 1.0);
        assert_eq!(gen.flow_count(), 5000);
        let distinct: std::collections::HashSet<_> = gen.flows().iter().collect();
        assert_eq!(distinct.len(), 5000);
    }

    #[test]
    fn sampling_is_skewed_for_positive_exponent() {
        let (gen, mut rng) = generator(1000, 1.2);
        let mut counts: HashMap<FiveTuple, u64> = HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(gen.sample(&mut rng)).or_default() += 1;
        }
        let mut sorted: Vec<u64> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // The most popular flow should be sampled far more often than the median.
        assert!(sorted[0] > 20 * sorted[sorted.len() / 2].max(1));
        // But many flows are still seen.
        assert!(counts.len() > 300);
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let (gen, mut rng) = generator(100, 0.0);
        let mut counts: HashMap<FiveTuple, u64> = HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(gen.sample(&mut rng)).or_default() += 1;
        }
        let max = *counts.values().max().unwrap();
        let min = *counts.values().min().unwrap();
        assert!(
            max < 3 * min,
            "uniform sampling spread too wide: {min}..{max}"
        );
    }

    #[test]
    fn deterministic_for_a_given_seed() {
        let (gen_a, mut rng_a) = generator(500, 1.0);
        let (gen_b, mut rng_b) = generator(500, 1.0);
        assert_eq!(gen_a.flows(), gen_b.flows());
        let draws_a: Vec<_> = (0..50).map(|_| gen_a.sample(&mut rng_a)).collect();
        let draws_b: Vec<_> = (0..50).map(|_| gen_b.sample(&mut rng_b)).collect();
        assert_eq!(draws_a, draws_b);
    }

    #[test]
    fn tcp_fraction_is_respected() {
        let mut rng = SimRng::seed_from(7);
        let config = FlowGeneratorConfig {
            flow_count: 10_000,
            zipf_exponent: 1.0,
            tcp_fraction: 0.8,
        };
        let gen = FlowGenerator::new(&config, &mut rng);
        let tcp = gen
            .flows()
            .iter()
            .filter(|t| t.protocol == IpProtocol::Tcp)
            .count();
        let fraction = tcp as f64 / gen.flow_count() as f64;
        assert!((fraction - 0.8).abs() < 0.03, "tcp fraction {fraction}");
    }

    #[test]
    fn unit_exponent_skips_powf_without_changing_a_bit() {
        for rank in 1..=1_000_000u32 {
            let x = f64::from(rank);
            assert_eq!(x.powf(1.0).to_bits(), x.to_bits(), "rank {rank}");
            assert_eq!(zipf_weight_denominator(x, 1.0).to_bits(), x.to_bits());
        }
        assert_eq!(zipf_weight_denominator(4.0, 0.5), 2.0);
    }

    #[test]
    fn single_flow_pool_works() {
        let (gen, mut rng) = generator(1, 1.0);
        assert_eq!(gen.flow_count(), 1);
        assert_eq!(gen.sample(&mut rng), gen.flows()[0]);
    }
}
