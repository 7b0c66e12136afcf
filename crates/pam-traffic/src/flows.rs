//! Synthetic flow populations.
//!
//! Real traffic is made of flows whose popularity is heavily skewed: a few
//! elephants carry most bytes while most flows are mice. The generator builds
//! a fixed pool of synthetic 5-tuples and draws the flow of each packet from
//! a Zipf distribution over that pool, so stateful vNFs (monitor, NAT, load
//! balancer) see realistic flow-table sizes and hit rates.
//!
//! A pool entry is a packed `u32` (the flow's index and its protocol bit)
//! from which the 5-tuple is rebuilt on every draw, and the popularity table
//! depends only on the flow count and exponent, so every live generator of
//! the same shape shares one copy of it. A million-flow pool thus costs 4 MB
//! per generator plus one 8.5 MB table per process, not 14 MB of tuples
//! beside a private table each.

use std::fmt;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex, PoisonError, Weak};

use pam_sim::{GuidedCdf, SimRng};
use pam_wire::FiveTuple;
use serde::{Deserialize, Serialize};

/// The largest pool: a packed entry keeps the flow index in the 31 bits
/// above its protocol bit.
const MAX_FLOW_COUNT: u32 = 1 << 31;

/// Configuration of a flow population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowGeneratorConfig {
    /// Number of distinct flows in the pool, clamped to `1..=2^31`.
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
#[derive(Clone)]
pub struct FlowGenerator {
    /// Shuffled pool entries, `(index << 1) | is_tcp` each.
    pool: Vec<u32>,
    /// Cumulative Zipf weights over ranks, shared by every generator of the
    /// same `(flow count, exponent)`.
    popularity: Arc<GuidedCdf>,
}

impl FlowGenerator {
    /// Builds a flow pool from its configuration, deterministically derived
    /// from `rng`'s seed.
    pub fn new(config: &FlowGeneratorConfig, rng: &mut SimRng) -> Self {
        let count = clamped_flow_count(config.flow_count);
        let mut pool: Vec<u32> = (0..count)
            .map(|index| pack(index, rng.chance(config.tcp_fraction)))
            .collect();
        // Zipf popularity over ranks 1..=count; the flow order is shuffled so
        // flow index does not correlate with addresses.
        rng.shuffle(&mut pool);
        FlowGenerator {
            pool,
            popularity: popularity(count, config.zipf_exponent.max(0.0)),
        }
    }

    /// Number of distinct flows in the pool.
    pub fn flow_count(&self) -> usize {
        self.pool.len()
    }

    /// Draws the flow of the next packet.
    pub fn sample(&self, rng: &mut SimRng) -> FiveTuple {
        let rank = rng.guided_rank(&self.popularity);
        let (index, is_tcp) = unpack(self.pool[rank.min(self.pool.len() - 1)]);
        flow_tuple(index, is_tcp)
    }

    /// All flows in the pool, in popularity-rank order.
    pub fn flows(&self) -> impl ExactSizeIterator<Item = FiveTuple> + '_ {
        self.pool.iter().map(|&entry| {
            let (index, is_tcp) = unpack(entry);
            flow_tuple(index, is_tcp)
        })
    }
}

/// Shallow on purpose: the pool and table run to millions of entries.
impl fmt::Debug for FlowGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowGenerator")
            .field("flow_count", &self.pool.len())
            .field("table_len", &self.popularity.cdf().len())
            .finish()
    }
}

/// `requested` raised to one flow and capped at [`MAX_FLOW_COUNT`]: an
/// oversized count clamps instead of wrapping.
fn clamped_flow_count(requested: usize) -> u32 {
    u32::try_from(requested)
        .unwrap_or(MAX_FLOW_COUNT)
        .clamp(1, MAX_FLOW_COUNT)
}

/// A pool entry for flow `index` (below [`MAX_FLOW_COUNT`]).
fn pack(index: u32, is_tcp: bool) -> u32 {
    (index << 1) | u32::from(is_tcp)
}

/// The `(index, is_tcp)` a pool entry was packed from.
fn unpack(entry: u32) -> (u32, bool) {
    (entry >> 1, entry & 1 == 1)
}

/// The 5-tuple of flow `i`.
fn flow_tuple(i: u32, is_tcp: bool) -> FiveTuple {
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
    if is_tcp {
        FiveTuple::tcp(src, src_port, dst, dst_port)
    } else {
        FiveTuple::udp(src, src_port, dst, dst_port)
    }
}

/// Popularity tables alive in this process, by `(flow count, exponent
/// bits)`. An entry holds no table: the last generator using it frees it.
type TableCache = Vec<((u32, u64), Weak<GuidedCdf>)>;

static POPULARITY_TABLES: Mutex<TableCache> = Mutex::new(Vec::new());

/// The Zipf table over ranks `1..=count`, built once for all live
/// generators of this shape. The build runs under the lock, so threads
/// asking for the same table at once wait for one build.
fn popularity(count: u32, exponent: f64) -> Arc<GuidedCdf> {
    let key = (count, exponent.to_bits());
    // Each update below (a `retain`, a `push`) leaves the list valid, so a
    // panic elsewhere while the lock was held cannot corrupt it.
    let mut tables = POPULARITY_TABLES
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    tables.retain(|(_, table)| table.strong_count() > 0);
    if let Some(table) = tables
        .iter()
        .find(|(cached, _)| *cached == key)
        .and_then(|(_, table)| table.upgrade())
    {
        return table;
    }
    let mut cdf = Vec::with_capacity(count as usize);
    let mut acc = 0.0;
    for rank in 1..=count {
        acc += 1.0 / zipf_weight_denominator(f64::from(rank), exponent);
        cdf.push(acc);
    }
    let table = Arc::new(GuidedCdf::new(cdf));
    tables.push((key, Arc::downgrade(&table)));
    table
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
        let distinct: std::collections::HashSet<_> = gen.flows().collect();
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
        assert!(gen_a.flows().eq(gen_b.flows()));
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
        assert_eq!(Some(gen.sample(&mut rng)), gen.flows().next());
    }

    /// `FlowGenerator` as it was before pools were packed and tables
    /// shared: a tuple per flow and a private table per generator.
    struct ReferencePool {
        flows: Vec<FiveTuple>,
        popularity: GuidedCdf,
    }

    impl ReferencePool {
        fn new(config: &FlowGeneratorConfig, rng: &mut SimRng) -> Self {
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
            rng.shuffle(&mut flows);
            let exponent = config.zipf_exponent.max(0.0);
            let mut cdf = Vec::with_capacity(count);
            let mut acc = 0.0;
            for rank in 1..=count {
                acc += 1.0 / zipf_weight_denominator(rank as f64, exponent);
                cdf.push(acc);
            }
            ReferencePool {
                flows,
                popularity: GuidedCdf::new(cdf),
            }
        }

        fn sample(&self, rng: &mut SimRng) -> FiveTuple {
            let rank = rng.guided_rank(&self.popularity);
            self.flows[rank.min(self.flows.len() - 1)]
        }
    }

    /// Builds the pool both ways from one seed and compares every tuple,
    /// every table entry and `draws` samples.
    fn assert_matches_reference(count: usize, exponent: f64, tcp_fraction: f64, draws: usize) {
        let config = FlowGeneratorConfig {
            flow_count: count,
            zipf_exponent: exponent,
            tcp_fraction,
        };
        let ctx = format!("{count} flows, exponent {exponent}, tcp {tcp_fraction}");
        let (mut rng, mut reference_rng) = (SimRng::seed_from(2018), SimRng::seed_from(2018));
        let gen = FlowGenerator::new(&config, &mut rng);
        let reference = ReferencePool::new(&config, &mut reference_rng);
        assert_eq!(gen.flow_count(), reference.flows.len(), "{ctx}");
        assert!(
            gen.flows().eq(reference.flows.iter().copied()),
            "{ctx}: pool"
        );
        let bits = |cdf: &GuidedCdf| cdf.cdf().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gen.popularity), bits(&reference.popularity), "{ctx}");
        for draw in 0..draws {
            assert_eq!(
                gen.sample(&mut rng),
                reference.sample(&mut reference_rng),
                "{ctx}: draw {draw}"
            );
        }
    }

    #[test]
    fn packed_pool_reproduces_every_tuple_and_draw() {
        for count in [1, 7, 5_000, 100_000] {
            for exponent in [0.0, 1.0, 1.2] {
                for tcp_fraction in [0.0, 0.8, 1.0] {
                    assert_matches_reference(count, exponent, tcp_fraction, 10_000);
                }
            }
        }
    }

    /// The same identity at a million flows per pool, the largest population
    /// any workload builds; too slow for a debug build.
    #[test]
    #[ignore = "million-flow pools: run in release via `cargo test --release -- --ignored`"]
    fn packed_pool_reproduces_a_million_flow_population() {
        for exponent in [0.0, 1.0, 1.2] {
            for tcp_fraction in [0.0, 0.8, 1.0] {
                assert_matches_reference(1_000_000, exponent, tcp_fraction, 100_000);
            }
        }
    }

    #[test]
    fn top_index_survives_packing() {
        let top = MAX_FLOW_COUNT - 1;
        for is_tcp in [false, true] {
            assert_eq!(unpack(pack(top, is_tcp)), (top, is_tcp));
        }
        assert_eq!(unpack(pack(0, true)), (0, true));
        // Flow 2^31 - 1: the address and port formulas see the full index.
        let tuple = flow_tuple(top, true);
        assert_eq!(tuple.src_ip, Ipv4Addr::new(10, 255, 255, 255));
        assert_eq!(tuple.src_port, 1024 + (top % 60_000) as u16);
        assert_eq!(tuple.protocol, IpProtocol::Tcp);
    }

    #[test]
    fn equal_shapes_share_one_table() {
        let config = |flow_count, zipf_exponent| FlowGeneratorConfig {
            flow_count,
            zipf_exponent,
            tcp_fraction: 0.8,
        };
        let a = FlowGenerator::new(&config(2_001, 1.0), &mut SimRng::seed_from(1));
        let b = FlowGenerator::new(&config(2_001, 1.0), &mut SimRng::seed_from(2));
        let c = FlowGenerator::new(&config(2_001, 1.1), &mut SimRng::seed_from(1));
        let d = FlowGenerator::new(&config(2_002, 1.0), &mut SimRng::seed_from(1));
        assert!(
            Arc::ptr_eq(&a.popularity, &b.popularity),
            "seed is not a key"
        );
        assert!(!Arc::ptr_eq(&a.popularity, &c.popularity), "exponent is");
        assert!(!Arc::ptr_eq(&a.popularity, &d.popularity), "count is");
    }

    #[test]
    fn table_dies_with_its_last_generator() {
        let config = FlowGeneratorConfig {
            flow_count: 2_003,
            ..FlowGeneratorConfig::default()
        };
        let a = FlowGenerator::new(&config, &mut SimRng::seed_from(1));
        let b = a.clone();
        let table = Arc::downgrade(&a.popularity);
        drop(a);
        assert!(table.upgrade().is_some(), "the clone still holds it");
        drop(b);
        assert!(table.upgrade().is_none(), "freed with the last generator");
    }

    #[test]
    fn concurrent_builds_share_one_table() {
        let config = FlowGeneratorConfig {
            flow_count: 2_004,
            ..FlowGeneratorConfig::default()
        };
        let start = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let build = |seed| {
                let (config, start) = (&config, &start);
                scope.spawn(move || {
                    start.wait();
                    FlowGenerator::new(config, &mut SimRng::seed_from(seed))
                })
            };
            let (a, b) = (build(1), build(2));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a.popularity, &b.popularity));
    }

    #[test]
    fn flow_count_is_clamped_not_wrapped() {
        // Checked on the count alone: a 2^31-entry pool is 8 GB.
        for requested in [usize::MAX, (1 << 32) + 5, 1 << 31, (1 << 31) + 1] {
            assert_eq!(clamped_flow_count(requested), MAX_FLOW_COUNT);
        }
        assert_eq!(clamped_flow_count((1 << 31) - 1), MAX_FLOW_COUNT - 1);
        assert_eq!(clamped_flow_count(0), 1);
        let (gen, _) = generator(0, 1.0);
        assert_eq!(gen.flow_count(), 1, "an empty pool is raised to one flow");
    }

    #[test]
    fn debug_is_shallow() {
        let (gen, _) = generator(5_000, 1.0);
        assert_eq!(
            format!("{gen:?}"),
            "FlowGenerator { flow_count: 5000, table_len: 5000 }"
        );
    }
}
