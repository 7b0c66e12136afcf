//! Differential properties of the sliding heavy-hitter sketch against the
//! exact per-flow table, over random traffic traces.
//!
//! Three invariants (flow mix, skew, byte sizes and tick layout all
//! randomised):
//!
//! 1. **never undercount** — a count-min estimate only collides upward, so
//!    for every flow the sketch's windowed byte estimate must be at least
//!    the exact table's;
//! 2. **(ε, δ) overcount bound** — the per-flow overestimate stays within
//!    ε × (total live window bytes), for all but a δ-sized fraction of
//!    flows (the documented [`pam::fleet::LoadEstimator::error_bound`]);
//! 3. **identical tick view** — both estimator kinds answer byte-identical
//!    windowed mean / peak / latest loads, because the controller ladder
//!    reads tick samples, not per-flow state. This is why switching the
//!    fleet to `estimator = sketch` changes memory and nothing else.
//!
//! The full randomised suites are `#[ignore]`d out of the tier-1
//! `cargo test -q` path and run by CI's dedicated `proptest` job with
//! `PROPTEST_CASES=1024`; a deterministic smoke case of each property stays
//! in the default path. A final test pins the API-redesign compatibility
//! contract: a scenario with the estimator knob left at its default produces
//! the same report bytes as one explicitly tuned to `EstimatorKind::Exact`.

use pam::core::StrategyKind;
use pam::experiments::fleet::{FleetScenario, FleetScenarioKind, FleetTuning};
use pam::fleet::{EstimatorConfig, EstimatorKind, LoadEstimator};
use pam::types::{Gbps, SimDuration, SimTime};
use proptest::prelude::*;

/// Control-tick cadence used by every differential run.
const INTERVAL: SimDuration = SimDuration::from_micros(500);

/// Deterministic splitmix64 step, so each sampled `seed` expands into a
/// reproducible trace without threading an RNG through the harness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Drives one identical random trace into a fresh exact/sketch pair:
/// `arrivals` flow arrivals with a skewed flow mix over `flow_count`
/// distinct flows, with a control tick sealed every `per_tick` arrivals.
/// Returns the pair and the number of distinct flows that arrived.
fn differential_run(
    seed: u64,
    flow_count: u64,
    arrivals: usize,
    per_tick: usize,
) -> (LoadEstimator, LoadEstimator, usize) {
    let config = |kind| EstimatorConfig::of(kind).with_window(SimDuration::from_micros(1_500));
    let mut exact = LoadEstimator::new(&config(EstimatorKind::Exact), INTERVAL);
    let mut sketch = LoadEstimator::new(&config(EstimatorKind::Sketch), INTERVAL);
    let mut state = seed;
    let mut tick = 0u64;
    let mut seen = std::collections::HashSet::new();
    for i in 0..arrivals {
        // min() of two draws skews the mix toward low flow ids, so the
        // trace has genuine heavy hitters instead of uniform noise.
        let flow = (splitmix(&mut state) % flow_count).min(splitmix(&mut state) % flow_count);
        let bytes = 64 + splitmix(&mut state) % 1_436;
        seen.insert(flow);
        exact.record_arrival(flow, bytes);
        sketch.record_arrival(flow, bytes);
        if (i + 1) % per_tick == 0 {
            tick += 1;
            let now = SimTime::from_micros(tick * 500);
            let load = Gbps::new((1 + splitmix(&mut state) % 40) as f64 / 10.0);
            exact.record(now, load);
            sketch.record(now, load);
            // Property 3: the decision surface is identical every tick.
            assert_eq!(exact.windowed(), sketch.windowed(), "tick {tick}");
            assert_eq!(exact.peak(), sketch.peak(), "tick {tick}");
            assert_eq!(exact.latest(), sketch.latest(), "tick {tick}");
        }
    }
    (exact, sketch, seen.len())
}

/// Asserts properties 1 and 2 on a finished run.
fn assert_differential(exact: &LoadEstimator, sketch: &LoadEstimator, flow_count: u64, ctx: &str) {
    let (epsilon, delta) = sketch.error_bound();
    assert!(epsilon > 0.0 && delta > 0.0, "{ctx}: bounds undocumented");
    // N in the count-min guarantee: every byte currently inside the live
    // window, which the exact table reports without error.
    let live_total: u64 = (0..flow_count).map(|f| exact.windowed_flow_bytes(f)).sum();
    let margin = (epsilon * live_total as f64).ceil() as u64;
    let mut over_margin = 0u64;
    for flow in 0..flow_count {
        let truth = exact.windowed_flow_bytes(flow);
        let estimate = sketch.windowed_flow_bytes(flow);
        assert!(
            estimate >= truth,
            "{ctx}: flow {flow} undercounted ({estimate} < {truth})"
        );
        if estimate - truth > margin {
            over_margin += 1;
        }
    }
    // Per-query failure probability is delta; across `flow_count` queries
    // allow twice the expected failures (plus one for tiny flow counts)
    // before declaring the sketch out of spec.
    let budget = 1 + (2.0 * delta * flow_count as f64).ceil() as u64;
    assert!(
        over_margin <= budget,
        "{ctx}: {over_margin} flows exceeded the ε-margin {margin} (budget {budget})"
    );
    // The sketch's own heavy-hitter view must obey the same floor: reported
    // estimates never undercount the exact table.
    for (flow, estimate) in sketch.heavy_hitters(16) {
        assert!(
            estimate >= exact.windowed_flow_bytes(flow),
            "{ctx}: heavy hitter {flow} undercounted"
        );
    }
}

proptest! {
    /// The randomised suite (CI's `proptest` job, PROPTEST_CASES=1024).
    #[test]
    #[ignore = "randomised suite: run via `cargo test -- --ignored` (CI proptest job)"]
    fn sketch_matches_exact_within_documented_bounds(
        seed in 0u64..1_000_000,
        flow_count in 8u64..512,
        arrivals in 512usize..4_096,
        per_tick in 64usize..1_024,
    ) {
        let (exact, sketch, _) = differential_run(seed, flow_count, arrivals, per_tick);
        assert_differential(
            &exact,
            &sketch,
            flow_count,
            &format!("seed={seed} flows={flow_count} arrivals={arrivals} per_tick={per_tick}"),
        );
    }
}

/// Deterministic smoke case of the same properties (tier-1 path).
#[test]
fn sketch_differential_smoke() {
    let (exact, sketch, _) = differential_run(2018, 97, 2_000, 400);
    assert_differential(&exact, &sketch, 97, "smoke");
}

/// A uniform million-id flood (no repeats, nothing survives pruning) still
/// never undercounts, and both estimators stay inside the memory of one
/// window — the regime the fleet's 1M-flow flash-crowd cell runs in.
#[test]
fn sketch_smoke_survives_a_wide_uniform_flood() {
    let (exact, sketch, distinct) = differential_run(7, 50_000, 4_096, 512);
    assert_differential(&exact, &sketch, 50_000, "flood");
    // The exact table holds only the live window: four slots (window /
    // interval + 1), each a map of one tick's at most 512 flows (a
    // power-of-two array of 24-byte slots grown at 7/8 load, so at most
    // 1 024 slots), plus a little for the ring itself.
    assert!(distinct > 4 * 512, "the flood outgrows the window");
    assert!(
        exact.resident_bytes() <= 4 * 1_024 * 24 + 1_024,
        "exact {} B for a window of 4 x 512 arrivals",
        exact.resident_bytes()
    );
    // Neither pays per distinct flow: a ten times wider, ten times longer
    // flood leaves both footprints where they were.
    let (wide_exact, wide, _) = differential_run(7, 500_000, 40_960, 512);
    assert_eq!(wide.resident_bytes(), sketch.resident_bytes());
    assert_eq!(wide_exact.resident_bytes(), exact.resident_bytes());
}

/// The compatibility half of the API redesign: leaving the estimator knob
/// untouched is byte-for-byte the same run as explicitly selecting
/// [`EstimatorKind::Exact`] — which is why `BENCH_baseline.json` needed no
/// regeneration when the knob landed.
#[test]
fn default_scenario_is_byte_identical_to_explicit_exact() {
    let kind = FleetScenarioKind::FlashCrowd;
    let default_run = FleetScenario::new(kind, 2)
        .run(StrategyKind::Pam)
        .expect("scenario runs");
    let exact_run = FleetScenario::new(kind, 2)
        .with_tuning(FleetTuning::default().with_estimator(EstimatorKind::Exact))
        .run(StrategyKind::Pam)
        .expect("scenario runs");
    assert_eq!(
        serde_json::to_string(&default_run).expect("report serializes"),
        serde_json::to_string(&exact_run).expect("report serializes"),
    );
}
