//! Load estimation behind one interface: exact per-flow accounting or a
//! sliding-window heavy-hitter sketch.
//!
//! The single-server orchestrator polls the *instantaneous* offered load,
//! which whipsaws under bursty traffic: one quiet poll interval during a
//! flash crowd and the controller believes the overload is gone. The fleet
//! controller instead feeds every decision from a [`LoadEstimator`]: a
//! window of tick-aligned load samples answering the windowed mean (used to
//! decide migrations and scale-out), the windowed peak (used to hold off
//! scale-in until the *whole* window has receded), and the window's top-k
//! heaviest flows.
//!
//! Two implementations sit behind the interface, selected by
//! [`EstimatorKind`]:
//!
//! * **`Exact`** — the historical estimator: a ring of tick samples plus,
//!   per window slot, each flow's bytes in that tick. Ground truth in
//!   O(live window) memory: a slot is cleared when its tick leaves the
//!   window, so only the distinct flows of the live ticks are held — the
//!   committed `BENCH_baseline.json` is pinned to its decisions.
//! * **`Sketch`** — a Memento-style sliding count-min sketch (see
//!   [`crate::sketch`]): the same tick-sample ring for mean/peak (so the
//!   decision ladder sees identical windowed loads), but per-flow state
//!   collapses to `slots x depth x width` counters with a documented
//!   (epsilon, delta) overcount bound — fixed at construction, whatever
//!   the flow count or the window's population.
//!
//! The concrete types are private: the fleet records through
//! [`LoadEstimator::record`]/[`LoadEstimator::record_arrival`] and queries
//! through [`LoadEstimator::windowed`]/[`LoadEstimator::peak`]/
//! [`LoadEstimator::heavy_hitters`], so swapping the estimator never touches
//! a call site again.

use std::collections::VecDeque;

use pam_nf::fastmap::FlowMap;
use pam_types::{Gbps, PamError, SimDuration, SimTime};
use serde::value::{Map, Value};
use serde::{Deserialize, Error, Serialize};

use crate::sketch::SlidingSketch;

/// A timestamped offered-load sample.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    at: SimTime,
    load: Gbps,
}

/// A sliding window over offered-load samples (the tick-sample ring both
/// estimator variants share for mean/peak).
///
/// Samples older than the configured window are evicted on every
/// [`record`](SlidingWindowEstimator::record), so the ring's memory is
/// bounded by `window / sample_interval`. The queries (`mean`, `peak`,
/// `latest`) do not evict — they reflect the window as of the most recent
/// sample, so record at the current time before querying.
#[derive(Debug, Clone)]
pub(crate) struct SlidingWindowEstimator {
    window: SimDuration,
    samples: VecDeque<Sample>,
}

impl SlidingWindowEstimator {
    /// Creates an estimator remembering samples for `window`.
    pub(crate) fn new(window: SimDuration) -> Self {
        SlidingWindowEstimator {
            window,
            samples: VecDeque::new(),
        }
    }

    /// The configured window length.
    pub(crate) fn window(&self) -> SimDuration {
        self.window
    }

    /// Records a load sample taken at `now` and evicts expired samples.
    ///
    /// Timestamps must not run backwards; a `now` earlier than the latest
    /// sample (possible when a resumed run re-records the boundary tick) is
    /// clamped to the latest sample's time, so the ring stays monotone and
    /// eviction can never resurrect an already-evicted sample. Debug builds
    /// additionally assert, to surface the caller's ordering bug.
    pub(crate) fn record(&mut self, now: SimTime, load: Gbps) {
        let now = match self.samples.back() {
            Some(last) if now < last.at => {
                debug_assert!(
                    now >= last.at,
                    "out-of-order estimator sample: {now:?} after {:?}",
                    last.at
                );
                last.at
            }
            _ => now,
        };
        self.samples.push_back(Sample { at: now, load });
        self.evict(now);
    }

    /// Number of samples currently inside the window.
    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample is inside the window.
    pub(crate) fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The windowed mean load (zero with no samples).
    pub(crate) fn mean(&self) -> Gbps {
        if self.samples.is_empty() {
            return Gbps::ZERO;
        }
        let sum: f64 = self.samples.iter().map(|s| s.load.as_gbps()).sum();
        Gbps::new(sum / self.samples.len() as f64)
    }

    /// The windowed peak load (zero with no samples).
    pub(crate) fn peak(&self) -> Gbps {
        self.samples
            .iter()
            .map(|s| s.load)
            .fold(Gbps::ZERO, Gbps::max)
    }

    /// The most recent sample (zero with no samples).
    pub(crate) fn latest(&self) -> Gbps {
        self.samples.back().map(|s| s.load).unwrap_or(Gbps::ZERO)
    }

    /// Heap bytes held by the sample ring.
    fn resident_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<Sample>()
    }

    /// Drops samples that left the window as of `now`.
    fn evict(&mut self, now: SimTime) {
        while let Some(front) = self.samples.front() {
            if now.duration_since(front.at) > self.window {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }
}

/// Which load-estimator implementation a fleet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EstimatorKind {
    /// Exact per-flow windowed accounting (the committed-baseline default).
    #[default]
    Exact,
    /// The sliding count-min heavy-hitter sketch (see [`crate::sketch`]).
    Sketch,
}

impl EstimatorKind {
    /// Both kinds, in ablation order.
    pub const ALL: [EstimatorKind; 2] = [EstimatorKind::Exact, EstimatorKind::Sketch];

    /// The machine-readable name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::Exact => "exact",
            EstimatorKind::Sketch => "sketch",
        }
    }

    /// Parses a CLI/report name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

// Hand-serialised as a plain string so configs stay greppable and the
// vendored serde derive (which has no `#[serde(default)]`) is not needed.
impl Serialize for EstimatorKind {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_owned())
    }
}

impl Deserialize for EstimatorKind {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(name) => EstimatorKind::from_name(name)
                .ok_or_else(|| Error::custom(format!("unknown estimator kind `{name}`"))),
            _ => Err(Error::custom("EstimatorKind must be a string")),
        }
    }
}

/// Configuration of a fleet's [`LoadEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Which implementation to run.
    pub kind: EstimatorKind,
    /// Length of the sliding window feeding every fleet decision.
    pub window: SimDuration,
    /// Count-min rows of the sketch variant (`delta = e^-depth`).
    pub depth: usize,
    /// Count-min counters per row of the sketch variant, rounded up to a
    /// power of two (`epsilon = e / width`).
    pub width: usize,
    /// How many heavy-hitter flows the sketch variant tracks.
    pub top_k: usize,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            kind: EstimatorKind::Exact,
            window: SimDuration::from_millis(2),
            depth: 4,
            width: 256,
            top_k: 32,
        }
    }
}

impl EstimatorConfig {
    /// The default parameters of the given kind.
    pub fn of(kind: EstimatorKind) -> Self {
        EstimatorConfig {
            kind,
            ..Default::default()
        }
    }

    /// Overrides the window length.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// Most window slots (`window / interval + 1`): every estimator keeps
    /// per-slot state, allocated up front by the sketch.
    pub const MAX_SLOTS: u64 = 4_096;
    /// Most count-min rows (`delta = e^-32` is already below 1e-13).
    pub const MAX_DEPTH: usize = 32;
    /// Most count-min counters per row (`epsilon = e / 2^20`).
    pub const MAX_WIDTH: usize = 1 << 20;
    /// Most tracked heavy hitters (the sketch keeps a small multiple of
    /// `top_k` candidates, which must not overflow).
    pub const MAX_TOP_K: usize = 1 << 16;
    /// Most counters one sketch allocates (`slots x depth x width` after
    /// the width is rounded up: 32 MiB of `u64`s).
    pub const MAX_SKETCH_COUNTERS: u64 = 1 << 22;

    /// Checks every size an estimator built from this config for a fleet
    /// ticking every `interval` would allocate against its bound above.
    /// Every kind is held to the slot, depth, width and top-k bounds, so a
    /// config valid for one kind is valid for the other; only the sketch
    /// allocates the counter product, so only it is held to that one.
    pub fn validate(&self, interval: SimDuration) -> pam_types::Result<()> {
        let slots = window_slots(self.window, interval);
        if slots > Self::MAX_SLOTS {
            return Err(over_bound("window slots", slots, Self::MAX_SLOTS));
        }
        let sizes = [
            ("depth", self.depth, Self::MAX_DEPTH),
            ("width", self.width, Self::MAX_WIDTH),
            ("top_k", self.top_k, Self::MAX_TOP_K),
        ];
        for (what, value, bound) in sizes {
            if value > bound {
                return Err(over_bound(what, value as u64, bound as u64));
            }
        }
        if self.kind == EstimatorKind::Sketch {
            // Each factor is bounded above, so the product cannot overflow.
            let width = self.width.max(2).next_power_of_two() as u64;
            let counters = slots * self.depth.max(1) as u64 * width;
            if counters > Self::MAX_SKETCH_COUNTERS {
                return Err(over_bound(
                    "sketch counters",
                    counters,
                    Self::MAX_SKETCH_COUNTERS,
                ));
            }
        }
        Ok(())
    }
}

/// Why an [`EstimatorConfig`] is refused: `what` is `value`, past `bound`.
fn over_bound(what: &str, value: u64, bound: u64) -> PamError {
    PamError::config(format!(
        "estimator {what} is {value}, more than the bound of {bound}"
    ))
}

// Every key is optional on the way in — a config written before the
// estimator knob existed (or one naming only `kind`) deserialises with the
// committed-baseline defaults, following the `link_model` pattern (the
// vendored serde derive has no `#[serde(default)]`).
impl Serialize for EstimatorConfig {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("kind".to_owned(), self.kind.to_value());
        map.insert("window".to_owned(), self.window.to_value());
        map.insert("depth".to_owned(), self.depth.to_value());
        map.insert("width".to_owned(), self.width.to_value());
        map.insert("top_k".to_owned(), self.top_k.to_value());
        Value::Object(map)
    }
}

impl Deserialize for EstimatorConfig {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let map = match value {
            Value::Object(map) => map,
            _ => return Err(Error::custom("EstimatorConfig must be an object")),
        };
        let defaults = EstimatorConfig::default();
        Ok(EstimatorConfig {
            kind: match map.get("kind") {
                Some(value) => EstimatorKind::from_value(value)?,
                None => defaults.kind,
            },
            window: match map.get("window") {
                Some(value) => SimDuration::from_value(value)?,
                None => defaults.window,
            },
            depth: match map.get("depth") {
                Some(value) => usize::from_value(value)?,
                None => defaults.depth,
            },
            width: match map.get("width") {
                Some(value) => usize::from_value(value)?,
                None => defaults.width,
            },
            top_k: match map.get("top_k") {
                Some(value) => usize::from_value(value)?,
                None => defaults.top_k,
            },
        })
    }
}

/// Exact windowed per-flow accounting: the ground-truth estimator.
///
/// A ring of one `flow -> bytes` map per window slot: `ticks[epoch %
/// slots]` holds what each flow sent in that tick. Sealing a tick clears
/// the map the next tick reuses, whose epoch has just left the window, so
/// every map in the ring is live and a windowed query sums them all. A flow
/// that stops arriving is forgotten `slots` ticks later: memory is bounded
/// by the distinct flows of the live window (each map keeps the capacity of
/// the busiest tick it held), not by every flow seen since t = 0, and an
/// arrival probes one small map.
#[derive(Debug, Clone)]
struct ExactEstimator {
    ring: SlidingWindowEstimator,
    /// Per-tick flow totals of the window's live epochs.
    ticks: Vec<FlowMap<u64>>,
    /// Index into `ticks` of the current (in-progress) epoch.
    current: usize,
}

impl ExactEstimator {
    fn new(window: SimDuration, slots: usize) -> Self {
        ExactEstimator {
            ring: SlidingWindowEstimator::new(window),
            ticks: (0..slots.max(1)).map(|_| FlowMap::new()).collect(),
            current: 0,
        }
    }

    fn record_arrival(&mut self, flow: u64, bytes: u64) {
        let tick = &mut self.ticks[self.current];
        match tick.get_mut(flow) {
            Some(total) => *total += bytes,
            None => {
                tick.insert(flow, bytes);
            }
        }
    }

    /// Seals the current tick: the next one reuses the slot of the epoch
    /// that just left the window.
    fn rotate(&mut self) {
        self.current = (self.current + 1) % self.ticks.len();
        self.ticks[self.current].clear();
    }

    /// The flow's exact byte count across the window's live epochs.
    fn windowed_bytes(&self, flow: u64) -> u64 {
        self.ticks.iter().filter_map(|tick| tick.get(flow)).sum()
    }

    fn heavy_hitters(&self, k: usize) -> Vec<(u64, u64)> {
        let mut scored: Vec<(u64, u64)> = self
            .ticks
            .iter()
            .flat_map(|tick| tick.iter().map(|(flow, &bytes)| (flow, bytes)))
            .collect();
        // Merge each flow's per-tick totals into one window total.
        scored.sort_unstable_by_key(|&(flow, _)| flow);
        scored.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        scored.retain(|&(_, bytes)| bytes > 0);
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// Heap bytes held: every tick map's slot array, the ring of maps and
    /// the tick-sample ring, each at its allocated capacity.
    fn resident_bytes(&self) -> usize {
        let maps: usize = self.ticks.iter().map(FlowMap::resident_bytes).sum();
        let ring = self.ticks.capacity() * std::mem::size_of::<FlowMap<u64>>();
        maps + ring + self.ring.resident_bytes()
    }
}

/// The window slots of `window` split into `interval`-aligned ticks: the
/// in-progress tick plus `window / interval` sealed ones (one slot for a
/// zero interval). Saturates instead of overflowing.
fn window_slots(window: SimDuration, interval: SimDuration) -> u64 {
    if interval.is_zero() {
        1
    } else {
        (window.as_nanos() / interval.as_nanos()).saturating_add(1)
    }
}

/// The estimator implementations, behind the [`LoadEstimator`] facade.
#[derive(Debug, Clone)]
enum Inner {
    Exact(ExactEstimator),
    Sketch {
        ring: SlidingWindowEstimator,
        sketch: SlidingSketch,
    },
}

/// The load estimator a [`crate::FleetServer`] feeds and the fleet
/// controller's decision ladder reads.
///
/// One surface, two implementations (see [`EstimatorKind`]): the fleet
/// records a tick's offered load through [`LoadEstimator::record`] and every
/// packet arrival through [`LoadEstimator::record_arrival`]; the ladder
/// queries [`LoadEstimator::windowed`] and [`LoadEstimator::peak`]. Both
/// variants answer mean/peak from the same tick-sample ring, so the
/// *decisions* are identical — what changes is the per-flow state behind
/// [`LoadEstimator::heavy_hitters`] and [`LoadEstimator::resident_bytes`]:
/// the exact tables hold the distinct flows of the live window (flows that
/// left it are forgotten), the sketch a fixed counter matrix.
#[derive(Debug, Clone)]
pub struct LoadEstimator {
    inner: Inner,
}

impl LoadEstimator {
    /// Builds the estimator `config` describes, with the window split into
    /// `interval`-aligned slots (the control tick cadence): the in-progress
    /// tick plus `window / interval` sealed ones, mirroring the tick-sample
    /// ring's eviction rule.
    ///
    /// Nothing here is bounded: check the config with
    /// [`EstimatorConfig::validate`] first, as [`crate::Fleet::new`] does.
    pub fn new(config: &EstimatorConfig, interval: SimDuration) -> Self {
        let slots = usize::try_from(window_slots(config.window, interval)).unwrap_or(usize::MAX);
        let inner = match config.kind {
            EstimatorKind::Exact => Inner::Exact(ExactEstimator::new(config.window, slots)),
            EstimatorKind::Sketch => Inner::Sketch {
                ring: SlidingWindowEstimator::new(config.window),
                sketch: SlidingSketch::new(slots, config.depth, config.width, config.top_k),
            },
        };
        LoadEstimator { inner }
    }

    /// Which implementation is running.
    pub fn kind(&self) -> EstimatorKind {
        match &self.inner {
            Inner::Exact(_) => EstimatorKind::Exact,
            Inner::Sketch { .. } => EstimatorKind::Sketch,
        }
    }

    /// The configured window length.
    pub fn window(&self) -> SimDuration {
        match &self.inner {
            Inner::Exact(exact) => exact.ring.window(),
            Inner::Sketch { ring, .. } => ring.window(),
        }
    }

    /// Records the offered load measured over the tick ending at `now` and
    /// seals the tick's per-flow accounting (the window slides one slot).
    /// Out-of-order timestamps are clamped monotone (and debug-asserted —
    /// see `SlidingWindowEstimator::record`).
    pub fn record(&mut self, now: SimTime, offered: Gbps) {
        match &mut self.inner {
            Inner::Exact(exact) => {
                exact.ring.record(now, offered);
                exact.rotate();
            }
            Inner::Sketch { ring, sketch } => {
                ring.record(now, offered);
                sketch.rotate();
            }
        }
    }

    /// Accounts `bytes` arriving for `flow` in the current tick.
    pub fn record_arrival(&mut self, flow: u64, bytes: u64) {
        match &mut self.inner {
            Inner::Exact(exact) => exact.record_arrival(flow, bytes),
            Inner::Sketch { sketch, .. } => sketch.record(flow, bytes),
        }
    }

    /// The windowed mean load (zero with no samples).
    pub fn windowed(&self) -> Gbps {
        match &self.inner {
            Inner::Exact(exact) => exact.ring.mean(),
            Inner::Sketch { ring, .. } => ring.mean(),
        }
    }

    /// The windowed peak load (zero with no samples).
    pub fn peak(&self) -> Gbps {
        match &self.inner {
            Inner::Exact(exact) => exact.ring.peak(),
            Inner::Sketch { ring, .. } => ring.peak(),
        }
    }

    /// The most recent tick's load (zero with no samples).
    pub fn latest(&self) -> Gbps {
        match &self.inner {
            Inner::Exact(exact) => exact.ring.latest(),
            Inner::Sketch { ring, .. } => ring.latest(),
        }
    }

    /// Number of tick samples currently inside the window.
    pub fn samples(&self) -> usize {
        match &self.inner {
            Inner::Exact(exact) => exact.ring.len(),
            Inner::Sketch { ring, .. } => ring.len(),
        }
    }

    /// True when no tick sample is inside the window yet.
    pub fn is_empty(&self) -> bool {
        match &self.inner {
            Inner::Exact(exact) => exact.ring.is_empty(),
            Inner::Sketch { ring, .. } => ring.is_empty(),
        }
    }

    /// The flow's estimated bytes across the window: exact for
    /// [`EstimatorKind::Exact`], a count-min overestimate within the
    /// [`LoadEstimator::error_bound`] for [`EstimatorKind::Sketch`].
    pub fn windowed_flow_bytes(&self, flow: u64) -> u64 {
        match &self.inner {
            Inner::Exact(exact) => exact.windowed_bytes(flow),
            Inner::Sketch { sketch, .. } => sketch.estimate(flow),
        }
    }

    /// The `k` heaviest flows of the window as `(flow, bytes)`, heaviest
    /// first, ties broken by lowest flow id. Exact truth for
    /// [`EstimatorKind::Exact`]; for [`EstimatorKind::Sketch`] the set is
    /// drawn from the sketch's bounded candidate table and each count is a
    /// count-min estimate.
    pub fn heavy_hitters(&self, k: usize) -> Vec<(u64, u64)> {
        match &self.inner {
            Inner::Exact(exact) => exact.heavy_hitters(k),
            Inner::Sketch { sketch, .. } => sketch.heavy_hitters(k),
        }
    }

    /// The (epsilon, delta) overcount bound of
    /// [`LoadEstimator::windowed_flow_bytes`]: `estimate <= truth +
    /// epsilon * window_bytes` with probability at least `1 - delta`.
    /// `(0, 0)` for the exact estimator.
    pub fn error_bound(&self) -> (f64, f64) {
        match &self.inner {
            Inner::Exact(_) => (0.0, 0.0),
            Inner::Sketch { sketch, .. } => sketch.error_bound(),
        }
    }

    /// Bytes of memory resident in the estimator's per-flow state (plus the
    /// tick ring). The ablation's headline number: exact follows the
    /// distinct flows of the live window (each slot keeping the capacity of
    /// its busiest tick), the sketch is fixed at construction.
    pub fn resident_bytes(&self) -> usize {
        match &self.inner {
            Inner::Exact(exact) => exact.resident_bytes(),
            Inner::Sketch { ring, sketch } => ring.resident_bytes() + sketch.resident_bytes(),
        }
    }
}

/// The slab estimator the tick ring replaced, kept as the differential
/// oracle of [`ExactEstimator`]: per flow ever seen, one epoch-stamped byte
/// counter per window slot, never evicted. Slow and O(distinct flows), but
/// exact by construction.
#[cfg(test)]
mod slab_oracle {
    use pam_nf::fastmap::FlowMap;

    pub(super) struct SlabEstimator {
        /// flow -> ordinal: its counters are `slab[ordinal * slots..][..slots]`.
        ordinals: FlowMap<u32>,
        /// Per-slot `(epoch, bytes)` counters of every flow.
        slab: Vec<(u64, u64)>,
        /// Flow keys by ordinal.
        keys: Vec<u64>,
        /// The current (in-progress) epoch.
        epoch: u64,
        slots: usize,
    }

    impl SlabEstimator {
        pub(super) fn new(slots: usize) -> Self {
            SlabEstimator {
                ordinals: FlowMap::new(),
                slab: Vec::new(),
                keys: Vec::new(),
                epoch: 0,
                slots: slots.max(1),
            }
        }

        pub(super) fn rotate(&mut self) {
            self.epoch += 1;
        }

        pub(super) fn record_arrival(&mut self, flow: u64, bytes: u64) {
            let (epoch, slots) = (self.epoch, self.slots);
            let slot = (epoch % slots as u64) as usize;
            if let Some(&ordinal) = self.ordinals.get(flow) {
                let counter = &mut self.slab[ordinal as usize * slots + slot];
                if counter.0 != epoch {
                    *counter = (epoch, 0);
                }
                counter.1 += bytes;
            } else {
                let ordinal = u32::try_from(self.keys.len()).expect("fewer than 2^32 flows");
                let start = self.slab.len();
                self.slab.resize(start + slots, (0, 0));
                self.slab[start + slot] = (epoch, bytes);
                self.ordinals.insert(flow, ordinal);
                self.keys.push(flow);
            }
        }

        fn live_bytes(&self, counters: &[(u64, u64)]) -> u64 {
            counters
                .iter()
                .filter(|(epoch, _)| epoch + self.slots as u64 > self.epoch)
                .map(|(_, bytes)| bytes)
                .sum()
        }

        pub(super) fn windowed_bytes(&self, flow: u64) -> u64 {
            let Some(&ordinal) = self.ordinals.get(flow) else {
                return 0;
            };
            let start = ordinal as usize * self.slots;
            self.live_bytes(&self.slab[start..start + self.slots])
        }

        pub(super) fn heavy_hitters(&self, k: usize) -> Vec<(u64, u64)> {
            let mut scored: Vec<(u64, u64)> = self
                .keys
                .iter()
                .zip(self.slab.chunks_exact(self.slots))
                .filter_map(|(&flow, counters)| {
                    let bytes = self.live_bytes(counters);
                    (bytes > 0).then_some((flow, bytes))
                })
                .collect();
            scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            scored.truncate(k);
            scored
        }

        /// Every flow ever recorded, in first-arrival order.
        pub(super) fn flows(&self) -> &[u64] {
            &self.keys
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn estimator() -> SlidingWindowEstimator {
        SlidingWindowEstimator::new(SimDuration::from_millis(4))
    }

    #[test]
    fn empty_estimator_reports_zero() {
        let e = estimator();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.mean(), Gbps::ZERO);
        assert_eq!(e.peak(), Gbps::ZERO);
        assert_eq!(e.latest(), Gbps::ZERO);
        assert_eq!(e.window(), SimDuration::from_millis(4));
    }

    #[test]
    fn mean_and_peak_track_the_window() {
        let mut e = estimator();
        e.record(SimTime::from_millis(1), Gbps::new(1.0));
        e.record(SimTime::from_millis(2), Gbps::new(3.0));
        assert_eq!(e.len(), 2);
        assert!((e.mean().as_gbps() - 2.0).abs() < 1e-12);
        assert_eq!(e.peak(), Gbps::new(3.0));
        assert_eq!(e.latest(), Gbps::new(3.0));
    }

    #[test]
    fn samples_expire_after_the_window() {
        let mut e = estimator();
        e.record(SimTime::from_millis(1), Gbps::new(9.0));
        e.record(SimTime::from_millis(6), Gbps::new(1.0));
        // The 9 Gbps burst at t=1ms is 5ms old at t=6ms: outside the 4ms
        // window, so only the recent sample remains.
        assert_eq!(e.len(), 1);
        assert_eq!(e.mean(), Gbps::new(1.0));
        assert_eq!(e.peak(), Gbps::new(1.0));
    }

    #[test]
    fn peak_survives_a_quiet_poll_inside_the_window() {
        let mut e = estimator();
        e.record(SimTime::from_millis(1), Gbps::new(2.5));
        e.record(SimTime::from_millis(2), Gbps::new(0.1));
        // An instantaneous poll would see 0.1 Gbps and declare the overload
        // over; the windowed peak still remembers the burst.
        assert_eq!(e.peak(), Gbps::new(2.5));
        assert_eq!(e.latest(), Gbps::new(0.1));
    }

    /// The pinned out-of-order behaviour: a sample timestamped before the
    /// latest one (a resumed run re-recording its boundary tick) is clamped
    /// to the latest time instead of corrupting the ring's monotone order.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "out-of-order"))]
    fn out_of_order_samples_are_clamped_monotone() {
        let mut e = estimator();
        e.record(SimTime::from_millis(5), Gbps::new(2.0));
        e.record(SimTime::from_millis(3), Gbps::new(4.0));
        // Release builds clamp: both samples live at t=5ms, in record order.
        assert_eq!(e.len(), 2);
        assert_eq!(e.latest(), Gbps::new(4.0));
        assert_eq!(e.peak(), Gbps::new(4.0));
        // Eviction keyed by the clamped (not raw) time: a later sample one
        // window after the clamp point evicts both earlier samples.
        e.record(SimTime::from_millis(10), Gbps::new(1.0));
        assert_eq!(e.len(), 1);
    }

    /// The clamp must not resurrect evicted samples: recording at an older
    /// time keys eviction to the clamped (latest) time, never backwards.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "out-of-order"))]
    fn clamped_samples_do_not_unevict() {
        let mut e = estimator();
        e.record(SimTime::from_millis(1), Gbps::new(9.0));
        e.record(SimTime::from_millis(6), Gbps::new(1.0));
        assert_eq!(e.len(), 1, "the burst expired");
        e.record(SimTime::from_millis(2), Gbps::new(5.0));
        assert_eq!(e.len(), 2, "clamped to t=6ms, joining the window");
        assert_eq!(e.peak(), Gbps::new(5.0));
    }

    fn config(kind: EstimatorKind) -> EstimatorConfig {
        EstimatorConfig::of(kind).with_window(SimDuration::from_micros(1_500))
    }

    #[test]
    fn facade_reports_kind_window_and_bounds() {
        let interval = SimDuration::from_micros(500);
        let exact = LoadEstimator::new(&config(EstimatorKind::Exact), interval);
        assert_eq!(exact.kind(), EstimatorKind::Exact);
        assert_eq!(exact.window(), SimDuration::from_micros(1_500));
        assert_eq!(exact.error_bound(), (0.0, 0.0));
        let sketch = LoadEstimator::new(&config(EstimatorKind::Sketch), interval);
        assert_eq!(sketch.kind(), EstimatorKind::Sketch);
        let (eps, delta) = sketch.error_bound();
        assert!(eps > 0.0 && delta > 0.0);
    }

    #[test]
    fn both_kinds_answer_identical_windowed_means() {
        let interval = SimDuration::from_micros(500);
        let mut exact = LoadEstimator::new(&config(EstimatorKind::Exact), interval);
        let mut sketch = LoadEstimator::new(&config(EstimatorKind::Sketch), interval);
        for tick in 1..=6u64 {
            let now = SimTime::from_micros(tick * 500);
            let load = Gbps::new(tick as f64 * 0.3);
            exact.record(now, load);
            sketch.record(now, load);
            assert_eq!(exact.windowed(), sketch.windowed(), "tick {tick}");
            assert_eq!(exact.peak(), sketch.peak(), "tick {tick}");
            assert_eq!(exact.latest(), sketch.latest(), "tick {tick}");
            assert_eq!(exact.samples(), sketch.samples(), "tick {tick}");
        }
    }

    #[test]
    fn exact_windowed_flow_bytes_slide_with_the_ticks() {
        let interval = SimDuration::from_micros(500);
        // window/interval = 3 -> 4 slots: the in-progress tick + 3 sealed.
        let mut e = LoadEstimator::new(&config(EstimatorKind::Exact), interval);
        e.record_arrival(42, 1000);
        for tick in 1..=3u64 {
            e.record(SimTime::from_micros(tick * 500), Gbps::new(1.0));
            assert_eq!(e.windowed_flow_bytes(42), 1000, "tick {tick}");
        }
        e.record(SimTime::from_micros(2_000), Gbps::new(1.0));
        assert_eq!(e.windowed_flow_bytes(42), 0, "slid out after 4 ticks");
    }

    #[test]
    fn exact_heavy_hitters_are_ground_truth() {
        let interval = SimDuration::from_micros(500);
        let mut e = LoadEstimator::new(&config(EstimatorKind::Exact), interval);
        e.record_arrival(1, 100);
        e.record_arrival(2, 900);
        e.record_arrival(1, 50);
        e.record_arrival(3, 150);
        let hh = e.heavy_hitters(2);
        assert_eq!(hh, vec![(2, 900), (1, 150)]);
        assert_eq!(e.windowed_flow_bytes(1), 150);
        assert_eq!(e.windowed_flow_bytes(9), 0);
    }

    #[test]
    fn sketch_never_undercounts_the_exact_table() {
        let interval = SimDuration::from_micros(500);
        let mut exact = LoadEstimator::new(&config(EstimatorKind::Exact), interval);
        let mut sketch = LoadEstimator::new(&config(EstimatorKind::Sketch), interval);
        for i in 0..2000u64 {
            let (flow, bytes) = (i % 97, (i % 13 + 1) * 64);
            exact.record_arrival(flow, bytes);
            sketch.record_arrival(flow, bytes);
            if i % 400 == 399 {
                let now = SimTime::from_micros((i / 400 + 1) * 500);
                exact.record(now, Gbps::new(1.0));
                sketch.record(now, Gbps::new(1.0));
            }
        }
        for flow in 0..97u64 {
            assert!(
                sketch.windowed_flow_bytes(flow) >= exact.windowed_flow_bytes(flow),
                "flow {flow} undercounted"
            );
        }
    }

    /// Heap bytes a `FlowMap<u64>` holding `entries` flows may allocate:
    /// its power-of-two slot array grows at 7/8 load, so it has fewer than
    /// `2 x 8/7 x (entries + 1)` slots of 24 bytes, and at least 16.
    fn tick_map_bound(entries: usize) -> usize {
        let slot = std::mem::size_of::<Option<(u64, u64)>>();
        (2 * 8 * (entries + 1) / 7).max(16) * slot
    }

    /// Slack over the tick maps: the ring of maps and the tick samples.
    const RING_SLACK: usize = 1024;

    #[test]
    fn sketch_memory_is_flow_count_independent() {
        let interval = SimDuration::from_micros(500);
        let mut exact = LoadEstimator::new(&config(EstimatorKind::Exact), interval);
        let mut sketch = LoadEstimator::new(&config(EstimatorKind::Sketch), interval);
        let sketch_before = sketch.resident_bytes();
        // 50 000 distinct flows, 500 new ones per tick.
        for flow in 0..50_000u64 {
            exact.record_arrival(flow, 64);
            sketch.record_arrival(flow, 64);
            if flow % 500 == 499 {
                let now = SimTime::from_micros((flow / 500 + 1) * 500);
                exact.record(now, Gbps::new(1.0));
                sketch.record(now, Gbps::new(1.0));
            }
        }
        // window/interval = 3 -> 4 slots, each holding one tick's 500 flows:
        // exact pays for the live window, not for every flow it has seen.
        assert!(
            exact.resident_bytes() <= 4 * tick_map_bound(500) + RING_SLACK,
            "exact holds {} B",
            exact.resident_bytes()
        );
        assert!(
            sketch.resident_bytes() < sketch_before + 64 * 1024,
            "sketch stays near its fixed footprint"
        );
    }

    #[test]
    fn exact_memory_stops_growing_once_the_window_is_full() {
        let interval = SimDuration::from_micros(500);
        let mut e = LoadEstimator::new(&config(EstimatorKind::Exact), interval);
        let mut after_tick_10 = 0;
        // Tick t carries flows 100t..100t+300: each flow lives three ticks
        // and the population drifts past 100 000 distinct flows.
        for tick in 0..1_000u64 {
            for flow in tick * 100..tick * 100 + 300 {
                e.record_arrival(flow, 64);
            }
            e.record(SimTime::from_micros((tick + 1) * 500), Gbps::new(1.0));
            if tick + 1 == 10 {
                after_tick_10 = e.resident_bytes();
            }
        }
        assert_eq!(e.resident_bytes(), after_tick_10);
        assert!(after_tick_10 <= 4 * tick_map_bound(300) + RING_SLACK);
        // Flows from the start of the drift are forgotten, not just zero.
        assert_eq!(e.windowed_flow_bytes(0), 0);
        assert_eq!(e.heavy_hitters(usize::MAX).len(), 500);
    }

    /// Drives one `(flow, bytes, gap)` trace into the estimator and its
    /// slab oracle, advancing `gap - 8` ticks (when positive) before each
    /// arrival, and compares every answer after every step.
    fn assert_matches_slab_oracle(window_ticks: u64, trace: &[(u64, u64, u64)]) {
        let interval = SimDuration::from_micros(500);
        let window = SimDuration::from_micros(500 * window_ticks);
        let config = EstimatorConfig::of(EstimatorKind::Exact).with_window(window);
        let mut exact = LoadEstimator::new(&config, interval);
        let mut oracle = slab_oracle::SlabEstimator::new(window_ticks as usize + 1);
        let mut tick = 0u64;
        for &(flow, bytes, gap) in trace {
            for _ in 0..gap.saturating_sub(8) {
                tick += 1;
                exact.record(SimTime::from_micros(tick * 500), Gbps::new(1.0));
                oracle.rotate();
            }
            // Spread the small id range over the whole key space.
            let flow = flow.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            exact.record_arrival(flow, bytes);
            oracle.record_arrival(flow, bytes);
            for &seen in oracle.flows() {
                assert_eq!(
                    exact.windowed_flow_bytes(seen),
                    oracle.windowed_bytes(seen),
                    "flow {seen:#x} at tick {tick}"
                );
            }
            let all = oracle.flows().len();
            for k in [0, 1, 5, all] {
                assert_eq!(
                    exact.heavy_hitters(k),
                    oracle.heavy_hitters(k),
                    "top {k} at tick {tick}"
                );
            }
            assert_eq!(exact.error_bound(), (0.0, 0.0));
        }
    }

    proptest! {
        /// Random traces over a few dozen flows: with up to three ticks per
        /// step, flows drop out for longer than the window and come back,
        /// and some ticks pass with no arrival at all.
        #[test]
        fn exact_ring_matches_the_slab_oracle(
            window_ticks in 0u64..6,
            trace in proptest::collection::vec((0u64..48, 0u64..1_500, 0u64..12), 0..300),
        ) {
            assert_matches_slab_oracle(window_ticks, &trace);
        }
    }

    #[test]
    fn exact_ring_matches_the_slab_oracle_across_long_absences() {
        // Flow 1 arrives at ticks 0, 3 and 6, then stays away for 21 ticks
        // (over five windows of 4 slots) while flow 3 ticks along, and
        // returns; every step of 3 ticks leaves two ticks empty.
        let trace = [(1, 100, 0), (2, 50, 11), (1, 70, 0), (1, 30, 11)];
        let mut long = trace.to_vec();
        long.extend((0..7).map(|_| (3, 1, 11)));
        long.push((1, 5, 0));
        assert_matches_slab_oracle(3, &long);
    }

    #[test]
    fn validate_refuses_sizes_past_their_bounds() {
        let interval = SimDuration::from_micros(500);
        let nanos = interval.as_nanos();
        let max_slots = EstimatorConfig::MAX_SLOTS;
        for kind in EstimatorKind::ALL {
            let base = EstimatorConfig::of(kind);
            let ok = |config: EstimatorConfig| config.validate(interval).is_ok();
            assert!(ok(base), "{kind}: defaults");
            // The last window inside the slot bound, and the first past it.
            let last = SimDuration::from_nanos((max_slots - 1) * nanos);
            assert!(ok(base.with_window(last)), "{kind}: {max_slots} slots");
            let nudge = SimDuration::from_nanos(last.as_nanos() + nanos - 1);
            assert!(ok(base.with_window(nudge)), "{kind}: still {max_slots}");
            let past = SimDuration::from_nanos(max_slots * nanos);
            assert!(!ok(base.with_window(past)), "{kind}: one slot too many");
            // u64-adjacent windows and intervals.
            let forever = base.with_window(SimDuration::from_nanos(u64::MAX));
            assert!(forever.validate(SimDuration::from_nanos(1)).is_err());
            assert!(forever.validate(SimDuration::from_nanos(u64::MAX)).is_ok());
            assert!(forever.validate(SimDuration::ZERO).is_ok(), "one slot");
            // usize-adjacent sizes.
            for bad in [
                EstimatorConfig {
                    depth: usize::MAX,
                    ..base
                },
                EstimatorConfig {
                    width: usize::MAX,
                    ..base
                },
                EstimatorConfig {
                    top_k: usize::MAX,
                    ..base
                },
                EstimatorConfig {
                    depth: EstimatorConfig::MAX_DEPTH + 1,
                    ..base
                },
                EstimatorConfig {
                    width: EstimatorConfig::MAX_WIDTH + 1,
                    ..base
                },
                EstimatorConfig {
                    top_k: EstimatorConfig::MAX_TOP_K + 1,
                    ..base
                },
            ] {
                let err = bad.validate(interval).unwrap_err();
                assert!(matches!(err, PamError::InvalidConfig(_)), "{kind}: {err}");
            }
            let zero = EstimatorConfig {
                depth: 0,
                width: 0,
                top_k: 0,
                ..base
            };
            assert!(ok(zero), "{kind}: zeros are clamped, not refused");
        }
        // Only the sketch allocates `slots x depth x width` counters.
        let wide = EstimatorConfig {
            width: EstimatorConfig::MAX_WIDTH,
            ..EstimatorConfig::default()
        };
        assert!(wide.validate(interval).is_ok());
        let wide_sketch = EstimatorConfig {
            kind: EstimatorKind::Sketch,
            ..wide
        };
        assert!(wide_sketch.validate(interval).is_err());
    }

    #[test]
    fn exact_ring_keeps_each_flows_counters_apart() {
        let interval = SimDuration::from_micros(500);
        let mut e = LoadEstimator::new(&config(EstimatorKind::Exact), interval);
        // Interleave three flows across ticks so each reuses its own slots.
        for tick in 0..6u64 {
            for flow in [7, 8, 9] {
                e.record_arrival(flow, flow * 100 + tick);
            }
            e.record(SimTime::from_micros((tick + 1) * 500), Gbps::new(1.0));
        }
        // 4 slots: after six sealed ticks, ticks 3..=5 are live (tick 6 is
        // in progress and empty).
        for flow in [7, 8, 9] {
            let live: u64 = (3..6).map(|tick| flow * 100 + tick).sum();
            assert_eq!(e.windowed_flow_bytes(flow), live, "flow {flow}");
        }
        assert_eq!(e.heavy_hitters(3), vec![(9, 2712), (8, 2412), (7, 2112)]);
    }

    #[test]
    fn estimator_config_serde_defaults_missing_keys() {
        use serde::{Deserialize, Serialize};
        let config = EstimatorConfig::of(EstimatorKind::Sketch);
        let back = EstimatorConfig::from_value(&config.to_value()).unwrap();
        assert_eq!(back, config);
        // An empty object (a config written before the knob existed) and a
        // kind-only object both deserialise with baseline defaults.
        let empty = EstimatorConfig::from_value(&Value::Object(Map::new())).unwrap();
        assert_eq!(empty, EstimatorConfig::default());
        assert_eq!(empty.kind, EstimatorKind::Exact);
        let mut kind_only = Map::new();
        kind_only.insert("kind".to_owned(), Value::String("sketch".to_owned()));
        let parsed = EstimatorConfig::from_value(&Value::Object(kind_only)).unwrap();
        assert_eq!(parsed.kind, EstimatorKind::Sketch);
        assert_eq!(parsed.width, EstimatorConfig::default().width);
        assert!(EstimatorConfig::from_value(&Value::Null).is_err());
        assert!(EstimatorKind::from_value(&Value::String("nope".into())).is_err());
    }

    #[test]
    fn estimator_kind_names_round_trip() {
        for kind in EstimatorKind::ALL {
            assert_eq!(EstimatorKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(EstimatorKind::from_name("nope"), None);
        assert_eq!(EstimatorKind::default(), EstimatorKind::Exact);
    }
}
