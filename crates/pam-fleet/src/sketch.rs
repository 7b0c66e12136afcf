//! Memento-style sliding-window heavy-hitter sketch.
//!
//! The fleet's exact estimator keeps each live tick's byte total per flow —
//! memory that grows with the distinct flows inside the window, which at
//! the north star's "millions of users" can outgrow the caches. This
//! module bounds it instead with a **count-min sketch with aging** in the
//! style of Memento (arxiv 1810.02899): the window is split into
//! tick-aligned *slots*, each slot owns a small count-min matrix, and a slot
//! is recycled (zeroed and restamped) when the window slides past it. A
//! windowed per-flow estimate is the classic count-min read over the summed
//! live slots, so the memory is `slots x depth x width` counters —
//! independent of the flow count.
//!
//! # Error bounds
//!
//! For a window holding `W` total bytes, a `SlidingSketch::estimate` of a
//! flow's windowed bytes `t` satisfies the standard count-min guarantee:
//!
//! * **never an undercount**: `estimate >= t`, always (counters only add);
//! * **bounded overcount**: `estimate <= t + eps * W` with probability at
//!   least `1 - delta`, where `eps = e / width` and `delta = e^-depth`.
//!
//! The defaults (`width = 256`, `depth = 4`) give `eps ~ 1.1%` of the window
//! bytes and `delta ~ 1.8%` in ~32 KiB per server, whatever the window
//! holds; the `--estimators` ablation of `fleet_bench` compares the two
//! footprints.
//!
//! Every row hashes with a fixed odd multiplier derived from the row index
//! (splitmix64), so two runs of the same trace produce bit-identical
//! counters — the sketch sits inside the byte-identical determinism wall
//! like everything else in this crate.

use pam_nf::fastmap::FlowMap;

/// How many candidate heavy hitters the sketch tracks per tracked `top_k`
/// slot. A larger factor survives more candidate churn between prunes at the
/// cost of a (still tiny) candidate table.
const CANDIDATE_FACTOR: usize = 4;

/// splitmix64 — the standard 64-bit mix used to derive per-row hash
/// multipliers from the row index. Pure function of its input: deterministic.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One tick-aligned sub-sketch: a `depth x width` count-min matrix stamped
/// with the epoch (control tick) it accumulates.
#[derive(Debug, Clone)]
struct Slot {
    /// The epoch whose arrivals this slot holds.
    epoch: u64,
    /// Row-major `depth x width` byte counters.
    counts: Vec<u64>,
}

/// A sliding-window count-min sketch over `(flow, bytes)` arrivals.
///
/// Time is divided into *epochs* — one per control tick, advanced by
/// [`SlidingSketch::rotate`] — and the window covers the current epoch plus
/// the `slots - 1` preceding ones, mirroring the tick-sample ring of the
/// exact estimator (the current tick plus `window / interval` sealed ones).
#[derive(Debug, Clone)]
pub(crate) struct SlidingSketch {
    depth: usize,
    width: usize,
    /// `log2(width)`-derived shift for the multiplicative row hash.
    shift: u32,
    /// Per-row odd multipliers (fixed, derived from the row index).
    rows: Vec<u64>,
    /// The slot ring; `slots[epoch % slots.len()]` is the current epoch's.
    slots: Vec<Slot>,
    /// The current (in-progress) epoch.
    epoch: u64,
    /// Candidate heavy hitters: flow -> last epoch the flow was seen in.
    /// Bounded to `top_k * CANDIDATE_FACTOR` by deterministic pruning.
    candidates: FlowMap<u64>,
    /// Insertion-ordered candidate keys (the map itself has no ordered
    /// iteration; pruning and queries walk this list).
    candidate_keys: Vec<u64>,
    top_k: usize,
}

impl SlidingSketch {
    /// Builds a sketch of `slot_count` window slots, `depth` rows and
    /// (power-of-two rounded) `width` counters per row, tracking up to
    /// `top_k` heavy-hitter candidates.
    pub(crate) fn new(slot_count: usize, depth: usize, width: usize, top_k: usize) -> Self {
        let slot_count = slot_count.max(1);
        let depth = depth.max(1);
        let width = width.max(2).next_power_of_two();
        let top_k = top_k.max(1);
        SlidingSketch {
            depth,
            width,
            shift: 64 - width.trailing_zeros(),
            rows: (0..depth as u64).map(|row| splitmix64(row) | 1).collect(),
            slots: (0..slot_count)
                .map(|_| Slot {
                    // Stamp every slot as epoch 0's ring position so a fresh
                    // sketch reads all-zero without special cases; rotation
                    // restamps before reuse.
                    epoch: 0,
                    counts: vec![0; depth * width],
                })
                .collect(),
            epoch: 0,
            candidates: FlowMap::new(),
            candidate_keys: Vec::new(),
            top_k,
        }
    }

    /// The row-`row` counter index of `flow`.
    #[inline]
    fn index(&self, row: usize, flow: u64) -> usize {
        let hashed = (flow ^ self.rows[row]).wrapping_mul(self.rows[row]);
        row * self.width + (hashed >> self.shift) as usize
    }

    /// True when `epoch` is inside the current window.
    #[inline]
    fn live(&self, epoch: u64) -> bool {
        epoch + self.slots.len() as u64 > self.epoch
    }

    /// Seals the current epoch and recycles the slot that will host the new
    /// one. Call once per control tick, after the tick's arrivals.
    pub(crate) fn rotate(&mut self) {
        self.epoch += 1;
        let len = self.slots.len();
        let slot = &mut self.slots[(self.epoch % len as u64) as usize];
        slot.epoch = self.epoch;
        slot.counts.fill(0);
        if self.candidates.len() > self.top_k * CANDIDATE_FACTOR {
            self.prune();
        }
    }

    /// Records `bytes` for `flow` in the current epoch.
    pub(crate) fn record(&mut self, flow: u64, bytes: u64) {
        let current = (self.epoch % self.slots.len() as u64) as usize;
        // A slot is restamped on rotation, so between rotations the current
        // slot's stamp always matches; the epoch-0 ring needs the initial
        // stamp fixed up lazily (rotation has not touched it yet).
        self.slots[current].epoch = self.epoch;
        for row in 0..self.depth {
            let index = self.index(row, flow);
            self.slots[current].counts[index] += bytes;
        }
        if self.candidates.insert(flow, self.epoch).is_none() {
            self.candidate_keys.push(flow);
            // Keep the candidate table O(top_k) even when one tick floods in
            // more distinct flows than the rotation-time prune ever sees —
            // the whole point of the sketch is that a million-flow crowd
            // cannot grow per-flow state.
            if self.candidates.len() > self.top_k * CANDIDATE_FACTOR * 2 {
                self.prune();
            }
        }
    }

    /// The count-min estimate of `flow`'s bytes across the window: the
    /// row-wise minimum of the summed live slots.
    pub(crate) fn estimate(&self, flow: u64) -> u64 {
        let mut best = u64::MAX;
        for row in 0..self.depth {
            let index = self.index(row, flow);
            let mut sum = 0u64;
            for slot in &self.slots {
                if self.live(slot.epoch) {
                    sum += slot.counts[index];
                }
            }
            best = best.min(sum);
        }
        best
    }

    /// Deterministically shrinks the candidate set to the `top_k *
    /// CANDIDATE_FACTOR` flows with the largest windowed estimates (ties
    /// broken by lowest flow id), dropping flows that left the window.
    fn prune(&mut self) {
        let mut scored: Vec<(u64, u64, u64)> = Vec::with_capacity(self.candidate_keys.len());
        for &flow in &self.candidate_keys {
            let Some(&seen) = self.candidates.get(flow) else {
                continue;
            };
            if !self.live(seen) {
                continue;
            }
            scored.push((flow, self.estimate(flow), seen));
        }
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(self.top_k * CANDIDATE_FACTOR);
        self.candidates.clear();
        self.candidate_keys.clear();
        for (flow, _, seen) in scored {
            // Keep the original last-seen stamp: re-stamping with the prune
            // epoch would extend a quiet candidate's life by a full window.
            self.candidates.insert(flow, seen);
            self.candidate_keys.push(flow);
        }
    }

    /// The `k` heaviest candidate flows of the window as `(flow, estimated
    /// bytes)`, heaviest first, ties broken by lowest flow id. Flows whose
    /// windowed estimate is zero are omitted.
    pub(crate) fn heavy_hitters(&self, k: usize) -> Vec<(u64, u64)> {
        let mut scored: Vec<(u64, u64)> = Vec::with_capacity(self.candidate_keys.len());
        for &flow in &self.candidate_keys {
            let Some(&seen) = self.candidates.get(flow) else {
                continue;
            };
            if !self.live(seen) {
                continue;
            }
            let estimate = self.estimate(flow);
            if estimate > 0 {
                scored.push((flow, estimate));
            }
        }
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// The configured (epsilon, delta) error bound of a windowed estimate:
    /// `estimate <= truth + epsilon * window_bytes` with probability at
    /// least `1 - delta`.
    pub(crate) fn error_bound(&self) -> (f64, f64) {
        (
            std::f64::consts::E / self.width as f64,
            (-(self.depth as f64)).exp(),
        )
    }

    /// Bytes of memory resident in the sketch: the slot matrices plus the
    /// candidate table. Counter memory is fixed at construction —
    /// independent of how many distinct flows the window saw.
    pub(crate) fn resident_bytes(&self) -> usize {
        let counters = self.slots.len() * self.depth * self.width * std::mem::size_of::<u64>();
        let candidates = self.candidate_keys.capacity() * std::mem::size_of::<u64>()
            + self.candidates.len() * std::mem::size_of::<(u64, u64)>() * 2;
        counters + candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch() -> SlidingSketch {
        SlidingSketch::new(4, 4, 256, 8)
    }

    #[test]
    fn estimates_never_undercount() {
        let mut s = sketch();
        s.record(1, 1000);
        s.record(2, 500);
        s.record(1, 200);
        assert!(s.estimate(1) >= 1200);
        assert!(s.estimate(2) >= 500);
    }

    #[test]
    fn isolated_flows_estimate_exactly() {
        // With two flows in a 256-wide sketch a collision across all four
        // rows is (1/256)^4 — these fixed keys do not collide.
        let mut s = sketch();
        s.record(7, 300);
        s.record(9, 40);
        assert_eq!(s.estimate(7), 300);
        assert_eq!(s.estimate(9), 40);
        assert_eq!(s.estimate(12345), 0);
    }

    #[test]
    fn window_slides_old_epochs_out() {
        let mut s = sketch();
        s.record(1, 1000);
        // 4 slots: the epoch-0 bytes stay visible for rotations 1..3 and
        // vanish at the 4th.
        for _ in 0..3 {
            s.rotate();
            assert_eq!(s.estimate(1), 1000, "still inside the window");
        }
        s.rotate();
        assert_eq!(s.estimate(1), 0, "slid out of the window");
    }

    #[test]
    fn heavy_hitters_rank_by_windowed_bytes() {
        let mut s = sketch();
        s.record(10, 100);
        s.record(20, 900);
        s.rotate();
        s.record(30, 500);
        let hh = s.heavy_hitters(3);
        assert_eq!(hh[0], (20, 900));
        assert_eq!(hh[1], (30, 500));
        assert_eq!(hh[2], (10, 100));
        assert_eq!(s.heavy_hitters(1).len(), 1);
    }

    #[test]
    fn heavy_hitter_ties_break_by_lowest_flow_id() {
        let mut s = sketch();
        s.record(5, 100);
        s.record(3, 100);
        let hh = s.heavy_hitters(2);
        assert_eq!(hh, vec![(3, 100), (5, 100)]);
    }

    #[test]
    fn pruning_keeps_the_heavy_candidates() {
        let mut s = SlidingSketch::new(4, 4, 256, 2);
        // 2 * CANDIDATE_FACTOR = 8 candidate cap; insert many light flows
        // and two heavy ones, then rotate to trigger the prune.
        for flow in 0..64 {
            s.record(flow, 1);
        }
        s.record(100, 10_000);
        s.record(101, 9_000);
        s.rotate();
        let hh = s.heavy_hitters(2);
        assert_eq!(hh[0].0, 100);
        assert_eq!(hh[1].0, 101);
    }

    #[test]
    fn error_bound_matches_the_dimensions() {
        let s = sketch();
        let (eps, delta) = s.error_bound();
        assert!((eps - std::f64::consts::E / 256.0).abs() < 1e-12);
        assert!((delta - (-4.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn resident_bytes_are_flow_count_independent() {
        let mut s = sketch();
        let empty = s.resident_bytes();
        assert!(empty >= 4 * 4 * 256 * 8, "the slot matrices dominate");
        for flow in 0..10_000u64 {
            s.record(flow, 1);
            if flow % 100 == 0 {
                s.rotate();
            }
        }
        // Candidate pruning bounds the only flow-dependent part.
        assert!(s.resident_bytes() < empty + 64 * 1024);
    }

    #[test]
    fn width_rounds_up_to_a_power_of_two() {
        let s = SlidingSketch::new(4, 2, 300, 4);
        assert_eq!(s.width, 512);
        assert_eq!(s.rows.len(), 2);
        assert!(s.rows.iter().all(|m| m % 2 == 1), "multipliers stay odd");
    }

    #[test]
    fn two_identical_streams_produce_identical_sketches() {
        let mut a = sketch();
        let mut b = sketch();
        for flow in 0..500u64 {
            a.record(flow * 31, flow + 1);
            b.record(flow * 31, flow + 1);
            if flow % 50 == 0 {
                a.rotate();
                b.rotate();
            }
        }
        for flow in 0..500u64 {
            assert_eq!(a.estimate(flow * 31), b.estimate(flow * 31));
        }
        assert_eq!(a.heavy_hitters(8), b.heavy_hitters(8));
    }
}
