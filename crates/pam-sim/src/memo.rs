//! A small memo for per-packet costs that depend only on a byte count.
//!
//! Service time on a device and serialisation time on a link are pure
//! functions of the frame (or burst) length once the capacity is fixed, and
//! the datapath needs one per packet per hop; computing one takes a float
//! division and a libm `round`. [`CostMemo`] remembers the result per length
//! in a direct-mapped table: a hit is one load and one compare, a miss
//! computes exactly what the formula computes and stores it, so a memoised
//! value is bit-identical to the formula by construction. Owners clear the
//! memo whenever an input of the formula other than the length changes (the
//! instance migrates, the link's capacity factor moves).
//!
//! A memo only saves work when lengths recur. Frame lengths do: traffic
//! draws them from a handful of sizes. Link burst lengths recur when a burst
//! is one frame: every burst at a doorbell batch bound of 1, and at higher
//! bounds every batch that closes holding a single packet. The totals of
//! multi-frame bursts spread over many more values and hit less often.

use pam_types::SimDuration;

/// Slots in the table. The index mixes the length's low bits with the bits
/// above them, so single frames of the paper's six sizes (64…1500 B) and of
/// the IMIX sizes land in distinct slots. Multi-frame burst totals can share
/// a slot and evict each other; a miss still returns the formula's value.
const SLOTS: usize = 64;

/// Key of an empty slot (no frame or burst is `u64::MAX` bytes long).
const EMPTY: u64 = u64::MAX;

/// A direct-mapped `length -> SimDuration` memo (1 KiB).
#[derive(Debug, Clone)]
pub struct CostMemo {
    slots: [(u64, SimDuration); SLOTS],
}

impl Default for CostMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl CostMemo {
    /// An empty memo.
    pub const fn new() -> Self {
        CostMemo {
            slots: [(EMPTY, SimDuration::ZERO); SLOTS],
        }
    }

    /// The cost of `bytes`: the remembered value, or `compute()` (which must
    /// be a pure function of `bytes`) remembered for next time.
    #[inline]
    pub fn get_or_insert_with(
        &mut self,
        bytes: u64,
        compute: impl FnOnce() -> SimDuration,
    ) -> SimDuration {
        let slot = &mut self.slots[((bytes ^ (bytes >> 6)) as usize) % SLOTS];
        if slot.0 != bytes || bytes == EMPTY {
            *slot = (bytes, compute());
        }
        slot.1
    }

    /// Forgets every remembered value (an input of the formula changed).
    pub fn clear(&mut self) {
        self.slots = [(EMPTY, SimDuration::ZERO); SLOTS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remembers_per_length_and_forgets_on_clear() {
        let mut memo = CostMemo::new();
        let mut calls = 0;
        let cost = |memo: &mut CostMemo, bytes: u64, calls: &mut u32| {
            memo.get_or_insert_with(bytes, || {
                *calls += 1;
                SimDuration::from_nanos(bytes.wrapping_mul(3))
            })
        };
        for bytes in [64, 128, 256, 512, 1024, 1500, 576] {
            assert_eq!(
                cost(&mut memo, bytes, &mut calls),
                SimDuration::from_nanos(bytes * 3)
            );
        }
        assert_eq!(calls, 7, "the paper's and IMIX sizes use distinct slots");
        for bytes in [64, 128, 256, 512, 1024, 1500, 576] {
            cost(&mut memo, bytes, &mut calls);
        }
        assert_eq!(calls, 7, "second round hits");
        memo.clear();
        cost(&mut memo, 64, &mut calls);
        assert_eq!(calls, 8);
        // The sentinel length is never trusted as a hit.
        cost(&mut memo, u64::MAX, &mut calls);
        cost(&mut memo, u64::MAX, &mut calls);
        assert_eq!(calls, 10);
    }
}
