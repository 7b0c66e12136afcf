//! A fixed-key open-addressing hash map for `u64` flow keys.
//!
//! The per-packet hot path of every stateful vNF is one [`FlowTable`] lookup
//! keyed by a [`FlowId`]'s raw `u64`. `std::collections::HashMap` pays
//! SipHash-1-3 on every one of those — a keyed, DoS-resistant hash that the
//! simulator does not need (flow keys are internal, not attacker-chosen, and
//! the hash never influences any observable output). This module vendors the
//! standard cure, in the style of `rustc-hash`/`FxHashMap`: a fixed-key
//! multiplicative hash plus linear-probe open addressing with backward-shift
//! deletion, so lookups are one multiply and (usually) one cache line, and
//! deletions leave no tombstones to rescan.
//!
//! Determinism note: nothing observable depends on this map's iteration
//! order — [`FlowTable`] keeps its own insertion-order list for exports —
//! but the map is deterministic anyway (fixed hash constant, no per-process
//! random state), which keeps debugging reproducible.
//!
//! [`FlowTable`]: crate::flow_table::FlowTable
//! [`FlowId`]: pam_types::FlowId

/// The 64-bit Fibonacci/FxHash multiplier (`2^64 / φ`, forced odd), the same
/// constant `rustc-hash` uses for its word mixer.
const FX_MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

/// Minimum number of slots (must be a power of two).
const MIN_SLOTS: usize = 16;

/// Mixes a key into a slot index for a table of `2^shift_bits` slots, using
/// the *high* multiplier bits (the well-mixed ones in a multiplicative hash).
#[inline]
fn spread(key: u64) -> u64 {
    key.wrapping_mul(FX_MULTIPLIER)
}

/// A `u64 -> V` hash map: fixed-key FxHash, linear probing, backward-shift
/// deletion, power-of-two capacity. Grows at 7/8 load.
#[derive(Debug, Clone)]
pub struct FlowMap<V> {
    slots: Vec<Option<(u64, V)>>,
    len: usize,
    /// `slots.len() - 1`; slot count is always a power of two.
    mask: usize,
    /// `64 - log2(slots.len())`: the hash is shifted down by this.
    shift: u32,
}

impl<V> Default for FlowMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FlowMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        FlowMap {
            slots: (0..MIN_SLOTS).map(|_| None).collect(),
            len: 0,
            mask: MIN_SLOTS - 1,
            shift: 64 - MIN_SLOTS.trailing_zeros(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes held by the slot array (entries are stored inline, so
    /// this is everything the map itself allocates).
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<(u64, V)>>()
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (spread(key) >> self.shift) as usize
    }

    /// The slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mut index = self.home(key);
        loop {
            match &self.slots[index] {
                Some((k, _)) if *k == key => return Some(index),
                Some(_) => index = (index + 1) & self.mask,
                None => return None,
            }
        }
    }

    /// A shared reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key)
            .and_then(|i| self.slots[i].as_ref())
            .map(|(_, v)| v)
    }

    /// A mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key)
            .and_then(|i| self.slots[i].as_mut())
            .map(|(_, v)| v)
    }

    /// True when `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts or replaces the value for `key`; returns the previous value.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if (self.len + 1) * 8 >= self.slots.len() * 7 {
            self.grow();
        }
        let mut index = self.home(key);
        loop {
            match &mut self.slots[index] {
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Some(_) => index = (index + 1) & self.mask,
                None => {
                    self.slots[index] = Some((key, value));
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Removes `key`, returning its value. Uses backward-shift deletion:
    /// every displaced successor in the probe chain moves one hole closer to
    /// its home slot, so no tombstones accumulate.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let (_, value) = self.slots[hole].take()?;
        self.len -= 1;
        let mut probe = hole;
        loop {
            probe = (probe + 1) & self.mask;
            let Some((k, _)) = &self.slots[probe] else {
                break;
            };
            let home = self.home(*k);
            // Keep the entry where it is only if its home lies cyclically
            // within (hole, probe]; otherwise it belongs at or before the
            // hole and must shift back into it.
            let stays = if hole < probe {
                home > hole && home <= probe
            } else {
                home > hole || home <= probe
            };
            if !stays {
                self.slots.swap(hole, probe);
                hole = probe;
            }
        }
        Some(value)
    }

    /// Removes every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }

    /// Every `(key, value)` entry in slot order: hash order, but the same
    /// inserts always give the same order (the hash has no random state).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .flatten()
            .map(|(key, value)| (*key, value))
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
        self.mask = new_cap - 1;
        self.shift = 64 - new_cap.trailing_zeros();
        for slot in old.into_iter().flatten() {
            let (key, value) = slot;
            let mut index = self.home(key);
            while self.slots[index].is_some() {
                index = (index + 1) & self.mask;
            }
            self.slots[index] = Some((key, value));
        }
    }
}

/// A `u64` set on top of [`FlowMap`].
#[derive(Debug, Clone, Default)]
pub struct FlowSet {
    map: FlowMap<()>,
}

impl FlowSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        FlowSet::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the set holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Adds `key`; returns true when it was newly inserted.
    pub fn insert(&mut self, key: u64) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes `key`; returns true when it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        self.map.remove(key).is_some()
    }

    /// True when `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains(key)
    }

    /// Removes every key, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut map: FlowMap<u32> = FlowMap::new();
        assert!(map.is_empty());
        assert_eq!(map.insert(7, 70), None);
        assert_eq!(map.insert(7, 71), Some(70));
        assert_eq!(map.get(7), Some(&71));
        *map.get_mut(7).unwrap() += 1;
        assert_eq!(map.get(7), Some(&72));
        assert!(map.contains(7));
        assert!(!map.contains(8));
        assert_eq!(map.remove(7), Some(72));
        assert_eq!(map.remove(7), None);
        assert!(map.is_empty());
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let mut map: FlowMap<u64> = FlowMap::new();
        for key in 0..100u64 {
            map.insert(key << 32, key);
        }
        map.remove(5 << 32);
        let mut seen: Vec<(u64, u64)> = map.iter().map(|(k, &v)| (k, v)).collect();
        seen.sort_unstable();
        let expected: Vec<(u64, u64)> = (0..100u64)
            .filter(|&key| key != 5)
            .map(|key| (key << 32, key))
            .collect();
        assert_eq!(seen, expected);
        map.clear();
        assert_eq!(map.iter().count(), 0);
    }

    #[test]
    fn grows_past_the_initial_capacity() {
        let mut map: FlowMap<u64> = FlowMap::new();
        for key in 0..10_000u64 {
            map.insert(key, key * 3);
        }
        assert_eq!(map.len(), 10_000);
        for key in 0..10_000u64 {
            assert_eq!(map.get(key), Some(&(key * 3)), "key {key}");
        }
    }

    #[test]
    fn colliding_keys_probe_and_delete_correctly() {
        // Keys differing only in bits the multiplicative hash maps to the
        // same small-table slot: force long probe chains, then delete from
        // the middle and verify the chain stays reachable (backward shift).
        let mut map: FlowMap<u64> = FlowMap::new();
        let colliders: Vec<u64> = (0..12).map(|i| i << 32).collect();
        for &k in &colliders {
            map.insert(k, k + 1);
        }
        // Remove every second key, then check the rest.
        for &k in colliders.iter().step_by(2) {
            assert_eq!(map.remove(k), Some(k + 1));
        }
        for (i, &k) in colliders.iter().enumerate() {
            if i % 2 == 0 {
                assert!(!map.contains(k));
            } else {
                assert_eq!(map.get(k), Some(&(k + 1)));
            }
        }
    }

    #[test]
    fn extreme_keys_are_ordinary_keys() {
        let mut map: FlowMap<&'static str> = FlowMap::new();
        map.insert(0, "zero");
        map.insert(u64::MAX, "max");
        map.insert(u64::MAX - 1, "max-1");
        assert_eq!(map.get(0), Some(&"zero"));
        assert_eq!(map.get(u64::MAX), Some(&"max"));
        assert_eq!(map.remove(u64::MAX - 1), Some("max-1"));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn clear_keeps_capacity_but_drops_entries() {
        let mut map: FlowMap<u32> = FlowMap::new();
        for key in 0..100 {
            map.insert(key, 1);
        }
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.get(5), None);
        map.insert(5, 2);
        assert_eq!(map.get(5), Some(&2));
    }

    #[test]
    fn set_semantics() {
        let mut set = FlowSet::new();
        assert!(set.insert(9));
        assert!(!set.insert(9));
        assert!(set.contains(9));
        assert_eq!(set.len(), 1);
        assert!(set.remove(9));
        assert!(!set.remove(9));
        assert!(set.is_empty());
        set.insert(1);
        set.clear();
        assert!(set.is_empty());
    }

    /// Differential check against `std::collections::HashMap` over a large
    /// pseudo-random op sequence (the map must behave identically for every
    /// get/insert/remove outcome).
    #[test]
    fn differential_against_std_hashmap() {
        let mut ours: FlowMap<u64> = FlowMap::new();
        let mut std_map: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic LCG
        for step in 0..50_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 512; // small key space → heavy churn
            match state % 4 {
                0 => {
                    assert_eq!(ours.insert(key, step), std_map.insert(key, step));
                }
                1 => {
                    assert_eq!(ours.remove(key), std_map.remove(&key));
                }
                _ => {
                    assert_eq!(ours.get(key), std_map.get(&key));
                    assert_eq!(ours.contains(key), std_map.contains_key(&key));
                }
            }
            assert_eq!(ours.len(), std_map.len());
        }
    }
}
