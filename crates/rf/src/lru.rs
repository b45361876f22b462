//! A small bounded LRU map keyed by [`JobKey`], with per-entry string
//! tags for targeted eviction.
//!
//! Two `rfsim-serve` caches share this one implementation — the
//! solution store and the per-family fingerprint cache, both tagged by
//! family name — so their recency rules cannot drift apart: a hit
//! refreshes recency, an insert at capacity evicts the least-recently-
//! used entry, replacing an existing key never evicts, and tag-targeted
//! eviction drops entries without counting against the capacity-eviction
//! stats.
//!
//! Recency lives in a tick-ordered index beside the map, so a hit and an
//! insert at capacity each cost O(log n) however full the map is: under
//! a stream of fresh serve submits the fingerprint cache sits at its
//! 4096-entry bound, and every insert evicts.

use std::collections::{BTreeMap, HashMap};

use crate::key::JobKey;

/// Counters describing a [`TaggedLru`]'s service history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups served from the map.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Values inserted.
    pub insertions: usize,
    /// Entries evicted to make room (LRU; tag-targeted eviction is
    /// reported by [`TaggedLru::evict`]'s return value instead).
    pub evictions: usize,
}

/// One stored value with its eviction tag and recency tick.
#[derive(Debug)]
struct Entry<V> {
    tag: String,
    value: V,
    last_used: u64,
}

/// A bounded LRU map from [`JobKey`] to a clonable value, with string
/// tags for targeted eviction. Capacity `0` means "retain nothing":
/// inserts are dropped, so callers can use `0` as a disabled state.
#[derive(Debug)]
pub struct TaggedLru<V> {
    entries: HashMap<JobKey, Entry<V>>,
    /// Every entry's key by its `last_used` tick, oldest first: the
    /// eviction order.
    recency: BTreeMap<u64, JobKey>,
    capacity: usize,
    tick: u64,
    stats: LruStats,
}

impl<V: Clone> TaggedLru<V> {
    /// A map retaining at most `capacity` values.
    pub fn new(capacity: usize) -> Self {
        TaggedLru {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            capacity,
            tick: 0,
            stats: LruStats::default(),
        }
    }

    /// Maximum retained values.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently retained values.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Service counters so far.
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    /// Looks up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: JobKey) -> Option<V> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) => {
                self.recency.remove(&entry.last_used);
                self.recency.insert(self.tick, key);
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without touching the hit/miss counters or the LRU
    /// order. For opportunistic probes that are re-issued as a counting
    /// [`TaggedLru::get`] when they do not short-circuit — the serve
    /// tier's registry-free submit fast path — so one logical lookup is
    /// never counted twice.
    pub fn peek(&self, key: JobKey) -> Option<V> {
        self.entries.get(&key).map(|e| e.value.clone())
    }

    /// Inserts a value under `key`, evicting the least-recently-used
    /// entry if the map is at capacity (replacing an existing key never
    /// evicts). `tag` marks the entry for targeted eviction. A
    /// zero-capacity map drops the insert.
    pub fn insert(&mut self, key: JobKey, tag: impl Into<String>, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some((_, oldest)) = self.recency.pop_first() {
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        self.stats.insertions += 1;
        let replaced = self.entries.insert(
            key,
            Entry {
                tag: tag.into(),
                value,
                last_used: self.tick,
            },
        );
        if let Some(old) = replaced {
            self.recency.remove(&old.last_used);
        }
        self.recency.insert(self.tick, key);
    }

    /// Removes entries — all of them, or only those stored under `tag` —
    /// returning how many were dropped (not counted in
    /// [`LruStats::evictions`]; callers report targeted eviction their
    /// own way).
    pub fn evict(&mut self, tag: Option<&str>) -> usize {
        let before = self.entries.len();
        match tag {
            None => {
                self.entries.clear();
                self.recency.clear();
            }
            Some(t) => {
                self.entries.retain(|_, e| e.tag != t);
                let entries = &self.entries;
                self.recency.retain(|_, key| entries.contains_key(key));
            }
        }
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{JobKeyBuilder, Quantizer};
    use rfsim_numerics::sparse::Triplets;

    fn key(tag: f64) -> JobKey {
        JobKeyBuilder::new(
            Triplets::new(2, 2).pattern_fingerprint(),
            Quantizer::default(),
        )
        .push_f64(tag)
        .finish()
    }

    #[test]
    fn lru_evicts_least_recently_used_at_capacity() {
        let mut lru: TaggedLru<u32> = TaggedLru::new(2);
        lru.insert(key(1.0), "a", 1);
        lru.insert(key(2.0), "a", 2);
        // Touch key 1 so key 2 is the LRU entry.
        assert_eq!(lru.get(key(1.0)), Some(1));
        lru.insert(key(3.0), "a", 3);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.stats().evictions, 1);
        assert_eq!(lru.get(key(2.0)), None, "LRU entry must be gone");
        assert_eq!(lru.get(key(1.0)), Some(1));
        assert_eq!(lru.get(key(3.0)), Some(3));
        // Replacing an existing key never evicts.
        lru.insert(key(1.0), "a", 10);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.stats().evictions, 1);
        assert_eq!(lru.get(key(1.0)), Some(10));
    }

    #[test]
    fn tag_eviction_and_zero_capacity() {
        let mut lru: TaggedLru<u32> = TaggedLru::new(8);
        lru.insert(key(1.0), "rc", 1);
        lru.insert(key(2.0), "rc", 2);
        lru.insert(key(3.0), "diode", 3);
        assert_eq!(lru.evict(Some("rc")), 2);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.evict(None), 1);
        assert!(lru.is_empty());
        // Targeted eviction is not an LRU capacity eviction.
        assert_eq!(lru.stats().evictions, 0);
        // Capacity 0 = disabled: inserts are dropped.
        let mut off: TaggedLru<u32> = TaggedLru::new(0);
        off.insert(key(1.0), "a", 1);
        assert!(off.is_empty());
        assert_eq!(off.stats().insertions, 0);
    }

    /// The recency index must evict exactly what a scan for the oldest
    /// `last_used` would, across hits, replacements and tag eviction.
    #[test]
    fn recency_index_matches_a_scanning_model() {
        // Model entries: (key id, tag, value, last used).
        let mut model: Vec<(u64, &str, u64, u64)> = Vec::new();
        let mut lru: TaggedLru<u64> = TaggedLru::new(5);
        let (mut tick, mut evictions) = (0u64, 0usize);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..4000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = (state >> 33) % 12;
            let tag = if id.is_multiple_of(3) { "a" } else { "b" };
            match (state >> 20) % 16 {
                0..=6 => {
                    tick += 1;
                    let want = model.iter_mut().find(|e| e.0 == id).map(|e| {
                        e.3 = tick;
                        e.2
                    });
                    assert_eq!(lru.get(key(id as f64)), want, "get at step {step}");
                }
                7..=14 => {
                    tick += 1;
                    if let Some(e) = model.iter_mut().find(|e| e.0 == id) {
                        *e = (id, tag, step, tick);
                    } else {
                        if model.len() >= 5 {
                            let oldest = (0..model.len()).min_by_key(|&i| model[i].3).unwrap();
                            model.swap_remove(oldest);
                            evictions += 1;
                        }
                        model.push((id, tag, step, tick));
                    }
                    lru.insert(key(id as f64), tag, step);
                }
                _ => {
                    let before = model.len();
                    model.retain(|e| e.1 != "a");
                    assert_eq!(lru.evict(Some("a")), before - model.len());
                }
            }
            assert_eq!(lru.len(), model.len(), "len at step {step}");
            assert_eq!(lru.stats().evictions, evictions, "evictions at step {step}");
        }
        assert!(evictions > 100, "the sequence must exercise eviction");
    }
}
