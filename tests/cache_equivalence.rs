//! The refactor contract of the writeback cache.
//!
//! `WritebackCache` used to keep recency as monotonically increasing touch
//! stamps in a `BTreeMap`, and its dirty-ratio flush walked the whole stamp
//! order to find dirty pages. It now keeps two linked recency lists (resident
//! and dirty). This suite keeps a verbatim **reference implementation of the
//! stamp-ordered cache** and proves the list-based cache reproduces it on
//! arbitrary op sequences: every return value (including the exact order of
//! evicted and flushed LPNs), the counters, residency and dirtiness agree
//! after every operation.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use vflash::fleet::{CacheConfig, CacheStats, WritebackCache};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    stamp: u64,
    dirty: bool,
}

/// The stamp-ordered cache as it stood before the two-list rebuild.
#[derive(Debug, Clone)]
struct ReferenceCache {
    config: CacheConfig,
    entries: HashMap<u64, Entry>,
    lru: BTreeMap<u64, u64>,
    dirty: usize,
    next_stamp: u64,
    stats: CacheStats,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        ReferenceCache {
            config,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            dirty: 0,
            next_stamp: 0,
            stats: CacheStats::default(),
        }
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn dirty_len(&self) -> usize {
        self.dirty
    }

    fn is_resident(&self, lpn: u64) -> bool {
        self.entries.contains_key(&lpn)
    }

    fn is_dirty(&self, lpn: u64) -> bool {
        self.entries.get(&lpn).is_some_and(|entry| entry.dirty)
    }

    fn over_threshold(&self) -> bool {
        self.dirty > self.config.dirty_limit()
    }

    fn touch(&mut self, lpn: u64) {
        let entry = self.entries.get_mut(&lpn).expect("touching a non-resident page");
        self.lru.remove(&entry.stamp);
        entry.stamp = self.next_stamp;
        self.lru.insert(self.next_stamp, lpn);
        self.next_stamp += 1;
    }

    fn read(&mut self, lpn: u64) -> bool {
        if self.entries.contains_key(&lpn) {
            self.touch(lpn);
            self.stats.read_hits += 1;
            true
        } else {
            self.stats.read_misses += 1;
            false
        }
    }

    fn write(&mut self, lpn: u64) -> Vec<u64> {
        self.stats.writes_absorbed += 1;
        if let Some(entry) = self.entries.get_mut(&lpn) {
            if !entry.dirty {
                entry.dirty = true;
                self.dirty += 1;
            }
            self.touch(lpn);
            return Vec::new();
        }
        let mut writeback = Vec::new();
        if self.entries.len() == self.config.capacity_pages {
            let (_, victim) = self.lru.pop_first().expect("a full cache has an LRU entry");
            let entry = self.entries.remove(&victim).expect("LRU entry is resident");
            if entry.dirty {
                self.dirty -= 1;
                self.stats.writebacks += 1;
                writeback.push(victim);
            }
        }
        self.entries.insert(lpn, Entry { stamp: self.next_stamp, dirty: true });
        self.lru.insert(self.next_stamp, lpn);
        self.next_stamp += 1;
        self.dirty += 1;
        writeback
    }

    fn write_around(&mut self, lpn: u64) {
        self.stats.write_arounds += 1;
        if let Some(entry) = self.entries.remove(&lpn) {
            self.lru.remove(&entry.stamp);
            if entry.dirty {
                self.dirty -= 1;
            }
        }
    }

    fn flush_to_threshold(&mut self) -> Vec<u64> {
        if !self.over_threshold() {
            return Vec::new();
        }
        self.stats.flushes += 1;
        let limit = self.config.dirty_limit();
        let mut flushed = Vec::new();
        // BTreeMap iteration is stamp order — oldest (LRU) first.
        let stamps: Vec<u64> = self.lru.keys().copied().collect();
        for stamp in stamps {
            if self.dirty <= limit {
                break;
            }
            let lpn = self.lru[&stamp];
            let entry = self.entries.get_mut(&lpn).expect("LRU entry is resident");
            if entry.dirty {
                entry.dirty = false;
                self.dirty -= 1;
                self.stats.writebacks += 1;
                flushed.push(lpn);
            }
        }
        flushed
    }
}

/// One cache operation for proptest generation.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Write(u64),
    Read(u64),
    WriteAround(u64),
    Flush,
}

const LPNS: u64 = 96;

fn arb_cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..LPNS).prop_map(CacheOp::Write),
            (0u64..LPNS).prop_map(CacheOp::Write),
            (0u64..LPNS).prop_map(CacheOp::Read),
            (0u64..LPNS).prop_map(CacheOp::WriteAround),
            Just(CacheOp::Flush),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The list-based cache and the stamp-ordered reference return the same
    /// values on every operation — evicted and flushed LPNs in the same
    /// order — and agree on counters, residency and dirtiness after each one.
    #[test]
    fn list_cache_reproduces_the_stamp_ordered_reference(
        capacity in 1usize..64,
        threshold_pct in 1u32..101,
        ops in arb_cache_ops(),
    ) {
        let config = CacheConfig {
            capacity_pages: capacity,
            dirty_flush_threshold: threshold_pct as f64 / 100.0,
            ..CacheConfig::default()
        };
        let mut cache = WritebackCache::new(config);
        let mut reference = ReferenceCache::new(config);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                CacheOp::Write(lpn) => {
                    prop_assert_eq!(cache.write(lpn), reference.write(lpn), "write at step {}", step);
                }
                CacheOp::Read(lpn) => {
                    prop_assert_eq!(cache.read(lpn), reference.read(lpn), "read at step {}", step);
                }
                CacheOp::WriteAround(lpn) => {
                    cache.write_around(lpn);
                    reference.write_around(lpn);
                }
                CacheOp::Flush => {
                    prop_assert_eq!(
                        cache.flush_to_threshold(),
                        reference.flush_to_threshold(),
                        "flush at step {}",
                        step
                    );
                }
            }
            prop_assert_eq!(cache.stats(), reference.stats(), "stats after step {}", step);
            prop_assert_eq!(cache.len(), reference.len());
            prop_assert_eq!(cache.dirty_len(), reference.dirty_len());
            prop_assert_eq!(cache.over_threshold(), reference.over_threshold());
            for lpn in 0..LPNS {
                prop_assert_eq!(cache.is_resident(lpn), reference.is_resident(lpn));
                prop_assert_eq!(cache.is_dirty(lpn), reference.is_dirty(lpn), "lpn {}", lpn);
            }
        }
    }
}
