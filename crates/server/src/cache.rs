//! Sharded LRU cache for serialized results.
//!
//! The serving workload is exactly the one a result cache wins on:
//! analytical explorations are pure functions of the request body, cheap
//! enough to recompute but heavily repeated — the same `explore
//! me-small` arrives from every client. Keys are the canonical FNV-1a
//! request hashes ([`crate::protocol::cache_key`]); values are the
//! serialized `result` documents, stored behind `Arc<str>`. A hit
//! clones the `Arc`, not the text: the response slot holds the shared
//! bytes until the flush writes the envelope into the connection's
//! write buffer, which is the one copy a hit makes.
//!
//! The map is split into [`ResultCache::SHARDS`] independently locked
//! shards (keyed by the low bits of the hash) so concurrent worker
//! threads do not serialize on one mutex. Each shard runs its own LRU:
//! entries carry a logical tick refreshed on hit, and when a shard is
//! full the oldest tick is evicted. A hit records `serve_cache_hits`
//! and drops a `cache_hit` event (keyed by the request's trace id) into
//! the flight recorder; a miss records *nothing* here — the serving
//! loop decides whether a missing key becomes a cold compute
//! (`serve_cache_misses`) or coalesces onto an identical in-flight one
//! (`serve_coalesced`), so every cacheable request lands in exactly one
//! of the three buckets and the hit ratio stays well-defined.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use datareuse_obs::{add, flight_record, Counter, FlightKind, TraceCtx};

use crate::lock;

struct Entry {
    tick: u64,
    value: Arc<str>,
}

#[derive(Default)]
struct Shard {
    tick: u64,
    entries: HashMap<u64, Entry>,
}

/// A sharded LRU map from canonical request hashes to serialized
/// results. Capacity 0 disables caching entirely (every lookup misses
/// without recording cache metrics).
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
}

impl ResultCache {
    /// Number of independently locked shards. A power of two so the
    /// shard index is a mask of the hash's low bits.
    pub const SHARDS: usize = 8;

    /// Creates a cache holding roughly `total_entries` results
    /// (rounded up to a multiple of [`ResultCache::SHARDS`]); 0 disables
    /// the cache.
    pub fn new(total_entries: usize) -> Self {
        let per_shard = if total_entries == 0 {
            0
        } else {
            total_entries.div_ceil(Self::SHARDS)
        };
        Self {
            shards: (0..Self::SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard,
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key as usize) & (Self::SHARDS - 1)]
    }

    /// Looks up `key`, refreshing its LRU position on a hit. A hit
    /// records `serve_cache_hits`; a miss records nothing (the caller
    /// classifies it as cold or coalesced — see the module docs).
    pub fn get(&self, key: u64) -> Option<Arc<str>> {
        if self.per_shard == 0 {
            return None;
        }
        let mut shard = lock(self.shard(key));
        shard.tick += 1;
        let tick = shard.tick;
        // The flight recorder correlates the probe with the request via
        // the trace id installed by the serving loop (0 when the probe
        // happens outside a request, e.g. in unit tests).
        let trace_id = TraceCtx::current().map_or(0, |c| c.trace_id);
        match shard.entries.get_mut(&key) {
            Some(entry) => {
                entry.tick = tick;
                let value = Arc::clone(&entry.value);
                drop(shard);
                add(Counter::ServeCacheHits, 1);
                flight_record(FlightKind::CacheHit, trace_id, key);
                Some(value)
            }
            None => None,
        }
    }

    /// Inserts `value` under `key`, evicting the shard's least recently
    /// used entry when full. Records `serve_cache_evictions`.
    pub fn insert(&self, key: u64, value: Arc<str>) {
        if self.per_shard == 0 {
            return;
        }
        let mut shard = lock(self.shard(key));
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.entries.contains_key(&key) && shard.entries.len() >= self.per_shard {
            // O(shard size) scan; shards are small (total/8) and the
            // insert path already paid for an exploration, so a linear
            // eviction scan is noise.
            if let Some(&oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k)
            {
                shard.entries.remove(&oldest);
                add(Counter::ServeCacheEvictions, 1);
            }
        }
        shard.entries.insert(key, Entry { tick, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ResultCache::new(64);
        assert!(cache.get(7).is_none());
        cache.insert(7, arc("seven"));
        assert_eq!(cache.get(7).as_deref(), Some("seven"));
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // per_shard = 1: keys mapping to the same shard displace each
        // other, and the refreshed entry survives.
        let cache = ResultCache::new(ResultCache::SHARDS);
        let shards = ResultCache::SHARDS as u64;
        let (a, b) = (shards, 2 * shards); // same shard (low bits 0)
        cache.insert(a, arc("a"));
        cache.insert(b, arc("b"));
        assert!(cache.get(a).is_none(), "a was evicted");
        assert_eq!(cache.get(b).as_deref(), Some("b"));
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        // Two entries per shard: touch `a`, insert two more, expect the
        // untouched middle entry to go first.
        let cache = ResultCache::new(2 * ResultCache::SHARDS);
        let s = ResultCache::SHARDS as u64;
        cache.insert(s, arc("a"));
        cache.insert(2 * s, arc("b"));
        assert_eq!(cache.get(s).as_deref(), Some("a")); // refresh a
        cache.insert(3 * s, arc("c")); // evicts b, the LRU
        assert_eq!(cache.get(s).as_deref(), Some("a"));
        assert!(cache.get(2 * s).is_none());
        assert_eq!(cache.get(3 * s).as_deref(), Some("c"));
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = ResultCache::new(0);
        cache.insert(1, arc("x"));
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict_neighbors() {
        let cache = ResultCache::new(2 * ResultCache::SHARDS);
        let s = ResultCache::SHARDS as u64;
        cache.insert(s, arc("a"));
        cache.insert(2 * s, arc("b"));
        cache.insert(s, arc("a2")); // overwrite, shard stays at 2 entries
        assert_eq!(cache.get(s).as_deref(), Some("a2"));
        assert_eq!(cache.get(2 * s).as_deref(), Some("b"));
    }
}
