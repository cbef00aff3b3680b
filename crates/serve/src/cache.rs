//! Isovalue- and LOD-level-keyed LRU result cache.
//!
//! Interactive exploration hammers a handful of isovalues (slider scrubbing,
//! repeated frames of the same surface), so the server memoizes extraction
//! results keyed by `(isovalue bit pattern, extraction backend id, LOD
//! level)`. Every level of a pyramid is its own entry — a coarse level is a
//! few percent of the full mesh, so it can stay resident long after its
//! full-resolution sibling was evicted. The server only ever stores MC
//! surfaces (backend id 0); the id stays in the key because callers outside
//! the server address entries with it. The cache is **byte-budgeted**, not
//! entry-counted: meshes vary from empty to hundreds of MB, and the budget
//! is what bounds server memory. Region-restricted and framebuffer-mode
//! requests are served by filtering/rasterizing cached meshes, so every
//! request shape shares the per-level entries.
//!
//! Hit/miss/eviction counters — aggregate and per level — are surfaced
//! through [`crate::protocol::ServerReport`] the same way extraction
//! surfaces `NodeReport` rows — observable from any client via a stats
//! request.

use crate::protocol::MAX_LOD_LEVELS;
use oociso_march::IndexedMesh;
use std::sync::Arc;

/// One cached extraction result (shared out to concurrent readers).
#[derive(Debug)]
pub struct CachedSurface {
    /// The (unfiltered) isosurface at this isovalue and LOD level.
    pub mesh: IndexedMesh,
    /// Active metacells the producing extraction touched (report metadata
    /// replayed to cache-hit clients).
    pub active_metacells: u64,
    /// World-space error gauge of this LOD level versus full resolution
    /// (`LodChain::world_error`; 0 for level 0) — what screen-space LOD
    /// selection projects.
    pub world_error: f64,
}

impl CachedSurface {
    /// Resident bytes of this entry (vertex + index storage).
    pub fn bytes(&self) -> u64 {
        (std::mem::size_of_val(self.mesh.positions()) + std::mem::size_of_val(self.mesh.indices()))
            as u64
    }
}

/// Cache counters (monotonic except the `resident_*` gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub resident_bytes: u64,
    pub resident_entries: u64,
    /// Hits per LOD level (level 0 first); sums to `hits`.
    pub lod_hits: [u64; MAX_LOD_LEVELS],
    /// Misses per LOD level; sums to `misses`.
    pub lod_misses: [u64; MAX_LOD_LEVELS],
    /// Hits on entries inserted by speculative warming that had not yet
    /// been touched by real traffic — the warming engine's payoff counter
    /// (each warmed entry is counted at most once, on its first hit).
    pub speculative_hits: u64,
}

/// The cache's composite key: `(isovalue bits, backend id, LOD level)`.
type CacheKey = (u32, u8, u16);

/// A byte-budgeted LRU map from `(isovalue bits, backend id, LOD level)` to
/// extraction results.
///
/// Recency is a simple ordered list (most recent last): entry counts stay
/// small — each entry is a whole isosurface level against a byte budget —
/// so linear recency maintenance costs nothing next to one extraction.
#[derive(Debug)]
pub struct ResultCache {
    budget_bytes: u64,
    /// `(key, entry, speculative)` triples ordered least→most recently
    /// used. The flag marks entries inserted by speculative warming that no
    /// real request has touched yet; warming inserts sit *behind* real
    /// traffic's recency and are the first evicted.
    entries: Vec<(CacheKey, Arc<CachedSurface>, bool)>,
    resident_bytes: u64,
    stats: CacheStats,
}

/// Clamp a level index into the fixed per-level counter arrays (levels past
/// the last slot share it; servers cap pyramids at `MAX_LOD_LEVELS` anyway).
fn level_slot(lod: u16) -> usize {
    (lod as usize).min(MAX_LOD_LEVELS - 1)
}

impl ResultCache {
    /// An empty cache that will hold at most `budget_bytes` of mesh data.
    pub fn new(budget_bytes: u64) -> Self {
        ResultCache {
            budget_bytes,
            entries: Vec::new(),
            resident_bytes: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Look up level `lod` of `iso` under `backend`, refreshing its recency
    /// on a hit.
    pub fn get(&mut self, iso: f32, backend: u8, lod: u16) -> Option<Arc<CachedSurface>> {
        let key = (iso.to_bits(), backend, lod);
        match self.entries.iter().position(|(k, ..)| *k == key) {
            Some(i) => {
                let mut entry = self.entries.remove(i);
                let hit = entry.1.clone();
                if entry.2 {
                    // first real touch of a warmed entry: count the payoff
                    // once and promote it to a regular resident
                    self.stats.speculative_hits += 1;
                    entry.2 = false;
                }
                self.entries.push(entry);
                self.account(lod, true);
                self.refresh_gauges();
                Some(hit)
            }
            None => {
                self.account(lod, false);
                None
            }
        }
    }

    /// Peek without touching recency or counters — the frame path uses this
    /// for the levels it *also* needs beyond the one the request was
    /// accounted against.
    pub fn peek(&self, iso: f32, backend: u8, lod: u16) -> Option<Arc<CachedSurface>> {
        let key = (iso.to_bits(), backend, lod);
        self.entries
            .iter()
            .find(|(k, ..)| *k == key)
            .map(|(_, e, _)| e.clone())
    }

    /// Count a lookup outcome against `lod` without probing entries — for
    /// the frame path, whose one accounted lookup is decided only after
    /// peeking the whole pyramid (a pyramid with any level missing is one
    /// miss, not a hit on the levels that happened to be resident).
    pub fn account(&mut self, lod: u16, hit: bool) {
        if hit {
            self.stats.hits += 1;
            self.stats.lod_hits[level_slot(lod)] += 1;
        } else {
            self.stats.misses += 1;
            self.stats.lod_misses[level_slot(lod)] += 1;
        }
    }

    /// Refresh an entry's recency (most recently used) without touching any
    /// counter. No-op when absent.
    pub fn touch(&mut self, iso: f32, backend: u8, lod: u16) {
        let key = (iso.to_bits(), backend, lod);
        if let Some(i) = self.entries.iter().position(|(k, ..)| *k == key) {
            let entry = self.entries.remove(i);
            self.entries.push(entry);
        }
    }

    /// Insert (or replace) the result for level `lod` of `iso` under
    /// `backend`, evicting least-recently-used entries until the budget
    /// holds. An entry larger than the whole budget is passed through
    /// uncached — callers still get their `Arc`, the cache just declines to
    /// retain it.
    pub fn insert(
        &mut self,
        iso: f32,
        backend: u8,
        lod: u16,
        surface: CachedSurface,
    ) -> Arc<CachedSurface> {
        let key = (iso.to_bits(), backend, lod);
        let surface = Arc::new(surface);
        let bytes = surface.bytes();
        if let Some(i) = self.entries.iter().position(|(k, ..)| *k == key) {
            // a pyramid re-extracted after its level 0 was evicted meets
            // the coarse levels that outlived it: keep the newer result
            let (_, old, _) = self.entries.remove(i);
            self.resident_bytes -= old.bytes();
        }
        if bytes > self.budget_bytes {
            self.refresh_gauges();
            return surface;
        }
        self.stats.insertions += 1;
        self.resident_bytes += bytes;
        self.entries.push((key, surface.clone(), false));
        while self.resident_bytes > self.budget_bytes {
            let (_, evicted, _) = self.entries.remove(0);
            self.resident_bytes -= evicted.bytes();
            self.stats.evictions += 1;
        }
        self.refresh_gauges();
        surface
    }

    /// Insert a speculatively warmed result *behind* the recency of real
    /// traffic: the entry goes in at the cold end of the LRU order (after
    /// any older speculative entries), so it is evicted before anything a
    /// real request touched. A speculative insert never evicts real
    /// traffic to make room — when the spare budget cannot hold it even
    /// after evicting colder speculative entries, the new entry itself is
    /// dropped — the caller can tell by peeking the key. An already-resident
    /// result for the key is kept untouched (a real entry is fresher in
    /// every sense).
    pub fn insert_speculative(
        &mut self,
        iso: f32,
        backend: u8,
        lod: u16,
        surface: CachedSurface,
    ) -> Arc<CachedSurface> {
        let key = (iso.to_bits(), backend, lod);
        if let Some((_, existing, _)) = self.entries.iter().find(|(k, ..)| *k == key) {
            return existing.clone();
        }
        let surface = Arc::new(surface);
        let bytes = surface.bytes();
        if bytes > self.budget_bytes {
            return surface;
        }
        // behind every real entry, but after older speculative ones, so the
        // oldest warmed result is evicted first
        let pos = self
            .entries
            .iter()
            .take_while(|(.., speculative)| *speculative)
            .count();
        self.entries.insert(pos, (key, surface.clone(), true));
        self.resident_bytes += bytes;
        self.stats.insertions += 1;
        while self.resident_bytes > self.budget_bytes {
            // victims are speculative entries only, coldest first — the
            // just-inserted entry is the last candidate and ends the loop
            match self.entries.iter().position(|(.., spec)| *spec) {
                Some(i) => {
                    let (k, evicted, _) = self.entries.remove(i);
                    self.resident_bytes -= evicted.bytes();
                    self.stats.evictions += 1;
                    if k == key {
                        break;
                    }
                }
                None => break,
            }
        }
        self.refresh_gauges();
        surface
    }

    /// Current counters (the `resident_*` gauges are kept in sync on every
    /// mutation).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn refresh_gauges(&mut self) {
        self.stats.resident_bytes = self.resident_bytes;
        self.stats.resident_entries = self.entries.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oociso_march::Vec3;

    /// A mesh of `tris` triangles: 3 fresh vertices each → 36 + 12 = 48
    /// bytes per triangle.
    fn surface(tris: usize) -> CachedSurface {
        let mut mesh = IndexedMesh::new();
        for i in 0..tris {
            let a = mesh.push_vertex(Vec3::new(i as f32, 0.0, 0.0));
            let b = mesh.push_vertex(Vec3::new(i as f32, 1.0, 0.0));
            let c = mesh.push_vertex(Vec3::new(i as f32, 0.0, 1.0));
            mesh.push_triangle(a, b, c);
        }
        CachedSurface {
            mesh,
            active_metacells: tris as u64,
            world_error: 0.0,
        }
    }

    #[test]
    fn hit_miss_and_recency() {
        let mut c = ResultCache::new(10_000);
        assert!(c.get(1.0, 0, 0).is_none());
        c.insert(1.0, 0, 0, surface(1));
        c.insert(2.0, 0, 0, surface(1));
        let hit = c.get(1.0, 0, 0).expect("cached");
        assert_eq!(hit.active_metacells, 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 2));
        assert_eq!(s.resident_entries, 2);
        assert_eq!(s.resident_bytes, 2 * 48);
    }

    #[test]
    fn byte_budget_evicts_lru_order() {
        // budget fits exactly two 1-triangle meshes (48 B each)
        let mut c = ResultCache::new(96);
        c.insert(1.0, 0, 0, surface(1));
        c.insert(2.0, 0, 0, surface(1));
        // touch 1.0 so 2.0 becomes the LRU victim
        assert!(c.get(1.0, 0, 0).is_some());
        c.insert(3.0, 0, 0, surface(1));
        assert_eq!(c.stats().evictions, 1);
        assert!(
            c.get(2.0, 0, 0).is_none(),
            "LRU entry should have been evicted"
        );
        assert!(
            c.get(1.0, 0, 0).is_some(),
            "recently used entry must survive"
        );
        assert!(c.get(3.0, 0, 0).is_some());
        assert!(c.stats().resident_bytes <= 96);
    }

    #[test]
    fn oversized_entry_passes_through_uncached() {
        let mut c = ResultCache::new(100);
        let arc = c.insert(5.0, 0, 0, surface(10)); // 480 B > 100 B budget
        assert_eq!(arc.mesh.len(), 10, "caller still gets the surface");
        assert_eq!(c.stats().resident_entries, 0);
        assert_eq!(c.stats().insertions, 0);
        assert!(c.get(5.0, 0, 0).is_none());
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let mut c = ResultCache::new(10_000);
        c.insert(1.0, 0, 0, surface(1));
        c.insert(1.0, 0, 0, surface(2)); // same key, bigger mesh
        assert_eq!(c.stats().resident_entries, 1);
        assert_eq!(c.stats().resident_bytes, 2 * 48);
        assert_eq!(c.get(1.0, 0, 0).unwrap().mesh.len(), 2);
    }

    #[test]
    fn distinct_isovalue_bits_are_distinct_keys() {
        let mut c = ResultCache::new(10_000);
        c.insert(100.0, 0, 0, surface(1));
        assert!(c.get(100.00001, 0, 0).is_none());
        assert!(c.get(100.0, 0, 0).is_some());
    }

    #[test]
    fn lod_levels_are_distinct_keys_with_exact_per_level_counters() {
        let mut c = ResultCache::new(10_000);
        c.insert(1.0, 0, 0, surface(4));
        c.insert(1.0, 0, 1, surface(2));
        // level 2 was never inserted: a miss on it must not shadow level 1
        assert!(c.get(1.0, 0, 2).is_none());
        assert_eq!(c.get(1.0, 0, 1).unwrap().mesh.len(), 2);
        assert_eq!(c.get(1.0, 0, 0).unwrap().mesh.len(), 4);
        let s = c.stats();
        assert_eq!(s.lod_hits, [1, 1, 0, 0]);
        assert_eq!(s.lod_misses, [0, 0, 1, 0]);
        assert_eq!(s.hits, s.lod_hits.iter().sum::<u64>());
        assert_eq!(s.misses, s.lod_misses.iter().sum::<u64>());
    }

    #[test]
    fn account_and_touch_decompose_a_lookup() {
        let mut c = ResultCache::new(96);
        c.insert(1.0, 0, 0, surface(1));
        c.insert(2.0, 0, 0, surface(1));
        // account books counters without probing entries
        c.account(0, true);
        c.account(2, false);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.lod_hits, [1, 0, 0, 0]);
        assert_eq!(s.lod_misses, [0, 0, 1, 0]);
        // touch refreshes recency without counters: 1.0 becomes MRU, so the
        // next eviction takes 2.0
        c.touch(1.0, 0, 0);
        c.insert(3.0, 0, 0, surface(1));
        assert!(c.peek(1.0, 0, 0).is_some(), "touched entry must survive");
        assert!(c.peek(2.0, 0, 0).is_none(), "untouched entry evicted");
        assert_eq!(c.stats().hits, 1, "touch books nothing");
    }

    #[test]
    fn peek_does_not_touch_counters_or_recency() {
        let mut c = ResultCache::new(96);
        c.insert(1.0, 0, 0, surface(1));
        c.insert(2.0, 0, 0, surface(1));
        let before = c.stats();
        assert!(c.peek(1.0, 0, 0).is_some());
        assert!(c.peek(9.0, 0, 0).is_none());
        assert_eq!(c.stats(), before, "peek is invisible to accounting");
        // peeking 1.0 must not have refreshed it: inserting a third entry
        // still evicts 1.0 as the least recently *used*
        c.insert(3.0, 0, 0, surface(1));
        assert!(c.peek(1.0, 0, 0).is_none(), "peek must not refresh recency");
    }

    #[test]
    fn speculative_inserts_sit_behind_real_recency() {
        // budget fits exactly three 1-triangle meshes
        let mut c = ResultCache::new(144);
        c.insert(1.0, 0, 0, surface(1));
        c.insert_speculative(2.0, 0, 0, surface(1));
        c.insert(3.0, 0, 0, surface(1));
        // the speculative entry is coldest even though it was inserted
        // between the two real ones: the next insert evicts it, not 1.0
        c.insert(4.0, 0, 0, surface(1));
        assert!(c.peek(2.0, 0, 0).is_none(), "warmed entry evicted first");
        assert!(c.peek(1.0, 0, 0).is_some(), "real traffic survives");
        assert!(c.peek(3.0, 0, 0).is_some());
    }

    #[test]
    fn speculative_hit_is_counted_once_then_promoted() {
        let mut c = ResultCache::new(10_000);
        c.insert_speculative(1.0, 0, 0, surface(1));
        assert_eq!(c.stats().speculative_hits, 0, "insertion is not a hit");
        assert!(c.get(1.0, 0, 0).is_some());
        assert_eq!(c.stats().speculative_hits, 1, "first touch pays off");
        assert!(c.get(1.0, 0, 0).is_some());
        let s = c.stats();
        assert_eq!(s.speculative_hits, 1, "payoff is counted exactly once");
        assert_eq!(s.hits, 2, "both lookups are still regular hits");
        // promoted: now ordinary recency — a later speculative insert is
        // evicted ahead of it
        let mut c = ResultCache::new(96);
        c.insert_speculative(1.0, 0, 0, surface(1));
        assert!(c.get(1.0, 0, 0).is_some()); // promote
        c.insert_speculative(2.0, 0, 0, surface(1));
        c.insert(3.0, 0, 0, surface(1));
        assert!(
            c.peek(1.0, 0, 0).is_some(),
            "promoted entry now outranks later speculative inserts"
        );
        assert!(
            c.peek(2.0, 0, 0).is_none(),
            "unpromoted speculative evicted"
        );
        assert!(c.peek(3.0, 0, 0).is_some());
    }

    #[test]
    fn speculative_insert_never_evicts_real_traffic() {
        // budget exactly holds the two real entries
        let mut c = ResultCache::new(96);
        c.insert(1.0, 0, 0, surface(1));
        c.insert(2.0, 0, 0, surface(1));
        let evictions_before = c.stats().evictions;
        c.insert_speculative(3.0, 0, 0, surface(1));
        assert!(c.peek(1.0, 0, 0).is_some(), "real entry survives warming");
        assert!(c.peek(2.0, 0, 0).is_some(), "real entry survives warming");
        assert!(
            c.peek(3.0, 0, 0).is_none(),
            "no spare budget: the warmed entry itself is dropped"
        );
        // colder speculative entries are fair game, though
        let mut c = ResultCache::new(96);
        c.insert_speculative(1.0, 0, 0, surface(1));
        c.insert(2.0, 0, 0, surface(1));
        c.insert_speculative(3.0, 0, 0, surface(1));
        assert!(c.peek(1.0, 0, 0).is_none(), "older speculative evicted");
        assert!(c.peek(2.0, 0, 0).is_some());
        assert!(c.peek(3.0, 0, 0).is_some());
        let _ = evictions_before;
    }

    #[test]
    fn speculative_insert_keeps_an_existing_resident_entry() {
        let mut c = ResultCache::new(10_000);
        c.insert(1.0, 0, 0, surface(2));
        let got = c.insert_speculative(1.0, 0, 0, surface(1));
        assert_eq!(got.mesh.len(), 2, "the resident (real) result wins");
        assert!(c.get(1.0, 0, 0).is_some());
        assert_eq!(
            c.stats().speculative_hits,
            0,
            "entry never became speculative"
        );
    }

    #[test]
    fn oversized_speculative_insert_passes_through() {
        let mut c = ResultCache::new(100);
        let arc = c.insert_speculative(5.0, 0, 0, surface(10)); // 480 B
        assert_eq!(arc.mesh.len(), 10);
        assert_eq!(c.stats().resident_entries, 0);
        assert!(c.peek(5.0, 0, 0).is_none());
    }

    #[test]
    fn backend_ids_are_distinct_keys() {
        let mut c = ResultCache::new(10_000);
        c.insert(1.0, 0, 0, surface(4));
        c.insert(1.0, 1, 0, surface(2));
        // the same (iso, lod) under another backend id must never alias
        assert_eq!(c.get(1.0, 0, 0).unwrap().mesh.len(), 4);
        assert_eq!(c.get(1.0, 1, 0).unwrap().mesh.len(), 2);
        assert!(c.get(2.0, 1, 0).is_none());
    }
}
