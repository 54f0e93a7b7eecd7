//! Cell-level run memoisation over the content store.
//!
//! The [`crate::DigestCache`] memoises *build artifacts* by package
//! revision. This module extends the same idea one level up, to whole
//! validation cells: the paper replays the same tests across many nightly
//! firings and OS/software revisions, and a cell whose determinants —
//! test identity, campaign seed, environment revision and workload scale —
//! are unchanged must produce bit-identical outputs (§3.3: "ensures
//! reproducibility of previous results"). [`RunMemo`] maps such a
//! [`RunKey`] to whatever production the caller wants to replay (content
//! addresses of the stored outputs, pre-comparison statuses, …), so an
//! unchanged (experiment, image, test) cell costs a map lookup instead of
//! a full MC-chain re-execution.
//!
//! Two trust rules, mirroring the digest cache:
//!
//! * a key must capture **every** determinant of the memoised production —
//!   an under-described key happily serves stale results;
//! * entries are only valid while the objects they point at are still in
//!   the content store; callers re-check presence and
//!   [`invalidate`](RunMemo::invalidate) after retention pruning.
//!
//! Anything *relative* — most importantly the comparison against the
//! current reference run, which evolves as references are promoted — must
//! be recomputed at replay time and therefore does not belong in the memo.
//!
//! ## Campaign-safe eviction
//!
//! With several campaigns running against one shared system, the
//! peek-validate-invalidate cycle races: campaign A peeks an entry, finds
//! its conserved object pruned, and decides to drop the entry — but in the
//! meantime campaign B may have re-executed the cell and inserted a
//! *fresh* entry under the same key. An unconditional invalidate would
//! throw B's valid work away. Every entry therefore carries a
//! **generation counter**: [`RunMemo::entry`] returns the value together
//! with its generation, and [`RunMemo::invalidate_generation`] only
//! removes the entry if the generation still matches — a stale eviction
//! decision silently loses to a newer insert.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::digest_cache::DigestCacheStats;
use crate::fasthash::{FastHasher, FastKeyState};

/// The determinants of one validation cell's production.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Test identifier (experiment-qualified, e.g. `h1/chain/nc`).
    pub test: String,
    /// Campaign base seed (per-test seeds derive deterministically from it).
    pub seed: u64,
    /// Environment / image revision — the *full* label including externals,
    /// so two images differing only in their installed ROOT do not collide.
    pub env_revision: String,
    /// Workload scale factor, stored as raw bits for `Eq`/`Hash`.
    scale_bits: u64,
}

impl RunKey {
    /// Builds a key from the cell determinants.
    pub fn new(
        test: impl Into<String>,
        seed: u64,
        env_revision: impl Into<String>,
        scale: f64,
    ) -> Self {
        RunKey {
            test: test.into(),
            seed,
            env_revision: env_revision.into(),
            scale_bits: scale.to_bits(),
        }
    }

    /// The workload scale factor this key was built with.
    pub fn scale(&self) -> f64 {
        f64::from_bits(self.scale_bits)
    }

    /// The 128-bit fast hash the memo map is keyed on. Strings are
    /// length-prefixed so `("ab", "c")` and `("a", "bc")` cannot collide
    /// structurally. Process-local only — never persisted (the warm-state
    /// serialisers export the full [`RunKey`], not this).
    fn fast_key(&self) -> u128 {
        let mut h = FastHasher::new();
        h.update(&(self.test.len() as u64).to_le_bytes());
        h.update(self.test.as_bytes());
        h.update(&self.seed.to_le_bytes());
        h.update(&(self.env_revision.len() as u64).to_le_bytes());
        h.update(self.env_revision.as_bytes());
        h.update(&self.scale_bits.to_le_bytes());
        h.finish().0
    }
}

/// A memoised production together with the generation it was inserted at
/// and the full key it belongs to (the map itself is keyed on the key's
/// fast hash; the stored key is what makes a probe exact).
#[derive(Debug, Clone)]
struct Slot<V> {
    key: RunKey,
    value: V,
    generation: u64,
}

/// A concurrent `cell determinants → memoised production` map with
/// hit/miss accounting, generic in what a "production" is.
///
/// ## Fast keying
///
/// The map is keyed on `RunKey::fast_key` — a 128-bit
/// [`crate::fasthash`] digest — under an identity [`FastKeyState`], so a
/// probe costs one fast hash of the determinants instead of a SipHash
/// pass over two heap strings, and bucket comparisons are `u128 == u128`
/// instead of struct-deep string equality. Every slot retains its full
/// [`RunKey`]; reads verify it, so even a colliding 128-bit digest can
/// only miss (or, on insert, displace the collidee) — the memo can never
/// serve a value under the wrong determinants. This is cache posture: a
/// lost entry costs one re-execution, a wrong entry would cost
/// correctness.
#[derive(Debug)]
pub struct RunMemo<V> {
    entries: RwLock<HashMap<u128, Slot<V>, FastKeyState>>,
    generations: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for RunMemo<V> {
    fn default() -> Self {
        RunMemo {
            entries: RwLock::new(HashMap::with_hasher(FastKeyState)),
            generations: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<V: Clone> RunMemo<V> {
    /// Creates an empty memo.
    pub fn new() -> Self {
        RunMemo::default()
    }

    /// Looks up the production memoised for `key` (no counters — callers
    /// validate the entry first and then note a hit or miss).
    pub fn peek(&self, key: &RunKey) -> Option<V> {
        self.entries
            .read()
            .get(&key.fast_key())
            .filter(|slot| slot.key == *key)
            .map(|slot| slot.value.clone())
    }

    /// Looks up the production memoised for `key` together with its
    /// generation — the token
    /// [`invalidate_generation`](Self::invalidate_generation) needs to evict campaign-safely.
    pub fn entry(&self, key: &RunKey) -> Option<(V, u64)> {
        self.entries
            .read()
            .get(&key.fast_key())
            .filter(|slot| slot.key == *key)
            .map(|slot| (slot.value.clone(), slot.generation))
    }

    /// Records the production of `key` under a fresh generation.
    pub fn insert(&self, key: RunKey, value: V) {
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1;
        let fast = key.fast_key();
        self.entries.write().insert(
            fast,
            Slot {
                key,
                value,
                generation,
            },
        );
    }

    /// Drops one entry unconditionally (e.g. the whole determinant became
    /// invalid). Returns whether it was present. For evictions justified
    /// by the *content* of the entry — a pruned conserved object — use
    /// [`invalidate_generation`](Self::invalidate_generation) instead,
    /// which cannot drop an entry it never examined.
    pub fn invalidate(&self, key: &RunKey) -> bool {
        let mut entries = self.entries.write();
        match entries.get(&key.fast_key()) {
            Some(slot) if slot.key == *key => {
                entries.remove(&key.fast_key());
                true
            }
            _ => false,
        }
    }

    /// Drops the entry under `key` only if it still carries `generation`
    /// (as returned by [`entry`](Self::entry)). Returns whether the entry
    /// was removed. A concurrent campaign that re-inserted a fresh entry
    /// in the meantime bumped the generation, so a stale eviction decision
    /// is a no-op — one campaign's prune can never drop another in-flight
    /// campaign's valid entry.
    pub fn invalidate_generation(&self, key: &RunKey, generation: u64) -> bool {
        let fast = key.fast_key();
        let mut entries = self.entries.write();
        match entries.get(&fast) {
            Some(slot) if slot.key == *key && slot.generation == generation => {
                entries.remove(&fast);
                true
            }
            _ => false,
        }
    }

    /// Drops every entry whose key matches `predicate`, returning how many
    /// were removed. Used when a whole determinant class is invalidated at
    /// once — e.g. an experiment definition is replaced, so every cell of
    /// that experiment must re-execute.
    pub fn invalidate_matching(&self, predicate: impl Fn(&RunKey) -> bool) -> usize {
        let mut entries = self.entries.write();
        let before = entries.len();
        entries.retain(|_, slot| !predicate(&slot.key));
        before - entries.len()
    }

    /// Snapshot of every `(key, value)` pair, in unspecified order. The
    /// warm-state snapshot serialisers iterate this; generations are *not*
    /// exported (they only order concurrent evictions within one process
    /// lifetime and restart from zero on import). Restoring goes through
    /// plain [`insert`](Self::insert), one validated entry at a time —
    /// the importer checks each entry against the content store first.
    pub fn export_entries(&self) -> Vec<(RunKey, V)> {
        self.entries
            .read()
            .values()
            .map(|slot| (slot.key.clone(), slot.value.clone()))
            .collect()
    }

    /// Records a cell served from the memo.
    pub fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cell that fell through to execution.
    pub fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the effectiveness counters.
    pub fn stats(&self) -> DigestCacheStats {
        DigestCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.read().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_distinguishes_every_determinant() {
        let base = RunKey::new("h1/chain/nc", 7, "SL6/64bit gcc4.4 root5.34", 0.5);
        assert_eq!(
            base,
            RunKey::new("h1/chain/nc", 7, "SL6/64bit gcc4.4 root5.34", 0.5)
        );
        assert_ne!(
            base,
            RunKey::new("h1/chain/cc", 7, "SL6/64bit gcc4.4 root5.34", 0.5)
        );
        assert_ne!(
            base,
            RunKey::new("h1/chain/nc", 8, "SL6/64bit gcc4.4 root5.34", 0.5)
        );
        assert_ne!(
            base,
            RunKey::new("h1/chain/nc", 7, "SL6/64bit gcc4.4 root5.26", 0.5)
        );
        assert_ne!(
            base,
            RunKey::new("h1/chain/nc", 7, "SL6/64bit gcc4.4 root5.34", 1.0)
        );
        assert_eq!(base.scale(), 0.5);
    }

    #[test]
    fn fast_keys_respect_field_boundaries() {
        // Length-prefixing: moving bytes between the test name and the
        // env revision must never produce the same fast key.
        assert_ne!(
            RunKey::new("ab", 0, "c", 1.0).fast_key(),
            RunKey::new("a", 0, "bc", 1.0).fast_key()
        );
        // And the key is a pure function of the determinants.
        assert_eq!(
            RunKey::new("t", 7, "env", 0.5).fast_key(),
            RunKey::new("t", 7, "env", 0.5).fast_key()
        );
    }

    #[test]
    fn peek_insert_invalidate_and_stats() {
        let memo: RunMemo<u32> = RunMemo::new();
        let key = RunKey::new("t", 1, "env", 1.0);
        assert_eq!(memo.peek(&key), None);
        memo.note_miss();
        memo.insert(key.clone(), 42);
        assert_eq!(memo.peek(&key), Some(42));
        memo.note_hit();
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(memo.invalidate(&key));
        assert!(!memo.invalidate(&key));
        assert_eq!(memo.stats().entries, 0);
    }

    #[test]
    fn stale_eviction_cannot_drop_a_fresh_entry() {
        // Campaign A reads an entry and (after finding its conserved
        // object pruned) decides to evict it; campaign B re-executes the
        // cell and inserts a fresh entry in between. A's eviction must
        // lose: the generation it holds is stale.
        let memo: RunMemo<u32> = RunMemo::new();
        let key = RunKey::new("h1::chain/nc", 1, "env", 1.0);
        memo.insert(key.clone(), 1);
        let (_, stale_generation) = memo.entry(&key).unwrap();

        // B replaces the entry (e.g. after re-conserving the output).
        memo.insert(key.clone(), 2);

        assert!(
            !memo.invalidate_generation(&key, stale_generation),
            "a stale generation must not evict"
        );
        assert_eq!(memo.peek(&key), Some(2), "B's fresh entry survives");

        // With the current generation the eviction goes through.
        let (_, generation) = memo.entry(&key).unwrap();
        assert!(memo.invalidate_generation(&key, generation));
        assert_eq!(memo.peek(&key), None);
        // And evicting a missing key is a no-op either way.
        assert!(!memo.invalidate_generation(&key, generation));
    }

    #[test]
    fn exported_entries_round_trip_through_insert() {
        let memo: RunMemo<u32> = RunMemo::new();
        memo.insert(RunKey::new("a", 1, "env", 1.0), 10);
        memo.insert(RunKey::new("b", 2, "env", 0.5), 20);
        let exported = memo.export_entries();
        assert_eq!(exported.len(), 2);

        let restored: RunMemo<u32> = RunMemo::new();
        for (key, value) in exported {
            restored.insert(key, value);
        }
        assert_eq!(restored.peek(&RunKey::new("a", 1, "env", 1.0)), Some(10));
        assert_eq!(restored.peek(&RunKey::new("b", 2, "env", 0.5)), Some(20));
    }

    #[test]
    fn invalidate_matching_drops_a_key_class() {
        let memo: RunMemo<u32> = RunMemo::new();
        memo.insert(RunKey::new("h1::a", 1, "env", 1.0), 1);
        memo.insert(RunKey::new("h1::b", 1, "env", 1.0), 2);
        memo.insert(RunKey::new("zeus::a", 1, "env", 1.0), 3);
        assert_eq!(memo.invalidate_matching(|k| k.test.starts_with("h1::")), 2);
        assert_eq!(memo.stats().entries, 1);
        assert!(memo.peek(&RunKey::new("zeus::a", 1, "env", 1.0)).is_some());
    }

    #[test]
    fn concurrent_use_is_safe() {
        use std::sync::Arc;
        let memo: Arc<RunMemo<u64>> = Arc::new(RunMemo::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let memo = Arc::clone(&memo);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let key = RunKey::new(format!("t-{}", (t + i) % 25), i % 3, "env", 1.0);
                    match memo.peek(&key) {
                        Some(_) => memo.note_hit(),
                        None => {
                            memo.note_miss();
                            memo.insert(key, t * 1000 + i);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, 75, "25 tests x 3 seeds");
        assert_eq!(stats.hits + stats.misses, 800);
    }
}
