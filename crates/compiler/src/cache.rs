//! Process-wide cache of compiled modules.
//!
//! Compilation is deterministic: the same model source and
//! [`CompileOptions`] always produce the same [`CompiledModule`]. The
//! cache exploits that — [`ModuleCache::get_or_compile`] keys each
//! module by a structural fingerprint of the source program (which
//! covers the model's dimensions: they are baked into the weight and
//! variable tables) together with the exact options, and hands out
//! `Arc`-shared modules. Constructing ten engines over the same
//! `(source, dims, options)` key — a stacked-model sweep, repeated
//! test setup — compiles once and serves nine hits. The DSL line count
//! ([`ModelSource::lines`]) is not part of the key: it does not change
//! the module.
//!
//! [`ModuleCache::stats`] reports the hit/miss/eviction counts and the
//! entry count; [`ModuleCache::clear`] empties the cache and zeroes them
//! (tests that pin exact deltas start from a clean slate).
//!
//! # Eviction
//!
//! The cache holds at most `MAX_MODULES` (256) modules. An insert into a
//! full cache first forgets the least-recently-used entry, the one hit
//! or inserted longest ago, so a long-lived multi-tenant server cycling
//! through many models stays bounded. An evicted module stays alive as
//! long as some engine still holds its `Arc`; the next request for its
//! key compiles again and counts as a miss.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use hector_ir::builder::ModelSource;

use crate::pipeline::{compile, CompileOptions, CompiledModule};

/// Most modules the process cache holds. The most distinct keys any
/// test binary of this workspace holds at once is 83 (the `hector`
/// crate's unit tests; the most of any bench target is 64), so no test
/// or paper table sees an eviction it did not ask for.
const MAX_MODULES: usize = 256;

/// Cache key: the source fingerprint with the exact options. A collision
/// would need two distinct programs agreeing on all 64 bits of the
/// fingerprint, which we accept as negligible for a process-lifetime
/// cache.
type CacheKey = (u64, CompileOptions);

/// Structural 64-bit fingerprint of a model source: the derived `Hash`
/// of its program — name, variable and weight tables (so the model
/// dimensions are part of it), weight preps, operators (constants by bit
/// pattern), inputs and outputs. The DSL line count is not part of it.
/// Deterministic across runs ([`DefaultHasher::new`] is keyed with
/// constants).
#[must_use]
pub fn source_fingerprint(src: &ModelSource) -> u64 {
    let mut h = DefaultHasher::new();
    src.program.hash(&mut h);
    h.finish()
}

/// Snapshot of the process-wide module cache ([`ModuleCache::stats`]).
/// The cache is shared by the whole process, so every engine reads the
/// same numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModuleCacheStats {
    /// Compilations avoided: lookups that found a cached module.
    pub hits: u64,
    /// Lookups that had to run the compiler pipeline.
    pub misses: u64,
    /// Entries forgotten by the least-recently-used bound.
    pub evictions: u64,
    /// Modules currently cached.
    pub entries: usize,
}

/// One cached module plus its recency stamp.
struct Entry {
    module: Arc<CompiledModule>,
    /// Logical clock value of the entry's last hit (or its insert).
    last_use: u64,
}

struct CacheState {
    modules: HashMap<CacheKey, Entry>,
    /// Most entries held: `MAX_MODULES` for the process cache.
    max: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Logical clock: bumped on every hit/insert to stamp recency.
    tick: u64,
}

impl CacheState {
    fn new(max: usize) -> CacheState {
        CacheState {
            modules: HashMap::new(),
            max,
            hits: 0,
            misses: 0,
            evictions: 0,
            tick: 0,
        }
    }

    /// The cached module for `key`, counted as a hit and stamped most
    /// recently used.
    fn hit(&mut self, key: &CacheKey) -> Option<Arc<CompiledModule>> {
        let e = self.modules.get_mut(key)?;
        self.tick += 1;
        e.last_use = self.tick;
        self.hits += 1;
        Some(Arc::clone(&e.module))
    }

    /// Counts a compile of `key` (a miss) and caches its `module`,
    /// forgetting the least-recently-used entry first when the cache is
    /// full. A caller that raced on the same cold key and inserted first
    /// wins: its module is returned and `module` is dropped, so every
    /// caller shares one `Arc`.
    fn insert(&mut self, key: CacheKey, module: Arc<CompiledModule>) -> Arc<CompiledModule> {
        self.misses += 1;
        if let Some(e) = self.modules.get(&key) {
            return Arc::clone(&e.module);
        }
        if self.modules.len() >= self.max {
            let victim = self
                .modules
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                self.modules.remove(&k);
                self.evictions += 1;
            }
        }
        self.tick += 1;
        let entry = Entry {
            module: Arc::clone(&module),
            last_use: self.tick,
        };
        self.modules.insert(key, entry);
        module
    }

    fn stats(&self) -> ModuleCacheStats {
        ModuleCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.modules.len(),
        }
    }
}

fn lock(cache: &Mutex<CacheState>) -> MutexGuard<'_, CacheState> {
    // The guard only ever wraps map/counter bookkeeping (compiles run
    // outside the lock), so a poisoned mutex — a panicking test thread
    // mid-update — leaves nothing half-built; recovering is safe.
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Looks `(src, options)` up in `cache`, compiling on a miss outside the
/// lock. The `bool` is `true` on a hit.
fn get_or_compile(
    cache: &Mutex<CacheState>,
    src: &ModelSource,
    options: &CompileOptions,
) -> (Arc<CompiledModule>, bool) {
    let key = (source_fingerprint(src), options.clone());
    if let Some(module) = lock(cache).hit(&key) {
        return (module, true);
    }
    let module = Arc::new(compile(src, options));
    (lock(cache).insert(key, module), false)
}

fn process_cache() -> &'static Mutex<CacheState> {
    static CACHE: OnceLock<Mutex<CacheState>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(CacheState::new(MAX_MODULES)))
}

/// The process-wide compiled-module cache (a namespace: all state lives
/// in a process global).
pub struct ModuleCache;

impl ModuleCache {
    /// Returns the cached module for `(src, options)`, compiling on the
    /// first request. The `bool` is `true` on a cache hit (zero
    /// compilations performed by this call).
    ///
    /// The compile itself runs *outside* the cache lock, so cold builds
    /// of unrelated keys never contend. Concurrent callers racing on
    /// the same cold key may each compile (both counted as misses —
    /// each ran the pipeline); the first insert wins and the loser's
    /// module is discarded, so every caller still receives the one
    /// shared `Arc` and warm lookups stay single-instance.
    #[must_use]
    pub fn get_or_compile(
        src: &ModelSource,
        options: &CompileOptions,
    ) -> (Arc<CompiledModule>, bool) {
        get_or_compile(process_cache(), src, options)
    }

    /// Drops every cached module and zeroes the hit/miss/eviction
    /// counters. Tests that pin exact counter deltas call this first.
    pub fn clear() {
        *lock(process_cache()) = CacheState::new(MAX_MODULES);
    }

    /// Current cache statistics.
    #[must_use]
    pub fn stats() -> ModuleCacheStats {
        lock(process_cache()).stats()
    }
}

/// Compiles `src` through the process-wide [`ModuleCache`] — the cached
/// twin of [`compile`]. Prefer this (or the `Engine` handle built on
/// it) whenever the same model may be compiled more than once per
/// process.
#[must_use]
pub fn compile_cached(src: &ModelSource, options: &CompileOptions) -> Arc<CompiledModule> {
    ModuleCache::get_or_compile(src, options).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::emit;
    use hector_ir::{AggNorm, ModelBuilder};

    fn toy_source(name: &str, dim: usize) -> ModelSource {
        let mut m = ModelBuilder::new(name);
        let h = m.node_input("h", dim);
        let w = m.weight_per_etype("W", dim, dim);
        let y = m.typed_linear("y", m.src(h), w);
        let out = m.aggregate("out", m.edge(y), None, AggNorm::None);
        m.output(out);
        m.finish()
    }

    /// `toy_source` with its messages scaled by the constant `c`.
    fn scaled_source(c: f32) -> ModelSource {
        let mut m = ModelBuilder::new("cache_fp_scaled");
        let h = m.node_input("h", 8);
        let w = m.weight_per_etype("W", 8, 8);
        let y = m.typed_linear("y", m.src(h), w);
        let s = m.mul("s", m.edge(y), m.konst(c));
        let out = m.aggregate("out", m.edge(s), None, AggNorm::None);
        m.output(out);
        m.finish()
    }

    #[test]
    fn fingerprint_is_deterministic_and_dimension_sensitive() {
        let a = source_fingerprint(&toy_source("cache_fp", 8));
        let b = source_fingerprint(&toy_source("cache_fp", 8));
        let c = source_fingerprint(&toy_source("cache_fp", 16));
        let d = source_fingerprint(&toy_source("cache_fp2", 8));
        assert_eq!(a, b, "same source must fingerprint identically");
        assert_ne!(a, c, "dims are part of the key");
        assert_ne!(a, d, "name is part of the key");
    }

    #[test]
    fn line_count_is_not_part_of_the_fingerprint() {
        let src = toy_source("cache_fp_lines", 8);
        let mut longer = src.clone();
        longer.lines += 1;
        assert_eq!(source_fingerprint(&src), source_fingerprint(&longer));
    }

    #[test]
    fn constants_and_derived_flags_are_part_of_the_fingerprint() {
        assert_ne!(
            source_fingerprint(&scaled_source(0.5)),
            source_fingerprint(&scaled_source(0.25)),
            "one constant differs"
        );
        let src = toy_source("cache_fp_derived", 8);
        let mut derived = src.clone();
        derived.program.weights[0].derived = true;
        assert_ne!(
            source_fingerprint(&src),
            source_fingerprint(&derived),
            "one derived flag differs"
        );
    }

    #[test]
    fn second_compile_is_a_hit_and_shares_the_module() {
        // Unique name + dims so concurrently running tests in this
        // binary can never collide with the key.
        let src = toy_source("cache_hit_test_model", 23);
        let opts = CompileOptions::best();
        let (first, hit1) = ModuleCache::get_or_compile(&src, &opts);
        let (second, hit2) = ModuleCache::get_or_compile(&src, &opts);
        assert!(!hit1, "first lookup compiles");
        assert!(hit2, "second lookup must hit");
        assert!(Arc::ptr_eq(&first, &second), "one shared module");
    }

    #[test]
    fn distinct_options_are_distinct_entries() {
        let src = toy_source("cache_opts_test_model", 29);
        let (_, h1) = ModuleCache::get_or_compile(&src, &CompileOptions::unopt());
        let (_, h2) = ModuleCache::get_or_compile(&src, &CompileOptions::best());
        let (_, h3) =
            ModuleCache::get_or_compile(&src, &CompileOptions::best().with_training(true));
        assert!(!h1 && !h2 && !h3, "each option combo compiles once");
    }

    #[test]
    fn lru_evicts_oldest_entries_when_over_budget() {
        // A local cache bounded at two entries runs the policy; the
        // process cache is untouched.
        let cache = Mutex::new(CacheState::new(2));
        let opts = CompileOptions::best();
        let [a, b, c] = ["cache_lru_a", "cache_lru_b", "cache_lru_c"].map(|n| toy_source(n, 37));
        let counts = || {
            let s = lock(&cache).stats();
            (s.hits, s.misses, s.evictions, s.entries)
        };
        get_or_compile(&cache, &a, &opts);
        let (mb, _) = get_or_compile(&cache, &b, &opts);
        // Hitting `a` leaves `b` the least recently hit.
        assert!(get_or_compile(&cache, &a, &opts).1);
        assert!(!get_or_compile(&cache, &c, &opts).1);
        assert_eq!(counts(), (1, 3, 1, 2), "inserting c evicts one entry");
        assert!(get_or_compile(&cache, &a, &opts).1, "a survives");
        assert!(get_or_compile(&cache, &c, &opts).1, "c never evicts itself");
        // `b` was the victim: it recompiles as a miss, to the same plan.
        let (mb2, hit) = get_or_compile(&cache, &b, &opts);
        assert!(!hit, "an evicted key recompiles");
        assert_eq!(mb.forward, mb2.forward, "recompile is deterministic");
        assert_eq!(counts(), (3, 4, 2, 2), "and evicts a, now the oldest");
    }

    #[test]
    fn insert_never_evicts_itself() {
        // A local cache bounded at one entry: every insert into it is an
        // insert into a full cache, and the entry it forgets must be the
        // older one, never the module just inserted.
        let cache = Mutex::new(CacheState::new(1));
        let opts = CompileOptions::best();
        let [a, b] = ["cache_lru_self_a", "cache_lru_self_b"].map(|n| toy_source(n, 41));
        assert!(!get_or_compile(&cache, &a, &opts).1);
        assert!(get_or_compile(&cache, &a, &opts).1, "a stays resident");
        assert!(!get_or_compile(&cache, &b, &opts).1);
        assert!(
            get_or_compile(&cache, &b, &opts).1,
            "b must not evict itself"
        );
        let s = lock(&cache).stats();
        assert_eq!((s.evictions, s.entries), (1, 1), "inserting b evicts a");
    }

    #[test]
    fn cached_module_matches_a_fresh_compile() {
        let src = toy_source("cache_equiv_test_model", 31);
        let opts = CompileOptions::best().with_training(true);
        let cached = compile_cached(&src, &opts);
        let fresh = compile(&src, &opts);
        assert_eq!(cached.forward, fresh.forward);
        assert_eq!(cached.backward, fresh.backward);
        let (c, f) = (emit(&cached), emit(&fresh));
        assert_eq!((c.kernels, c.host, c.python), (f.kernels, f.host, f.python));
    }
}
