/**
 * @file
 * Sharded memoization cache fronting `Simulator::run`.
 *
 * Perf-model two-phase pretraining and the figure benches evaluate
 * thousands of candidates drawn from a *discrete* search space, and the
 * same candidate architectures recur — across paired evaluation sets,
 * across a converging RL policy's samples, and across benches sharing a
 * baseline. HW-NAS-Bench-style cost lookup is the standard way to
 * amortize those repeats: SimCache maps a canonical key — the candidate's
 * decision encoding plus a fingerprint of the chip and pass configuration
 * — to the aggregate SimResult. Entries hold only what callers read:
 * the result is flat (per-op timings come from Simulator::run on
 * request, never from the cache), and each key is stored once, in its
 * LRU entry; the shard's hash index points at that copy.
 *
 * Concurrency: the table is sharded by key hash with one mutex per
 * shard (mutex striping), so concurrent evaluators from h2o::exec rarely
 * contend. Each shard keeps an LRU list bounded at capacity/shards;
 * eviction is O(1). getOrCompute() runs the miss computation OUTSIDE the
 * shard lock: two threads may race to simulate the same key (both
 * compute, last insert wins) — acceptable because Simulator::run is pure.
 *
 * The cold path parallelizes: getOrComputeBatch() dedupes the batch's
 * missing keys (each distinct key is computed exactly once) and can fan
 * the miss chunks out over an h2o::exec::ThreadPool. Every cache
 * mutation stays on the calling thread in ascending batch position —
 * workers only run the pure miss computation — so hit counting, LRU
 * refresh order and eviction order are bit-identical at any pool size.
 *
 * Hit/miss/eviction counters are atomics, exported through
 * `search/telemetry` (writeSimCacheStatsCsv) for the benches. Entries
 * additionally carry a global recency tick so save() can serialize the
 * cache in global least-recently-used-first order: a load() into any
 * capacity/shard geometry replays accesses oldest-first and therefore
 * evicts oldest-first when the stream exceeds the target's capacity.
 */

#ifndef H2O_SIM_SIM_CACHE_H
#define H2O_SIM_SIM_CACHE_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <istream>
#include <list>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "exec/thread_pool.h"
#include "hw/chip.h"
#include "sim/simulator.h"

namespace h2o::sim {

/**
 * Canonical identity of one simulation request: the candidate's decision
 * encoding (plus any caller tags, e.g. exec mode) and a fingerprint of
 * everything else that determines the result (chip, pass config).
 * Equality is exact — fingerprints only pick the shard/bucket; full keys
 * are compared on lookup, so distinct configurations never alias.
 */
struct SimCacheKey
{
    /** Canonical decision encoding; callers append discriminator tags
     *  (e.g. training-vs-serving) as extra trailing elements. */
    std::vector<uint64_t> decisions;
    /** simConfigFingerprint() of the chip + pass configuration. */
    uint64_t configFingerprint = 0;

    bool operator==(const SimCacheKey &other) const = default;
};

/** Order-sensitive 64-bit fingerprint of a chip description. */
uint64_t chipFingerprint(const hw::ChipSpec &chip);

/** Fingerprint of a full simulator configuration (chip + passes). */
uint64_t simConfigFingerprint(const SimConfig &config);

/** Hash of a full cache key (shard/bucket selection only). */
uint64_t simCacheKeyHash(const SimCacheKey &key);

/** Build a key from a candidate's decision sample, a caller-chosen mode
 *  tag, and the simulator configuration. */
SimCacheKey makeSimCacheKey(const std::vector<size_t> &sample,
                            uint64_t mode_tag, const SimConfig &config);

/** Counter snapshot. */
struct SimCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;

    double hitRate() const
    {
        uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) / double(total) : 0.0;
    }
};

/**
 * The sharded, LRU-bounded memo-cache. Thread-safe; copyable results.
 */
class SimCache
{
  public:
    /**
     * @param capacity   Max cached entries across all shards (>= 1).
     * @param num_shards Mutex stripes; rounded up to at least 1.
     */
    explicit SimCache(size_t capacity, size_t num_shards = 16);

    /** Look up a key; on hit copies the cached result into `out` and
     *  refreshes its LRU position. Counts a hit or miss. */
    bool lookup(const SimCacheKey &key, SimResult &out);

    /** Insert (or overwrite) a key's result, evicting the shard's
     *  least-recently-used entry when over budget. */
    void insert(const SimCacheKey &key, SimResult value);

    /**
     * Batched lookup: keys are grouped by mutex stripe so each stripe's
     * lock is acquired ONCE per batch instead of once per key. Within a
     * stripe, keys are processed in ascending batch position, so hit
     * counting and LRU refresh order are deterministic. On hit,
     * `out[i]` is filled. Returns one hit flag per key.
     */
    std::vector<char> lookupBatch(std::span<const SimCacheKey> keys,
                                  std::vector<SimResult> &out);

    /** Default bound on distinct misses handed to one computeMisses
     *  call: the unit of work a fill pool's workers steal, and the most
     *  results one call returns at once. */
    static constexpr size_t kDefaultFillChunk = 256;

    /**
     * Batched memoization: one lookupBatch, then `computeMisses(miss
     * indices) -> results parallel to the miss list` runs OUTSIDE every
     * lock, then one insertBatch of the fresh results. Returns results
     * parallel to `keys`.
     *
     * Duplicate missing keys within a batch are computed ONCE per
     * distinct key; the result fans out to every duplicate position.
     * `computeMisses` receives chunks of at most `fill_chunk` distinct
     * miss positions (ascending within a chunk) and may therefore be
     * invoked several times per batch; it must be pure — the same
     * position yields the same result regardless of chunking.
     *
     * With a non-null `fill_pool` of more than one worker the chunks
     * are computed concurrently on the pool ("parallel cold-path
     * fill"); `computeMisses` must then also be thread-safe. All cache
     * mutations — the lookup, the write-back, the eviction — still run
     * on the calling thread in ascending batch position, so results,
     * counters, LRU order and save() images are bit-identical at any
     * pool size. A chunk that throws aborts the batch: the exception is
     * rethrown here after every in-flight chunk has drained, and no
     * partial chunk result is inserted (whole chunks that completed are
     * not rolled back; the simulator being pure makes them correct).
     */
    template <typename Fn>
    std::vector<SimResult>
    getOrComputeBatch(std::span<const SimCacheKey> keys, Fn &&computeMisses,
                      exec::ThreadPool *fill_pool = nullptr,
                      size_t fill_chunk = kDefaultFillChunk)
    {
        h2o_assert(fill_chunk > 0, "zero sim-cache fill chunk");
        std::vector<SimResult> results(keys.size());
        std::vector<char> hit = lookupBatch(keys, results);

        // Distinct missing keys, in first-occurrence order. `reps[r]`
        // is the representative batch position of distinct key r;
        // `rep_of[j]` maps the j-th miss position back to its key.
        std::vector<size_t> reps;
        std::vector<size_t> miss_pos;
        std::vector<size_t> rep_of;
        {
            // Keyed by batch position: the map points into `keys`.
            std::unordered_map<const SimCacheKey *, size_t, KeyRefHash,
                               KeyRefEq>
                first_seen;
            for (size_t i = 0; i < keys.size(); ++i) {
                if (hit[i])
                    continue;
                auto [it, inserted] =
                    first_seen.try_emplace(&keys[i], reps.size());
                if (inserted)
                    reps.push_back(i);
                miss_pos.push_back(i);
                rep_of.push_back(it->second);
            }
        }
        if (reps.empty())
            return results;

        std::vector<SimResult> fresh(reps.size());
        const size_t n_chunks = (reps.size() + fill_chunk - 1) / fill_chunk;
        auto run_chunk = [&](size_t c) {
            size_t lo = c * fill_chunk;
            size_t hi = std::min(reps.size(), lo + fill_chunk);
            std::vector<size_t> part(reps.begin() +
                                         static_cast<ptrdiff_t>(lo),
                                     reps.begin() +
                                         static_cast<ptrdiff_t>(hi));
            std::vector<SimResult> out = computeMisses(part);
            h2o_assert(out.size() == part.size(),
                       "computeMisses returned ", out.size(),
                       " results for ", part.size(), " misses");
            std::copy(out.begin(), out.end(),
                      fresh.begin() + static_cast<ptrdiff_t>(lo));
        };
        if (fill_pool != nullptr && fill_pool->size() > 1 && n_chunks > 1) {
            std::vector<std::future<void>> futures;
            futures.reserve(n_chunks);
            for (size_t c = 0; c < n_chunks; ++c)
                futures.push_back(
                    fill_pool->submit([&run_chunk, c] { run_chunk(c); }));
            // Drain every chunk before propagating the first failure so
            // no task outlives the locals it references.
            std::exception_ptr first_error;
            for (auto &f : futures) {
                try {
                    f.get();
                } catch (...) {
                    if (!first_error)
                        first_error = std::current_exception();
                }
            }
            if (first_error)
                std::rethrow_exception(first_error);
        } else {
            for (size_t c = 0; c < n_chunks; ++c)
                run_chunk(c);
        }

        // Write-back on the calling thread, ascending representative
        // position: insertion/eviction/recency order is a function of
        // the batch alone, never of worker timing.
        std::vector<const SimCacheKey *> miss_keys;
        miss_keys.reserve(reps.size());
        for (size_t i : reps)
            miss_keys.push_back(&keys[i]);
        insertBatch(miss_keys, fresh);

        // Fan out to every miss position, duplicates included.
        for (size_t j = 0; j < miss_pos.size(); ++j)
            results[miss_pos[j]] = fresh[rep_of[j]];
        return results;
    }

    /** Memoize `compute()` under `key`. The computation runs outside
     *  any lock; concurrent misses on one key may compute twice. */
    template <typename Fn>
    SimResult getOrCompute(const SimCacheKey &key, Fn &&compute)
    {
        SimResult cached;
        if (lookup(key, cached))
            return cached;
        SimResult fresh = compute();
        insert(key, fresh);
        return fresh;
    }

    /** Snapshot the counters (entries is summed across shards). */
    SimCacheStats stats() const;

    /** Drop every entry; counters are preserved. */
    void clear();

    /**
     * Serialize every cached entry in GLOBAL least-recently-used-first
     * order (the per-entry recency tick, not per-shard list order) in
     * the tagged text format used by exec::Checkpoint streams. A
     * subsequent load() therefore reproduces the recency order even
     * into a cache with a different capacity or shard count. Counters
     * are not persisted — they describe a process, not the contents.
     * Writes image version 2 (key and aggregate result per entry);
     * load() and mergeFrom() also read version 1, whose per-op timing
     * records are checked and dropped.
     */
    void save(std::ostream &os) const;

    /**
     * Merge a save()d stream into this cache via normal inserts (LRU
     * eviction applies if the stream exceeds capacity; the stream's
     * global oldest-first order means the oldest entries are the ones
     * evicted). Entries whose config fingerprint no longer matches any
     * caller's configuration are harmless: exact key equality keeps
     * them from ever aliasing.
     */
    void load(std::istream &is);

    /**
     * Eviction-aware merge of a save()d stream into this cache's LIVE
     * contents: after the merge the cache holds the union of both entry
     * sets, with the stream's entries ranked older than everything
     * computed in this process (their relative oldest-first order is
     * preserved), so when the union exceeds capacity the LRU policy
     * evicts the merged-in (stale) entries first and a key present on
     * both sides keeps this process's value and recency. This is what
     * makes concurrent or sequential fills COMPOSE through one cache
     * file — save-over-existing keeps the globally newest entries —
     * instead of the last writer clobbering the others' work (see
     * saveSimCacheFileMerged). Counters are preserved; merge-driven
     * evictions count as evictions.
     */
    void mergeFrom(std::istream &is);

    /** Total entry budget across shards. */
    size_t capacity() const { return _shardCapacity * _shards.size(); }

  private:
    struct Entry
    {
        SimCacheKey key;
        SimResult value;
        /** Global recency stamp (higher = more recent); orders save(). */
        uint64_t tick = 0;
    };
    /** Hash and equality over the key a pointer refers to. Both are
     *  transparent, so an index keyed by pointers into storage it does
     *  not own is searched with a plain key. */
    struct KeyRefHash
    {
        using is_transparent = void;
        size_t operator()(const SimCacheKey &k) const
        {
            return static_cast<size_t>(simCacheKeyHash(k));
        }
        size_t operator()(const SimCacheKey *k) const { return (*this)(*k); }
    };
    struct KeyRefEq
    {
        using is_transparent = void;
        static const SimCacheKey &ref(const SimCacheKey &k) { return k; }
        static const SimCacheKey &ref(const SimCacheKey *k) { return *k; }
        template <typename A, typename B>
        bool operator()(const A &a, const B &b) const
        {
            return ref(a) == ref(b);
        }
    };
    struct Shard
    {
        std::mutex mu;
        /** Front = most recently used. Owns the entries' keys. */
        std::list<Entry> lru;
        /** Keyed by the address of the key inside its `lru` entry
         *  (list nodes never move), so each key is stored once. */
        std::unordered_map<const SimCacheKey *, std::list<Entry>::iterator,
                           KeyRefHash, KeyRefEq>
            index;
    };

    Shard &shardFor(const SimCacheKey &key);

    /** With the shard locked: refresh a present key's LRU position and
     *  recency tick and return its entry, or null when absent. */
    Entry *touchLocked(Shard &shard, const SimCacheKey &key);

    /** With the shard locked: insert or overwrite, evicting the shard's
     *  least-recently-used entry when over budget. Returns whether an
     *  entry was evicted. */
    bool insertLocked(Shard &shard, const SimCacheKey &key,
                      const SimResult &value);

    /** Batched insert, one stripe-lock acquisition per stripe touched.
     *  keys and values are parallel arrays; the keys point into the
     *  caller's batch, so each is copied only into its new entry. */
    void insertBatch(std::span<const SimCacheKey *const> keys,
                     std::span<const SimResult> values);

    /** Next global recency stamp (see Entry::tick). */
    uint64_t nextTick()
    {
        return _accessTick.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    std::vector<std::unique_ptr<Shard>> _shards;
    size_t _shardCapacity;
    std::atomic<uint64_t> _accessTick{0};
    std::atomic<uint64_t> _hits{0};
    std::atomic<uint64_t> _misses{0};
    std::atomic<uint64_t> _evictions{0};
};

/** Warm-start a cache from a checkpoint file written by
 *  saveSimCacheFileMerged (or a raw save() commit). Returns false —
 *  without touching the cache — when the path is empty or the file does
 *  not exist, so `--sim_cache_file` flags can pass their value through
 *  unconditionally. */
bool warmSimCacheFromFile(SimCache &cache, const std::string &path);

/** Persist a cache to `path` with the eviction-aware merge: any
 *  existing file's entries are mergeFrom()ed first (this process's
 *  entries rank newer), then one atomic CheckpointWriter commit writes
 *  the union. No-op when the path is empty. */
void saveSimCacheFileMerged(SimCache &cache, const std::string &path);

} // namespace h2o::sim

#endif // H2O_SIM_SIM_CACHE_H
