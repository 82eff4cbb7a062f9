#include "sim/sim_cache.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "common/logging.h"
#include "common/serialize.h"
#include "exec/checkpoint.h"

namespace h2o::sim {

namespace {

/** SplitMix64-style combine: order-sensitive, avalanche per word. */
uint64_t
mixWord(uint64_t h, uint64_t v)
{
    uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
mixDouble(uint64_t h, double v)
{
    return mixWord(h, std::bit_cast<uint64_t>(v));
}

uint64_t
mixString(uint64_t h, const std::string &s)
{
    h = mixWord(h, s.size());
    for (char c : s)
        h = mixWord(h, static_cast<uint64_t>(static_cast<uint8_t>(c)));
    return h;
}

} // namespace

uint64_t
chipFingerprint(const hw::ChipSpec &chip)
{
    uint64_t h = 0x6833326f63686970ULL; // "h2ochip"
    h = mixString(h, chip.name);
    h = mixDouble(h, chip.peakTensorFlops);
    h = mixDouble(h, chip.peakVectorFlops);
    h = mixWord(h, chip.tensorTile);
    h = mixDouble(h, chip.hbmCapacityBytes);
    h = mixDouble(h, chip.hbmBandwidth);
    h = mixDouble(h, chip.onChipCapacityBytes);
    h = mixDouble(h, chip.onChipBandwidth);
    h = mixDouble(h, chip.iciBandwidth);
    h = mixDouble(h, chip.idlePowerW);
    h = mixDouble(h, chip.computePowerW);
    h = mixDouble(h, chip.hbmEnergyPerByte);
    h = mixDouble(h, chip.onChipEnergyPerByte);
    return h;
}

uint64_t
simConfigFingerprint(const SimConfig &config)
{
    uint64_t h = chipFingerprint(config.chip);
    h = mixWord(h, config.enableFusion ? 1 : 0);
    h = mixWord(h, config.enableMemoryPlacement ? 2 : 0);
    h = mixDouble(h, config.memory.paramFraction);
    h = mixDouble(h, config.memory.activationFraction);
    return h;
}

uint64_t
simCacheKeyHash(const SimCacheKey &key)
{
    uint64_t h = key.configFingerprint;
    h = mixWord(h, key.decisions.size());
    for (uint64_t d : key.decisions)
        h = mixWord(h, d);
    return h;
}

SimCacheKey
makeSimCacheKey(const std::vector<size_t> &sample, uint64_t mode_tag,
                const SimConfig &config)
{
    SimCacheKey key;
    key.decisions.reserve(sample.size() + 1);
    for (size_t d : sample)
        key.decisions.push_back(static_cast<uint64_t>(d));
    key.decisions.push_back(mode_tag);
    key.configFingerprint = simConfigFingerprint(config);
    return key;
}

SimCache::SimCache(size_t capacity, size_t num_shards)
{
    h2o_assert(capacity > 0, "sim cache with zero capacity");
    if (num_shards == 0)
        num_shards = 1;
    // Never more shards than entries: every shard must hold >= 1 entry.
    num_shards = std::min(num_shards, capacity);
    _shardCapacity = (capacity + num_shards - 1) / num_shards;
    _shards.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s)
        _shards.push_back(std::make_unique<Shard>());
}

SimCache::Shard &
SimCache::shardFor(const SimCacheKey &key)
{
    return *_shards[simCacheKeyHash(key) % _shards.size()];
}

SimCache::Entry *
SimCache::touchLocked(Shard &shard, const SimCacheKey &key)
{
    auto it = shard.index.find(key);
    if (it == shard.index.end())
        return nullptr;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    it->second->tick = nextTick();
    return &*it->second;
}

bool
SimCache::insertLocked(Shard &shard, const SimCacheKey &key,
                       const SimResult &value)
{
    if (Entry *e = touchLocked(shard, key)) {
        // Concurrent miss raced us here; results are identical (the
        // simulator is pure), keep the freshest.
        e->value = value;
        return false;
    }
    shard.lru.push_front(Entry{key, value, nextTick()});
    shard.index.emplace(&shard.lru.front().key, shard.lru.begin());
    if (shard.index.size() <= _shardCapacity)
        return false;
    shard.index.erase(&shard.lru.back().key);
    shard.lru.pop_back();
    return true;
}

bool
SimCache::lookup(const SimCacheKey &key, SimResult &out)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const Entry *e = touchLocked(shard, key);
    if (e == nullptr) {
        _misses.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    out = e->value;
    _hits.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
SimCache::insert(const SimCacheKey &key, SimResult value)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (insertLocked(shard, key, value))
        _evictions.fetch_add(1, std::memory_order_relaxed);
}

std::vector<char>
SimCache::lookupBatch(std::span<const SimCacheKey> keys,
                      std::vector<SimResult> &out)
{
    size_t n = keys.size();
    if (out.size() < n)
        out.resize(n);
    std::vector<char> hit(n, 0);

    // Group key positions by stripe, then visit each stripe under one
    // lock. Ascending batch position within a stripe keeps the LRU
    // refresh order deterministic.
    std::vector<size_t> stripe_of(n);
    for (size_t i = 0; i < n; ++i)
        stripe_of[i] = simCacheKeyHash(keys[i]) % _shards.size();

    uint64_t hits = 0, misses = 0;
    std::vector<char> stripe_seen(_shards.size(), 0);
    for (size_t i = 0; i < n; ++i) {
        size_t s = stripe_of[i];
        if (stripe_seen[s])
            continue;
        stripe_seen[s] = 1;
        Shard &shard = *_shards[s];
        std::lock_guard<std::mutex> lock(shard.mu);
        for (size_t j = i; j < n; ++j) {
            if (stripe_of[j] != s)
                continue;
            const Entry *e = touchLocked(shard, keys[j]);
            if (e == nullptr) {
                ++misses;
                continue;
            }
            out[j] = e->value;
            hit[j] = 1;
            ++hits;
        }
    }
    if (hits)
        _hits.fetch_add(hits, std::memory_order_relaxed);
    if (misses)
        _misses.fetch_add(misses, std::memory_order_relaxed);
    return hit;
}

void
SimCache::insertBatch(std::span<const SimCacheKey *const> keys,
                      std::span<const SimResult> values)
{
    h2o_assert(keys.size() == values.size(),
               "insertBatch key/value count mismatch");
    size_t n = keys.size();
    std::vector<size_t> stripe_of(n);
    for (size_t i = 0; i < n; ++i)
        stripe_of[i] = simCacheKeyHash(*keys[i]) % _shards.size();

    uint64_t evictions = 0;
    std::vector<char> stripe_seen(_shards.size(), 0);
    for (size_t i = 0; i < n; ++i) {
        size_t s = stripe_of[i];
        if (stripe_seen[s])
            continue;
        stripe_seen[s] = 1;
        Shard &shard = *_shards[s];
        std::lock_guard<std::mutex> lock(shard.mu);
        for (size_t j = i; j < n; ++j)
            if (stripe_of[j] == s &&
                insertLocked(shard, *keys[j], values[j]))
                ++evictions;
    }
    if (evictions)
        _evictions.fetch_add(evictions, std::memory_order_relaxed);
}

SimCacheStats
SimCache::stats() const
{
    SimCacheStats s;
    s.hits = _hits.load(std::memory_order_relaxed);
    s.misses = _misses.load(std::memory_order_relaxed);
    s.evictions = _evictions.load(std::memory_order_relaxed);
    for (const auto &shard : _shards) {
        std::lock_guard<std::mutex> lock(shard->mu);
        s.entries += shard->index.size();
    }
    return s;
}

void
SimCache::clear()
{
    for (auto &shard : _shards) {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->index.clear();
        shard->lru.clear();
    }
}

// ------------------------------------------------------- persistence

namespace {

/** Version 2 dropped version 1's per-result `res_per_op` record. */
constexpr uint64_t kSimCacheFormatVersion = 2;
constexpr uint64_t kSimCacheFormatWithPerOp = 1;

void
writeResult(std::ostream &os, const SimResult &r)
{
    common::writeTagged(
        os, "res",
        {r.stepTimeSec, r.totalFlops, r.achievedFlops,
         r.operationalIntensity, r.hbmBytes, r.onChipBytes,
         r.networkBytes, r.hbmBandwidthUsed, r.onChipBandwidthUsed,
         r.tensorBusySec, r.vpuBusySec, r.hbmSec, r.onChipSec,
         r.networkSec, r.criticalPathSec, r.tensorUtilization,
         r.avgPowerW, r.energyPerStepJ});
    common::writeTaggedU64(os, "res_meta",
                           {static_cast<uint64_t>(r.boundBy),
                            static_cast<uint64_t>(r.liveOps),
                            static_cast<uint64_t>(r.fusedOps),
                            r.paramsResident ? 1ULL : 0ULL});
}

SimResult
readResult(std::istream &is)
{
    SimResult r;
    auto d = common::readTagged(is, "res");
    if (d.size() != 18)
        h2o_fatal("malformed sim-cache result record (", d.size(),
                  " scalars)");
    r.stepTimeSec = d[0];
    r.totalFlops = d[1];
    r.achievedFlops = d[2];
    r.operationalIntensity = d[3];
    r.hbmBytes = d[4];
    r.onChipBytes = d[5];
    r.networkBytes = d[6];
    r.hbmBandwidthUsed = d[7];
    r.onChipBandwidthUsed = d[8];
    r.tensorBusySec = d[9];
    r.vpuBusySec = d[10];
    r.hbmSec = d[11];
    r.onChipSec = d[12];
    r.networkSec = d[13];
    r.criticalPathSec = d[14];
    r.tensorUtilization = d[15];
    r.avgPowerW = d[16];
    r.energyPerStepJ = d[17];
    auto meta = common::readTaggedU64(is, "res_meta");
    if (meta.size() != 4)
        h2o_fatal("malformed sim-cache result metadata");
    r.boundBy = static_cast<hw::BoundBy>(meta[0]);
    r.liveOps = static_cast<size_t>(meta[1]);
    r.fusedOps = static_cast<size_t>(meta[2]);
    r.paramsResident = meta[3] != 0;
    return r;
}

/**
 * Parse a save()d image, handing each (key, result) to `onEntry` in
 * stream order. Version 1 images still load: their per-op record
 * (seven scalars per op) is checked for shape and dropped.
 */
template <typename Fn>
void
readImage(std::istream &is, Fn &&onEntry)
{
    auto header = common::readTaggedU64(is, "sim_cache");
    if (header.size() != 2 || (header[0] != kSimCacheFormatVersion &&
                               header[0] != kSimCacheFormatWithPerOp))
        h2o_fatal("unsupported sim-cache stream header");
    const bool has_per_op = header[0] == kSimCacheFormatWithPerOp;
    const uint64_t count = header[1];
    for (uint64_t i = 0; i < count; ++i) {
        auto key_words = common::readTaggedU64(is, "key");
        if (key_words.empty())
            h2o_fatal("malformed sim-cache key record");
        SimCacheKey key;
        key.configFingerprint = key_words[0];
        key.decisions.assign(key_words.begin() + 1, key_words.end());
        SimResult result = readResult(is);
        if (has_per_op &&
            common::readTagged(is, "res_per_op").size() % 7 != 0)
            h2o_fatal("malformed sim-cache per-op record");
        onEntry(std::move(key), result);
    }
}

} // namespace

void
SimCache::save(std::ostream &os) const
{
    // Snapshot under the stripe locks first so one consistent image is
    // serialized even while other threads keep inserting.
    std::vector<const Entry *> entries;
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(_shards.size());
    for (const auto &shard : _shards)
        locks.emplace_back(shard->mu);
    for (const auto &shard : _shards)
        for (const Entry &e : shard->lru)
            entries.push_back(&e);

    // Global least-recently-used first (the recency ticks interleave
    // the stripes): replaying inserts in this order reproduces the
    // cross-shard recency order on load, into ANY target geometry, and
    // a smaller-capacity load evicts the globally oldest entries.
    std::sort(entries.begin(), entries.end(),
              [](const Entry *a, const Entry *b) {
                  return a->tick < b->tick;
              });

    common::writeTaggedU64(os, "sim_cache",
                           {kSimCacheFormatVersion,
                            static_cast<uint64_t>(entries.size())});
    for (const Entry *e : entries) {
        std::vector<uint64_t> key_words;
        key_words.reserve(e->key.decisions.size() + 1);
        key_words.push_back(e->key.configFingerprint);
        key_words.insert(key_words.end(), e->key.decisions.begin(),
                         e->key.decisions.end());
        common::writeTaggedU64(os, "key", key_words);
        writeResult(os, e->value);
    }
}

void
SimCache::load(std::istream &is)
{
    readImage(is, [this](SimCacheKey &&key, const SimResult &result) {
        insert(key, result);
    });
}

void
SimCache::mergeFrom(std::istream &is)
{
    // Parse the incoming stream up front (save() wrote it globally
    // oldest-first; that relative order is preserved below).
    std::vector<std::pair<SimCacheKey, SimResult>> incoming;
    readImage(is, [&](SimCacheKey &&key, const SimResult &result) {
        incoming.emplace_back(std::move(key), result);
    });

    // Take the live entries out of every shard, then order them
    // globally oldest-first by recency tick.
    std::vector<Entry> live;
    {
        std::vector<std::unique_lock<std::mutex>> locks;
        locks.reserve(_shards.size());
        for (const auto &shard : _shards)
            locks.emplace_back(shard->mu);
        for (const auto &shard : _shards) {
            for (Entry &e : shard->lru)
                live.push_back(std::move(e));
            shard->index.clear();
            shard->lru.clear();
        }
    }
    std::sort(live.begin(), live.end(),
              [](const Entry &a, const Entry &b) {
                  return a.tick < b.tick;
              });
    std::unordered_set<const SimCacheKey *, KeyRefHash, KeyRefEq>
        live_keys;
    live_keys.reserve(live.size());
    for (const Entry &e : live)
        live_keys.insert(&e.key);

    // Rebuild: stream-only entries first (they take the oldest recency
    // ranks), then the live entries oldest-to-newest, so LRU eviction
    // under capacity pressure drops the merged-in entries before
    // anything this process computed, and a key present on both sides
    // keeps the live value.
    for (const auto &[key, value] : incoming)
        if (!live_keys.contains(key))
            insert(key, value);
    for (const Entry &e : live)
        insert(e.key, e.value);
}

bool
warmSimCacheFromFile(SimCache &cache, const std::string &path)
{
    if (path.empty() || !exec::CheckpointReader::exists(path))
        return false;
    exec::CheckpointReader reader(path);
    cache.load(reader.stream());
    return true;
}

void
saveSimCacheFileMerged(SimCache &cache, const std::string &path)
{
    if (path.empty())
        return;
    if (exec::CheckpointReader::exists(path)) {
        exec::CheckpointReader reader(path);
        cache.mergeFrom(reader.stream());
    }
    exec::CheckpointWriter writer;
    cache.save(writer.stream());
    writer.commit(path);
}

} // namespace h2o::sim
