/**
 * @file
 * Cold-path SimCache fill: the wall-clock and determinism harness for
 * SimCache::getOrComputeBatch's parallel miss fan-out.
 *
 * One candidate list (--candidates distinct DLRM samples, each repeated
 * --dup times and interleaved across the batch) is filled into a fresh
 * cache at several fill-pool sizes. For every pool size the bench
 * checks, against the serial (1-thread) baseline:
 *
 *  - every SimResult field of every batch position is bit-identical,
 *    and so are the per-op timings each fill requested from
 *    Simulator::run for the positions it simulated;
 *  - hit/miss/entry counters are identical (duplicates hit nothing on
 *    a cold fill: they dedupe inside the batch instead);
 *  - save() produces byte-identical streams, i.e. insertion order and
 *    the global recency ticks do not depend on worker timing;
 *  - the miss computation saw each distinct key exactly once (the
 *    dedupe guarantee), regardless of chunking or pool size.
 *
 * Emits BENCH_simcache_fill.json and exits non-zero on any mismatch,
 * so the ctest smoke doubles as an end-to-end determinism check. On a
 * single-core host the speedup column is expected to hover around 1x
 * (or below: pool hand-off without parallel hardware); the checks are
 * the point there, the speedup is meaningful on multi-core hosts.
 */

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "arch/dlrm_arch.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "searchspace/dlrm_space.h"
#include "sim/sim_cache.h"
#include "sim/simulator.h"

using namespace h2o;

namespace {

using Clock = std::chrono::steady_clock;

/** Bitwise equality over every SimResult field. */
bool
identicalResult(const sim::SimResult &a, const sim::SimResult &b)
{
    auto scalars = [](const sim::SimResult &r) {
        return std::vector<double>{
            r.stepTimeSec,     r.totalFlops,     r.achievedFlops,
            r.operationalIntensity, r.hbmBytes,  r.onChipBytes,
            r.networkBytes,    r.hbmBandwidthUsed, r.onChipBandwidthUsed,
            r.tensorBusySec,   r.vpuBusySec,     r.hbmSec,
            r.onChipSec,       r.networkSec,     r.criticalPathSec,
            r.tensorUtilization, r.avgPowerW,    r.energyPerStepJ};
    };
    return scalars(a) == scalars(b) && a.boundBy == b.boundBy &&
           a.liveOps == b.liveOps && a.fusedOps == b.fusedOps &&
           a.paramsResident == b.paramsResident;
}

/** Bitwise equality over every per-op timing field. */
bool
identicalTimings(const std::vector<sim::OpTiming> &a,
                 const std::vector<sim::OpTiming> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i];
        const auto &y = b[i];
        if (x.seconds != y.seconds || x.tensorBusySec != y.tensorBusySec ||
            x.vpuBusySec != y.vpuBusySec || x.hbmBytes != y.hbmBytes ||
            x.onChipBytes != y.onChipBytes ||
            x.networkBytes != y.networkBytes || x.boundBy != y.boundBy)
            return false;
    }
    return true;
}

/** One cold fill at a given pool size. */
struct FillRun
{
    size_t threads = 1;
    double seconds = 0.0;
    uint64_t computeCalls = 0;     ///< computeMisses invocations (chunks)
    uint64_t computedPositions = 0; ///< total miss positions computed
    sim::SimCacheStats stats;
    std::vector<sim::SimResult> results;
    /** Per-op timings by batch position (empty for duplicates). */
    std::vector<std::vector<sim::OpTiming>> perOp;
    std::string saved; ///< save() image, for byte comparison
};

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("candidates", 512, "distinct candidate samples");
    flags.defineInt("dup", 2, "repetitions of each candidate in the batch");
    flags.defineInt("seed", 23, "RNG seed");
    flags.defineInt("chunk",
                    static_cast<int>(sim::SimCache::kDefaultFillChunk),
                    "distinct misses per computeMisses call (smaller "
                    "values force multi-chunk fills on small batches)");
    flags.defineString("json", "BENCH_simcache_fill.json",
                       "output path for the JSON report");
    flags.parse(argc, argv);

    size_t n_distinct = static_cast<size_t>(flags.getInt("candidates"));
    size_t dup = static_cast<size_t>(flags.getInt("dup"));
    uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));
    size_t fill_chunk = static_cast<size_t>(flags.getInt("chunk"));

    searchspace::DlrmSearchSpace space(arch::baselineDlrm());
    hw::Platform platform = hw::trainingPlatform();
    sim::SimConfig config{platform.chip, true, true, {}};

    // The shared batch: distinct samples, duplicates interleaved so a
    // duplicate rarely lands in the same fill chunk as its
    // representative (position i -> sample i % n_distinct).
    common::Rng rng(seed);
    std::vector<searchspace::Sample> samples;
    samples.reserve(n_distinct);
    for (size_t i = 0; i < n_distinct; ++i)
        samples.push_back(space.decisions().uniformSample(rng));
    std::vector<sim::SimCacheKey> keys;
    keys.reserve(n_distinct * dup);
    for (size_t i = 0; i < n_distinct * dup; ++i)
        keys.push_back(
            sim::makeSimCacheKey(samples[i % n_distinct], 0, config));

    // Random samples can collide; the dedupe check must count unique
    // KEYS, not requested candidates.
    struct KeyHash
    {
        size_t operator()(const sim::SimCacheKey &k) const
        {
            return static_cast<size_t>(sim::simCacheKeyHash(k));
        }
    };
    size_t n_unique =
        std::unordered_set<sim::SimCacheKey, KeyHash>(keys.begin(),
                                                      keys.end())
            .size();

    auto fill = [&](size_t threads) {
        FillRun run;
        run.threads = threads;
        sim::SimCache cache(1 << 16);
        std::unique_ptr<exec::ThreadPool> pool;
        if (threads > 1)
            pool = std::make_unique<exec::ThreadPool>(threads);
        std::atomic<uint64_t> calls{0};
        std::atomic<uint64_t> positions{0};
        // Each distinct miss position is computed by exactly one chunk,
        // so workers write disjoint perOp slots.
        run.perOp.resize(keys.size());
        auto compute = [&](const std::vector<size_t> &misses) {
            calls.fetch_add(1, std::memory_order_relaxed);
            positions.fetch_add(misses.size(), std::memory_order_relaxed);
            sim::Simulator simulator(config);
            std::vector<sim::SimResult> results;
            results.reserve(misses.size());
            for (size_t k : misses)
                results.push_back(simulator.run(
                    arch::buildDlrmGraph(
                        space.decode(samples[k % n_distinct]), platform,
                        arch::ExecMode::Training),
                    &run.perOp[k]));
            return results;
        };
        auto start = Clock::now();
        run.results =
            cache.getOrComputeBatch(keys, compute, pool.get(), fill_chunk);
        run.seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        run.computeCalls = calls.load();
        run.computedPositions = positions.load();
        run.stats = cache.stats();
        std::ostringstream os;
        cache.save(os);
        run.saved = os.str();
        return run;
    };

    const std::vector<size_t> sweep{1, 2, 8};
    std::vector<FillRun> runs;
    for (size_t t : sweep)
        runs.push_back(fill(t));
    const FillRun &base = runs.front();

    bool ok = true;
    auto check = [&](bool cond, const std::string &what) {
        if (!cond) {
            std::cerr << "MISMATCH: " << what << "\n";
            ok = false;
        }
    };
    check(base.computedPositions == n_unique,
          "serial fill computed " +
              std::to_string(base.computedPositions) + " positions for " +
              std::to_string(n_unique) + " distinct keys");
    for (const FillRun &run : runs) {
        std::string tag = "threads=" + std::to_string(run.threads);
        check(run.computedPositions == n_unique,
              tag + " computed positions != distinct keys");
        check(run.stats.hits == base.stats.hits &&
                  run.stats.misses == base.stats.misses &&
                  run.stats.entries == base.stats.entries &&
                  run.stats.evictions == base.stats.evictions,
              tag + " counters differ from serial");
        check(run.saved == base.saved,
              tag + " save() image differs from serial");
        check(run.results.size() == base.results.size(),
              tag + " result count differs");
        for (size_t i = 0; i < base.results.size() && ok; ++i) {
            check(identicalResult(run.results[i], base.results[i]),
                  tag + " result " + std::to_string(i) + " differs");
            check(identicalTimings(run.perOp[i], base.perOp[i]),
                  tag + " per-op timings " + std::to_string(i) +
                      " differ");
        }
    }

    std::cout << "simcache fill: " << n_distinct << " distinct x " << dup
              << " dup = " << keys.size() << " lookups (" << n_unique
              << " unique keys)\n";
    for (const FillRun &run : runs)
        std::cout << "  threads=" << run.threads << "  " << run.seconds
                  << " s  (" << run.computeCalls << " chunks, "
                  << run.computedPositions << " simulated, speedup "
                  << (run.seconds > 0.0 ? base.seconds / run.seconds : 0.0)
                  << "x)\n";
    std::cout << "determinism checks "
              << (ok ? "passed" : "FAILED") << "\n";

    std::string json_path = flags.getString("json");
    std::ofstream js(json_path);
    if (!js) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
    }
    js << "{\n"
       << "  \"distinct\": " << n_distinct << ",\n"
       << "  \"dup\": " << dup << ",\n"
       << "  \"unique_keys\": " << n_unique << ",\n"
       << "  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const FillRun &run = runs[i];
        js << "    {\"threads\": " << run.threads
           << ", \"seconds\": " << run.seconds
           << ", \"chunks\": " << run.computeCalls
           << ", \"simulated\": " << run.computedPositions
           << ", \"speedup\": "
           << (run.seconds > 0.0 ? base.seconds / run.seconds : 0.0)
           << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"bit_identical\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
    return ok ? 0 : 1;
}
