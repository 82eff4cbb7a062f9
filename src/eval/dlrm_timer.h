/**
 * @file
 * Memoized DLRM step-time evaluation: fronts `Simulator::run` with a
 * `sim::SimCache` keyed by the candidate's canonical decision encoding
 * plus an exec-mode tag and the simulator-config fingerprint. Candidates
 * that recur — paired eval sets, a converging RL policy's repeats, and
 * (with a shared cache) OTHER TENANTS' searches over the same space —
 * skip decode, lowering, the compiler passes and the DAG walk entirely.
 *
 * Grew up in bench/bench_util.h; promoted here so the NAS job server
 * (h2o::serve) can hang many jobs' timers off one shared SimCache.
 */

#ifndef H2O_EVAL_DLRM_TIMER_H
#define H2O_EVAL_DLRM_TIMER_H

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "arch/dlrm_arch.h"
#include "arch/lowering.h"
#include "common/logging.h"
#include "exec/thread_pool.h"
#include "hw/chip.h"
#include "hw/target_set.h"
#include "searchspace/dlrm_space.h"
#include "sim/sim_cache.h"
#include "sim/simulator.h"

namespace h2o::eval {

/** See file comment. Thread-safe to the extent SimCache is: concurrent
 *  calls from different jobs are fine; results are pure. */
class CachedDlrmTimer
{
  public:
    /**
     * Owning constructor: the timer creates its own cache.
     *
     * @param fill_threads Workers for the cold-path fill: cache misses
     *        in the batched entry points decode/lower/simulate on this
     *        many threads (SimCache::getOrComputeBatch fan-out; the
     *        per-thread PassWorkspaces keep workers allocation-free).
     *        1 — the default — computes misses inline on the calling
     *        thread; 0 means one worker per hardware thread. Results,
     *        counters and cache images are bit-identical at any value.
     * @param key_salt Distinguishes timers whose samples come from
     *        DIFFERENT search spaces sharing one cache: the salt folds
     *        into the exec-mode tag appended to every key (salt 0
     *        reproduces the historical tags 0/1, so existing cache
     *        files stay warm).
     */
    CachedDlrmTimer(hw::Platform train_platform,
                    hw::Platform serve_platform,
                    size_t cache_capacity = 1 << 16,
                    size_t fill_threads = 1, uint64_t key_salt = 0)
        : _train(train_platform), _serve(serve_platform),
          _trainConfig{train_platform.chip, true, true, {}},
          _serveConfig{serve_platform.chip, true, true, {}},
          _owned(std::make_unique<sim::SimCache>(cache_capacity)),
          _cache(_owned.get()), _trainTag(key_salt << 1),
          _serveTag((key_salt << 1) | 1)
    {
        makeFillPool(fill_threads);
    }

    /**
     * Shared-cache constructor: the timer fronts a cache owned by the
     * caller (e.g. the job server's cross-tenant cache). The cache must
     * outlive the timer. Give each distinct search space its own
     * `key_salt` so two spaces' identical decision vectors never alias.
     */
    CachedDlrmTimer(hw::Platform train_platform,
                    hw::Platform serve_platform, sim::SimCache &shared,
                    size_t fill_threads = 1, uint64_t key_salt = 0)
        : _train(train_platform), _serve(serve_platform),
          _trainConfig{train_platform.chip, true, true, {}},
          _serveConfig{serve_platform.chip, true, true, {}},
          _cache(&shared), _trainTag(key_salt << 1),
          _serveTag((key_salt << 1) | 1)
    {
        makeFillPool(fill_threads);
    }

    /** Training step time of the sample's decode on the train platform. */
    double trainStepTime(const searchspace::DlrmSearchSpace &space,
                         const searchspace::Sample &sample)
    {
        sim::SimCacheKey key =
            sim::makeSimCacheKey(sample, _trainTag, _trainConfig);
        return _cache
            ->getOrCompute(key,
                           [&] {
                               return simulate(
                                   sim::Simulator(_trainConfig), space,
                                   sample, _train,
                                   arch::ExecMode::Training);
                           })
            .stepTimeSec;
    }

    /** Serving step time (serving batch 1024, as dlrmServeStepTime). */
    double serveStepTime(const searchspace::DlrmSearchSpace &space,
                         const searchspace::Sample &sample)
    {
        sim::SimCacheKey key =
            sim::makeSimCacheKey(sample, _serveTag, _serveConfig);
        return _cache
            ->getOrCompute(key,
                           [&] {
                               return simulate(
                                   sim::Simulator(_serveConfig), space,
                                   sample, _serve,
                                   arch::ExecMode::Serving);
                           })
            .stepTimeSec;
    }

    /**
     * Batched training step times, parallel to `samples`. One
     * getOrComputeBatch (each cache stripe locked once per phase)
     * whose distinct misses are decoded, lowered and simulated one
     * graph at a time — chunks of them in parallel on the fill pool
     * when one was requested — equal values to per-sample
     * trainStepTime calls, identical hit/miss totals.
     */
    std::vector<double>
    trainStepTimes(const searchspace::DlrmSearchSpace &space,
                   std::span<const searchspace::Sample> samples)
    {
        return stepTimes(space, samples, _trainTag, _trainConfig, _train,
                         arch::ExecMode::Training);
    }

    /** Batched serving step times (serving batch 1024). */
    std::vector<double>
    serveStepTimes(const searchspace::DlrmSearchSpace &space,
                   std::span<const searchspace::Sample> samples)
    {
        return stepTimes(space, samples, _serveTag, _serveConfig, _serve,
                         arch::ExecMode::Serving);
    }

    /**
     * Joint multi-target serving step times: out[i][c] is sample i's
     * serving step time (batch 1024) on targets[c]. All (candidate x
     * chip) pairs go through ONE getOrComputeBatch — keys are laid out
     * candidate-major ([i*k + c]) under the usual serve tag, with each
     * target's SimConfig fingerprint keeping the k keyspaces disjoint —
     * and misses simulate one graph at a time on their target's
     * simulator core.
     * A one-element TargetSet whose platform equals the timer's serve
     * platform issues exactly serveStepTimes' key sequence: identical
     * hits, misses, LRU image and values.
     */
    std::vector<std::vector<double>>
    serveStepTimesMulti(const searchspace::DlrmSearchSpace &space,
                        std::span<const searchspace::Sample> samples,
                        const hw::TargetSet &targets)
    {
        const size_t k = targets.size();
        h2o_assert(k > 0, "serveStepTimesMulti needs >= 1 target");
        std::vector<sim::SimConfig> configs;
        configs.reserve(k);
        for (const hw::Target &t : targets)
            configs.push_back(sim::SimConfig{t.platform.chip, true, true,
                                             {}});
        std::vector<sim::SimCacheKey> keys;
        keys.reserve(samples.size() * k);
        for (const auto &s : samples)
            for (size_t c = 0; c < k; ++c)
                keys.push_back(sim::makeSimCacheKey(s, _serveTag,
                                                    configs[c]));
        // As in stepTimes, the lambda touches only locals + const state
        // (sims/targets/samples), so fill-pool fan-out is safe.
        const std::vector<sim::Simulator> sims(configs.begin(),
                                               configs.end());
        auto results = _cache->getOrComputeBatch(
            keys,
            [&](const std::vector<size_t> &misses) {
                std::vector<sim::SimResult> out;
                out.reserve(misses.size());
                for (size_t pos : misses)
                    out.push_back(simulate(sims[pos % k], space,
                                           samples[pos / k],
                                           targets[pos % k].platform,
                                           arch::ExecMode::Serving));
                return out;
            },
            _fillPool.get());
        std::vector<std::vector<double>> out(samples.size());
        for (size_t i = 0; i < samples.size(); ++i) {
            out[i].reserve(k);
            for (size_t c = 0; c < k; ++c)
                out[i].push_back(results[i * k + c].stepTimeSec);
        }
        return out;
    }

    sim::SimCacheStats cacheStats() const { return _cache->stats(); }

    /** The underlying cache, e.g. for save()/load() persistence. */
    sim::SimCache &cache() { return *_cache; }

  private:
    /** Decode, lower and simulate one sample; the graph lives only
     *  for this call. Serving graphs use serving batch 1024. */
    static sim::SimResult
    simulate(const sim::Simulator &simulator,
             const searchspace::DlrmSearchSpace &space,
             const searchspace::Sample &sample, const hw::Platform &platform,
             arch::ExecMode mode)
    {
        arch::DlrmArch a = space.decode(sample);
        if (mode == arch::ExecMode::Serving)
            a.globalBatch = 1024;
        return simulator.run(arch::buildDlrmGraph(a, platform, mode));
    }

    void makeFillPool(size_t fill_threads)
    {
        size_t resolved = exec::ThreadPool::resolve(
            fill_threads, std::numeric_limits<size_t>::max());
        if (resolved > 1)
            _fillPool = std::make_unique<exec::ThreadPool>(resolved);
    }

    std::vector<double>
    stepTimes(const searchspace::DlrmSearchSpace &space,
              std::span<const searchspace::Sample> samples, uint64_t tag,
              const sim::SimConfig &config, const hw::Platform &platform,
              arch::ExecMode mode)
    {
        std::vector<sim::SimCacheKey> keys;
        keys.reserve(samples.size());
        for (const auto &s : samples)
            keys.push_back(sim::makeSimCacheKey(s, tag, config));
        // The cache chunks the distinct misses (kDefaultFillChunk) and
        // fans the chunks out over _fillPool when present; each worker
        // holds one decoded graph at a time. The lambda touches only
        // locals + const state: thread-safe.
        const sim::Simulator simulator(config);
        auto results = _cache->getOrComputeBatch(
            keys,
            [&](const std::vector<size_t> &misses) {
                std::vector<sim::SimResult> out;
                out.reserve(misses.size());
                for (size_t k : misses)
                    out.push_back(simulate(simulator, space, samples[k],
                                           platform, mode));
                return out;
            },
            _fillPool.get());
        std::vector<double> out;
        out.reserve(results.size());
        for (const auto &r : results)
            out.push_back(r.stepTimeSec);
        return out;
    }

    hw::Platform _train;
    hw::Platform _serve;
    sim::SimConfig _trainConfig;
    sim::SimConfig _serveConfig;
    /** Present only for the owning constructor. */
    std::unique_ptr<sim::SimCache> _owned;
    sim::SimCache *_cache;
    uint64_t _trainTag;
    uint64_t _serveTag;
    /** Cold-path fill workers; null = compute misses inline. */
    std::unique_ptr<exec::ThreadPool> _fillPool;
};

} // namespace h2o::eval

#endif // H2O_EVAL_DLRM_TIMER_H
