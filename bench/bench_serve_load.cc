/**
 * @file
 * Load generator for the h2o::serve NAS job server.
 *
 * Submits --jobs search requests up front (seeds cycling a --seed_pool
 * of distinct values, latency targets cycling a small sweep, so
 * tenants differ but repeats occur the way real service load does)
 * and drives scheduling rounds until the server drains. Reports:
 *
 *  - throughput (jobs completed per second of server wall time);
 *  - job latency in SCHEDULING ROUNDS (finishedRound - submittedRound,
 *    wall-clock-free so the distribution is reproducible): p50 / p99;
 *  - shared-cache hit-rate growth sampled across the run — the
 *    cross-tenant sharing curve: later tenants ride on the simulations
 *    earlier tenants already paid for;
 *  - a determinism probe: the first --probe jobs are re-run standalone
 *    and compared BITWISE (best reward, final mean reward, Pareto
 *    front, per-step telemetry) against what the loaded server
 *    produced.
 *
 * Emits BENCH_serve.json and exits non-zero when any job fails to
 * finish or any probe mismatches, so the ctest smoke doubles as an
 * end-to-end determinism check under multi-tenant load.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "serve/scheduler.h"

using namespace h2o;

namespace {

using Clock = std::chrono::steady_clock;

/** One point of the hit-rate growth curve. */
struct CacheSample
{
    uint64_t round = 0;
    size_t jobsDone = 0;
    double hitRate = 0.0;
    size_t entries = 0;
};

double
percentile(std::vector<uint64_t> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double rank = p * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return static_cast<double>(sorted[lo]) +
           frac * (static_cast<double>(sorted[hi]) -
                   static_cast<double>(sorted[lo]));
}

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    common::defineThreadsFlag(flags);
    flags.defineInt("jobs", 1000, "jobs to submit");
    flags.defineInt("steps", 6, "search steps per job");
    flags.defineInt("shards", 4, "candidate samples per step");
    flags.defineInt("concurrent", 8, "server concurrency slots");
    flags.defineInt("slice", 4, "steps per scheduling slice");
    flags.defineInt("cache_capacity", 1 << 16,
                    "shared sim-cache capacity");
    flags.defineInt("probe", 2,
                    "jobs re-run standalone for the bitwise check");
    flags.defineInt("seed", 101, "base seed (job i gets seed + i mod pool)");
    flags.defineInt("seed_pool", 100,
                    "distinct seeds cycled across jobs; 0 = every job "
                    "unique. Repeats model real service load (tenants "
                    "resubmitting similar requests) and drive the "
                    "cross-tenant hit-rate growth curve");
    flags.defineString("json", "BENCH_serve.json",
                       "output path for the JSON report");
    flags.parse(argc, argv);

    const size_t n_jobs = static_cast<size_t>(flags.getInt("jobs"));
    const size_t n_probe = std::min(
        static_cast<size_t>(flags.getInt("probe")), n_jobs);
    const uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));

    serve::ServeConfig config;
    config.threads = flags.getSize("threads");
    config.maxConcurrentJobs =
        static_cast<size_t>(flags.getInt("concurrent"));
    config.stepsPerSlice = static_cast<size_t>(flags.getInt("slice"));
    config.cacheCapacity =
        static_cast<size_t>(flags.getInt("cache_capacity"));
    serve::Server server(config);

    // The tenant mix: surrogate searches cycling a latency-target
    // sweep, every job with its own seed. All of them key the SAME
    // shared cache entries (the simulator does not see the target), so
    // the mix exercises cross-tenant reuse without ever sharing reward
    // state.
    const std::vector<double> targets{0.85, 0.95, 1.0, 1.1};
    std::vector<uint64_t> ids;
    std::vector<serve::JobSpec> specs;
    ids.reserve(n_jobs);
    specs.reserve(n_jobs);
    for (size_t i = 0; i < n_jobs; ++i) {
        serve::JobSpec spec;
        spec.name = "tenant-" + std::to_string(i);
        spec.kind = serve::JobKind::DlrmSurrogate;
        const uint64_t pool =
            static_cast<uint64_t>(flags.getInt("seed_pool"));
        spec.seed = seed + (pool ? i % pool : i);
        spec.numSteps = static_cast<size_t>(flags.getInt("steps"));
        spec.samplesPerStep =
            static_cast<size_t>(flags.getInt("shards"));
        spec.stepTimeTargetRel = targets[i % targets.size()];
        ids.push_back(server.submit(spec));
        specs.push_back(spec);
    }
    std::cout << "serve load: " << n_jobs << " jobs, "
              << config.maxConcurrentJobs << " slots, slice "
              << config.stepsPerSlice << ", threads flag "
              << config.threads << "\n";

    // Drain, sampling the hit-rate curve often enough for a readable
    // growth series but not every round.
    std::vector<CacheSample> curve;
    auto sample = [&]() {
        sim::SimCacheStats cs = server.cache().stats();
        size_t done = 0;
        for (const auto &info : server.queue().snapshot())
            if (info.state == serve::JobState::Done)
                ++done;
        curve.push_back(
            {server.round(), done, cs.hitRate(), cs.entries});
    };
    auto start = Clock::now();
    uint64_t sample_every = std::max<uint64_t>(
        1, n_jobs / (config.maxConcurrentJobs * 16));
    while (server.runRound())
        if (server.round() % sample_every == 0)
            sample();
    double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    sample();

    // Outcome accounting + round-latency distribution.
    size_t done = 0, failed = 0;
    std::vector<uint64_t> latencies;
    latencies.reserve(n_jobs);
    for (const auto &info : server.queue().snapshot()) {
        if (info.state == serve::JobState::Done) {
            ++done;
            latencies.push_back(info.finishedRound -
                                info.submittedRound);
        } else {
            ++failed;
            std::cerr << "job " << info.spec.id << " ended "
                      << serve::jobStateName(info.state)
                      << (info.error.empty() ? "" : ": " + info.error)
                      << "\n";
        }
    }
    std::sort(latencies.begin(), latencies.end());
    double p50 = percentile(latencies, 0.50);
    double p99 = percentile(latencies, 0.99);
    sim::SimCacheStats cs = server.cache().stats();

    // Determinism probes: the served job must match its standalone
    // run bit for bit, telemetry included.
    bool ok = failed == 0;
    size_t probe_rows = 0;
    for (size_t i = 0; i < n_probe; ++i) {
        serve::StandaloneRun ref = serve::runStandalone(
            server.queue().info(ids[i]).spec, config.cacheCapacity);
        const serve::JobResult *served = server.result(ids[i]);
        auto rows = server.telemetry().rowsForJob(ids[i]);
        bool match =
            served != nullptr &&
            served->bestReward == ref.result.bestReward &&
            served->outcome.finalMeanReward ==
                ref.result.outcome.finalMeanReward &&
            served->outcome.finalEntropy ==
                ref.result.outcome.finalEntropy &&
            served->paretoIndices == ref.result.paretoIndices &&
            served->outcome.history.size() ==
                ref.result.outcome.history.size() &&
            rows.size() == ref.rows.size();
        if (match)
            for (size_t r = 0; r < rows.size(); ++r)
                match = match && rows[r].step == ref.rows[r].step &&
                        rows[r].meanReward == ref.rows[r].meanReward &&
                        rows[r].bestReward == ref.rows[r].bestReward;
        probe_rows += rows.size();
        if (!match) {
            std::cerr << "PROBE MISMATCH: job " << ids[i]
                      << " diverged from its standalone run\n";
            ok = false;
        }
    }

    std::cout << "  completed " << done << "/" << n_jobs << " in "
              << seconds << " s (" << (seconds > 0 ? done / seconds : 0)
              << " jobs/s), " << server.round() << " rounds\n"
              << "  latency rounds: p50 " << p50 << ", p99 " << p99
              << "\n"
              << "  shared cache: " << cs.entries << " entries, hit rate "
              << 100.0 * cs.hitRate() << "% (" << cs.hits << " hits, "
              << cs.evictions << " evictions)\n"
              << "  hit-rate growth:";
    for (const CacheSample &c : curve)
        std::cout << " " << 100.0 * c.hitRate << "%";
    std::cout << "\n  probes: " << n_probe << " jobs, " << probe_rows
              << " telemetry rows compared — "
              << (ok ? "bit-identical" : "MISMATCH") << "\n";

    std::string json_path = flags.getString("json");
    std::ofstream js(json_path);
    if (!js) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
    }
    js << "{\n"
       << "  \"jobs\": " << n_jobs << ",\n"
       << "  \"completed\": " << done << ",\n"
       << "  \"concurrent\": " << config.maxConcurrentJobs << ",\n"
       << "  \"steps_per_slice\": " << config.stepsPerSlice << ",\n"
       << "  \"rounds\": " << server.round() << ",\n"
       << "  \"seconds\": " << seconds << ",\n"
       << "  \"jobs_per_sec\": " << (seconds > 0 ? done / seconds : 0)
       << ",\n"
       << "  \"latency_rounds_p50\": " << p50 << ",\n"
       << "  \"latency_rounds_p99\": " << p99 << ",\n"
       << "  \"cache_entries\": " << cs.entries << ",\n"
       << "  \"cache_hit_rate\": " << cs.hitRate() << ",\n"
       << "  \"cache_evictions\": " << cs.evictions << ",\n"
       << "  \"hit_rate_curve\": [\n";
    for (size_t i = 0; i < curve.size(); ++i)
        js << "    {\"round\": " << curve[i].round
           << ", \"jobs_done\": " << curve[i].jobsDone
           << ", \"hit_rate\": " << curve[i].hitRate
           << ", \"entries\": " << curve[i].entries << "}"
           << (i + 1 < curve.size() ? "," : "") << "\n";
    js << "  ],\n"
       << "  \"probes\": " << n_probe << ",\n"
       << "  \"probe_rows\": " << probe_rows << ",\n"
       << "  \"bit_identical\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
    return ok ? 0 : 1;
}
