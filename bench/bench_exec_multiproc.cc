/**
 * @file
 * Multi-process shard transport bench: the SAME searches run thread-only
 * and at 1/2/4 worker processes (x thread counts), and every outcome is
 * byte-compared against the serial reference — the bench doubles as the
 * end-to-end determinism gate for exec::ProcPool/ShardRunner.
 *
 * Part 1 sweeps the surrogate search over the procs x threads matrix
 * (quality and per-candidate perf run inside the forked workers).
 * Part 2 runs the unified single-step supernet search at 0/1/2 procs
 * (workers run the per-candidate perf; the supernet stays coordinator-
 * side). Part 3 runs the TuNAS alternating search at 0/1 procs. Part 4
 * kill -9s a live worker process mid-run and requires the search to
 * complete byte-identically anyway (transport failure -> respawn ->
 * retry with cached request bytes), with the respawn visible in the
 * per-worker transport telemetry.
 *
 * Emits BENCH_multiproc.json and exits non-zero on ANY divergence or if
 * the killed run fails to recover. This host is single-core, so the
 * matrix verifies transport correctness and fault tolerance, not
 * speedup; process scaling is about escaping one process's threads, and
 * the wall-clock columns simply document the transport overhead.
 *
 *   $ ./bench_exec_multiproc --steps=10 --shards=8
 */

#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "arch/dlrm_arch.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "pipeline/pipeline.h"
#include "pipeline/traffic_generator.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "search/stepwise.h"
#include "search/surrogate_search.h"
#include "search/telemetry.h"
#include "search/tunas_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

using namespace h2o;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
identicalOutcomes(const search::SearchOutcome &a,
                  const search::SearchOutcome &b)
{
    if (a.finalSample != b.finalSample ||
        !sameBits(a.finalMeanReward, b.finalMeanReward) ||
        !sameBits(a.finalEntropy, b.finalEntropy) ||
        a.history.size() != b.history.size())
        return false;
    for (size_t i = 0; i < a.history.size(); ++i) {
        const auto &ra = a.history[i];
        const auto &rb = b.history[i];
        if (ra.sample != rb.sample || ra.step != rb.step ||
            !sameBits(ra.quality, rb.quality) ||
            !sameBits(ra.reward, rb.reward) ||
            ra.performance.size() != rb.performance.size())
            return false;
        for (size_t j = 0; j < ra.performance.size(); ++j)
            if (!sameBits(ra.performance[j], rb.performance[j]))
                return false;
    }
    return true;
}

arch::DlrmArch
benchDlrm()
{
    arch::DlrmArch a;
    a.numDenseFeatures = 8;
    a.tables = {{2048, 16, 1.0}, {512, 8, 1.0}};
    a.bottomMlp = {{32, 0}};
    a.topMlp = {{64, 0}};
    a.globalBatch = 1024;
    return a;
}

/** The bench's pure per-candidate signals: both ship into forked
 *  workers in proc mode, so they depend only on the candidate and on
 *  pre-fork immutable state (the space and platform). */
struct SurrogateTask
{
    searchspace::DlrmSearchSpace space{benchDlrm()};
    hw::Platform platform{hw::tpuV4(), 4};

    double quality(const searchspace::Sample &s) const
    {
        return -space.decode(s).flopsPerExample() / 1e6;
    }
    std::vector<double> perf(const searchspace::Sample &s) const
    {
        return {bench::dlrmTrainStepTime(space.decode(s), platform)};
    }
};

search::SurrogateSearchConfig
surrogateConfig(size_t steps, size_t shards, size_t procs, size_t threads)
{
    search::SurrogateSearchConfig cfg;
    cfg.numSteps = steps;
    cfg.samplesPerStep = shards;
    cfg.rl.learningRate = 0.08;
    cfg.exec.threads = threads;
    cfg.exec.procs = procs;
    cfg.exec.retryBackoffMs = 0.0;
    return cfg;
}

search::SearchOutcome
runSurrogate(const SurrogateTask &task, size_t steps, size_t shards,
             size_t procs, size_t threads, uint64_t seed, double &seconds)
{
    reward::ReluReward rwd({{"step_time", 1.0, -1.0}});
    search::SurrogateSearch search(
        task.space.decisions(),
        [&task](const searchspace::Sample &s) { return task.quality(s); },
        search::PerfFn([&task](const searchspace::Sample &s) {
            return task.perf(s);
        }),
        rwd, surrogateConfig(steps, shards, procs, threads));
    common::Rng rng(seed);
    auto start = Clock::now();
    auto outcome = search.run(rng);
    seconds = secondsSince(start);
    return outcome;
}

/** Supernet fixture for parts 2-3 (fresh per run: the search trains
 *  the shared weights, so runs must not share a supernet). */
struct SupernetFixture
{
    searchspace::DlrmSearchSpace space{benchDlrm()};
    common::Rng netRng;
    supernet::DlrmSupernet net;
    std::unique_ptr<pipeline::InMemoryPipeline> pipe;
    hw::Platform platform{hw::tpuV4(), 4};

    explicit SupernetFixture(uint64_t seed)
        : netRng(seed),
          net(space, supernet::SupernetConfig{512, 64}, netRng)
    {
        std::vector<uint64_t> vocabs;
        std::vector<double> ids;
        for (const auto &tab : space.baseline().tables) {
            vocabs.push_back(tab.vocab);
            ids.push_back(tab.avgIds);
        }
        auto gen = std::make_unique<pipeline::TrafficGenerator>(
            pipeline::trafficConfigFor(space.baseline().numDenseFeatures,
                                       vocabs, ids),
            seed + 1);
        pipe = std::make_unique<pipeline::InMemoryPipeline>(std::move(gen),
                                                            16);
    }

    std::vector<double> perf(const searchspace::Sample &s) const
    {
        return {bench::dlrmTrainStepTime(space.decode(s), platform)};
    }
};

search::SearchOutcome
runSupernet(size_t steps, size_t shards, size_t procs, uint64_t seed,
            double &seconds)
{
    SupernetFixture f(seed);
    reward::ReluReward rwd({{"step_time", 1.0, -1.0}});
    search::H2oSearchConfig cfg;
    cfg.numShards = shards;
    cfg.numSteps = steps;
    cfg.warmupSteps = steps / 5;
    cfg.exec.threads = 1;
    cfg.exec.procs = procs;
    cfg.exec.retryBackoffMs = 0.0;
    search::H2oDlrmSearch search(
        f.space, f.net, *f.pipe,
        search::PerfFn(
            [&f](const searchspace::Sample &s) { return f.perf(s); }),
        rwd, cfg);
    common::Rng rng(seed + 2);
    auto start = Clock::now();
    auto outcome = search.run(rng);
    seconds = secondsSince(start);
    return outcome;
}

search::SearchOutcome
runTunas(size_t steps, size_t procs, uint64_t seed, double &seconds)
{
    SupernetFixture f(seed);
    reward::ReluReward rwd({{"step_time", 1.0, -1.0}});
    search::TunasSearchConfig cfg;
    cfg.numIterations = steps;
    cfg.warmupSteps = steps / 5;
    cfg.exec.procs = procs;
    cfg.exec.retryBackoffMs = 0.0;
    search::TunasSearch search(
        f.space, f.net, *f.pipe,
        search::PerfFn(
            [&f](const searchspace::Sample &s) { return f.perf(s); }),
        rwd, cfg);
    common::Rng rng(seed + 2);
    auto start = Clock::now();
    auto outcome = search.run(rng);
    seconds = secondsSince(start);
    return outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 10, "search steps per configuration");
    flags.defineInt("shards", 8, "virtual accelerator shards");
    flags.defineInt("seed", 17, "RNG seed");
    flags.defineString("json", "BENCH_multiproc.json",
                       "output path for the JSON report");
    flags.parse(argc, argv);
    size_t steps = static_cast<size_t>(flags.getInt("steps"));
    size_t shards = static_cast<size_t>(flags.getInt("shards"));
    uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));

    SurrogateTask task;

    // --- Part 1: surrogate search, procs x threads matrix.
    common::AsciiTable t1("multi-process transport: surrogate search "
                          "procs x threads (same seeds)");
    t1.setHeader({"procs", "threads", "wall time (s)",
                  "outcome vs serial"});
    struct Cell
    {
        size_t procs, threads;
        double sec;
        bool identical;
    };
    std::vector<Cell> cells;
    double ref_sec = 0.0;
    auto ref =
        runSurrogate(task, steps, shards, 0, 1, seed, ref_sec);
    t1.addRow({"0", "1", common::AsciiTable::num(ref_sec, 2),
               "(reference)"});
    bool surrogate_identical = true;
    for (size_t procs : {0u, 1u, 2u, 4u}) {
        for (size_t threads : {1u, 2u}) {
            if (procs == 0 && threads == 1)
                continue; // the reference row
            double sec = 0.0;
            auto outcome = runSurrogate(task, steps, shards, procs,
                                        threads, seed, sec);
            bool same = identicalOutcomes(ref, outcome);
            surrogate_identical = surrogate_identical && same;
            cells.push_back({procs, threads, sec, same});
            t1.addRow({std::to_string(procs), std::to_string(threads),
                       common::AsciiTable::num(sec, 2),
                       same ? "bit-identical" : "DIVERGED"});
        }
    }
    t1.print(std::cout);

    // --- Part 2: unified single-step supernet search at 0/1/2 procs.
    bool supernet_identical = true;
    {
        double sec = 0.0;
        auto sref = runSupernet(steps, shards, 0, seed, sec);
        for (size_t procs : {1u, 2u}) {
            auto outcome = runSupernet(steps, shards, procs, seed, sec);
            supernet_identical = supernet_identical &&
                                 identicalOutcomes(sref, outcome);
        }
    }
    std::cout << "supernet (unified single-step) search at 0/1/2 procs: "
              << (supernet_identical ? "bit-identical"
                                     : "DIVERGED (bug)")
              << "\n";

    // --- Part 3: TuNAS alternating search at 0/1 procs (clamped to its
    // single shard).
    bool tunas_identical = true;
    {
        double sec = 0.0;
        auto tref = runTunas(steps, 0, seed, sec);
        tunas_identical =
            identicalOutcomes(tref, runTunas(steps, 1, seed, sec));
    }
    std::cout << "tunas (alternating) search at 0/1 procs: "
              << (tunas_identical ? "bit-identical" : "DIVERGED (bug)")
              << "\n";

    // --- Part 4: kill -9 a live worker process mid-run; the search must
    // complete and match the unkilled bytes (respawn + cached-request
    // retry), with the death visible in the transport telemetry.
    bool kill_identical = false;
    uint64_t kill_respawns = 0;
    uint64_t transport_tasks = 0;
    uint64_t transport_bytes = 0;
    {
        double sec = 0.0;
        auto unkilled =
            runSurrogate(task, steps, shards, 2, 1, seed, sec);

        reward::ReluReward rwd({{"step_time", 1.0, -1.0}});
        search::SurrogateSearch search(
            task.space.decisions(),
            [&task](const searchspace::Sample &s) {
                return task.quality(s);
            },
            search::PerfFn([&task](const searchspace::Sample &s) {
                return task.perf(s);
            }),
            rwd, surrogateConfig(steps, shards, 2, 1));
        common::Rng rng(seed);
        auto stepper = search.makeStepper(rng);
        while (!stepper->done()) {
            stepper->step();
            if (stepper->stepIndex() == steps / 2) {
                auto stats = stepper->transportStats();
                if (!stats.workers.empty() && stats.workers[0].alive)
                    ::kill(static_cast<pid_t>(stats.workers[0].pid),
                           SIGKILL);
            }
        }
        auto killed = stepper->finish();
        kill_identical = identicalOutcomes(unkilled, killed);

        auto stats = stepper->transportStats();
        kill_respawns = stats.totalRespawns();
        transport_tasks = stats.totalTasksServed();
        transport_bytes = stats.totalBytes();
        std::cout << "kill -9 mid-run (procs=2): outcome "
                  << (kill_identical ? "bit-identical to unkilled run"
                                     : "DIVERGED (bug)")
                  << ", " << kill_respawns << " respawn(s), "
                  << transport_tasks << " tasks served, "
                  << transport_bytes << " bytes over the transport\n";
        search::writeTransportStatsCsv(stats, std::cout);
    }

    bool ok = surrogate_identical && supernet_identical &&
              tunas_identical && kill_identical && kill_respawns >= 1;

    std::string json_path = flags.getString("json");
    std::ofstream js(json_path);
    if (!js) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
    }
    js << "{\n"
       << "  \"steps\": " << steps << ",\n"
       << "  \"shards\": " << shards << ",\n"
       << "  \"serial_sec\": " << ref_sec << ",\n"
       << "  \"matrix\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        js << "    {\"procs\": " << cells[i].procs
           << ", \"threads\": " << cells[i].threads
           << ", \"wall_sec\": " << cells[i].sec << ", \"identical\": "
           << (cells[i].identical ? "true" : "false") << "}"
           << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"surrogate_identical\": "
       << (surrogate_identical ? "true" : "false") << ",\n"
       << "  \"supernet_identical\": "
       << (supernet_identical ? "true" : "false") << ",\n"
       << "  \"tunas_identical\": "
       << (tunas_identical ? "true" : "false") << ",\n"
       << "  \"kill_recovered_identical\": "
       << (kill_identical ? "true" : "false") << ",\n"
       << "  \"kill_respawns\": " << kill_respawns << ",\n"
       << "  \"transport_tasks_served\": " << transport_tasks << ",\n"
       << "  \"transport_bytes\": " << transport_bytes << "\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
    return ok ? 0 : 1;
}
