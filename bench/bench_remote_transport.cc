/**
 * @file
 * Cross-host shard transport bench: the SAME searches run threads-only,
 * on forked worker processes, on loopback TCP worker daemons, and on a
 * mixed fork+TCP pool — and every cell is byte-compared against the
 * thread-path reference. The bench doubles as the end-to-end
 * determinism gate for exec::RemotePool/MixedTransport, exactly as
 * bench_exec_multiproc does for ProcPool.
 *
 * Part 1 sweeps the surrogate search over a transport matrix
 * (procs x workers, quality and perf running inside the workers).
 * Part 2 runs the unified single-step supernet search with remote and
 * mixed pools (batched quality: the supernet stays coordinator-side).
 * Part 3 runs the TuNAS alternating search over a remote worker.
 * Part 4 SIGKILLs a worker daemon SESSION mid-run and requires the
 * search to complete byte-identically anyway (reconnect-as-respawn +
 * cached-request retry), with the reconnect visible in the telemetry.
 *
 * Emits BENCH_remote.json and exits non-zero on ANY divergence or if
 * the killed run fails to reconnect. Exits 77 (the ctest skip code)
 * when the sandbox forbids loopback TCP. The "remote" daemons here are
 * fork-local loopback daemons — same wire protocol, same handshake,
 * same reconnect path as a daemon on another host — so the wall-clock
 * columns document the TCP framing overhead, not network latency.
 *
 *   $ ./bench_remote_transport --steps=10 --shards=8
 */

#include <arpa/inet.h>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
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

/** Loopback TCP probe; the bench skips (exit 77) when the sandbox
 *  forbids sockets rather than reporting a transport failure. */
bool
loopbackAvailable()
{
    int l = ::socket(AF_INET, SOCK_STREAM, 0);
    if (l < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    bool ok = ::bind(l, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)) == 0 &&
              ::listen(l, 1) == 0;
    if (ok) {
        socklen_t len = sizeof(addr);
        ok = ::getsockname(l, reinterpret_cast<sockaddr *>(&addr), &len) ==
             0;
    }
    if (ok) {
        int c = ::socket(AF_INET, SOCK_STREAM, 0);
        ok = c >= 0 && ::connect(c, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof(addr)) == 0;
        if (c >= 0)
            ::close(c);
    }
    ::close(l);
    return ok;
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

/** Pure per-candidate signals: they ship into forked workers and
 *  fork-local daemon sessions alike, so they depend only on the
 *  candidate and pre-fork immutable state. */
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
surrogateConfig(size_t steps, size_t shards, size_t procs,
                const std::string &workers)
{
    search::SurrogateSearchConfig cfg;
    cfg.numSteps = steps;
    cfg.samplesPerStep = shards;
    cfg.rl.learningRate = 0.08;
    cfg.exec.threads = 1;
    cfg.exec.procs = procs;
    cfg.exec.workers = workers;
    cfg.exec.retryBackoffMs = 0.0;
    return cfg;
}

search::SurrogateSearch
makeSurrogate(const SurrogateTask &task, size_t steps, size_t shards,
              size_t procs, const std::string &workers)
{
    static reward::ReluReward rwd({{"step_time", 1.0, -1.0}});
    return search::SurrogateSearch(
        task.space.decisions(),
        [&task](const searchspace::Sample &s) { return task.quality(s); },
        search::PerfFn([&task](const searchspace::Sample &s) {
            return task.perf(s);
        }),
        rwd, surrogateConfig(steps, shards, procs, workers));
}

search::SearchOutcome
runSurrogate(const SurrogateTask &task, size_t steps, size_t shards,
             size_t procs, const std::string &workers, uint64_t seed,
             double &seconds)
{
    auto search = makeSurrogate(task, steps, shards, procs, workers);
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
runSupernet(size_t steps, size_t shards, size_t procs,
            const std::string &workers, uint64_t seed, double &seconds)
{
    SupernetFixture f(seed);
    reward::ReluReward rwd({{"step_time", 1.0, -1.0}});
    search::H2oSearchConfig cfg;
    cfg.numShards = shards;
    cfg.numSteps = steps;
    cfg.warmupSteps = steps / 5;
    cfg.exec.threads = 1;
    cfg.exec.procs = procs;
    cfg.exec.workers = workers;
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
runTunas(size_t steps, size_t procs, const std::string &workers,
         uint64_t seed, double &seconds)
{
    SupernetFixture f(seed);
    reward::ReluReward rwd({{"step_time", 1.0, -1.0}});
    search::TunasSearchConfig cfg;
    cfg.numIterations = steps;
    cfg.warmupSteps = steps / 5;
    cfg.exec.procs = procs;
    cfg.exec.workers = workers;
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
    flags.defineString("json", "BENCH_remote.json",
                       "output path for the JSON report");
    flags.parse(argc, argv);
    size_t steps = static_cast<size_t>(flags.getInt("steps"));
    size_t shards = static_cast<size_t>(flags.getInt("shards"));
    uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));

    if (!loopbackAvailable()) {
        std::cout << "SKIP: loopback TCP unavailable in this sandbox; "
                     "the remote transport cannot be exercised\n";
        return 77; // ctest SKIP_RETURN_CODE
    }

    SurrogateTask task;

    // --- Part 1: surrogate search over the transport matrix. Every
    // cell must be byte-identical to the threads-only reference.
    struct Cell
    {
        size_t procs;
        std::string workers;
        double sec;
        bool identical;
    };
    const std::vector<std::pair<size_t, std::string>> matrix = {
        {2, ""},             // forks only
        {0, "local"},        // one TCP daemon
        {0, "local,local"},  // two TCP daemons
        {1, "local"},        // mixed: fork slot + TCP slot
        {2, "local,local"},  // mixed, wider
    };
    common::AsciiTable t1("cross-host transport: surrogate search, "
                          "procs x workers (same seeds)");
    t1.setHeader({"procs", "workers", "wall time (s)",
                  "outcome vs threads"});
    double ref_sec = 0.0;
    auto ref = runSurrogate(task, steps, shards, 0, "", seed, ref_sec);
    t1.addRow({"0", "(none)", common::AsciiTable::num(ref_sec, 2),
               "(reference)"});
    std::vector<Cell> cells;
    bool surrogate_identical = true;
    for (const auto &[procs, workers] : matrix) {
        double sec = 0.0;
        auto outcome =
            runSurrogate(task, steps, shards, procs, workers, seed, sec);
        bool same = identicalOutcomes(ref, outcome);
        surrogate_identical = surrogate_identical && same;
        cells.push_back({procs, workers, sec, same});
        t1.addRow({std::to_string(procs),
                   workers.empty() ? "(none)" : workers,
                   common::AsciiTable::num(sec, 2),
                   same ? "bit-identical" : "DIVERGED"});
    }
    t1.print(std::cout);

    // --- Part 2: unified single-step supernet search, remote + mixed.
    bool supernet_identical = true;
    {
        double sec = 0.0;
        auto sref = runSupernet(steps, shards, 0, "", seed, sec);
        for (const auto &[procs, workers] :
             std::vector<std::pair<size_t, std::string>>{{0, "local"},
                                                         {1, "local"}}) {
            auto outcome =
                runSupernet(steps, shards, procs, workers, seed, sec);
            supernet_identical = supernet_identical &&
                                 identicalOutcomes(sref, outcome);
        }
    }
    std::cout << "supernet (unified single-step) search over remote/mixed "
                 "workers: "
              << (supernet_identical ? "bit-identical" : "DIVERGED (bug)")
              << "\n";

    // --- Part 3: TuNAS alternating search over one remote worker.
    bool tunas_identical = true;
    {
        double sec = 0.0;
        auto tref = runTunas(steps, 0, "", seed, sec);
        tunas_identical = identicalOutcomes(
            tref, runTunas(steps, 0, "local", seed, sec));
    }
    std::cout << "tunas (alternating) search over a remote worker: "
              << (tunas_identical ? "bit-identical" : "DIVERGED (bug)")
              << "\n";

    // --- Part 4: SIGKILL a daemon SESSION mid-run; the search must
    // reconnect (= respawn), resend the cached request bytes, and
    // finish byte-identical to the unkilled reference.
    bool kill_identical = false;
    uint64_t kill_respawns = 0;
    uint64_t transport_tasks = 0;
    uint64_t transport_bytes = 0;
    {
        auto search =
            makeSurrogate(task, steps, shards, 0, "local,local");
        common::Rng rng(seed);
        auto stepper = search.makeStepper(rng);
        while (!stepper->done()) {
            stepper->step();
            if (stepper->stepIndex() == steps / 2) {
                auto stats = stepper->transportStats();
                // Find a live TCP slot via the endpoint telemetry and
                // kill its daemon session.
                for (const auto &w : stats.workers) {
                    if (w.alive &&
                        w.endpoint.rfind("local/", 0) == 0) {
                        ::kill(static_cast<pid_t>(w.pid), SIGKILL);
                        break;
                    }
                }
            }
        }
        auto killed = stepper->finish();
        kill_identical = identicalOutcomes(ref, killed);

        auto stats = stepper->transportStats();
        kill_respawns = stats.totalRespawns();
        transport_tasks = stats.totalTasksServed();
        transport_bytes = stats.totalBytes();
        std::cout << "kill -9 daemon session mid-run (workers="
                     "local,local): outcome "
                  << (kill_identical ? "bit-identical to unkilled run"
                                     : "DIVERGED (bug)")
                  << ", " << kill_respawns << " reconnect(s), "
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
       << "  \"threads_ref_sec\": " << ref_sec << ",\n"
       << "  \"matrix\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        js << "    {\"procs\": " << cells[i].procs << ", \"workers\": \""
           << cells[i].workers << "\", \"wall_sec\": " << cells[i].sec
           << ", \"identical\": "
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
       << "  \"kill_reconnects\": " << kill_respawns << ",\n"
       << "  \"transport_tasks_served\": " << transport_tasks << ",\n"
       << "  \"transport_bytes\": " << transport_bytes << "\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
    return ok ? 0 : 1;
}
