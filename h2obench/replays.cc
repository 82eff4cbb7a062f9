#include <algorithm>
#include <set>
#include <span>

#include "arch/dlrm_arch.h"
#include "common/rng.h"
#include "controller/reinforce.h"
#include "hw/chip.h"
#include "pipeline/traffic_generator.h"
#include "searchspace/dlrm_space.h"
#include "sim/simulator.h"
#include "supernet/dlrm_supernet.h"
#include "workloads.h"

using namespace h2o;

namespace h2obench {

void
replayController(size_t samples_per_step, uint64_t seed,
                 std::map<std::string, double> &layers)
{
    constexpr size_t kSteps = 1000;
    searchspace::DlrmSearchSpace space(arch::baselineDlrm());
    controller::ReinforceController ctl(space.decisions());
    common::Rng rng(mixSeed(seed, 6));
    double sample_s = 0.0, update_s = 0.0;
    std::vector<searchspace::Sample> samples;
    std::vector<double> rewards;
    for (size_t step = 0; step < kSteps; ++step) {
        samples.clear();
        rewards.clear();
        Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < samples_per_step; ++i)
            samples.push_back(ctl.policy().sample(rng));
        Clock::time_point t1 = Clock::now();
        for (size_t i = 0; i < samples_per_step; ++i)
            rewards.push_back(rng.uniform());
        Clock::time_point t2 = Clock::now();
        ctl.update(samples, rewards);
        Clock::time_point t3 = Clock::now();
        sample_s += secondsBetween(t0, t1);
        update_s += secondsBetween(t2, t3);
    }
    layers["controller.sample_us"] =
        sample_s / double(kSteps * samples_per_step) * 1e6;
    layers["controller.update_us"] = update_s / double(kSteps) * 1e6;
}

void
replaySupernet(const std::vector<searchspace::Sample> &candidates,
               size_t per_step, uint64_t seed,
               std::map<std::string, double> &layers)
{
    if (candidates.empty())
        return;
    // The serve jobs' small DLRM (serve/job.cc): two tables, a one-layer
    // bottom and two-layer top MLP, with the jobs' 32-example batches.
    arch::DlrmArch small;
    small.name = "dlrm-serve-small";
    small.numDenseFeatures = 4;
    small.tables = {{2048, 8, 1.0}, {512, 8, 1.0}};
    small.bottomMlp = {{16, 0}};
    small.topMlp = {{32, 0}, {16, 0}};
    small.globalBatch = 256;
    constexpr size_t kBatchRows = 32;

    searchspace::DlrmSearchSpace space(small);
    common::Rng net_rng(mixSeed(seed, 7));
    supernet::DlrmSupernet net(space, {}, net_rng);
    std::vector<uint64_t> vocabs;
    std::vector<double> avg_ids;
    for (const auto &t : small.tables) {
        vocabs.push_back(t.vocab);
        avg_ids.push_back(t.avgIds);
    }
    pipeline::TrafficGenerator gen(
        pipeline::trafficConfigFor(small.numDenseFeatures, vocabs, avg_ids),
        mixSeed(seed, 8));
    pipeline::Batch batch = gen.nextBatch(kBatchRows);

    double seconds = 0.0;
    size_t distinct = 0;
    for (size_t lo = 0; lo < candidates.size(); lo += per_step) {
        size_t n = std::min(per_step, candidates.size() - lo);
        std::span<const searchspace::Sample> group(candidates.data() + lo, n);
        Clock::time_point t0 = Clock::now();
        net.evaluateBatch(group, batch);
        seconds += secondsBetween(t0, Clock::now());
        distinct += net.batchStats().distinct;
    }
    layers["supernet.eval_rows_per_s"] =
        double(candidates.size() * kBatchRows) / seconds;
    layers["supernet.dedup_ratio"] =
        double(candidates.size()) / double(std::max<size_t>(distinct, 1));
}

void
replayLoweringAndSim(const std::vector<searchspace::Sample> &samples,
                     std::map<std::string, double> &layers)
{
    constexpr size_t kMaxGraphs = 1000;
    std::set<searchspace::Sample> seen;
    std::vector<const searchspace::Sample *> distinct;
    for (const auto &s : samples) {
        if (distinct.size() >= kMaxGraphs)
            break;
        if (seen.insert(s).second)
            distinct.push_back(&s);
    }
    if (distinct.empty())
        return;
    searchspace::DlrmSearchSpace space(arch::baselineDlrm());
    hw::Platform platform = hw::trainingPlatform();
    sim::Simulator simulator(sim::SimConfig{platform.chip, true, true, {}});

    std::vector<sim::Graph> graphs;
    graphs.reserve(distinct.size());
    Clock::time_point t0 = Clock::now();
    for (const auto *s : distinct)
        graphs.push_back(arch::buildDlrmGraph(space.decode(*s), platform,
                                              arch::ExecMode::Training));
    Clock::time_point t1 = Clock::now();
    std::vector<const sim::Graph *> ptrs;
    for (const auto &g : graphs)
        ptrs.push_back(&g);
    simulator.runBatch(ptrs);
    Clock::time_point t2 = Clock::now();
    const double n = double(graphs.size());
    layers["arch.lower_us"] = secondsBetween(t0, t1) / n * 1e6;
    layers["sim.simulate_us"] = secondsBetween(t1, t2) / n * 1e6;
}

} // namespace h2obench
