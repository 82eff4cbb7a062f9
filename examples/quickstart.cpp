/**
 * @file
 * Quickstart: the smallest end-to-end H2O-NAS run.
 *
 * Builds a toy DLRM search space, a trainable weight-sharing
 * super-network, and an in-memory synthetic-traffic pipeline, then runs
 * the unified single-step search (Figure 2 of the paper) with the
 * single-sided ReLU reward, and prints the architecture the policy
 * converged to.
 *
 *   $ ./quickstart [--threads=N] [--procs=N] [--workers=host:port,...]
 */

#include <iostream>

#include "arch/dlrm_arch.h"
#include "common/flags.h"
#include "common/rng.h"
#include "exec/exec_config.h"
#include "pipeline/pipeline.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

using namespace h2o;

int
main(int argc, char **argv)
{
    common::Flags flags;
    exec::defineExecFlags(flags);
    flags.parse(argc, argv);
    const exec::ExecConfig runtime = exec::execConfigFromFlags(flags);

    // 1. A baseline DLRM to search around: 3 embedding tables, a small
    //    bottom/top MLP. Every Table-5 dimension (widths, vocabs,
    //    low-rank, depth) becomes searchable around this point.
    arch::DlrmArch baseline;
    baseline.numDenseFeatures = 8;
    baseline.tables = {{4096, 16, 1.0}, {1024, 16, 1.0}, {256, 8, 2.0}};
    baseline.bottomMlp = {{32, 0}};
    baseline.topMlp = {{64, 0}, {32, 0}};
    baseline.globalBatch = 1024;

    searchspace::DlrmSearchSpace space(baseline);
    std::cout << "search space: " << space.decisions().numDecisions()
              << " categorical decisions, 10^" << space.log10Size()
              << " candidates\n";

    // 2. The weight-sharing super-network (hybrid fine/coarse sharing)
    //    and the in-memory pipeline of fresh synthetic traffic.
    common::Rng rng(42);
    supernet::DlrmSupernet supernet(space, {}, rng);
    std::vector<uint64_t> vocabs;
    std::vector<double> avg_ids;
    for (const auto &t : baseline.tables) {
        vocabs.push_back(t.vocab);
        avg_ids.push_back(t.avgIds);
    }
    auto traffic = std::make_unique<pipeline::TrafficGenerator>(
        pipeline::trafficConfigFor(baseline.numDenseFeatures, vocabs,
                                   avg_ids),
        7);
    pipeline::InMemoryPipeline pipe(std::move(traffic), 64);

    // 3. The single-sided ReLU reward (Equation 1): penalize candidates
    //    whose model size exceeds the baseline, never over-achievers.
    reward::ReluReward reward(
        {{"model_size", baseline.modelBytes(), -2.0}});

    // 4. Run the massively parallel unified single-step search.
    search::H2oSearchConfig config;
    config.numShards = 4;
    config.numSteps = 100;
    config.warmupSteps = 20;
    config.exec = runtime;
    search::H2oDlrmSearch search(
        space, supernet, pipe,
        [&](const searchspace::Sample &s) {
            return std::vector<double>{space.decode(s).modelBytes()};
        },
        reward, config);
    common::Rng search_rng(1);
    auto outcome = search.run(search_rng);

    // 5. Report.
    arch::DlrmArch found = space.decode(outcome.finalSample);
    std::cout << "\nfound architecture after "
              << outcome.history.size() << " evaluated candidates:\n";
    for (size_t t = 0; t < found.tables.size(); ++t) {
        std::cout << "  table " << t << ": vocab " << found.tables[t].vocab
                  << ", width " << found.tables[t].width
                  << (found.tables[t].width == 0 ? " (removed)" : "")
                  << "\n";
    }
    auto print_stack = [](const char *name,
                          const std::vector<arch::MlpLayerConfig> &stack) {
        std::cout << "  " << name << ":";
        for (const auto &l : stack) {
            std::cout << " " << l.width;
            if (l.rank > 0)
                std::cout << "(rank " << l.rank << ")";
        }
        std::cout << "\n";
    };
    print_stack("bottom MLP", found.bottomMlp);
    print_stack("top MLP", found.topMlp);
    std::cout << "  params: " << found.paramCount() / 1e6 << "M (baseline "
              << baseline.paramCount() / 1e6 << "M)\n";
    std::cout << "  final mean reward: " << outcome.finalMeanReward
              << ", policy entropy: " << outcome.finalEntropy << "\n";
    auto stats = pipe.stats();
    std::cout << "  pipeline: " << stats.examplesIssued
              << " fresh examples, every batch used alpha-before-W ("
              << stats.completeLeases << "/" << stats.batchesIssued
              << " complete leases)\n";
    return 0;
}
