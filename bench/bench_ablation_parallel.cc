/**
 * @file
 * Ablation bench (Section 4.2 design choice): shard-count scaling of
 * the massively parallel single-step search algorithm.
 *
 * With more virtual accelerator shards, each search step evaluates more
 * candidates and applies one aggregated cross-shard policy + weight
 * update. This bench fixes the TOTAL candidate budget and varies the
 * shard count, reporting search outcome quality and the per-step
 * candidate throughput — the trade-off between parallel width and
 * number of sequential policy updates.
 */

#include <chrono>
#include <iostream>
#include <span>

#include "arch/dlrm_arch.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "pipeline/pipeline.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

using namespace h2o;

namespace {

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

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("budget", 512, "total candidates per configuration");
    flags.defineInt("seed", 11, "RNG seed");
    common::defineThreadsFlag(flags);
    flags.parse(argc, argv);
    size_t budget = static_cast<size_t>(flags.getInt("budget"));
    uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));

    common::AsciiTable t("Parallel single-step search: shard scaling at "
                         "a fixed candidate budget");
    t.setHeader({"shards", "steps", "final mean reward", "final entropy",
                 "wall time (s)", "candidates/s"});

    for (size_t shards : {1u, 2u, 4u, 8u, 16u}) {
        searchspace::DlrmSearchSpace space(benchDlrm());
        common::Rng rng(seed);
        supernet::SupernetConfig ncfg;
        ncfg.vocabCap = 512;
        ncfg.mlpWidthCap = 64;
        supernet::DlrmSupernet net(space, ncfg, rng);

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
        pipeline::InMemoryPipeline pipe(std::move(gen), 64);

        reward::ReluReward rwd({{"size", 1e12, -1.0}});
        search::H2oSearchConfig cfg;
        cfg.numShards = shards;
        cfg.numSteps = budget / shards;
        cfg.warmupSteps = cfg.numSteps / 10;
        cfg.exec.threads = flags.getSize("threads");
        // Batched performance stage: one call per step over the step's
        // surviving shard candidates.
        search::H2oDlrmSearch search(
            space, net, pipe,
            [&](std::span<const searchspace::Sample> ss) {
                std::vector<std::vector<double>> out;
                out.reserve(ss.size());
                for (const auto &s : ss)
                    out.push_back({space.decode(s).modelBytes()});
                return out;
            },
            rwd, cfg);

        auto start = std::chrono::steady_clock::now();
        common::Rng srng(seed + 2);
        auto outcome = search.run(srng);
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

        t.addRow({std::to_string(shards), std::to_string(cfg.numSteps),
                  common::AsciiTable::num(outcome.finalMeanReward, 4),
                  common::AsciiTable::num(outcome.finalEntropy, 3),
                  common::AsciiTable::num(secs, 2),
                  common::AsciiTable::num(
                      static_cast<double>(outcome.history.size()) / secs,
                      0)});
    }
    t.print(std::cout);
    return 0;
}
