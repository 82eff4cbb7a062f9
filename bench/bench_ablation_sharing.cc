/**
 * @file
 * Ablation bench (beyond the paper's figures, motivated by Section
 * 5.1.2): the hybrid fine/coarse weight-sharing design of the DLRM
 * super-network vs two pure alternatives.
 *
 *  - hybrid (paper): fine-grained width masks + coarse-grained
 *    per-vocab tables — the shipped design;
 *  - fine-only: ONE physical table per feature; vocabulary-size
 *    candidates alias the same rows (simulated by sharing the 100%
 *    table across all vocab choices), maximizing gradient reuse but
 *    letting candidates that hash ids differently interfere;
 *  - coarse-only: no width masking — every (vocab, width) pair would
 *    need its own table; approximated by restricting the search to the
 *    largest width so no mask-sharing occurs, showing the lost
 *    flexibility.
 *
 * Metric: supernet training loss after a fixed budget of single-step
 * search steps, plus the quality of the final argmax architecture,
 * under identical seeds.
 */

#include <iostream>

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
    a.tables = {{2048, 16, 1.0}, {1024, 16, 1.0}, {512, 8, 2.0},
                {256, 8, 1.0}};
    a.bottomMlp = {{32, 0}};
    a.topMlp = {{64, 0}, {32, 0}};
    a.globalBatch = 1024;
    return a;
}

struct RunResult
{
    double finalLoss;
    double finalEval;
};

RunResult
runSearch(const searchspace::DlrmSearchSpace &space, bool fine_only,
          uint64_t seed, size_t steps, size_t threads)
{
    common::Rng rng(seed);
    supernet::SupernetConfig ncfg;
    ncfg.vocabCap = 512;
    ncfg.mlpWidthCap = 64;
    ncfg.fineGrainedVocabSharing = fine_only;
    supernet::DlrmSupernet net(space, ncfg, rng);

    std::vector<uint64_t> vocabs;
    std::vector<double> ids;
    for (const auto &t : space.baseline().tables) {
        vocabs.push_back(t.vocab);
        ids.push_back(t.avgIds);
    }
    auto gen = std::make_unique<pipeline::TrafficGenerator>(
        pipeline::trafficConfigFor(space.baseline().numDenseFeatures,
                                   vocabs, ids),
        seed + 1);
    pipeline::InMemoryPipeline pipe(std::move(gen), 64);

    reward::ReluReward rwd({{"size", 1e12, -1.0}}); // quality-only search
    search::H2oSearchConfig cfg;
    cfg.numShards = 4;
    cfg.numSteps = steps;
    cfg.warmupSteps = steps / 5;
    cfg.exec.threads = threads;
    search::H2oDlrmSearch search(
        space, net, pipe,
        [&](const searchspace::Sample &s) {
            return std::vector<double>{space.decode(s).modelBytes()};
        },
        rwd, cfg);
    common::Rng srng(seed + 2);
    auto outcome = search.run(srng);
    (void)fine_only;

    // Evaluate the final argmax architecture on fresh data.
    net.configure(outcome.finalSample);
    auto probe = pipe.lease();
    auto eval = net.evaluate(probe.batch());
    probe.markAlphaUse();
    RunResult r;
    r.finalLoss = search.stepStats().back().trainLoss;
    r.finalEval = eval.logLoss;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 150, "search steps per variant");
    flags.defineInt("seed", 3, "RNG seed");
    common::defineThreadsFlag(flags);
    flags.parse(argc, argv);
    size_t steps = static_cast<size_t>(flags.getInt("steps"));
    size_t threads = flags.getSize("threads");
    uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));

    common::AsciiTable t("Weight-sharing ablation: hybrid (paper) vs "
                         "restricted variants");
    t.setHeader({"variant", "final train loss", "argmax logloss",
                 "notes"});

    // Hybrid: the full Table-5 space with the shipped supernet.
    {
        searchspace::DlrmSearchSpace space(benchDlrm());
        auto r = runSearch(space, false, seed, steps, threads);
        t.addRow({"hybrid (fine width + coarse vocab)",
                  common::AsciiTable::num(r.finalLoss, 4),
                  common::AsciiTable::num(r.finalEval, 4),
                  "paper design"});
    }

    // Coarse-only: width choices collapsed to a single option, so no
    // fine-grained mask sharing happens; only per-vocab tables remain.
    {
        searchspace::DlrmSpaceConfig scfg;
        scfg.embWidthDeltaMin = 0;
        scfg.embWidthDeltaMax = 0;
        scfg.mlpWidthDeltaMin = 1;
        scfg.mlpWidthDeltaMax = 1;
        searchspace::DlrmSearchSpace space(benchDlrm(), scfg);
        auto r = runSearch(space, false, seed, steps, threads);
        t.addRow({"coarse-only (no width masking)",
                  common::AsciiTable::num(r.finalLoss, 4),
                  common::AsciiTable::num(r.finalEval, 4),
                  "loses width flexibility"});
    }

    // Fine-only: ONE physical table per feature shared by every
    // vocabulary-size candidate; candidates hashing ids with different
    // moduli now interfere in the shared rows.
    {
        searchspace::DlrmSearchSpace space(benchDlrm());
        auto r = runSearch(space, true, seed, steps, threads);
        t.addRow({"fine-only (shared vocab tables)",
                  common::AsciiTable::num(r.finalLoss, 4),
                  common::AsciiTable::num(r.finalEval, 4),
                  "cross-candidate interference"});
    }

    t.print(std::cout);
    return 0;
}
