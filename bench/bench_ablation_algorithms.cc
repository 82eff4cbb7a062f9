/**
 * @file
 * Ablation bench (Section 2.1 taxonomy): the four search algorithms at
 * an equal candidate budget on the same DLRM Pareto task —
 *
 *   - H2O single-step parallel RL (this paper),
 *   - random multi-trial search,
 *   - regularized evolution (multi-trial),
 *
 * all with surrogate quality + simulated step time, plus the TuNAS
 * alternating RL algorithm exercised in test_search / examples (it
 * needs the trainable super-network, so its candidate budget is not
 * directly comparable here).
 *
 * Reported: the best feasible candidate each algorithm found, and the
 * hypervolume of the population it explored.
 */

#include <iostream>

#include "arch/dlrm_arch.h"
#include "baselines/quality_model.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "reward/reward.h"
#include "search/baseline_search.h"
#include "search/pareto.h"
#include "search/surrogate_search.h"
#include "searchspace/dlrm_space.h"

using namespace h2o;

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("budget", 1200, "candidate evaluations per algorithm");
    flags.defineInt("seed", 13, "RNG seed");
    common::defineThreadsFlag(flags);
    flags.parse(argc, argv);
    size_t budget = static_cast<size_t>(flags.getInt("budget"));
    uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));

    searchspace::DlrmSearchSpace space(arch::baselineDlrm());
    hw::Platform platform = hw::trainingPlatform();
    double base_time =
        bench::dlrmTrainStepTime(space.baseline(), platform);
    double base_size = space.baseline().modelBytes();

    auto quality = [&](const searchspace::Sample &s) {
        return 100.0 * baselines::dlrmQualitySurrogate(space.decode(s));
    };
    auto perf = [&](const searchspace::Sample &s) {
        arch::DlrmArch a = space.decode(s);
        return std::vector<double>{bench::dlrmTrainStepTime(a, platform),
                                   a.modelBytes()};
    };
    reward::ReluReward rwd({{"step_time", base_time, -2.0},
                            {"model_size", base_size, -2.0}});

    common::AsciiTable t("Search algorithms at equal budget (" +
                         std::to_string(budget) + " candidates)");
    t.setHeader({"algorithm", "best reward", "best quality",
                 "best step (rel)", "explored hypervolume"});

    auto report = [&](const char *name,
                      const search::SearchOutcome &outcome) {
        const search::CandidateRecord *best = nullptr;
        std::vector<search::ParetoPoint> pts;
        for (const auto &c : outcome.history) {
            if (!best || c.reward > best->reward)
                best = &c;
            pts.push_back({c.quality, c.performance[0]});
        }
        search::ParetoPoint ref{-40.0, 3.0 * base_time};
        t.addRow({name, common::AsciiTable::num(best->reward, 3),
                  common::AsciiTable::num(best->quality, 3),
                  common::AsciiTable::times(
                      best->performance[0] / base_time, 2),
                  common::AsciiTable::num(search::hypervolume(pts, ref),
                                          4)});
    };

    {
        search::SurrogateSearchConfig cfg;
        cfg.samplesPerStep = 8;
        cfg.numSteps = budget / cfg.samplesPerStep;
        cfg.rl.learningRate = 0.08;
        cfg.rl.entropyWeight = 5e-3;
        cfg.exec.threads = flags.getSize("threads");
        search::SurrogateSearch s(space.decisions(), quality, perf, rwd,
                                  cfg);
        common::Rng rng(seed);
        report("H2O single-step RL", s.run(rng));
    }
    {
        search::RandomSearchConfig cfg;
        cfg.numCandidates = budget;
        search::RandomSearch s(space.decisions(), quality, perf, rwd, cfg);
        common::Rng rng(seed + 1);
        report("random (multi-trial)", s.run(rng));
    }
    {
        search::EvolutionSearchConfig cfg;
        cfg.numCandidates = budget;
        search::EvolutionSearch s(space.decisions(), quality, perf, rwd,
                                  cfg);
        common::Rng rng(seed + 2);
        report("regularized evolution", s.run(rng));
    }
    t.print(std::cout);
    std::cout << "Note: evolution/random are multi-trial algorithms — "
                 "usable here because the surrogate reward is stable "
                 "across steps; with one-shot shared weights their "
                 "cross-step reward comparisons would be meaningless "
                 "(Section 2.1).\n";
    return 0;
}
