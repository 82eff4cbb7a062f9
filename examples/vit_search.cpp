/**
 * @file
 * Hybrid vision-transformer search: search the ViT space (Table 5)
 * around CoAtNet-0 for better training throughput on TPUv4 at neutral
 * quality — the workflow that produced the CoAtNet-H family
 * (Section 7.1.1). Watch for the search discovering the same moves the
 * paper reports: cheaper activations (Squared ReLU), resolution/depth
 * re-balancing, and funnel pooling.
 *
 *   $ ./vit_search --steps=100
 */

#include <iostream>

#include "arch/vit_arch.h"
#include "baselines/coatnet.h"
#include "baselines/quality_model.h"
#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "exec/exec_config.h"
#include "nn/activation.h"
#include "reward/reward.h"
#include "search/surrogate_search.h"
#include "searchspace/vit_space.h"

using namespace h2o;

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 100, "search steps");
    flags.defineInt("shards", 8, "parallel candidates per step");
    flags.defineInt("seed", 19, "RNG seed");
    exec::defineExecFlags(flags);
    flags.parse(argc, argv);
    const exec::ExecConfig runtime = exec::execConfigFromFlags(flags);

    hw::Platform train = hw::trainingPlatform();
    arch::VitArch baseline = baselines::coatnet(0);
    searchspace::VitSearchSpace space(baseline);

    double base_time =
        bench::simulate(arch::buildVitGraph(baseline, train,
                                            arch::ExecMode::Training),
                        train.chip)
            .stepTimeSec;
    double base_q =
        baselines::vitQuality(baseline, baselines::DatasetSize::Medium);
    std::cout << "baseline " << baseline.name << ": "
              << baseline.perChipBatch / base_time
              << " images/s/chip on TPUv4, quality " << base_q << "\n";

    auto quality_fn = [&](const searchspace::Sample &s) {
        return baselines::vitQuality(space.decode(s),
                                     baselines::DatasetSize::Medium);
    };
    auto perf_fn = [&](const searchspace::Sample &s) {
        return std::vector<double>{
            bench::simulate(arch::buildVitGraph(space.decode(s), train,
                                                arch::ExecMode::Training),
                            train.chip)
                .stepTimeSec};
    };
    reward::ReluReward reward({{"train_step", base_time, -30.0}});

    search::SurrogateSearchConfig cfg;
    cfg.numSteps = static_cast<size_t>(flags.getInt("steps"));
    cfg.samplesPerStep = static_cast<size_t>(flags.getInt("shards"));
    cfg.rl.learningRate = 0.08;
    cfg.rl.entropyWeight = 5e-3;
    cfg.exec = runtime;
    search::SurrogateSearch search(space.decisions(), quality_fn, perf_fn,
                                   reward, cfg);
    common::Rng rng(static_cast<uint64_t>(flags.getInt("seed")));
    auto outcome = search.run(rng);

    const search::CandidateRecord *best = nullptr;
    for (const auto &c : outcome.history)
        if (!best || c.reward > best->reward)
            best = &c;
    arch::VitArch found = space.decode(best->sample);
    double found_time =
        bench::simulate(arch::buildVitGraph(found, train,
                                            arch::ExecMode::Training),
                        train.chip)
            .stepTimeSec;

    common::AsciiTable t("Found hybrid ViT vs CoAtNet-0");
    t.setHeader({"metric", "baseline", "found"});
    t.addRow({"train images/s/chip",
              common::AsciiTable::num(baseline.perChipBatch / base_time, 0),
              common::AsciiTable::num(found.perChipBatch / found_time, 0)});
    t.addRow({"quality", common::AsciiTable::num(base_q, 2),
              common::AsciiTable::num(
                  baselines::vitQuality(found,
                                        baselines::DatasetSize::Medium),
                  2)});
    t.addRow({"params (M)",
              common::AsciiTable::num(baseline.paramCount() / 1e6, 1),
              common::AsciiTable::num(found.paramCount() / 1e6, 1)});
    t.addRow({"resolution", std::to_string(baseline.resolution),
              std::to_string(found.resolution)});
    t.print(std::cout);

    common::AsciiTable blocks("Transformer block choices");
    blocks.setHeader({"block", "hidden", "layers", "activation",
                      "seq-pool", "primer", "low-rank"});
    for (size_t b = 0; b < found.tfmBlocks.size(); ++b) {
        const auto &blk = found.tfmBlocks[b];
        blocks.addRow({std::to_string(b), std::to_string(blk.hidden),
                       std::to_string(blk.layers),
                       nn::activationName(blk.act),
                       blk.seqPool ? "yes" : "no",
                       blk.primer ? "yes" : "no",
                       common::AsciiTable::num(blk.lowRank, 1)});
    }
    blocks.print(std::cout);
    std::cout << "speedup: "
              << common::AsciiTable::times(base_time / found_time, 2)
              << "\n";
    return 0;
}
