/**
 * @file
 * Hardware-optimized CNN search for SERVING: search the convolutional
 * space (Table 5) around EfficientNet-X-B2 for a model with better
 * serving latency on TPUv4i at neutral-or-better quality — the
 * dynamically-fused-MBConv story of Figure 4 in action: the search
 * decides per stage whether MBConv or fused MBConv wins on this
 * hardware at this channel depth.
 *
 *   $ ./cnn_serving_search --chip=tpuv4i --steps=120
 */

#include <iostream>

#include "arch/conv_arch.h"
#include "baselines/efficientnet.h"
#include "baselines/quality_model.h"
#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "exec/exec_config.h"
#include "reward/reward.h"
#include "search/surrogate_search.h"
#include "searchspace/conv_space.h"

using namespace h2o;

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 120, "search steps");
    flags.defineInt("shards", 8, "parallel candidates per step");
    flags.defineString("chip", "tpuv4i", "serving chip");
    flags.defineInt("seed", 9, "RNG seed");
    exec::defineExecFlags(flags);
    flags.parse(argc, argv);
    const exec::ExecConfig runtime = exec::execConfigFromFlags(flags);

    hw::Platform serve{
        hw::chipSpec(hw::chipModelFromName(flags.getString("chip"))), 1};

    arch::ConvArch baseline = baselines::efficientnetX(2);
    searchspace::ConvSearchSpace space(baseline);
    double base_time =
        bench::simulate(arch::buildConvGraph(baseline, serve,
                                             arch::ExecMode::Serving),
                        serve.chip)
            .stepTimeSec;
    double base_q = baselines::convQuality(baseline);
    std::cout << "baseline " << baseline.name << ": serving step "
              << base_time * 1e3 << " ms on " << serve.chip.name
              << ", quality " << base_q << "\n";
    std::cout << "space: 10^" << space.log10Size() << " candidates\n";

    auto quality_fn = [&](const searchspace::Sample &s) {
        return baselines::convQuality(space.decode(s));
    };
    auto perf_fn = [&](const searchspace::Sample &s) {
        return std::vector<double>{
            bench::simulate(arch::buildConvGraph(space.decode(s), serve,
                                                 arch::ExecMode::Serving),
                            serve.chip)
                .stepTimeSec};
    };
    reward::ReluReward reward({{"serve_time", base_time, -8.0}});

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

    // Deploy the best evaluated candidate (retraining happens from
    // scratch anyway; per-decision argmax may compose untested combos).
    const search::CandidateRecord *best = nullptr;
    for (const auto &c : outcome.history)
        if (!best || c.reward > best->reward)
            best = &c;
    arch::ConvArch found = space.decode(best->sample);
    double found_time =
        bench::simulate(arch::buildConvGraph(found, serve,
                                             arch::ExecMode::Serving),
                        serve.chip)
            .stepTimeSec;

    common::AsciiTable t("Found architecture vs baseline");
    t.setHeader({"metric", "baseline", "found"});
    t.addRow({"serving step (ms)",
              common::AsciiTable::num(base_time * 1e3, 3),
              common::AsciiTable::num(found_time * 1e3, 3)});
    t.addRow({"quality (top-1)", common::AsciiTable::num(base_q, 2),
              common::AsciiTable::num(baselines::convQuality(found), 2)});
    t.addRow({"params (M)",
              common::AsciiTable::num(baseline.paramCount() / 1e6, 1),
              common::AsciiTable::num(found.paramCount() / 1e6, 1)});
    t.addRow({"GFLOPs/image",
              common::AsciiTable::num(baseline.flopsPerImage() / 1e9, 2),
              common::AsciiTable::num(found.flopsPerImage() / 1e9, 2)});
    t.print(std::cout);

    common::AsciiTable stages("Per-stage block choices (dynamic fusion)");
    stages.setHeader({"stage", "baseline", "found", "kernel", "expansion",
                      "filters", "layers"});
    for (size_t s = 0; s < found.stages.size(); ++s) {
        auto name = [](arch::BlockType type) {
            return type == arch::BlockType::MBConv ? "MBConv" : "F-MBConv";
        };
        stages.addRow({std::to_string(s),
                       name(baseline.stages[s].type),
                       name(found.stages[s].type),
                       std::to_string(found.stages[s].kernel),
                       common::AsciiTable::num(found.stages[s].expansion, 0),
                       std::to_string(found.stages[s].filters),
                       std::to_string(found.stages[s].layers)});
    }
    stages.print(std::cout);
    std::cout << "speedup: "
              << common::AsciiTable::times(base_time / found_time, 2)
              << " at " << (baselines::convQuality(found) >= base_q - 0.1
                                ? "neutral-or-better"
                                : "reduced")
              << " quality\n";
    return 0;
}
