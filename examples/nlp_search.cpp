/**
 * @file
 * Transformer-only NLP search — the Appendix-A claim in action: "our
 * transformer search space can be used [in] isolation to search for
 * pure VIT or transformer based NLP models."
 *
 * Searches the isolated transformer space around a GPT-2-medium-scale
 * reference LM for better training throughput (tokens/s) on TPUv4 at a
 * capacity (parameter) floor — the NLP analogue of the CoAtNet-H
 * training-performance optimization.
 *
 *   $ ./nlp_search --steps=100
 */

#include <iostream>

#include "arch/nlp_arch.h"
#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "exec/exec_config.h"
#include "nn/activation.h"
#include "reward/reward.h"
#include "search/surrogate_search.h"
#include "searchspace/nlp_space.h"

using namespace h2o;

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 100, "search steps");
    flags.defineInt("shards", 8, "parallel candidates per step");
    flags.defineInt("seed", 29, "RNG seed");
    exec::defineExecFlags(flags);
    flags.parse(argc, argv);
    const exec::ExecConfig runtime = exec::execConfigFromFlags(flags);

    hw::Platform train = hw::trainingPlatform();
    arch::NlpArch baseline = arch::referenceLm();
    searchspace::NlpSearchSpace space(baseline);

    double base_time =
        bench::simulate(arch::buildNlpGraph(baseline, train,
                                            arch::ExecMode::Training),
                        train.chip)
            .stepTimeSec;
    double base_tokens_s = baseline.tokensPerStep() / base_time;
    std::cout << "baseline " << baseline.name << ": "
              << baseline.paramCount() / 1e6 << "M params, "
              << base_tokens_s / 1e3 << "k tokens/s/chip on TPUv4\n";
    std::cout << "isolated transformer space: 10^" << space.log10Size()
              << " candidates (17920 per block)\n";

    // Quality surrogate for an LM: log-scale capacity with an anchor at
    // the baseline (the vision quality model's capacity term, reused).
    double base_capacity =
        3.5 * std::log10(std::max(baseline.paramCount(), 1.0));
    auto quality_fn = [&](const searchspace::Sample &s) {
        arch::NlpArch a = space.decode(s);
        return 3.5 * std::log10(std::max(a.paramCount(), 1.0)) -
               base_capacity; // delta vs baseline, in "quality points"
    };
    auto perf_fn = [&](const searchspace::Sample &s) {
        return std::vector<double>{
            bench::simulate(arch::buildNlpGraph(space.decode(s), train,
                                                arch::ExecMode::Training),
                            train.chip)
                .stepTimeSec};
    };
    reward::ReluReward reward({{"train_step", 0.8 * base_time, -20.0}});

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
    arch::NlpArch found = space.decode(best->sample);
    double found_time =
        bench::simulate(arch::buildNlpGraph(found, train,
                                            arch::ExecMode::Training),
                        train.chip)
            .stepTimeSec;

    common::AsciiTable t("Found LM vs reference");
    t.setHeader({"metric", "baseline", "found"});
    t.addRow({"params (M)",
              common::AsciiTable::num(baseline.paramCount() / 1e6, 1),
              common::AsciiTable::num(found.paramCount() / 1e6, 1)});
    t.addRow({"tokens/s/chip (k)",
              common::AsciiTable::num(base_tokens_s / 1e3, 1),
              common::AsciiTable::num(
                  found.tokensPerStep() / found_time / 1e3, 1)});
    t.print(std::cout);

    common::AsciiTable blocks("Transformer block choices");
    blocks.setHeader({"block", "hidden", "layers", "activation",
                      "seq-pool", "primer", "low-rank"});
    for (size_t b = 0; b < found.blocks.size(); ++b) {
        const auto &blk = found.blocks[b];
        blocks.addRow({std::to_string(b), std::to_string(blk.hidden),
                       std::to_string(blk.layers),
                       nn::activationName(blk.act),
                       blk.seqPool ? "yes" : "no",
                       blk.primer ? "yes" : "no",
                       common::AsciiTable::num(blk.lowRank, 1)});
    }
    blocks.print(std::cout);
    std::cout << "training speedup: "
              << common::AsciiTable::times(base_time / found_time, 2)
              << " (target was 1.25x)\n";
    return 0;
}
