/**
 * @file
 * Full DLRM search workflow — the paper's flagship use case, end to end:
 *
 *  1. define a production-like baseline DLRM and its Table-5 search
 *     space;
 *  2. pre-train the dual-head MLP performance model on simulator
 *     samples and fine-tune it on O(20) "hardware" measurements
 *     (Section 6.2);
 *  3. run the massively parallel unified single-step search: the real
 *     weight-sharing super-network trains on fresh synthetic traffic
 *     while REINFORCE learns the policy, with the ReLU multi-objective
 *     reward over predicted step time and model size;
 *  4. compare against the TuNAS alternating baseline under the same
 *     candidate budget;
 *  5. report the found architecture and its simulated performance.
 *
 *   $ ./dlrm_search --steps=150 --shards=8 --threads=8 \
 *       --checkpoint=/tmp/h2o.ckpt
 */

#include <iostream>
#include <span>

#include "arch/dlrm_arch.h"
#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "exec/exec_config.h"
#include "perfmodel/features.h"
#include "perfmodel/hardware_oracle.h"
#include "perfmodel/perf_model.h"
#include "perfmodel/two_phase.h"
#include "pipeline/pipeline.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "search/tunas_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

using namespace h2o;

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 150, "search steps");
    flags.defineInt("shards", 8, "virtual accelerator shards");
    flags.defineInt("pretrain_samples", 1500, "perf-model samples");
    flags.defineInt("seed", 11, "RNG seed");
    flags.defineBool("run_tunas", true, "also run the TuNAS baseline");
    flags.defineString("checkpoint", "",
                       "checkpoint file for the H2O search (resumes when "
                       "it already exists; empty disables)");
    exec::defineExecFlags(flags);
    flags.parse(argc, argv);
    const exec::ExecConfig runtime = exec::execConfigFromFlags(flags);
    uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));

    // --- Baseline and search space.
    arch::DlrmArch baseline;
    baseline.numDenseFeatures = 8;
    baseline.tables = {{65536, 24, 1.0}, {16384, 16, 1.0},
                       {4096, 16, 1.0},  {1024, 8, 2.0}};
    baseline.bottomMlp = {{64, 0}, {32, 0}};
    baseline.topMlp = {{128, 0}, {64, 0}};
    baseline.globalBatch = 4096;

    searchspace::DlrmSearchSpace space(baseline);
    hw::Platform platform{hw::tpuV4(), 16};
    double base_time = bench::dlrmTrainStepTime(baseline, platform);
    std::cout << "baseline: " << baseline.paramCount() / 1e6
              << "M params, simulated train step "
              << base_time * 1e3 << " ms\n";

    // --- Two-phase performance model.
    perfmodel::DlrmFeatureEncoder encoder(space);
    auto simulate = [&](const searchspace::Sample &s) {
        arch::DlrmArch a = space.decode(s);
        double t = bench::dlrmTrainStepTime(a, platform);
        return perfmodel::SimTimes{t, t * 0.4};
    };
    perfmodel::HardwareOracle oracle({}, seed * 13 + 1);
    perfmodel::TwoPhaseTrainer trainer(space.decisions(), encoder,
                                       simulate, oracle);
    common::Rng rng(seed);
    perfmodel::PerfModelConfig mcfg;
    mcfg.hiddenWidth = 128;
    mcfg.epochs = 30;
    perfmodel::PerfModel perf_model(encoder.dim(), mcfg, rng);
    auto pre = trainer.pretrain(
        perf_model, static_cast<size_t>(flags.getInt("pretrain_samples")),
        rng);
    trainer.finetune(perf_model, 20, rng);
    auto post = trainer.evaluateAgainstOracle(perf_model, 200, rng);
    std::cout << "perf model: pretrain NRMSE "
              << common::AsciiTable::pct(pre.train, 1)
              << " (vs simulator), finetuned NRMSE "
              << common::AsciiTable::pct(post.train, 1)
              << " (vs hardware oracle)\n";

    // --- Supernet + pipeline.
    common::Rng net_rng(seed + 1);
    supernet::DlrmSupernet supernet(space, {}, net_rng);
    std::vector<uint64_t> vocabs;
    std::vector<double> avg_ids;
    for (const auto &t : baseline.tables) {
        vocabs.push_back(t.vocab);
        avg_ids.push_back(t.avgIds);
    }
    auto make_pipeline = [&](uint64_t s) {
        auto gen = std::make_unique<pipeline::TrafficGenerator>(
            pipeline::trafficConfigFor(baseline.numDenseFeatures, vocabs,
                                       avg_ids),
            s);
        return std::make_unique<pipeline::InMemoryPipeline>(std::move(gen),
                                                            64);
    };
    auto pipe = make_pipeline(seed + 2);

    reward::ReluReward reward({{"step_time", base_time, -2.0},
                               {"model_size", baseline.modelBytes(),
                                -2.0}});
    // Batched performance stage: one PerfModel::predictBatch (a single
    // packed MLP forward) per step over the surviving shard candidates.
    auto perf_fn = [&](std::span<const searchspace::Sample> ss) {
        std::vector<std::vector<double>> feats;
        feats.reserve(ss.size());
        for (const auto &s : ss)
            feats.push_back(encoder.encode(s));
        auto preds = perf_model.predictBatch(feats);
        std::vector<std::vector<double>> out;
        out.reserve(ss.size());
        for (size_t i = 0; i < ss.size(); ++i)
            out.push_back({preds[i].trainStepTimeSec,
                           space.decode(ss[i]).modelBytes()});
        return out;
    };

    // --- H2O unified single-step search.
    search::H2oSearchConfig cfg;
    cfg.numShards = static_cast<size_t>(flags.getInt("shards"));
    cfg.numSteps = static_cast<size_t>(flags.getInt("steps"));
    cfg.warmupSteps = cfg.numSteps / 5;
    cfg.exec = runtime;
    cfg.checkpointPath = flags.getString("checkpoint");
    cfg.checkpointEvery = 10;
    search::H2oDlrmSearch h2o_search(space, supernet, *pipe, perf_fn,
                                     reward, cfg);
    common::Rng srng(seed + 3);
    auto outcome = h2o_search.run(srng);

    arch::DlrmArch found = space.decode(outcome.finalSample);
    double found_time = bench::dlrmTrainStepTime(found, platform);
    common::AsciiTable t("H2O-NAS result");
    t.setHeader({"metric", "baseline", "found"});
    t.addRow({"params (M)",
              common::AsciiTable::num(baseline.paramCount() / 1e6, 2),
              common::AsciiTable::num(found.paramCount() / 1e6, 2)});
    t.addRow({"train step (us)",
              common::AsciiTable::num(base_time * 1e6, 3),
              common::AsciiTable::num(found_time * 1e6, 3)});
    t.addRow({"model size (MB)",
              common::AsciiTable::num(baseline.modelBytes() / 1e6, 1),
              common::AsciiTable::num(found.modelBytes() / 1e6, 1)});
    t.print(std::cout);

    // --- TuNAS baseline, for the data-efficiency comparison of
    // Figure 2. (Cross-algorithm REWARDS are deliberately not compared:
    // one-shot rewards depend on how much each supernet has trained and
    // are only comparable within a run — the paper's Section 2.1 point.)
    if (flags.getBool("run_tunas")) {
        common::Rng tn_rng(seed + 4);
        supernet::DlrmSupernet tunas_net(space, {}, tn_rng);
        auto tunas_pipe = make_pipeline(seed + 5);
        search::TunasSearchConfig tcfg;
        tcfg.numIterations = cfg.numSteps; // same number of policy updates
        tcfg.warmupSteps = cfg.warmupSteps;
        search::TunasSearch tunas(space, tunas_net, *tunas_pipe, perf_fn,
                                  reward, tcfg);
        common::Rng trng(seed + 6);
        auto tunas_outcome = tunas.run(trng);

        double h2o_updates = static_cast<double>(cfg.numSteps);
        auto h2o_stats = pipe->stats();
        auto tn_stats = tunas_pipe->stats();
        common::AsciiTable cmp(
            "Data efficiency per policy update (Figure 2)");
        cmp.setHeader({"algorithm", "policy updates", "batches drawn",
                       "candidates/update", "alpha-only (validation) "
                       "batches"});
        cmp.addRow({"H2O unified single-step",
                    common::AsciiTable::num(h2o_updates, 0),
                    std::to_string(h2o_stats.batchesIssued),
                    std::to_string(cfg.numShards),
                    std::to_string(h2o_stats.alphaOnlyLeases)});
        cmp.addRow({"TuNAS alternating",
                    common::AsciiTable::num(double(tcfg.numIterations), 0),
                    std::to_string(tn_stats.batchesIssued),
                    "1",
                    std::to_string(tn_stats.alphaOnlyLeases)});
        cmp.print(std::cout);
        std::cout << "Every H2O batch trained weights AND scored a "
                     "candidate; TuNAS needed a separate validation "
                     "stream ("
                  << tn_stats.alphaOnlyLeases
                  << " batches that never trained W).\n";
        (void)tunas_outcome;
    }
    return 0;
}
