/**
 * @file
 * Regenerates Table 1 of the paper: quality and two-stage training
 * details of the MLP performance model (2 layers x 512 neurons)
 * predicting DLRM training performance.
 *
 * Rows reproduced:
 *  - search space size (log10);
 *  - number of pre-training samples and the pre-trained model's NRMSE
 *    on held-out SIMULATED samples (paper: 0.31% ~ 0.47%);
 *  - number of fine-tuning samples (20);
 *  - pre-trained model's NRMSE on "production measurements" (paper:
 *    14.7% ~ 42.9%) — large, because the hardware differs from the
 *    simulator systematically;
 *  - fine-tuned model's NRMSE on production measurements (paper:
 *    1.05% ~ 3.08%) — the ~10x improvement from 20 measurements.
 *
 * The paper pre-trains on 1M samples; the default here is smaller so
 * the bench runs in seconds — pass --pretrain_samples=1000000 for the
 * full-scale run.
 */

#include <chrono>
#include <iostream>

#include "arch/dlrm_arch.h"
#include "bench_util.h"
#include "common/flags.h"
#include "exec/checkpoint.h"
#include "common/rng.h"
#include "common/table.h"
#include "perfmodel/features.h"
#include "perfmodel/hardware_oracle.h"
#include "perfmodel/perf_model.h"
#include "perfmodel/two_phase.h"
#include "search/telemetry.h"
#include "searchspace/dlrm_space.h"

using namespace h2o;

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("pretrain_samples", 16000,
                    "simulator-labeled pre-training samples (paper: 1M)");
    flags.defineInt("finetune_samples", 20, "hardware measurements");
    flags.defineInt("eval_samples", 400, "held-out evaluation samples");
    flags.defineInt("hidden", 128, "perf-model hidden width (paper: 512; smaller default for single-core runtime)");
    flags.defineInt("layers", 2, "perf-model hidden layers");
    flags.defineInt("epochs", 60, "pre-training epochs");
    flags.defineInt("seed", 7, "RNG seed");
    flags.defineBool("sim_cache", true,
                     "memoize Simulator::run behind sim::SimCache");
    flags.defineString("sim_cache_file", "",
                       "persist the SimCache across runs: load before "
                       "pretraining if the file exists, save after");
    common::defineThreadsFlag(flags);
    flags.parse(argc, argv);

    searchspace::DlrmSearchSpace space(arch::baselineDlrm());
    perfmodel::DlrmFeatureEncoder encoder(space);
    hw::Platform train_platform = hw::trainingPlatform();
    hw::Platform serve_platform = hw::servingPlatform();

    bool use_cache = flags.getBool("sim_cache");
    std::string cache_file = flags.getString("sim_cache_file");
    // --threads workers fill cache misses in parallel (the pretraining
    // cold path); results and NRMSE rows are bit-identical at any value.
    size_t fill_threads = flags.getSize("threads");
    bench::CachedDlrmTimer timer(train_platform, serve_platform, 1 << 16,
                                 fill_threads);
    if (use_cache && sim::warmSimCacheFromFile(timer.cache(), cache_file))
        std::cout << "SimCache warmed from " << cache_file << " ("
                  << timer.cacheStats().entries << " entries)\n";
    perfmodel::SimulateBatchFn simulate_batch =
        [&](std::span<const searchspace::Sample> samples) {
            std::vector<perfmodel::SimTimes> out(samples.size());
            if (use_cache) {
                auto train_t = timer.trainStepTimes(space, samples);
                auto serve_t = timer.serveStepTimes(space, samples);
                for (size_t i = 0; i < samples.size(); ++i)
                    out[i] = {train_t[i], serve_t[i]};
                return out;
            }
            for (size_t i = 0; i < samples.size(); ++i) {
                arch::DlrmArch a = space.decode(samples[i]);
                out[i] = {bench::dlrmTrainStepTime(a, train_platform),
                          bench::dlrmServeStepTime(a, serve_platform)};
            }
            return out;
        };
    perfmodel::HardwareOracle oracle(
        {}, static_cast<uint64_t>(flags.getInt("seed")) * 31 + 5);
    perfmodel::TwoPhaseTrainer trainer(space.decisions(), encoder,
                                       simulate_batch, oracle);

    common::Rng rng(static_cast<uint64_t>(flags.getInt("seed")));
    perfmodel::PerfModelConfig mcfg;
    mcfg.hiddenWidth = static_cast<size_t>(flags.getInt("hidden"));
    mcfg.hiddenLayers = static_cast<size_t>(flags.getInt("layers"));
    mcfg.epochs = static_cast<size_t>(flags.getInt("epochs"));
    perfmodel::PerfModel model(encoder.dim(), mcfg, rng);

    size_t n_pre = static_cast<size_t>(flags.getInt("pretrain_samples"));
    size_t n_ft = static_cast<size_t>(flags.getInt("finetune_samples"));
    size_t n_eval = static_cast<size_t>(flags.getInt("eval_samples"));

    using Clock = std::chrono::steady_clock;
    auto pretrain_start = Clock::now();
    auto pre = trainer.pretrain(model, n_pre, rng);
    double pretrain_sec =
        std::chrono::duration<double>(Clock::now() - pretrain_start)
            .count();

    // Paired evaluation: fork the eval RNG with a fixed salt so the
    // pre- and post-finetune NRMSE rows score the SAME candidate set
    // (an apples-to-apples comparison — and, with the SimCache on, the
    // second pass is served entirely from cache).
    common::Rng pre_eval_rng = rng.fork(0xe7a1);
    auto pre_on_oracle =
        trainer.evaluateAgainstOracle(model, n_eval, pre_eval_rng);
    trainer.finetune(model, n_ft, rng);
    common::Rng ft_eval_rng = rng.fork(0xe7a1);
    auto ft_on_oracle =
        trainer.evaluateAgainstOracle(model, n_eval, ft_eval_rng);

    common::AsciiTable t(
        "Table 1: Two-stage training of the MLP performance model (" +
        std::to_string(flags.getInt("layers")) + " layers x " +
        std::to_string(flags.getInt("hidden")) + " neurons)");
    t.setHeader({"row", "this repo", "paper"});
    t.addRow({"Search space size (log10)",
              common::AsciiTable::num(space.log10Size(), 0), "~282"});
    t.addRow({"Pre-training samples", std::to_string(n_pre), "1M"});
    t.addRow({"NRMSE on pre-training (simulated) samples",
              common::AsciiTable::pct(pre.train, 2), "0.31% ~ 0.47%"});
    t.addRow({"Fine-tuning samples", std::to_string(n_ft), "20"});
    t.addRow({"NRMSE of pretrained model on production measurements",
              common::AsciiTable::pct(pre_on_oracle.train, 2),
              "14.7% ~ 42.9%"});
    t.addRow({"NRMSE of finetuned model on production measurements",
              common::AsciiTable::pct(ft_on_oracle.train, 2),
              "1.05% ~ 3.08%"});
    t.addRow({"Serving head: pretrained NRMSE on measurements",
              common::AsciiTable::pct(pre_on_oracle.serve, 2), "--"});
    t.addRow({"Serving head: finetuned NRMSE on measurements",
              common::AsciiTable::pct(ft_on_oracle.serve, 2), "--"});
    t.print(std::cout);

    double gain = pre_on_oracle.train /
                  std::max(ft_on_oracle.train, 1e-9);
    std::cout << "Fine-tuning reduced training-head NRMSE by "
              << common::AsciiTable::times(gain, 1)
              << " (paper: ~10x)\n";

    std::cout << "Pretraining wall-clock: " << pretrain_sec << " s ("
              << n_pre << " simulated samples, sim_cache="
              << (use_cache ? "on" : "off") << ", fill threads="
              << fill_threads << ")\n";
    if (use_cache) {
        std::cout << "SimCache counters:\n";
        search::writeSimCacheStatsCsv(timer.cacheStats(), std::cout);
        if (!cache_file.empty()) {
            // Merge-save: entries another run persisted since our
            // warm-start survive alongside this run's work.
            sim::saveSimCacheFileMerged(timer.cache(), cache_file);
            std::cout << "SimCache persisted to " << cache_file << " ("
                      << timer.cacheStats().entries << " entries)\n";
        }
    }
    return 0;
}
