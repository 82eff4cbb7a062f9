/**
 * @file
 * Regenerates Figure 8 of the paper: training step time of the
 * H2O-NAS-designed DLRM-H, normalized to the original (baseline) DLRM,
 * where step time = MAX(embedding computing time, DNN computing time).
 *
 * The bench (1) measures the baseline's embedding/MLP imbalance, then
 * (2) runs the surrogate H2O-NAS search over the DLRM space with the
 * baseline's step time and model size as targets, and (3) reports the
 * found DLRM-H's step-time breakdown and quality delta.
 *
 * Expected shape (paper): baseline is MLP-dominated; the search shrinks
 * the total embedding size and grows MLP balance, improving end-to-end
 * step time by ~10% with a +0.02% quality gain and neutral serving
 * memory.
 */

#include <iostream>
#include <span>

#include "arch/dlrm_arch.h"
#include "baselines/quality_model.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "reward/reward.h"
#include "search/surrogate_search.h"
#include "search/telemetry.h"
#include "searchspace/dlrm_space.h"

using namespace h2o;

namespace {

/** Per-branch (embedding vs DNN) time breakdown for a DLRM graph. */
struct Breakdown
{
    double embeddingSec = 0.0;
    double dnnSec = 0.0;
    double stepSec = 0.0;
};

Breakdown
breakdown(const arch::DlrmArch &a, const hw::Platform &platform)
{
    sim::Graph g =
        arch::buildDlrmGraph(a, platform, arch::ExecMode::Training);
    sim::Simulator simulator({platform.chip, true, true, {}});
    std::vector<sim::OpTiming> per_op;
    auto res = simulator.run(g, &per_op);
    Breakdown b;
    b.stepSec = res.stepTimeSec;
    for (size_t i = 0; i < g.size(); ++i) {
        const auto &op = g.op(static_cast<sim::OpId>(i));
        double sec = per_op[i].seconds;
        if (op.kind == sim::OpKind::EmbeddingLookup ||
            op.kind == sim::OpKind::AllToAll)
            b.embeddingSec += sec;
        else if (op.kind == sim::OpKind::Matmul)
            b.dnnSec += sec;
    }
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 400, "search steps");
    flags.defineInt("shards", 8, "parallel candidates per step");
    flags.defineInt("seed", 5, "RNG seed");
    flags.defineString("sim_cache_file", "",
                       "persist the SimCache across runs: warm-start "
                       "from the file if it exists, merge-save after");
    common::defineThreadsFlag(flags);
    flags.parse(argc, argv);

    hw::Platform platform = hw::trainingPlatform();
    searchspace::DlrmSearchSpace space(arch::baselineDlrm());
    const arch::DlrmArch &base = space.baseline();
    Breakdown base_bd = breakdown(base, platform);
    double base_quality = baselines::dlrmQualitySurrogate(base);
    double base_size = base.modelBytes();

    // --- H2O-NAS search: step time primary, model size secondary.
    auto quality_fn = [&](const searchspace::Sample &s) {
        return 100.0 * baselines::dlrmQualitySurrogate(space.decode(s));
    };
    // Memoize step-time simulation: as the RL policy converges it
    // re-samples the same candidates, and those repeats hit the cache.
    // SimCache is thread-safe, so the sharded evaluators share it; the
    // cold path (early steps, before repeats accumulate) fills misses
    // on --threads workers with bit-identical results.
    bench::CachedDlrmTimer timer(
        platform, hw::servingPlatform(), 1 << 16,
        flags.getSize("threads"));
    std::string cache_file = flags.getString("sim_cache_file");
    if (sim::warmSimCacheFromFile(timer.cache(), cache_file))
        std::cout << "SimCache warmed from " << cache_file << " ("
                  << timer.cacheStats().entries << " entries)\n";
    // Batched performance stage: one SimCache lookupBatch + one
    // Simulator::runBatch over the step's surviving shard candidates.
    auto perf_fn = [&](std::span<const searchspace::Sample> ss) {
        auto step_times = timer.trainStepTimes(space, ss);
        std::vector<std::vector<double>> out;
        out.reserve(ss.size());
        for (size_t i = 0; i < ss.size(); ++i)
            out.push_back(
                {step_times[i], space.decode(ss[i]).modelBytes()});
        return out;
    };
    reward::ReluReward rwd({{"step_time", base_bd.stepSec, -2.0},
                            {"model_size", base_size, -2.0}});
    search::SurrogateSearchConfig cfg;
    cfg.numSteps = static_cast<size_t>(flags.getInt("steps"));
    cfg.samplesPerStep = static_cast<size_t>(flags.getInt("shards"));
    cfg.rl.learningRate = 0.08;
    cfg.rl.entropyWeight = 5e-3;
    cfg.exec.threads = flags.getSize("threads");
    search::SurrogateSearch search(space.decisions(), quality_fn, perf_fn,
                                   rwd, cfg);
    common::Rng rng(static_cast<uint64_t>(flags.getInt("seed")));
    auto outcome = search.run(rng);

    arch::DlrmArch found = space.decode(outcome.finalSample);
    found.name = "dlrm-h";
    Breakdown h_bd = breakdown(found, platform);
    double h_quality = baselines::dlrmQualitySurrogate(found);

    common::AsciiTable t("Figure 8: DLRM-H training step time, "
                         "normalized to baseline DLRM (TPUv4 x128)");
    t.setHeader({"model", "embedding time", "DNN time", "step time",
                 "quality delta", "serving memory"});
    t.addRow({"DLRM (baseline)", "1.00", "1.00", "1.00", "--", "1.00"});
    t.addRow({"DLRM-H",
              common::AsciiTable::num(
                  h_bd.embeddingSec / base_bd.embeddingSec, 2),
              common::AsciiTable::num(h_bd.dnnSec / base_bd.dnnSec, 2),
              common::AsciiTable::num(h_bd.stepSec / base_bd.stepSec, 2),
              common::AsciiTable::pct(h_quality - base_quality, 3),
              common::AsciiTable::num(found.modelBytes() / base_size, 2)});
    t.print(std::cout);

    common::AsciiTable detail("Embedding/DNN balance detail");
    detail.setHeader({"model", "emb ms", "dnn ms", "step ms",
                      "emb params", "dense params"});
    auto detail_row = [&](const char *name, const arch::DlrmArch &a,
                          const Breakdown &b) {
        detail.addRow({name, common::AsciiTable::num(b.embeddingSec * 1e3, 3),
                       common::AsciiTable::num(b.dnnSec * 1e3, 3),
                       common::AsciiTable::num(b.stepSec * 1e3, 3),
                       common::AsciiTable::num(a.embeddingParamCount() / 1e6,
                                               1) + "M",
                       common::AsciiTable::num(a.denseParamCount() / 1e6,
                                               2) + "M"});
    };
    detail_row("DLRM", base, base_bd);
    detail_row("DLRM-H", found, h_bd);
    detail.print(std::cout);

    std::cout << "speedup: "
              << common::AsciiTable::times(base_bd.stepSec / h_bd.stepSec,
                                           2)
              << " (paper: ~1.1x / 10%), quality delta "
              << common::AsciiTable::pct(h_quality - base_quality, 3)
              << " (paper: +0.02%)\n";
    std::cout << "SimCache counters:\n";
    search::writeSimCacheStatsCsv(timer.cacheStats(), std::cout);
    if (!cache_file.empty()) {
        sim::saveSimCacheFileMerged(timer.cache(), cache_file);
        std::cout << "SimCache persisted to " << cache_file << " ("
                  << timer.cacheStats().entries << " entries)\n";
    }
    return 0;
}
