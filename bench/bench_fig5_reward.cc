/**
 * @file
 * Regenerates Figure 5 of the paper: the new single-sided ReLU reward
 * function vs the TuNAS absolute-value reward in NAS for production
 * DLRMs, with training step time as the primary objective and model
 * size as the secondary objective.
 *
 *  - Fig 5a: Pareto fronts of quality vs training step time;
 *  - Fig 5b: average step time per quality bucket (lower is better) —
 *    the paper reports ReLU up to ~13% better;
 *  - Fig 5c: average quality per step-time bucket (higher is better) —
 *    the paper reports ReLU up to ~0.4% better;
 *  - plus the serving-memory comparison (ReLU models average ~1.6%
 *    smaller in the paper).
 *
 * Following the paper's footnote 3: the step-time target sweeps 0.75x
 * to 1.5x of the baseline DLRM's step time, while the model-size target
 * stays at the baseline size.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>

#include "arch/dlrm_arch.h"
#include "baselines/quality_model.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "reward/reward.h"
#include "search/pareto.h"
#include "search/surrogate_search.h"
#include "searchspace/dlrm_space.h"

using namespace h2o;

namespace {

/** Hash a sample into a noise seed so repeated candidates share it. */
uint64_t
sampleSeed(const searchspace::Sample &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (size_t v : s)
        h = (h ^ v) * 1099511628211ULL;
    return h | 1;
}

struct Population
{
    std::vector<double> quality;
    std::vector<double> stepTime;
    std::vector<double> modelBytes;
};

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 120, "search steps per target");
    flags.defineInt("shards", 8, "parallel candidates per step");
    flags.defineInt("seed", 17, "base RNG seed");
    common::defineThreadsFlag(flags);
    flags.parse(argc, argv);

    searchspace::DlrmSearchSpace space(arch::baselineDlrm());
    hw::Platform platform = hw::trainingPlatform();

    double base_time =
        bench::dlrmTrainStepTime(space.baseline(), platform);
    double base_size = space.baseline().modelBytes();
    common::inform("baseline DLRM: step ", base_time * 1e3, " ms, size ",
                   base_size / 1e9, " GB");

    auto quality_fn = [&](const searchspace::Sample &s) {
        return 100.0 *
               baselines::dlrmQualitySurrogate(space.decode(s),
                                               sampleSeed(s));
    };
    auto perf_fn = [&](const searchspace::Sample &s) {
        arch::DlrmArch a = space.decode(s);
        return std::vector<double>{bench::dlrmTrainStepTime(a, platform),
                                   a.modelBytes()};
    };

    auto run_population = [&](const std::string &kind) {
        Population pop;
        const double targets[] = {0.75, 1.0, 1.25, 1.5};
        for (size_t ti = 0; ti < 4; ++ti) {
            auto reward = reward::makeReward(
                kind, {{"step_time", targets[ti] * base_time, -4.0},
                       {"model_size", base_size, -4.0}});
            search::SurrogateSearchConfig cfg;
            cfg.numSteps = static_cast<size_t>(flags.getInt("steps"));
            cfg.samplesPerStep =
                static_cast<size_t>(flags.getInt("shards"));
            cfg.rl.learningRate = 0.1;
            cfg.exec.threads = flags.getSize("threads");
            search::SurrogateSearch s(space.decisions(), quality_fn,
                                      perf_fn, *reward, cfg);
            common::Rng rng(
                static_cast<uint64_t>(flags.getInt("seed")) + ti * 1000 +
                (kind == "relu" ? 0 : 7));
            auto outcome = s.run(rng);
            // Keep the second half of each search (post-exploration).
            size_t half = outcome.history.size() / 2;
            for (size_t i = half; i < outcome.history.size(); ++i) {
                const auto &c = outcome.history[i];
                pop.quality.push_back(c.quality);
                pop.stepTime.push_back(c.performance[0]);
                pop.modelBytes.push_back(c.performance[1]);
            }
        }
        return pop;
    };

    Population relu = run_population("relu");
    Population abs = run_population("absolute");

    // ---- Fig 5a: Pareto fronts.
    auto print_front = [&](const char *name, const Population &pop) {
        std::vector<search::ParetoPoint> pts;
        for (size_t i = 0; i < pop.quality.size(); ++i)
            pts.push_back({pop.quality[i], pop.stepTime[i]});
        auto front = search::paretoFront(pts);
        common::AsciiTable t(std::string("Figure 5a: Pareto front (") +
                             name + " reward)");
        t.setHeader({"step_time (ms)", "rel. step time", "quality"});
        for (size_t idx : front) {
            t.addRow({common::AsciiTable::num(pts[idx].cost * 1e3, 3),
                      common::AsciiTable::times(pts[idx].cost / base_time,
                                                3),
                      common::AsciiTable::num(pts[idx].quality, 3)});
        }
        t.print(std::cout);
        search::ParetoPoint ref{-40.0, 2.0 * base_time};
        std::cout << name << " front hypervolume: "
                  << search::hypervolume(pts, ref) << "\n\n";
    };
    print_front("ReLU", relu);
    print_front("Absolute", abs);

    // Shared-edge bucketizer: both populations are bucketized against
    // the SAME bucket boundaries (computed over the pooled data), so
    // per-bucket means are directly comparable.
    auto shared_buckets = [](const std::vector<double> &xa,
                             const std::vector<double> &ya,
                             const std::vector<double> &xb,
                             const std::vector<double> &yb,
                             size_t num_buckets) {
        double lo = 1e300, hi = -1e300;
        for (double x : xa) {
            lo = std::min(lo, x);
            hi = std::max(hi, x);
        }
        for (double x : xb) {
            lo = std::min(lo, x);
            hi = std::max(hi, x);
        }
        struct Row
        {
            double lo, hi, meanA, meanB;
            size_t countA, countB;
        };
        std::vector<Row> rows;
        double width = (hi - lo) / static_cast<double>(num_buckets);
        if (width <= 0.0)
            return rows;
        std::vector<double> sa(num_buckets, 0.0), sb(num_buckets, 0.0);
        std::vector<size_t> ca(num_buckets, 0), cb(num_buckets, 0);
        auto scatter = [&](const std::vector<double> &xs,
                           const std::vector<double> &ys,
                           std::vector<double> &sum,
                           std::vector<size_t> &cnt) {
            for (size_t i = 0; i < xs.size(); ++i) {
                size_t b = std::min(
                    static_cast<size_t>((xs[i] - lo) / width),
                    num_buckets - 1);
                sum[b] += ys[i];
                cnt[b] += 1;
            }
        };
        scatter(xa, ya, sa, ca);
        scatter(xb, yb, sb, cb);
        for (size_t b = 0; b < num_buckets; ++b) {
            if (ca[b] < 3 || cb[b] < 3)
                continue; // too sparse to compare
            rows.push_back({lo + width * b, lo + width * (b + 1),
                            sa[b] / ca[b], sb[b] / cb[b], ca[b], cb[b]});
        }
        return rows;
    };

    // ---- Fig 5b: step time per quality bucket.
    {
        auto rows = shared_buckets(relu.quality, relu.stepTime,
                                   abs.quality, abs.stepTime, 8);
        common::AsciiTable t("Figure 5b: mean step time per quality "
                             "bucket (lower is better)");
        t.setHeader({"quality bucket", "ReLU (ms)", "Absolute (ms)",
                     "ReLU advantage"});
        for (const auto &r : rows) {
            t.addRow({common::AsciiTable::num(r.lo, 2) + ".." +
                          common::AsciiTable::num(r.hi, 2),
                      common::AsciiTable::num(r.meanA * 1e3, 3),
                      common::AsciiTable::num(r.meanB * 1e3, 3),
                      common::AsciiTable::pct(1.0 - r.meanA / r.meanB, 1)});
        }
        t.print(std::cout);
    }

    // ---- Fig 5c: quality per step-time bucket.
    {
        auto rows = shared_buckets(relu.stepTime, relu.quality,
                                   abs.stepTime, abs.quality, 8);
        common::AsciiTable t("Figure 5c: mean quality per step-time "
                             "bucket (higher is better)");
        t.setHeader({"step-time bucket (ms)", "ReLU", "Absolute",
                     "ReLU advantage"});
        for (const auto &r : rows) {
            t.addRow({common::AsciiTable::num(r.lo * 1e3, 2) + ".." +
                          common::AsciiTable::num(r.hi * 1e3, 2),
                      common::AsciiTable::num(r.meanA, 3),
                      common::AsciiTable::num(r.meanB, 3),
                      common::AsciiTable::num(r.meanA - r.meanB, 3)});
        }
        t.print(std::cout);
    }

    // ---- Serving-memory comparison.
    {
        double relu_size = common::mean(relu.modelBytes);
        double abs_size = common::mean(abs.modelBytes);
        common::AsciiTable t("Serving model memory (paper: ReLU models "
                             "average ~1.6% smaller)");
        t.setHeader({"reward", "mean model size (GB)", "vs absolute"});
        t.addRow({"ReLU", common::AsciiTable::num(relu_size / 1e9, 3),
                  common::AsciiTable::pct(relu_size / abs_size - 1.0, 2)});
        t.addRow({"Absolute", common::AsciiTable::num(abs_size / 1e9, 3),
                  "--"});
        t.print(std::cout);
    }
    return 0;
}
