/**
 * @file
 * perfmodel_build: the Table-1 two-phase perf-model build at the
 * bench_table1_perfmodel defaults except for the epoch count. Uniform
 * samples of the production DLRM space are simulated through the
 * benchmark's own SimulateBatchFn (a CachedDlrmTimer with one fill
 * thread per hardware thread), the 2x128 PerfModel is pre-trained,
 * fine-tuned on 20 oracle measurements and scored on held-out samples.
 * Every build starts from a cold cache.
 */

#include <cmath>
#include <limits>
#include <memory>

#include "arch/dlrm_arch.h"
#include "common/rng.h"
#include "eval/dlrm_timer.h"
#include "nn/tensor.h"
#include "perfmodel/features.h"
#include "perfmodel/hardware_oracle.h"
#include "perfmodel/perf_model.h"
#include "perfmodel/two_phase.h"
#include "searchspace/dlrm_space.h"
#include "trace.h"
#include "workloads.h"

using namespace h2o;

namespace h2obench {

namespace {

constexpr size_t kPretrainSamples = 16000;
constexpr size_t kFinetuneSamples = 20;
constexpr size_t kEvalSamples = 400;
constexpr size_t kHidden = 128;
constexpr size_t kLayers = 2;
// A third of bench_table1_perfmodel's 60, so a run repeats the build
// about three times and each phase's CPU can take its fastest repeat:
// one 60-epoch build measures the host's load over its whole length.
// The Table-1 rows stay inside the bands checkRows() holds them to.
constexpr size_t kEpochs = 20;
constexpr size_t kCacheCapacity = 1 << 16;

perfmodel::PerfModelConfig
modelConfig()
{
    perfmodel::PerfModelConfig cfg;
    cfg.hiddenWidth = kHidden;
    cfg.hiddenLayers = kLayers;
    cfg.epochs = kEpochs;
    return cfg;
}

/** One fresh build: space, cold-cache timer, trainer and model. */
struct BuildSystem
{
    BuildSystem(uint64_t seed, Tracer *tracer_)
        : space(arch::baselineDlrm()), encoder(space),
          timer(hw::trainingPlatform(), hw::servingPlatform(),
                kCacheCapacity, hardwareThreads()),
          tracer(tracer_),
          trainer(space.decisions(), encoder, simulateFn(),
                  perfmodel::HardwareOracle({}, seed * 31 + 5)),
          rng(seed), model(encoder.dim(), modelConfig(), rng)
    {
    }

    BuildSystem(const BuildSystem &) = delete;
    BuildSystem &operator=(const BuildSystem &) = delete;

    perfmodel::SimulateBatchFn simulateFn()
    {
        return [this](std::span<const searchspace::Sample> samples) {
            SpanScope fill(tracer, "sim.fill", parentSpan);
            lookups += 2 * samples.size();
            if (tracer)
                drawn.insert(drawn.end(), samples.begin(), samples.end());
            std::vector<double> train = timer.trainStepTimes(space, samples);
            std::vector<double> serve = timer.serveStepTimes(space, samples);
            std::vector<perfmodel::SimTimes> out(samples.size());
            for (size_t i = 0; i < samples.size(); ++i)
                out[i] = {train[i], serve[i]};
            return out;
        };
    }

    searchspace::DlrmSearchSpace space;
    perfmodel::DlrmFeatureEncoder encoder;
    eval::CachedDlrmTimer timer;
    Tracer *tracer;
    /** Span the next simulate call belongs to. */
    uint64_t parentSpan = 0;
    /** SimCache lookups issued (train + serve key per sample). */
    uint64_t lookups = 0;
    /** Candidates simulated (traced pass only, for the replay). */
    std::vector<searchspace::Sample> drawn;
    perfmodel::TwoPhaseTrainer trainer;
    common::Rng rng;
    perfmodel::PerfModel model;
};

/** Table-1 rows of one build. */
struct BuildRows
{
    perfmodel::EvalNrmse simHoldout;
    perfmodel::EvalNrmse pretrained;
    perfmodel::EvalNrmse finetuned;
};

/** One build phase: a span on the traced pass, and the process CPU
 *  seconds it used appended to `cpu`. */
class Phase
{
  public:
    Phase(BuildSystem &sys, Tracer *tracer, const char *name,
          std::vector<double> &cpu)
        : _span(tracer, name), _cpu(cpu), _c0(processCpuSeconds())
    {
        sys.parentSpan = _span.id();
    }
    ~Phase() { _cpu.push_back(processCpuSeconds() - _c0); }

  private:
    SpanScope _span;
    std::vector<double> &_cpu;
    double _c0;
};

/** One build; the CPU of each of its four phases goes to `phase_cpu`. */
BuildRows
build(BuildSystem &sys, Tracer *tracer, std::vector<double> &phase_cpu)
{
    BuildRows rows;
    {
        Phase p(sys, tracer, "perfmodel.pretrain", phase_cpu);
        rows.simHoldout =
            sys.trainer.pretrain(sys.model, kPretrainSamples, sys.rng);
    }
    // Paired evaluation, as bench_table1_perfmodel: the same forked
    // stream scores the pre- and post-fine-tune model on one set.
    {
        Phase p(sys, tracer, "perfmodel.evaluate", phase_cpu);
        common::Rng eval_rng = sys.rng.fork(0xe7a1);
        rows.pretrained = sys.trainer.evaluateAgainstOracle(
            sys.model, kEvalSamples, eval_rng);
    }
    {
        Phase p(sys, tracer, "perfmodel.finetune", phase_cpu);
        sys.trainer.finetune(sys.model, kFinetuneSamples, sys.rng);
    }
    {
        Phase p(sys, tracer, "perfmodel.evaluate", phase_cpu);
        common::Rng eval_rng = sys.rng.fork(0xe7a1);
        rows.finetuned = sys.trainer.evaluateAgainstOracle(
            sys.model, kEvalSamples, eval_rng);
    }
    return rows;
}

/** Table-1 row checks. The bands bracket the EXPERIMENTS.md defaults
 *  (sim hold-out ~3%, pre-trained on measurements 11-35%, fine-tuned
 *  ~6%) widely enough for any seed, and narrowly enough to catch a
 *  model that did not learn. */
void
checkRows(const BuildRows &rows, std::vector<std::string> &failures)
{
    auto finite = [&](const char *row, const perfmodel::EvalNrmse &e) {
        if (!std::isfinite(e.train) || !std::isfinite(e.serve))
            failures.push_back(std::string("NRMSE row '") + row +
                               "' is not finite");
    };
    finite("sim hold-out", rows.simHoldout);
    finite("pre-trained on measurements", rows.pretrained);
    finite("fine-tuned on measurements", rows.finetuned);
    auto band = [&](const char *row, double v, double lo, double hi) {
        if (!(v >= lo && v <= hi))
            failures.push_back(std::string(row) + " NRMSE " +
                               std::to_string(v) + " outside [" +
                               std::to_string(lo) + ", " +
                               std::to_string(hi) + "]");
    };
    band("sim hold-out (train head)", rows.simHoldout.train, 0.005, 0.10);
    band("pre-trained on measurements (train head)",
         rows.pretrained.train, 0.05, 0.80);
    band("fine-tuned on measurements (train head)", rows.finetuned.train,
         0.01, 0.15);
    if (!(rows.finetuned.train < rows.pretrained.train))
        failures.push_back("fine-tuning did not lower the train-head "
                           "production NRMSE");
    if (!(rows.finetuned.serve < rows.pretrained.serve))
        failures.push_back("fine-tuning did not lower the serve-head "
                           "production NRMSE");
}

uint64_t
digestRows(const BuildRows &rows)
{
    Digest d;
    for (const perfmodel::EvalNrmse *e :
         {&rows.simHoldout, &rows.pretrained, &rows.finetuned}) {
        d.f64(e->train);
        d.f64(e->serve);
    }
    return d.h;
}

} // namespace

PassResult
runPerfmodelBuild(const Options &opts, Tracer *tracer)
{
    PassResult out;
    const uint64_t seed = mixSeed(opts.seed, 5) % 1000000007ULL;
    // Set-up is timed on throwaway systems built and torn down back to
    // back, so every sample sees the same conditions.
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double c0 = processCpuSeconds();
        {
            BuildSystem sys(seed, tracer);
        }
        out.setupSec.push_back(processCpuSeconds() - c0);
    }

    std::vector<double> build_sec;
    // Fastest repeat of each phase's CPU over the pass's builds.
    std::vector<double> best_phase;
    std::vector<BuildRows> all_rows;
    std::unique_ptr<BuildSystem> sys;
    size_t allocs = 0;
    Clock::time_point pass_start = Clock::now();
    // Start a build only while it should end inside the run's time,
    // judged by the previous build.
    while (build_sec.empty() ||
           secondsBetween(pass_start, Clock::now()) + build_sec.back() <=
               opts.seconds) {
        sys.reset();
        sys = std::make_unique<BuildSystem>(seed, tracer);
        Clock::time_point b0 = Clock::now();
        size_t allocs0 = nn::tensorAllocCount();
        std::vector<double> phase_cpu;
        BuildRows rows = build(*sys, tracer, phase_cpu);
        build_sec.push_back(secondsBetween(b0, Clock::now()));
        best_phase.resize(phase_cpu.size(),
                          std::numeric_limits<double>::infinity());
        for (size_t k = 0; k < phase_cpu.size(); ++k)
            best_phase[k] = std::min(best_phase[k], phase_cpu[k]);
        allocs = nn::tensorAllocCount() - allocs0;
        all_rows.push_back(rows);

        sim::SimCacheStats cs = sys->timer.cacheStats();
        if (cs.hits + cs.misses != sys->lookups)
            out.checkFailures.push_back(
                "sim cache: hits + misses = " +
                std::to_string(cs.hits + cs.misses) +
                ", lookups issued = " + std::to_string(sys->lookups));
        if (cs.entries > kCacheCapacity)
            out.checkFailures.push_back("sim cache exceeds capacity");
        uint64_t h = digestRows(rows);
        auto [it, fresh] = out.deterministic.emplace("build", h);
        if (!fresh && it->second != h)
            out.checkFailures.push_back("builds of one seed differ");
    }
    out.peakRssMb = peakRssMb();

    BuildRows rows = all_rows.front();
    if (opts.perturb == "nrmse")
        std::swap(rows.pretrained, rows.finetuned); // self-test
    checkRows(rows, out.checkFailures);

    // One SGD step per full minibatch of the 90% training split.
    const size_t train_n =
        kPretrainSamples - std::max<size_t>(kPretrainSamples / 10, 10);
    const size_t batch = modelConfig().batchSize;
    const double sgd_steps = double(kEpochs * (train_n / batch));
    const double build_s = median(build_sec);
    out.attempted = build_sec.size();
    out.cpuSecPerJob = 0.0;
    for (double c : best_phase)
        out.cpuSecPerJob += c;
    out.cpuSecPerStep = out.cpuSecPerJob / sgd_steps;
    out.jobsPerSec = 1.0 / build_s;
    out.stepsPerSec = sgd_steps / build_s;
    setLatency(out, build_sec);
    out.extra["perfmodel_build_s"] = build_s;
    out.extra["finetuned_nrmse"] = rows.finetuned.train;
    out.extra["finetuned_nrmse_serve"] = rows.finetuned.serve;
    out.extra["pretrained_nrmse"] = rows.pretrained.train;
    out.extra["pretrained_nrmse_serve"] = rows.pretrained.serve;
    out.extra["sim_holdout_nrmse"] = rows.simHoldout.train;

    if (tracer) {
        auto &L = out.layers;
        const double builds = double(build_sec.size());
        L["perfmodel.pretrain_s"] =
            median(tracer->durations("perfmodel.pretrain"));
        const double train_s =
            median(tracer->selfTimes("perfmodel.pretrain"));
        L["perfmodel.train_s"] = train_s;
        L["perfmodel.train_samples_per_s"] =
            double(kEpochs * (train_n / batch) * batch) / train_s;
        L["perfmodel.finetune_ms"] =
            median(tracer->durations("perfmodel.finetune")) * 1e3;
        L["perfmodel.evaluate_ms"] =
            median(tracer->durations("perfmodel.evaluate")) * 1e3;
        double fill = 0.0;
        for (double d : tracer->durations("sim.fill"))
            fill += d;
        L["sim.fill_s"] = fill / builds;

        // Computed, not counted: forward 2 FLOPs per weight per row,
        // backward twice the forward, over the MLP's dense layers.
        const double d = double(sys->encoder.dim()), h = double(kHidden);
        const double fwd = 2.0 * (d * h + (kLayers - 1) * h * h + h * 2);
        L["nn.train_gflops"] =
            3.0 * fwd * double(batch) * sgd_steps / train_s / 1e9;
        L["nn.tensor_allocs"] = static_cast<double>(allocs);

        sim::SimCacheStats cs = sys->timer.cacheStats();
        L["sim.cache.lookups"] = static_cast<double>(sys->lookups);
        L["sim.cache.hits"] = static_cast<double>(cs.hits);
        L["sim.cache.misses"] = static_cast<double>(cs.misses);
        L["sim.cache.evictions"] = static_cast<double>(cs.evictions);
        L["sim.cache.hit_rate"] = cs.hitRate();
        replayLoweringAndSim(sys->drawn, L);
    }
    return out;
}

} // namespace h2obench
