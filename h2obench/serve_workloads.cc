/**
 * @file
 * The three serve workloads. Each drives a serve::Server through its
 * public API only: submit() at each job's due time, runRound() until the
 * jobs it owns are Done, and the result/telemetry/cache accessors for
 * the output checks. The traced pass additionally installs a
 * ServeConfig::factory that wraps serve::makeDefaultJob, so admission
 * and every StepwiseSearch::step() are timed from outside the program.
 */

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "serve/scheduler.h"
#include "trace.h"
#include "workloads.h"

using namespace h2o;

namespace h2obench {

namespace {

// ---------------------------------------------------------------------
// Metered job factory.

/** Cost in seconds of one run of a job: its admission and each of its
 *  steps (thread CPU, or wall time on a pinned pass; see MeterContext).
 */
struct JobCpu
{
    double admit = 0.0;
    std::vector<double> steps;
};

/** State shared by the metered factory, its steppers and the driver. */
struct MeterContext
{
    /** Span recorder; null on the untraced pass. */
    Tracer *tracer = nullptr;
    /** Meter wall time instead of thread CPU: set when the process is
     *  pinned to one CPU, where a job's wall time is the CPU of every
     *  process taking part in it (its forked shard workers too). */
    bool wallClock = false;
    /** Span id of the round in progress (parent of admits and steps). */
    std::atomic<uint64_t> round{0};
    /** Added to server job ids so jobs of successive servers in one
     *  pass keep distinct trace ids. Coordinator thread only. */
    uint64_t jobBase = 0;
    /** Due time per server job id (traced pass). Coordinator thread
     *  only. */
    std::unordered_map<uint64_t, Clock::time_point> due;
    std::mutex mu;
    /** Every finished run of every job, by job name. */
    std::map<std::string, std::vector<JobCpu>> cpu;
    /** Transport counters read before finish(), per trace job id
     *  (traced pass). */
    std::unordered_map<uint64_t, exec::ProcPoolStats> transport;
};

const char *
stepSpanName(serve::JobKind kind)
{
    switch (kind) {
    case serve::JobKind::DlrmSurrogate: return "search.step.surrogate";
    case serve::JobKind::DlrmSupernet: return "search.step.supernet";
    case serve::JobKind::DlrmTunas: return "search.step.tunas";
    }
    return "search.step";
}

/** Forwards to a job's stepper and meters each step(): its cost, kept
 *  with the job's other runs once the last step is done, and on the
 *  traced pass a span. */
class MeteredStepper final : public search::StepwiseSearch
{
  public:
    MeteredStepper(search::StepwiseSearch &inner, MeterContext &ctx,
                   const serve::JobSpec &spec, uint64_t job,
                   double admit_cpu)
        : _inner(inner), _ctx(ctx), _jobName(spec.name), _job(job),
          _spanName(stepSpanName(spec.kind))
    {
        _cpu.admit = admit_cpu;
    }

    bool step() override
    {
        uint64_t round = _ctx.round.load(std::memory_order_acquire);
        Clock::time_point t0 = Clock::now();
        const double c0 = threadCpuSeconds();
        bool more = _inner.step();
        const double c1 = threadCpuSeconds();
        Clock::time_point t1 = Clock::now();
        _cpu.steps.push_back(_ctx.wallClock ? secondsBetween(t0, t1)
                                            : c1 - c0);
        if (_ctx.tracer)
            _ctx.tracer->record(_spanName, t0, t1, round, _job);
        if (_inner.done()) {
            std::lock_guard<std::mutex> lock(_ctx.mu);
            _ctx.cpu[_jobName].push_back(std::move(_cpu));
            if (_ctx.tracer)
                _ctx.transport[_job] = _inner.transportStats();
        }
        return more;
    }
    size_t stepIndex() const override { return _inner.stepIndex(); }
    size_t totalSteps() const override { return _inner.totalSteps(); }
    double lastMeanReward() const override
    {
        return _inner.lastMeanReward();
    }
    const search::SearchOutcome &partialOutcome() const override
    {
        return _inner.partialOutcome();
    }
    search::SearchOutcome finish() override { return _inner.finish(); }
    exec::ProcPoolStats transportStats() const override
    {
        return _inner.transportStats();
    }
    void save(std::ostream &os) const override { _inner.save(os); }
    void load(std::istream &is) override { _inner.load(is); }

  private:
    search::StepwiseSearch &_inner;
    MeterContext &_ctx;
    std::string _jobName;
    uint64_t _job;
    const char *_spanName;
    JobCpu _cpu;
};

class MeteredJob final : public serve::SearchJob
{
  public:
    MeteredJob(std::unique_ptr<serve::SearchJob> inner, MeterContext &ctx,
               const serve::JobSpec &spec, uint64_t job, double admit_cpu)
        : _inner(std::move(inner)),
          _stepper(_inner->stepper(), ctx, spec, job, admit_cpu)
    {
    }

    search::StepwiseSearch &stepper() override { return _stepper; }

  private:
    std::unique_ptr<serve::SearchJob> _inner;
    MeteredStepper _stepper;
};

/** serve::makeDefaultJob, metered like the job's steps. */
serve::JobFactoryFn
meteredFactory(MeterContext &ctx)
{
    return [&ctx](const serve::JobSpec &spec, sim::SimCache &cache)
               -> std::unique_ptr<serve::SearchJob> {
        const uint64_t job = ctx.jobBase + spec.id;
        const uint64_t round = ctx.round.load(std::memory_order_acquire);
        Clock::time_point t0 = Clock::now();
        if (ctx.tracer) {
            auto due = ctx.due.find(spec.id);
            if (due != ctx.due.end())
                ctx.tracer->record("serve.queue_wait", due->second, t0, 0,
                                   job);
        }
        const double c0 = threadCpuSeconds();
        std::unique_ptr<serve::SearchJob> inner;
        {
            SpanScope admit(ctx.tracer, "serve.admit", round, job);
            inner = serve::makeDefaultJob(spec, cache);
        }
        const double cost = ctx.wallClock
                                ? secondsBetween(t0, Clock::now())
                                : threadCpuSeconds() - c0;
        return std::make_unique<MeteredJob>(std::move(inner), ctx, spec, job,
                                            cost);
    };
}

/** Pins the calling thread, and so every thread and process it starts,
 *  to the CPU it runs on; restores the previous affinity on
 *  destruction. */
class PinToOneCpu
{
  public:
    PinToOneCpu()
    {
        _pinned = sched_getaffinity(0, sizeof _saved, &_saved) == 0;
        const int cpu = sched_getcpu();
        if (!_pinned || cpu < 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        _pinned = sched_setaffinity(0, sizeof one, &one) == 0;
    }
    ~PinToOneCpu()
    {
        if (_pinned)
            sched_setaffinity(0, sizeof _saved, &_saved);
    }
    PinToOneCpu(const PinToOneCpu &) = delete;
    PinToOneCpu &operator=(const PinToOneCpu &) = delete;

    bool pinned() const { return _pinned; }

  private:
    cpu_set_t _saved;
    bool _pinned = false;
};

// ---------------------------------------------------------------------
// Driving one server.

/** What one server did with the jobs handed to drive(). */
struct Drive
{
    std::vector<uint64_t> ids;     ///< server job id per spec index
    std::vector<double> latency;   ///< due -> Done, NaN when not Done
    std::vector<double> lagSec;    ///< due -> submit()
    std::vector<double> roundSec;  ///< runRound() durations
    Clock::time_point lastDone;
    size_t done = 0;
    size_t failed = 0;
    size_t steps = 0;
};

/**
 * Submit each spec at its due time and run rounds until every one of
 * them has left the server. Jobs are admitted FIFO, so the first
 * (submitted - queue depth) specs are the ones admitted so far; only
 * those are polled for completion after each round.
 */
Drive
drive(serve::Server &server, const std::vector<serve::JobSpec> &specs,
      const std::vector<Clock::time_point> &due, MeterContext &ctx)
{
    const size_t n = specs.size();
    Drive out;
    out.ids.assign(n, 0);
    out.latency.assign(n, std::numeric_limits<double>::quiet_NaN());
    std::vector<size_t> running;
    size_t next = 0, admitted = 0, finished = 0;
    while (finished < n) {
        while (next < n && due[next] <= Clock::now()) {
            out.ids[next] = server.submit(specs[next]);
            out.lagSec.push_back(secondsBetween(due[next], Clock::now()));
            if (ctx.tracer)
                ctx.due[out.ids[next]] = due[next];
            ++next;
        }
        if (admitted == next && running.empty()) {
            std::this_thread::sleep_until(due[next]);
            continue;
        }
        uint64_t round_id = 0;
        if (ctx.tracer) {
            round_id = ctx.tracer->newId();
            ctx.round.store(round_id, std::memory_order_release);
        }
        Clock::time_point r0 = Clock::now();
        server.runRound();
        Clock::time_point r1 = Clock::now();
        out.roundSec.push_back(secondsBetween(r0, r1));
        if (ctx.tracer)
            ctx.tracer->record("serve.round", r0, r1, 0, 0, round_id);

        const size_t now_admitted = next - server.queue().depth();
        for (; admitted < now_admitted; ++admitted)
            running.push_back(admitted);
        for (size_t k = 0; k < running.size();) {
            const size_t i = running[k];
            serve::JobState state = server.queue().state(out.ids[i]);
            if (state == serve::JobState::Queued ||
                state == serve::JobState::Running) {
                ++k;
                continue;
            }
            if (state == serve::JobState::Done) {
                out.latency[i] = secondsBetween(due[i], r1);
                out.steps += server.result(out.ids[i])->stepsRun;
                ++out.done;
            } else {
                ++out.failed;
            }
            out.lastDone = r1;
            ++finished;
            running[k] = running.back();
            running.pop_back();
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Output checks.

void
digestSample(Digest &d, const searchspace::Sample &s)
{
    d.u64(s.size());
    for (size_t v : s)
        d.u64(v);
}

/** Digest of a job's deterministic outputs: the result and the
 *  deterministic telemetry fields. */
uint64_t
digestJob(const serve::JobResult &r,
          const std::vector<serve::TelemetryRow> &rows)
{
    Digest d;
    d.f64(r.bestReward);
    d.u64(r.stepsRun);
    for (size_t i : r.paretoIndices)
        d.u64(i);
    d.f64(r.outcome.finalMeanReward);
    d.f64(r.outcome.finalEntropy);
    digestSample(d, r.outcome.finalSample);
    for (const auto &rec : r.outcome.history) {
        digestSample(d, rec.sample);
        d.f64(rec.quality);
        for (double p : rec.performance)
            d.f64(p);
        d.f64(rec.reward);
        d.u64(rec.step);
    }
    for (const auto &row : rows) {
        d.u64(row.step);
        d.f64(row.meanReward);
        d.f64(row.bestReward);
    }
    return d.h;
}

/** First difference between a served job and its reference run, or
 *  empty when they are bitwise equal. */
std::string
compareJob(const serve::JobResult &got,
           const std::vector<serve::TelemetryRow> &got_rows,
           const serve::StandaloneRun &ref)
{
    const serve::JobResult &want = ref.result;
    if (!sameBits(got.bestReward, want.bestReward))
        return "bestReward";
    if (got.stepsRun != want.stepsRun)
        return "stepsRun";
    if (got.paretoIndices != want.paretoIndices)
        return "paretoIndices";
    if (!sameBits(got.outcome.finalMeanReward, want.outcome.finalMeanReward))
        return "finalMeanReward";
    if (!sameBits(got.outcome.finalEntropy, want.outcome.finalEntropy))
        return "finalEntropy";
    if (got.outcome.finalSample != want.outcome.finalSample)
        return "finalSample";
    if (got.outcome.history.size() != want.outcome.history.size())
        return "history length";
    for (size_t i = 0; i < got.outcome.history.size(); ++i) {
        const auto &a = got.outcome.history[i];
        const auto &b = want.outcome.history[i];
        bool same = a.sample == b.sample && sameBits(a.quality, b.quality) &&
                    sameBits(a.reward, b.reward) && a.step == b.step &&
                    a.performance.size() == b.performance.size();
        for (size_t p = 0; same && p < a.performance.size(); ++p)
            same = sameBits(a.performance[p], b.performance[p]);
        if (!same)
            return "history record " + std::to_string(i);
    }
    if (got_rows.size() != ref.rows.size())
        return "telemetry row count";
    for (size_t i = 0; i < got_rows.size(); ++i) {
        const auto &a = got_rows[i];
        const auto &b = ref.rows[i];
        if (a.jobId != b.jobId || a.step != b.step ||
            !sameBits(a.meanReward, b.meanReward) ||
            !sameBits(a.bestReward, b.bestReward))
            return "telemetry row " + std::to_string(i);
    }
    return {};
}

/**
 * SimCache lookups one job issues, counted from its spec: one for the
 * baseline step time when the job is built, then one per candidate the
 * performance stage scores on every step (samplesPerStep candidates; one
 * for TuNAS, which samples a single candidate per step).
 */
uint64_t
expectedLookups(const serve::JobSpec &spec)
{
    const uint64_t per_step =
        spec.kind == serve::JobKind::DlrmTunas ? 1 : spec.samplesPerStep;
    return 1 + spec.numSteps * per_step;
}

/** A served job kept for the after-run reference comparison. */
struct Probe
{
    serve::JobSpec spec;
    serve::JobResult result;
    std::vector<serve::TelemetryRow> rows;
};

/** Seeded choice of `count` distinct indices below `n`. */
std::vector<size_t>
probeIndices(size_t n, size_t count, uint64_t seed)
{
    common::Rng rng(mixSeed(seed, 0x9b0e));
    std::vector<size_t> perm = rng.permutation(n);
    perm.resize(std::min(count, n));
    std::sort(perm.begin(), perm.end());
    return perm;
}

/** Server-wide counters summed over every server of a pass. */
struct ServeTotals
{
    uint64_t lookups = 0; ///< counted from the specs (expectedLookups)
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t jobsDone = 0;
    size_t jobsFailed = 0;
    std::vector<double> lagSec;
    std::vector<double> qualities; ///< JobResult::bestReward per Done job
};

/** Record one finished server: cache invariants, queue snapshot and the
 *  deterministic digests (compared across repeats of one batch). */
void
absorbServer(serve::Server &server, const serve::ServeConfig &config,
             const std::vector<serve::JobSpec> &specs, const Drive &d,
             ServeTotals &totals, PassResult &out)
{
    sim::SimCacheStats cs = server.cache().stats();
    uint64_t lookups = 0;
    for (size_t i = 0; i < specs.size(); ++i)
        if (server.result(d.ids[i]))
            lookups += expectedLookups(specs[i]);
    if (cs.hits + cs.misses != lookups)
        out.checkFailures.push_back(
            "sim cache: hits + misses = " +
            std::to_string(cs.hits + cs.misses) + ", lookups issued = " +
            std::to_string(lookups));
    if (cs.entries > config.cacheCapacity)
        out.checkFailures.push_back("sim cache: " +
                                    std::to_string(cs.entries) +
                                    " entries exceed capacity " +
                                    std::to_string(config.cacheCapacity));
    totals.lookups += lookups;
    totals.hits += cs.hits;
    totals.misses += cs.misses;
    totals.evictions += cs.evictions;
    for (const auto &info : server.queue().snapshot()) {
        if (info.state == serve::JobState::Done)
            ++totals.jobsDone;
        else
            ++totals.jobsFailed;
    }
    totals.lagSec.insert(totals.lagSec.end(), d.lagSec.begin(),
                         d.lagSec.end());

    for (size_t i = 0; i < specs.size(); ++i) {
        const serve::JobResult *r = server.result(d.ids[i]);
        if (!r) {
            out.checkFailures.push_back(
                "job " + specs[i].name + " ended " +
                serve::jobStateName(server.queue().state(d.ids[i])) +
                ": " + server.queue().info(d.ids[i]).error);
            continue;
        }
        totals.qualities.push_back(r->bestReward);
        uint64_t h = digestJob(*r, server.telemetry().rowsForJob(d.ids[i]));
        auto [it, fresh] = out.deterministic.emplace(specs[i].name, h);
        if (!fresh && it->second != h)
            out.checkFailures.push_back("job " + specs[i].name +
                                        " differs between repeats");
    }
}

/** Compare each probe with serve::runStandalone of the same spec run
 *  in-process (procs=0), the reference for every transport. */
void
checkProbes(std::vector<Probe> &probes, const serve::ServeConfig &config,
            const Options &opts, PassResult &out)
{
    if (opts.perturb == "served" && !probes.empty()) {
        // Self-test: a one-ulp change to one served output must fail.
        double &r = probes.front().result.bestReward;
        r = std::nextafter(r, std::numeric_limits<double>::infinity());
    }
    for (Probe &p : probes) {
        serve::JobSpec ref_spec = p.spec;
        ref_spec.procs = 0;
        serve::StandaloneRun ref =
            serve::runStandalone(ref_spec, config.cacheCapacity);
        std::string diff = compareJob(p.result, p.rows, ref);
        if (!diff.empty())
            out.checkFailures.push_back(
                "job " + p.spec.name + " (procs=" +
                std::to_string(p.spec.procs) +
                ") differs from runStandalone (procs=0) at " + diff);
    }
    out.extra["probes_compared"] = static_cast<double>(probes.size());
}

void
keepProbe(serve::Server &server, const serve::JobSpec &spec, uint64_t id,
          std::vector<Probe> &probes)
{
    const serve::JobResult *r = server.result(id);
    if (!r)
        return; // reported by absorbServer
    serve::JobSpec submitted = spec;
    submitted.id = id;
    probes.push_back({submitted, *r, server.telemetry().rowsForJob(id)});
}

/** End-to-end figures shared by every serve workload. */
void
finishServe(const ServeTotals &totals, PassResult &out)
{
    double sum = 0.0;
    for (double q : totals.qualities)
        sum += q;
    out.extra["best_reward_mean"] =
        totals.qualities.empty() ? 0.0 : sum / double(totals.qualities.size());
    out.extra["sim_cache_hit_rate"] =
        totals.hits + totals.misses
            ? double(totals.hits) / double(totals.hits + totals.misses)
            : 0.0;
}

// ---------------------------------------------------------------------
// Per-layer figures from the trace.

void
putPercentiles(std::map<std::string, double> &layers,
               const std::string &name, const std::vector<double> &values,
               double scale)
{
    layers[name + ".p50"] = percentile(values, 0.50) * scale;
    layers[name + ".p99"] = percentile(values, 0.99) * scale;
}

void
serveLayers(const Tracer &tracer, MeterContext &ctx,
            const ServeTotals &totals, PassResult &out)
{
    auto &L = out.layers;
    std::vector<double> rounds = tracer.durations("serve.round");
    putPercentiles(L, "serve.round_ms", rounds, 1e3);
    L["serve.rounds"] = static_cast<double>(rounds.size());
    L["serve.round_self_ms.p50"] =
        percentile(tracer.selfTimes("serve.round"), 0.5) * 1e3;
    putPercentiles(L, "serve.admit_ms", tracer.durations("serve.admit"),
                   1e3);
    putPercentiles(L, "serve.queue_wait_s",
                   tracer.durations("serve.queue_wait"), 1.0);
    L["serve.generator_lag_ms.p99"] = percentile(totals.lagSec, 0.99) * 1e3;
    L["serve.jobs_done"] = static_cast<double>(totals.jobsDone);
    L["serve.jobs_failed"] = static_cast<double>(totals.jobsFailed);

    size_t steps = 0;
    for (const char *kind : {"surrogate", "supernet", "tunas"}) {
        std::vector<double> d =
            tracer.durations(std::string("search.step.") + kind);
        steps += d.size();
        putPercentiles(L, std::string("search.step_ms.") + kind, d, 1e3);
    }
    L["search.steps"] = static_cast<double>(steps);

    L["sim.cache.lookups"] = static_cast<double>(totals.lookups);
    L["sim.cache.hits"] = static_cast<double>(totals.hits);
    L["sim.cache.misses"] = static_cast<double>(totals.misses);
    L["sim.cache.evictions"] = static_cast<double>(totals.evictions);
    L["sim.cache.hit_rate"] = out.extra["sim_cache_hit_rate"];

    uint64_t tasks = 0, bytes = 0, respawns = 0;
    std::lock_guard<std::mutex> lock(ctx.mu);
    for (const auto &[job, stats] : ctx.transport) {
        tasks += stats.totalTasksServed();
        bytes += stats.totalBytes();
        respawns += stats.totalRespawns();
    }
    // One task is one request frame plus one response frame.
    L["exec.frames"] = static_cast<double>(2 * tasks);
    L["exec.bytes_per_frame"] =
        tasks ? double(bytes) / double(2 * tasks) : 0.0;
    L["exec.respawns"] = static_cast<double>(respawns);
}

/** The serve job shape of one workload. */
struct ServeShape
{
    size_t threads;
    size_t slots;
    size_t slice;
    size_t cacheCapacity;
};

serve::ServeConfig
makeConfig(const ServeShape &shape, MeterContext *ctx)
{
    serve::ServeConfig config;
    config.threads = shape.threads;
    config.maxConcurrentJobs = shape.slots;
    config.stepsPerSlice = shape.slice;
    config.cacheCapacity = shape.cacheCapacity;
    if (ctx)
        config.factory = meteredFactory(*ctx);
    return config;
}

/** One batch of jobs and when each is due. */
struct Batch
{
    std::vector<serve::JobSpec> specs;
    /** Due time of each spec, seconds after the batch starts; empty
     *  submits every spec at t=0. */
    std::vector<double> offsets;
};

/** Fastest repeat of each job: its admission plus, step by step, each
 *  step's fastest repeat. Returns the sum over jobs and the number of
 *  steps summed. */
std::pair<double, size_t>
fastestRepeats(const std::map<std::string, std::vector<JobCpu>> &cpu)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double total = 0.0;
    size_t steps = 0;
    for (const auto &[name, runs] : cpu) {
        double admit = kInf;
        std::vector<double> best;
        for (const JobCpu &run : runs) {
            admit = std::min(admit, run.admit);
            best.resize(std::max(best.size(), run.steps.size()), kInf);
            for (size_t k = 0; k < run.steps.size(); ++k)
                best[k] = std::min(best[k], run.steps[k]);
        }
        total += admit;
        for (double v : best)
            total += v;
        steps += best.size();
    }
    return {total, steps};
}

/**
 * Repeated batches: build a fresh server, submit the batch (at t=0, or
 * on its schedule), drain it, repeat until the run's time is spent.
 * Every batch runs the same jobs, so jobs of equal name must repeat bit
 * for bit, and every job is metered (see MeterContext): its admission
 * and each of its steps take their fastest repeat, the run least slowed
 * by other tenants of the host. With `pin`, the pass runs on one CPU and
 * is metered by wall time.
 *
 * Wall-clock throughput is taken per batch and reported as the median
 * over batches; latencies are pooled. `first_jobs`, when given,
 * receives every job of the first batch.
 */
PassResult
runRepeatedBatches(const Options &opts, Tracer *tracer,
                   const ServeShape &shape,
                   const std::function<Batch()> &make_batch,
                   size_t num_probes, bool pin = false,
                   std::vector<Probe> *first_jobs = nullptr)
{
    std::optional<PinToOneCpu> pinned;
    if (pin)
        pinned.emplace();
    PassResult out;
    MeterContext ctx;
    ctx.tracer = tracer;
    ctx.wallClock = pinned && pinned->pinned();
    ServeTotals totals;
    std::vector<double> jobs_rate, steps_rate, latency, rounds;
    std::vector<Probe> probes;

    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double c0 = processCpuSeconds();
        {
            serve::ServeConfig config = makeConfig(shape, &ctx);
            Batch batch = make_batch();
            serve::Server server(config);
        }
        out.setupSec.push_back(processCpuSeconds() - c0);
    }
    const Batch batch = make_batch();
    const std::vector<serve::JobSpec> &specs = batch.specs;
    // Start a batch only while it should end inside the run's time,
    // judged by the previous batch.
    Clock::time_point pass_start = Clock::now();
    double last_batch = 0.0;
    for (size_t b = 0;
         b == 0 || secondsBetween(pass_start, Clock::now()) + last_batch <=
                       opts.seconds;
         ++b) {
        Clock::time_point batch_start = Clock::now();
        serve::ServeConfig config = makeConfig(shape, &ctx);
        auto server = std::make_unique<serve::Server>(config);
        Clock::time_point t0 = Clock::now();
        ctx.jobBase = (uint64_t(b) + 1) << 32;
        ctx.due.clear();
        std::vector<Clock::time_point> due(specs.size(), t0);
        for (size_t i = 0; i < batch.offsets.size(); ++i)
            due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(batch.offsets[i]));

        Drive d = drive(*server, specs, due, ctx);
        double span = secondsBetween(t0, d.lastDone);
        jobs_rate.push_back(double(d.done) / span);
        steps_rate.push_back(double(d.steps) / span);
        for (double l : d.latency)
            if (!std::isnan(l))
                latency.push_back(l);
        rounds.insert(rounds.end(), d.roundSec.begin(), d.roundSec.end());
        out.attempted += specs.size();
        out.failed += d.failed;
        absorbServer(*server, config, specs, d, totals, out);
        if (b == 0) {
            for (size_t i : probeIndices(specs.size(), num_probes, opts.seed))
                keepProbe(*server, specs[i], d.ids[i], probes);
            if (first_jobs)
                for (size_t i = 0; i < specs.size(); ++i)
                    keepProbe(*server, specs[i], d.ids[i], *first_jobs);
        }
        last_batch = secondsBetween(batch_start, Clock::now());
    }
    auto [cpu, steps] = fastestRepeats(ctx.cpu);
    out.cpuSecPerJob = cpu / double(std::max<size_t>(1, ctx.cpu.size()));
    out.cpuSecPerStep = cpu / double(std::max<size_t>(1, steps));
    out.extra["pinned_to_one_cpu"] = ctx.wallClock ? 1.0 : 0.0;
    setLatency(out, latency);
    out.peakRssMb = peakRssMb();
    out.jobsPerSec = median(jobs_rate);
    out.stepsPerSec = median(steps_rate);
    out.extra["batches"] = static_cast<double>(jobs_rate.size());
    // Validity, not correctness: a generator later than one round means
    // the coordinator, not the server, set the arrival times.
    out.extra["generator_lag_p99_s"] = percentile(totals.lagSec, 0.99);
    out.extra["round_p99_s"] = percentile(rounds, 0.99);
    finishServe(totals, out);
    if (tracer)
        serveLayers(*tracer, ctx, totals, out);
    else
        checkProbes(probes, makeConfig(shape, nullptr), opts, out);
    return out;
}

/** Candidates the supernet kind scored, grouped by step as the search
 *  evaluated them (for the supernet replay). */
std::vector<searchspace::Sample>
supernetCandidates(const std::vector<Probe> &jobs, size_t cap)
{
    std::vector<searchspace::Sample> out;
    for (const Probe &p : jobs) {
        if (p.spec.kind != serve::JobKind::DlrmSupernet)
            continue;
        for (const auto &rec : p.result.outcome.history) {
            if (out.size() >= cap)
                return out;
            out.push_back(rec.sample);
        }
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Workloads.

PassResult
runSurrogateBurst(const Options &opts, Tracer *tracer)
{
    // bench_serve_load's tenant mix: seeds cycle a pool of 100 and the
    // latency target cycles a sweep, so ~90% of simulations are shared
    // cache hits; all 1000 jobs are submitted at t=0.
    const std::vector<double> targets{0.85, 0.95, 1.0, 1.1};
    const uint64_t base = mixSeed(opts.seed, 1) % 1000000007ULL;
    auto make_batch = [&] {
        Batch batch;
        for (size_t i = 0; i < 1000; ++i) {
            serve::JobSpec spec;
            spec.name = "burst-" + std::to_string(i);
            spec.kind = serve::JobKind::DlrmSurrogate;
            spec.seed = mixSeed(base, i % 100);
            spec.numSteps = 6;
            spec.samplesPerStep = 4;
            spec.stepTimeTargetRel = targets[i % targets.size()];
            batch.specs.push_back(spec);
        }
        return batch;
    };
    const size_t threads = std::max<size_t>(1, hardwareThreads() - 1);
    PassResult out = runRepeatedBatches(opts, tracer, {threads, 8, 4, 1 << 16},
                                        make_batch, /*num_probes=*/8);
    if (tracer)
        replayController(4, opts.seed, out.layers);
    return out;
}

PassResult
runForkedShards(const Options &opts, Tracer *tracer)
{
    // A few long surrogate searches, each forking two shard worker
    // processes at admission; one slot, one pool thread. Every job of
    // the batch has its own seed (a job's cost depends on the
    // candidates its policy converges to, so a batch averages over
    // several), and the distinct histories overflow the small cache.
    const uint64_t base = mixSeed(opts.seed, 4) % 1000000007ULL;
    auto make_batch = [base] {
        Batch batch;
        for (size_t i = 0; i < 8; ++i) {
            serve::JobSpec spec;
            spec.name = "forked-" + std::to_string(i);
            spec.kind = serve::JobKind::DlrmSurrogate;
            spec.seed = mixSeed(base, i);
            spec.numSteps = 100;
            spec.samplesPerStep = 4;
            spec.procs = 2;
            batch.specs.push_back(spec);
        }
        return batch;
    };
    // Pinned to one CPU: a step is mostly hand-offs between the
    // coordinator and the workers, and on a shared VM a hand-off to an
    // idle CPU costs whatever waking that CPU costs at the moment. On
    // one CPU every hand-off is a plain context switch, and a job's wall
    // time is the CPU of all its processes.
    PassResult out = runRepeatedBatches(opts, tracer, {1, 1, 8, 1024},
                                        make_batch, /*num_probes=*/2,
                                        /*pin=*/true);
    if (tracer) {
        // exec overhead: the probe jobs re-stepped in-process (procs=0),
        // on one CPU like the served run, against the served procs=2
        // step time.
        PinToOneCpu pin;
        std::vector<double> local;
        const std::vector<serve::JobSpec> specs = make_batch().specs;
        for (size_t i : probeIndices(specs.size(), 2, opts.seed)) {
            serve::JobSpec spec = specs[i];
            spec.procs = 0;
            sim::SimCache cache(1024);
            auto job = serve::makeDefaultJob(spec, cache);
            while (!job->stepper().done()) {
                Clock::time_point t0 = Clock::now();
                job->stepper().step();
                local.push_back(secondsBetween(t0, Clock::now()));
            }
        }
        out.layers["exec.overhead_ms_per_step"] =
            out.layers["search.step_ms.surrogate.p50"] -
            median(local) * 1e3;
        replayController(4, opts.seed, out.layers);
    }
    return out;
}

PassResult
runSupernetStream(const Options &opts, Tracer *tracer)
{
    // Open loop: weight-sharing jobs (H2O single-step and TuNAS
    // alternating) arrive on a seeded Poisson schedule at a fixed rate
    // of about half to two thirds of the mix's burst capacity (12-16
    // jobs/s with three pool threads on a 4-core Xeon), so jobs queue
    // and run side by side. The run replays one
    // schedule segment, an eighth of the run's time long, on a fresh
    // server while time remains, so every job runs several times and
    // each of its steps can take its fastest repeat. The segment is the
    // Poisson process conditioned on its count: N = rate x length
    // arrival times drawn uniformly over it, so every run offers the
    // same load and only the arrival pattern depends on the seed.
    constexpr double kRatePerSec = 8.0;
    const double length = opts.seconds / 8.0;
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(std::lround(kRatePerSec * length)));
    const uint64_t base = mixSeed(opts.seed, 2) % 1000000007ULL;
    auto make_batch = [&] {
        Batch batch;
        for (size_t i = 0; i < n; ++i) {
            serve::JobSpec spec;
            spec.name = "stream-" + std::to_string(i);
            spec.kind = i % 2 ? serve::JobKind::DlrmTunas
                              : serve::JobKind::DlrmSupernet;
            spec.seed = mixSeed(base, i);
            spec.numSteps = 40;
            spec.samplesPerStep = 8;
            batch.specs.push_back(spec);
        }
        common::Rng rng(mixSeed(opts.seed, 3));
        for (size_t i = 0; i < n; ++i)
            batch.offsets.push_back(rng.uniform(0.0, length));
        std::sort(batch.offsets.begin(), batch.offsets.end());
        return batch;
    };
    const size_t threads = std::max<size_t>(1, hardwareThreads() - 1);
    std::vector<Probe> first;
    PassResult out =
        runRepeatedBatches(opts, tracer, {threads, threads, 8, 1 << 16},
                           make_batch, /*num_probes=*/4, /*pin=*/false,
                           tracer ? &first : nullptr);
    out.extra["offered_jobs_per_s"] = kRatePerSec;
    if (tracer) {
        replaySupernet(supernetCandidates(first, 4096), 8, opts.seed,
                       out.layers);
        replayController(8, opts.seed, out.layers);
    }
    return out;
}

} // namespace h2obench
