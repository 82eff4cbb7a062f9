#include "eval/eval_engine.h"

#include <atomic>

#include "common/logging.h"
#include "exec/remote_transport.h"
#include "exec/shard_transport.h"

namespace h2o::eval {

PerfBatchFn
batchify(PerfFn fn)
{
    h2o_assert(fn, "null performance functor");
    return [fn = std::move(fn)](
               std::span<const searchspace::Sample> samples) {
        std::vector<std::vector<double>> out;
        out.reserve(samples.size());
        for (const auto &s : samples)
            out.push_back(fn(s));
        return out;
    };
}

namespace {

/**
 * The worker-side eval task: decode one candidate, run the pure
 * per-candidate quality and/or performance functions, encode the
 * answers. Captures COPIES of the functors so the fork-time snapshot is
 * self-contained.
 *
 * Request:  u32 wantQuality | u64 decisionCount | u64 per decision
 * Response: u32 hasQuality [f64 quality] | u32 perfCount | f64 each
 */
exec::ProcTaskFn
makeEvalTask(QualityFn quality, PerfFn perf)
{
    return [quality = std::move(quality), perf = std::move(perf)](
               uint64_t, uint64_t, const std::string &request) {
        exec::WireReader req(request);
        const bool wantQuality = req.getU32() != 0;
        searchspace::Sample sample(req.getU64());
        for (auto &d : sample)
            d = static_cast<size_t>(req.getU64());

        exec::WireWriter out;
        if (wantQuality) {
            if (!quality)
                throw std::runtime_error(
                    "eval task asked for quality but the engine was "
                    "built without a pure quality functor");
            out.putU32(1);
            out.putDouble(quality(sample));
        } else {
            out.putU32(0);
        }
        if (perf) {
            std::vector<double> values = perf(sample);
            out.putU32(static_cast<uint32_t>(values.size()));
            for (double v : values)
                out.putDouble(v);
        } else {
            out.putU32(0);
        }
        return out.take();
    };
}

} // namespace

EvalEngine::EvalEngine(PerfStage perf,
                       const reward::RewardFunction &rewardf,
                       size_t numShards, const exec::ExecConfig &config,
                       QualityFn quality)
    : _perf(std::move(perf)), _reward(rewardf), _numShards(numShards),
      _quality(std::move(quality))
{
    h2o_assert(_perf.perCandidate || _perf.batched,
               "null performance functor");
    h2o_assert(_numShards > 0, "engine with zero shards");

    exec::ProcTaskFn task = makeEvalTask(_quality, _perf.perCandidate);
    if (config.procs == 0 && config.workers.empty()) {
        _taskName = "eval_engine";
        _transport = std::make_unique<exec::InProcessTransport>(
            exec::ThreadPool::resolve(config.threads, _numShards),
            _taskName, std::move(task));
    } else {
        // Register the eval task, THEN build the transports — forked
        // workers only know tasks registered before their fork, and
        // remote handshakes verify the task is registered on both ends.
        // The name is unique per engine instance because one process
        // may host several engines at once (serve::Server runs one per
        // job).
        static std::atomic<uint64_t> instances{0};
        _taskReg = std::make_unique<exec::ProcTaskRegistration>(
            "eval_engine/" + std::to_string(instances.fetch_add(1)),
            std::move(task));
        _taskName = _taskReg->name();

        // Forked slots first, remote slots after — fork order matters
        // for fd hygiene (fork-local daemons must not inherit remote
        // connection fds), and slot order fixes the shard pinning
        // (shard s -> slot s % total) that outcomes are invariant to
        // anyway (pure tasks).
        std::vector<std::unique_ptr<exec::ShardTransport>> parts;
        if (config.procs > 0)
            parts.push_back(std::make_unique<exec::ProcPool>(
                exec::ProcPool::resolve(config.procs, _numShards)));
        if (!config.workers.empty()) {
            exec::RemotePoolConfig remote;
            remote.endpoints = exec::parseWorkerList(config.workers);
            remote.requiredTasks = {_taskName};
            parts.push_back(
                std::make_unique<exec::RemotePool>(std::move(remote)));
        }
        if (parts.size() == 1)
            _transport = std::move(parts.front());
        else
            _transport = std::make_unique<exec::MixedTransport>(
                std::move(parts));
    }
    _runner = std::make_unique<exec::ShardRunner>(
        *_transport,
        exec::ShardRunnerConfig{.numShards = _numShards,
                                .backoffBaseMs = config.retryBackoffMs},
        config.faults);
}

void
EvalEngine::finishStep(StepEval &ev)
{
    // Stage 3 (batched mode): one performance call over the survivors,
    // on this thread. Purity makes this element-for-element identical
    // to the per-candidate calls of the eval task.
    if (_perf.batched) {
        std::vector<searchspace::Sample> live;
        live.reserve(ev.survivors.size());
        for (size_t s : ev.survivors)
            live.push_back(ev.samples[s]);
        auto perfs = _perf.batched(live);
        h2o_assert(perfs.size() == live.size(),
                   "performance batch returned ", perfs.size(),
                   " results for ", live.size(), " candidates");
        for (size_t i = 0; i < ev.survivors.size(); ++i)
            ev.performance[ev.survivors[i]] = std::move(perfs[i]);
    }

    // Stage 4: reward, per survivor, in shard-index order.
    for (size_t s : ev.survivors)
        ev.rewards[s] =
            _reward.compute({ev.qualities[s], ev.performance[s]});
}

StepEval
EvalEngine::runShards(size_t step, const SampleBodyFn &body,
                      bool withQuality)
{
    const size_t n = _numShards;
    StepEval ev;
    ev.samples.resize(n);
    ev.qualities.assign(n, 0.0);
    ev.performance.resize(n);
    ev.rewards.assign(n, 0.0);

    // Encode = the draw. The runner calls it after the fault decision
    // and at most once per step unless the task throws, so each shard's
    // RNG stream advances exactly once per completed attempt.
    const bool work = withQuality || _perf.perCandidate;
    exec::ShardTask task;
    if (work)
        task.name = _taskName;
    task.encode = [&](size_t s) {
        body(s, ev.samples[s]);
        if (!work)
            return std::string();
        exec::WireWriter w;
        w.putU32(withQuality ? 1u : 0u);
        w.putU64(ev.samples[s].size());
        for (size_t d : ev.samples[s])
            w.putU64(static_cast<uint64_t>(d));
        return w.take();
    };
    task.decode = [&](size_t s, const std::string &response) {
        if (!work)
            return;
        exec::WireReader r(response);
        if (r.getU32() != 0)
            ev.qualities[s] = r.getDouble();
        std::vector<double> values(r.getU32());
        for (auto &v : values)
            v = r.getDouble();
        if (_perf.perCandidate)
            ev.performance[s] = std::move(values);
    };
    ev.report = _runner->runStep(step, task);
    ev.survivors = ev.report.survivors();
    return ev;
}

StepEval
EvalEngine::evaluate(size_t step, const SampleBodyFn &body)
{
    h2o_assert(_quality, "evaluate(step, body) requires the engine to be "
                         "built with a pure quality functor");
    StepEval ev = runShards(step, body, /*withQuality=*/true);
    if (!ev.survivors.empty())
        finishStep(ev);
    return ev;
}

StepEval
EvalEngine::evaluate(size_t step, const SampleBodyFn &body,
                     const QualityBatchFn &quality)
{
    h2o_assert(quality, "null batched quality functor");
    StepEval ev = runShards(step, body, /*withQuality=*/false);
    if (ev.survivors.empty())
        return ev;

    // ONE quality call over the survivors, ascending shard order.
    std::vector<searchspace::Sample> live;
    live.reserve(ev.survivors.size());
    for (size_t s : ev.survivors)
        live.push_back(ev.samples[s]);
    std::vector<double> qs = quality(ev.survivors, live);
    h2o_assert(qs.size() == live.size(), "quality batch returned ",
               qs.size(), " results for ", live.size(), " candidates");
    for (size_t i = 0; i < ev.survivors.size(); ++i)
        ev.qualities[ev.survivors[i]] = qs[i];

    finishStep(ev);
    return ev;
}

exec::StepReport
EvalEngine::runStep(size_t step, const std::function<void(size_t)> &draw,
                    const std::function<void(size_t)> &apply)
{
    exec::ShardTask task;
    task.encode = [&](size_t s) {
        draw(s);
        return std::string();
    };
    task.decode = [&](size_t s, const std::string &) { apply(s); };
    return _runner->runStep(step, task);
}

} // namespace h2o::eval
