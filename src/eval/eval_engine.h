/**
 * @file
 * eval::EvalEngine — the candidate -> reward evaluation pipeline shared
 * by every search loop.
 *
 * One search step evaluates N candidates (the virtual accelerator
 * shards of Figure 2). The engine owns the shard transport and the
 * fault-tolerant exec::ShardRunner and runs every step as one shard
 * codec:
 *
 *   1. draw — each shard draws its candidate from its own RNG stream in
 *      the codec's encode, on the shard's lane, AFTER the fault decision:
 *      a degraded shard never draws and never advances its stream.
 *   2. per-candidate worker work — the pure QualityFn and/or a PerfFn
 *      run as the engine's eval task on the shard's transport slot: a
 *      lane thread of this process (threads), a forked worker (procs) or
 *      a remote daemon (workers). A step with no per-candidate work
 *      (batched quality with a PerfBatchFn) never calls the transport.
 *   3. batched stages — after the step barrier, on the caller's thread,
 *      in ascending shard order over the survivors: the QualityBatchFn
 *      (when given) and the PerfBatchFn (when the engine was built with
 *      one). Callers back the PerfBatchFn with the batched entry points
 *      (PerfModel::predictBatch, Simulator::runBatch behind a SimCache);
 *      a PerfFn suits functions that occupy a device, whose occupancy
 *      then overlaps across slots. Performance functions are pure, so the
 *      two modes produce element-for-element identical values.
 *   4. reward — the multi-objective RewardFunction over (quality,
 *      performance), per surviving shard, in shard order.
 *
 * Aggregation (REINFORCE update, merged weight update) stays in the
 * caller, which consumes StepEval in shard-index order on its own
 * thread — bit-for-bit identical to a serial run at any thread count,
 * process count or fleet shape.
 */

#ifndef H2O_EVAL_EVAL_ENGINE_H
#define H2O_EVAL_EVAL_ENGINE_H

#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "exec/exec_config.h"
#include "exec/proc_transport.h"
#include "exec/shard_runner.h"
#include "reward/reward.h"
#include "searchspace/decision_space.h"

namespace h2o::eval {

/** Candidate -> performance objective values (e.g. perf-model query). */
using PerfFn =
    std::function<std::vector<double>(const searchspace::Sample &)>;

/** Candidate -> quality signal; PURE (same candidate, same answer,
 *  regardless of process or thread). Runs in the eval task on the
 *  shard's transport slot. */
using QualityFn = std::function<double(const searchspace::Sample &)>;

/** Batch of candidates -> objective values, one vector per candidate.
 *  The batched analogue of PerfFn; must be pure (same answer for the
 *  same sample regardless of batch composition). A multi-target search
 *  returns each candidate's PER-CHIP cost vector here (one serving
 *  step time per deployment target, in hw::TargetSet order — see
 *  CachedDlrmTimer::serveStepTimesMulti); the engine treats it as any
 *  other objective vector and the reward/front layers interpret the
 *  per-chip columns. */
using PerfBatchFn = std::function<std::vector<std::vector<double>>(
    std::span<const searchspace::Sample>)>;

/** Wrap a per-candidate performance function into a PerfBatchFn. */
PerfBatchFn batchify(PerfFn fn);

/**
 * The performance stage in one of its two execution modes (see the file
 * comment). Implicitly constructible from any callable with the PerfFn
 * or the PerfBatchFn signature, so the searchers take one PerfStage
 * argument and the mode is decided here.
 */
struct PerfStage
{
    /** Per-candidate mode: runs in the eval task on the shard's slot
     *  (device-in-the-loop / blocking functions). */
    template <typename F>
        requires std::is_invocable_r_v<std::vector<double>, F &,
                                       const searchspace::Sample &>
    PerfStage(F fn) : perCandidate(std::move(fn))
    {
    }

    /** Batched mode: one coordinator-side call per step over the
     *  surviving candidates (batch entry points). */
    template <typename F>
        requires std::is_invocable_r_v<std::vector<std::vector<double>>,
                                       F &,
                                       std::span<const searchspace::Sample>>
    PerfStage(F fn) : batched(std::move(fn))
    {
    }

    PerfFn perCandidate;  ///< exactly one of the two is non-null
    PerfBatchFn batched;
};

/**
 * One evaluated step. Vectors are indexed by shard; entries for
 * degraded shards are value-initialized and excluded from `survivors`.
 */
struct StepEval
{
    std::vector<searchspace::Sample> samples;
    std::vector<double> qualities;
    std::vector<std::vector<double>> performance;
    std::vector<double> rewards;
    /** Shards that completed the quality stage, ascending. */
    std::vector<size_t> survivors;
    exec::StepReport report;
};

/**
 * The engine. Owns the shard transport and the fault-tolerant
 * ShardRunner; outlives many evaluate() calls.
 */
class EvalEngine
{
  public:
    /**
     * Draw-only shard body: fill in the shard's candidate from the
     * shard's own RNG stream. Runs on the shard's lane after the fault
     * decision, so a degraded shard leaves its stream untouched.
     */
    using SampleBodyFn =
        std::function<void(size_t shard, searchspace::Sample &sample)>;

    /**
     * Batched quality stage: one coordinator-side call per step over the
     * step's surviving candidates, in ascending shard order. Returns one
     * quality per candidate (same indexing as `samples`).
     *
     * @param shards  Surviving shard indices, ascending.
     * @param samples The candidates those shards drew, same order.
     */
    using QualityBatchFn = std::function<std::vector<double>(
        std::span<const size_t> shards,
        std::span<const searchspace::Sample> samples)>;

    /**
     * @param perf      Performance stage (pure). A PerfBatchFn runs once
     *                  per step on the caller's thread; a PerfFn runs per
     *                  candidate in the eval task on the shard's slot.
     * @param rewardf   Multi-objective reward; not owned, must outlive
     *                  the engine.
     * @param numShards Virtual accelerator shards = candidates per step.
     * @param config    Where the shards run (lanes, processes, daemons),
     *                  fault oracle and retry backoff.
     * @param quality   Optional PURE per-candidate quality, run in the
     *                  eval task; required by evaluate(step, body).
     */
    EvalEngine(PerfStage perf, const reward::RewardFunction &rewardf,
               size_t numShards, const exec::ExecConfig &config,
               QualityFn quality = nullptr);

    /**
     * Evaluate one step with the ctor's pure quality: `body` draws each
     * shard's candidate, the eval task computes its quality (and its
     * performance under a PerfFn), then the batched performance and the
     * reward run over the survivors.
     *
     * @param step Step index keying fault-injection decisions; callers
     *             with several step phases (warm-up, W-steps) must keep
     *             the combined sequence strictly increasing.
     */
    StepEval evaluate(size_t step, const SampleBodyFn &body);

    /**
     * Batched quality mode: `body` draws each shard's candidate, then
     * ONE `quality` call over the survivors runs on this thread, then
     * the shared performance/reward tail.
     */
    StepEval evaluate(size_t step, const SampleBodyFn &body,
                      const QualityBatchFn &quality);

    /**
     * A step with no candidate evaluation (weight warm-up, TuNAS
     * W-step) on the same fault-step sequence: `draw(shard)` runs on the
     * shard's lane after the fault decision; `apply(shard)` runs for
     * each surviving shard after the barrier, ascending, on this thread.
     */
    exec::StepReport runStep(size_t step,
                             const std::function<void(size_t)> &draw,
                             const std::function<void(size_t)> &apply);

    /** Per-worker transport/liveness counters; empty for in-process
     *  lanes (no worker processes to report on). */
    exec::ProcPoolStats transportStats() const
    {
        return _transport->stats();
    }

  private:
    /** Shared stage-3/4 tail: batched performance over the survivors,
     *  then the reward in shard-index order. */
    void finishStep(StepEval &ev);

    /** Stages 1-2: draw on the lanes, per-candidate work in the eval
     *  task (`withQuality` asks the task for quality too). */
    StepEval runShards(size_t step, const SampleBodyFn &body,
                       bool withQuality);

    PerfStage _perf;
    const reward::RewardFunction &_reward;
    size_t _numShards;
    QualityFn _quality;
    /** Registration of the eval task for forked and remote slots (null
     *  for in-process lanes). Order matters: the task must be
     *  registered before workers fork and before remote connections
     *  handshake. */
    std::unique_ptr<exec::ProcTaskRegistration> _taskReg;
    std::string _taskName;
    std::unique_ptr<exec::ShardTransport> _transport;
    std::unique_ptr<exec::ShardRunner> _runner;
};

} // namespace h2o::eval

#endif // H2O_EVAL_EVAL_ENGINE_H
