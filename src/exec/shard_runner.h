/**
 * @file
 * ShardRunner: one search step across N shards on the worker slots of a
 * ShardTransport — in-process threads, forked worker processes, remote
 * daemons, or a mix of the out-of-process kinds.
 *
 * Every step is one ShardTask codec: `encode(shard)` runs coordinator-
 * side (it may draw from the shard's policy stream), the named task runs
 * the pure per-candidate work on the shard's slot, and `decode(shard,
 * response)` applies the result coordinator-side — after the step
 * barrier, in ascending shard order, on the caller's thread, so a
 * decoder may touch shared state (the weight-sharing supernet, the batch
 * pipeline) and sees the serial schedule at any slot count. Worker tasks
 * are pure, so any transport and any slot count produces byte-identical
 * results. A step with no per-candidate worker work (an empty task name)
 * never calls the transport: encode runs on the lanes and decode receives
 * encode's bytes.
 *
 * Fault semantics, keyed on (step, shard, attempt):
 *  - Injected faults (FaultInjector) strike before encode, so a
 *    preempted or failed attempt never draws and leaves no side effect.
 *    Failed attempts retry with exponential backoff; a preempted shard
 *    is lost for the step.
 *  - A task that THROWS (or an encode that throws) consumes the attempt:
 *    warn, re-encode and retry.
 *  - Worker DEATH (kill -9, crash) is a transport failure: the in-flight
 *    shard consumes an attempt but keeps its encoded request (its RNG
 *    stream must not advance twice), the worker is respawned from current
 *    coordinator state between rounds, and the shard is retried with the
 *    SAME request bytes — a successful retry makes the whole run byte-
 *    identical to an unkilled one. Shards queued behind the corpse
 *    consume nothing and simply run in the next round.
 *  - A shard whose attempts exhaust is reported Degraded: excluded from
 *    the step's aggregation, search continues on the survivors.
 */

#ifndef H2O_EXEC_SHARD_RUNNER_H
#define H2O_EXEC_SHARD_RUNNER_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/fault_injector.h"
#include "exec/shard_transport.h"
#include "exec/thread_pool.h"

namespace h2o::exec {

/** Per-shard result of one step. */
enum class ShardState {
    Ok,       ///< completed on the first attempt
    Retried,  ///< completed after >= 1 failed attempt
    Degraded, ///< lost for this step (preempted or attempts exhausted)
};

/** One shard's step report. */
struct ShardResult
{
    ShardState state = ShardState::Ok;
    size_t attempts = 0; ///< attempts actually executed or injected-failed
};

/** One step's report across all shards. */
struct StepReport
{
    std::vector<ShardResult> shards;

    /** Indices of shards that completed (Ok or Retried), in order. */
    std::vector<size_t> survivors() const;
};

/** Runner configuration. */
struct ShardRunnerConfig
{
    size_t numShards = 1;
    /** Max attempts per shard per step (>= 1). */
    size_t maxAttempts = 3;
    /** Exponential backoff base between retries, in milliseconds. */
    double backoffBaseMs = 0.5;
};

/** The codec one step runs (see file comment). */
struct ShardTask
{
    /** Transport task name; empty = no per-candidate worker work (the
     *  transport is never called and decode receives encode's bytes). */
    std::string name;
    /** Coordinator-side: produce the shard's request bytes. Runs on the
     *  shard's lane when its attempt executes, at most once per step
     *  unless it (or the worker task) throws. May touch shard-local
     *  state only. */
    std::function<std::string(size_t shard)> encode;
    /** Coordinator-side: apply a surviving shard's response. Called
     *  after the step barrier, ascending shard order, caller's thread —
     *  free to touch shared state. */
    std::function<void(size_t shard, const std::string &response)> decode;
};

/**
 * Runs the N shards of one step across the transport's slots, fault-
 * tolerantly (see file comment). Shard s is pinned to slot s % slots;
 * each slot's shards run in ascending order on one I/O lane. One slot
 * runs on the caller's thread; more slots get one lane thread each.
 */
class ShardRunner
{
  public:
    /**
     * @param transport Worker slots (caller-owned, outlives the runner).
     *                  It must not serve unrelated calls during
     *                  runStep().
     * @param config    Shard count and retry policy.
     * @param injector  Optional fault oracle; nullptr injects nothing.
     */
    ShardRunner(ShardTransport &transport, ShardRunnerConfig config,
                FaultInjector *injector = nullptr);

    /** Execute one step of `task` across all shards and barrier-wait.
     *  @param step Step index keying fault-injection decisions. */
    StepReport runStep(size_t step, const ShardTask &task);

    /** Cumulative count of degraded (lost) shard-steps. */
    uint64_t degradedShardSteps() const { return _degradedShardSteps; }

    /** Transport failures observed (worker deaths mid-call). */
    uint64_t transportFailures() const { return _transportFailures; }

  private:
    /** Per-shard, per-step retry state. */
    struct ShardAttempt
    {
        size_t attemptsUsed = 0;
        std::optional<std::string> request;  ///< cached encode() output
        std::optional<std::string> response; ///< set on success
        ShardResult result;
        bool settled = false; ///< responded or degraded
    };

    /** Drive one shard's attempt loop on its slot. Returns false when
     *  the worker died mid-call (shard left pending, queued shards
     *  behind it defer to the next round). */
    bool runShardAttempts(size_t step, size_t shard, size_t slot,
                          const ShardTask &task, ShardAttempt &st);

    ShardTransport &_transport;
    ShardRunnerConfig _config;
    FaultInjector *_injector;
    /** One lane thread per slot; null for a single slot, which runs on
     *  the caller's thread. */
    std::unique_ptr<ThreadPool> _io;
    uint64_t _degradedShardSteps = 0;
    uint64_t _transportFailures = 0;
};

} // namespace h2o::exec

#endif // H2O_EXEC_SHARD_RUNNER_H
