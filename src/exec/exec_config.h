/**
 * @file
 * exec::ExecConfig — the shard-runtime knobs, declared once: where a
 * step's shards run (in-process lanes, forked worker processes, remote
 * daemons), the optional fault oracle and the retry backoff. The eval
 * engine takes one and every searcher config embeds one. Worker tasks
 * are pure, so every setting produces byte-identical search outcomes.
 */

#ifndef H2O_EXEC_EXEC_CONFIG_H
#define H2O_EXEC_EXEC_CONFIG_H

#include <cstddef>
#include <string>

#include "common/flags.h"

namespace h2o::exec {

class FaultInjector;

/** Where and how a step's shards run (see file comment). */
struct ExecConfig
{
    /** In-process lanes (worker threads) when procs and workers are
     *  unset; 0 = one per hardware thread. Clamped to the shard count;
     *  one lane runs on the caller's thread with no pool at all. */
    size_t threads = 0;
    /** Worker PROCESSES for the per-candidate work (exec::ProcPool),
     *  forked at engine construction and clamped to the shard count; 0
     *  keeps the work on in-process lanes. Draws, fault decisions,
     *  batched stages and aggregation stay coordinator-side, so only
     *  pure per-candidate quality/performance functions run in workers.
     *  `threads` is unused when procs or workers is set. */
    size_t procs = 0;
    /** Remote worker daemons for the per-candidate work, as a
     *  parseWorkerList endpoint list ("host:port" for a daemon running
     *  the same binary, "local" to fork a loopback one); empty = none.
     *  Combines with `procs` into one MIXED pool, forked slots first;
     *  shard s is pinned to slot s % (procs + workers). */
    std::string workers;
    /** Optional fault oracle (preemptible-fleet emulation); not owned.
     *  A preempted shard, or one out of attempts, is dropped for the
     *  step. */
    FaultInjector *faults = nullptr;
    /** Exponential retry backoff base, in milliseconds. */
    double retryBackoffMs = 0.5;
};

/**
 * Register --threads, --procs and --workers with their shared help texts.
 * Their defaults come from H2O_THREADS, H2O_PROCS and H2O_WORKERS. A
 * malformed H2O_THREADS warns and falls back to 0 (it is a sizing hint);
 * a malformed H2O_PROCS (not a decimal count) or H2O_WORKERS (not a
 * parseWorkerList list) is FATAL, because silently dropping workers
 * would shrink the fleet the user asked for.
 */
void defineExecFlags(common::Flags &flags);

/** The ExecConfig the parsed defineExecFlags() flags describe (no fault
 *  oracle, default backoff). A negative --threads or --procs is fatal. */
ExecConfig execConfigFromFlags(const common::Flags &flags);

} // namespace h2o::exec

#endif // H2O_EXEC_EXEC_CONFIG_H
