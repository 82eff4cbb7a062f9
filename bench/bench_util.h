/**
 * @file
 * Shared helpers for the benchmark binaries that regenerate the paper's
 * tables and figures.
 */

#ifndef H2O_BENCH_BENCH_UTIL_H
#define H2O_BENCH_BENCH_UTIL_H

#include <string>

#include "arch/dlrm_arch.h"
#include "arch/lowering.h"
#include "common/flags.h"
#include "eval/dlrm_timer.h"
#include "hw/chip.h"
#include "hw/target_set.h"
#include "sim/simulator.h"

namespace h2o::bench {

/** Register the standard --chip flag (one chip by registry name). The
 *  help text lists the valid names, so every bench's --help and every
 *  unknown-name error stay in sync with the registry. */
inline void
defineChipFlag(common::Flags &flags, const std::string &def = "tpuv4i")
{
    flags.defineString("chip", def,
                       "target chip (" + hw::chipNamesHelp() + ")");
}

/** Resolve a parsed --chip flag to its spec. Fatal on unknown names,
 *  listing the valid ones (hw::chipModelFromName). */
inline hw::ChipSpec
chipFromFlags(const common::Flags &flags)
{
    return hw::chipSpec(hw::chipModelFromName(flags.getString("chip")));
}

/** Register the standard --chips flag (comma-separated target list for
 *  the multi-target benches). */
inline void
defineChipsFlag(common::Flags &flags,
                const std::string &def = "tpuv4i,edgecpu,edgenpu")
{
    flags.defineString("chips", def,
                       "comma-separated target chips (" +
                           hw::chipNamesHelp() + ")");
}

/** Resolve a parsed --chips flag to a TargetSet (one chip each). */
inline hw::TargetSet
chipsFromFlags(const common::Flags &flags)
{
    return hw::TargetSet::fromNames(flags.getString("chips"));
}

/** Promoted to src/eval so the NAS job server shares the
 *  implementation; the bench-local name keeps working. */
using eval::CachedDlrmTimer;

/** Simulate one graph on one chip with default passes. */
inline sim::SimResult
simulate(const sim::Graph &graph, const hw::ChipSpec &chip)
{
    sim::Simulator simulator({chip, true, true, {}});
    return simulator.run(graph);
}

/** Training step time of a DLRM on a platform. */
inline double
dlrmTrainStepTime(const arch::DlrmArch &a, const hw::Platform &platform)
{
    return simulate(arch::buildDlrmGraph(a, platform,
                                         arch::ExecMode::Training),
                    platform.chip)
        .stepTimeSec;
}

/** Serving step time of a DLRM on a platform. */
inline double
dlrmServeStepTime(const arch::DlrmArch &a, const hw::Platform &platform)
{
    arch::DlrmArch serving = a;
    serving.globalBatch = 1024; // serving batch per request group
    return simulate(arch::buildDlrmGraph(serving, platform,
                                         arch::ExecMode::Serving),
                    platform.chip)
        .stepTimeSec;
}

/** Throughput label "images/sec/chip" from a step time and batch. */
inline double
throughputPerChip(double step_sec, double per_chip_batch)
{
    return per_chip_batch / step_sec;
}

} // namespace h2o::bench

#endif // H2O_BENCH_BENCH_UTIL_H
