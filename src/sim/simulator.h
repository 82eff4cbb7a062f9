/**
 * @file
 * The ML performance simulator.
 *
 * Reimplements the role of the paper's in-house simulator (Section 6.2.3):
 * given a cost-annotated op graph and a target chip, it runs the compiler
 * passes (fusion, on-chip memory placement), times every op against the
 * chip's subsystems, and walks the DAG to produce the execution time plus
 * the per-subsystem counters (FLOPS, HBM/CMEM traffic, network time,
 * power, energy) that the benchmarks and the reward function consume.
 *
 * Step time combines two constraints:
 *  - resource serialization: each hardware resource can only do so much
 *    work per step (sum of busy time per resource), and
 *  - dependency chains: the DAG longest path over op latencies.
 * Parallel branches (e.g. DLRM's embedding column vs its bottom MLP)
 * overlap, giving the paper's MAX(embedding time, MLP time) behavior.
 */

#ifndef H2O_SIM_SIMULATOR_H
#define H2O_SIM_SIMULATOR_H

#include <span>
#include <type_traits>
#include <vector>

#include "hw/chip.h"
#include "hw/power.h"
#include "sim/cost_model.h"
#include "sim/fusion.h"
#include "sim/graph.h"
#include "sim/memory.h"

namespace h2o::sim {

class PassWorkspace;

/** Simulator configuration. */
struct SimConfig
{
    hw::ChipSpec chip;
    bool enableFusion = true;
    bool enableMemoryPlacement = true;
    MemoryConfig memory{};
};

/** Aggregate result of simulating one step of one graph on one chip.
 *  Per-op timings are not part of it: Simulator::run hands them out on
 *  request. */
struct SimResult
{
    double stepTimeSec = 0.0;    ///< simulated execution time per step
    double totalFlops = 0.0;     ///< useful FLOPs per step
    double achievedFlops = 0.0;  ///< totalFlops / stepTimeSec
    double operationalIntensity = 0.0; ///< FLOPs per memory byte (HBM+CMEM)

    double hbmBytes = 0.0;
    double onChipBytes = 0.0;
    double networkBytes = 0.0;
    double hbmBandwidthUsed = 0.0;    ///< bytes/s averaged over the step
    double onChipBandwidthUsed = 0.0; ///< bytes/s averaged over the step

    double tensorBusySec = 0.0;  ///< total tensor-unit work
    double vpuBusySec = 0.0;     ///< total vector-unit work
    double hbmSec = 0.0;         ///< HBM-serialized time
    double onChipSec = 0.0;      ///< CMEM-serialized time
    double networkSec = 0.0;     ///< ICI-serialized time
    double criticalPathSec = 0.0; ///< DAG longest path

    hw::BoundBy boundBy = hw::BoundBy::Memory; ///< step-level bottleneck
    double tensorUtilization = 0.0; ///< tensor busy / step time

    double avgPowerW = 0.0;      ///< power model output
    double energyPerStepJ = 0.0; ///< stepTime x power

    size_t liveOps = 0;
    size_t fusedOps = 0;
    bool paramsResident = false;
};

// SimCache stores and copies results by value on every hit; keep them
// flat so per-op data cannot creep back into cached results.
static_assert(std::is_trivially_copyable_v<SimResult>);

/**
 * The simulator. Stateless apart from configuration. run() keeps the
 * input graph const: pass annotations go into a reusable per-thread
 * PassWorkspace, so repeated runs neither copy the graph nor leak
 * annotations back to the caller.
 */
class Simulator
{
  public:
    /** @param config Chip and pass configuration. */
    explicit Simulator(SimConfig config);

    /**
     * Simulate one execution step of the graph. Per-op timings are
     * produced only on request: with a non-null `per_op` the vector is
     * resized to the graph and filled parallel to its op order (fused
     * ops keep zeroed entries). The aggregate result does not depend
     * on whether they were requested.
     */
    SimResult run(const Graph &graph,
                  std::vector<OpTiming> *per_op = nullptr) const;

    /**
     * Simulate one step of each graph, in order. The calling thread's
     * PassWorkspace is fetched once for the whole batch and graph
     * validation is amortized: a graph pointer that recurs in the batch
     * is validated only on first sight. Results are element-for-element
     * identical to N separate run() calls (the simulator is pure).
     */
    std::vector<SimResult>
    runBatch(std::span<const Graph *const> graphs) const;

    /** The configured chip. */
    const hw::ChipSpec &chip() const { return _config.chip; }

  private:
    /** The per-graph core: passes + timing on an already-validated
     *  graph, annotations in the caller's workspace; per-op timings
     *  go to `per_op` when it is non-null. */
    SimResult runValidated(const Graph &graph, PassWorkspace &ws,
                           std::vector<OpTiming> *per_op) const;

    SimConfig _config;
};

} // namespace h2o::sim

#endif // H2O_SIM_SIMULATOR_H
