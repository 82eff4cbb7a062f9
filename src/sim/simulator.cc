#include "sim/simulator.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/pass_workspace.h"

namespace h2o::sim {

Simulator::Simulator(SimConfig config) : _config(std::move(config))
{
    h2o_assert(_config.chip.peakTensorFlops > 0.0,
               "simulator configured with zero-FLOPS chip");
}

SimResult
Simulator::run(const Graph &input, std::vector<OpTiming> *per_op) const
{
    input.validate();
    // Pass annotations live in a reusable per-thread workspace: the
    // graph itself stays read-only and is never copied.
    return runValidated(input, PassWorkspace::forThread(), per_op);
}

std::vector<SimResult>
Simulator::runBatch(std::span<const Graph *const> graphs) const
{
    std::vector<SimResult> results;
    results.reserve(graphs.size());
    // One workspace fetch for the batch; validation once per distinct
    // graph pointer (batches that re-simulate one supernet graph under
    // different configs validate it once).
    PassWorkspace &ws = PassWorkspace::forThread();
    std::vector<const Graph *> validated;
    for (const Graph *g : graphs) {
        h2o_assert(g != nullptr, "null graph in runBatch");
        if (std::find(validated.begin(), validated.end(), g) ==
            validated.end()) {
            g->validate();
            validated.push_back(g);
        }
        results.push_back(runValidated(*g, ws, nullptr));
    }
    return results;
}

SimResult
Simulator::runValidated(const Graph &input, PassWorkspace &ws,
                        std::vector<OpTiming> *per_op) const
{
    ws.reset(input);

    SimResult res;
    if (_config.enableFusion) {
        FusionStats fs = fuseGraph(input, ws);
        res.fusedOps = fs.fusedOps;
    }
    MemoryStats ms;
    if (_config.enableMemoryPlacement) {
        ms = placeMemory(input, _config.chip, _config.memory, ws);
    }
    res.paramsResident = ms.paramsResident;

    const auto &ops = input.ops();
    if (per_op != nullptr)
        per_op->assign(ops.size(), OpTiming{});

    // Longest-path earliest-finish times over the DAG. Fused-away ops are
    // transparent: they finish when their producer finishes.
    auto &finish = ws.finish;
    finish.assign(ops.size(), 0.0);

    for (size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        const OpAnnotations &a = ws.ann[i];
        double ready = 0.0;
        for (OpId in : op.inputs)
            ready = std::max(ready, finish[in]);
        if (a.fusedAway) {
            finish[i] = ready;
            continue;
        }
        OpTiming t = timeOp(_config.chip, op, a);
        if (per_op != nullptr)
            (*per_op)[i] = t;
        finish[i] = ready + t.seconds;

        res.liveOps += 1;
        res.totalFlops += op.flops + a.fusedVpuFlops;
        res.tensorBusySec += t.tensorBusySec;
        res.vpuBusySec += t.vpuBusySec;
        res.hbmBytes += t.hbmBytes;
        res.onChipBytes += t.onChipBytes;
        res.networkBytes += t.networkBytes;
    }

    for (double f : finish)
        res.criticalPathSec = std::max(res.criticalPathSec, f);

    res.hbmSec = res.hbmBytes / _config.chip.hbmBandwidth;
    res.onChipSec = res.onChipBytes / _config.chip.onChipBandwidth;
    res.networkSec = res.networkBytes / _config.chip.iciBandwidth;

    res.stepTimeSec = std::max({res.tensorBusySec, res.vpuBusySec,
                                res.hbmSec, res.onChipSec, res.networkSec,
                                res.criticalPathSec});
    h2o_assert(res.stepTimeSec > 0.0, "graph '", input.name(),
               "' simulated to zero time");

    if (res.stepTimeSec == res.tensorBusySec)
        res.boundBy = hw::BoundBy::TensorCompute;
    else if (res.stepTimeSec == res.networkSec)
        res.boundBy = hw::BoundBy::Network;
    else if (res.stepTimeSec == res.vpuBusySec)
        res.boundBy = hw::BoundBy::VectorCompute;
    else
        res.boundBy = hw::BoundBy::Memory;

    res.achievedFlops = res.totalFlops / res.stepTimeSec;
    res.operationalIntensity =
        res.totalFlops / std::max(res.hbmBytes + res.onChipBytes, 1.0);
    res.hbmBandwidthUsed = res.hbmBytes / res.stepTimeSec;
    res.onChipBandwidthUsed = res.onChipBytes / res.stepTimeSec;
    res.tensorUtilization =
        std::clamp(res.tensorBusySec / res.stepTimeSec, 0.0, 1.0);

    hw::ActivityProfile activity{res.tensorUtilization,
                                 res.hbmBandwidthUsed,
                                 res.onChipBandwidthUsed};
    res.avgPowerW = hw::averagePowerW(_config.chip, activity);
    res.energyPerStepJ = res.avgPowerW * res.stepTimeSec;
    return res;
}

} // namespace h2o::sim
