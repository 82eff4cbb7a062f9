#include "sim/dump.h"

#include <iomanip>

#include "common/logging.h"

namespace h2o::sim {

void
dumpGraph(const Graph &graph, std::ostream &os)
{
    os << "graph '" << graph.name() << "': " << graph.size() << " ops, "
       << graph.totalFlops() / 1e9 << " GFLOPs, "
       << graph.totalParamBytes() / 1e6 << " MB params\n";
    os << std::left << std::setw(5) << "id" << std::setw(28) << "name"
       << std::setw(18) << "kind" << std::setw(12) << "GFLOPs"
       << std::setw(12) << "act MB" << std::setw(12) << "param MB"
       << std::setw(10) << "net MB" << "inputs\n";
    for (size_t i = 0; i < graph.size(); ++i) {
        const Op &op = graph.op(static_cast<OpId>(i));
        os << std::setw(5) << i << std::setw(28) << op.name
           << std::setw(18) << opKindName(op.kind) << std::setw(12)
           << op.flops / 1e9 << std::setw(12)
           << (op.inputBytes + op.outputBytes) / 1e6 << std::setw(12)
           << op.paramBytes / 1e6 << std::setw(10)
           << op.networkBytes / 1e6;
        for (OpId in : op.inputs)
            os << " " << in;
        if (op.fusedAway)
            os << " [fused]";
        os << "\n";
    }
}

void
dumpGraphWithTimings(const Graph &graph, const SimResult &result,
                     std::span<const OpTiming> per_op, std::ostream &os)
{
    h2o_assert(per_op.size() == graph.size(),
               "per-op timing table does not match graph (", per_op.size(),
               " timings for ", graph.size(), " ops)");
    os << "graph '" << graph.name()
       << "': step=" << result.stepTimeSec * 1e3
       << " ms, bound by " << hw::boundName(result.boundBy) << "\n";
    os << std::left << std::setw(5) << "id" << std::setw(28) << "name"
       << std::setw(12) << "us" << std::setw(12) << "tensor us"
       << std::setw(12) << "vpu us" << std::setw(12) << "hbm MB"
       << std::setw(12) << "cmem MB" << "bound\n";
    for (size_t i = 0; i < graph.size(); ++i) {
        const Op &op = graph.op(static_cast<OpId>(i));
        const OpTiming &t = per_op[i];
        if (op.fusedAway)
            continue;
        os << std::setw(5) << i << std::setw(28) << op.name
           << std::setw(12) << t.seconds * 1e6 << std::setw(12)
           << t.tensorBusySec * 1e6 << std::setw(12)
           << t.vpuBusySec * 1e6 << std::setw(12) << t.hbmBytes / 1e6
           << std::setw(12) << t.onChipBytes / 1e6
           << hw::boundName(t.boundBy) << "\n";
    }
}

void
dumpDot(const Graph &graph, std::ostream &os)
{
    os << "digraph \"" << graph.name() << "\" {\n";
    os << "  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
    for (size_t i = 0; i < graph.size(); ++i) {
        const Op &op = graph.op(static_cast<OpId>(i));
        os << "  n" << i << " [label=\"" << op.name << "\\n"
           << opKindName(op.kind);
        if (op.flops > 0.0)
            os << "\\n" << op.flops / 1e9 << " GF";
        os << "\"";
        if (op.fusedAway)
            os << ", style=dashed";
        else if (op.onTensorUnit)
            os << ", style=filled, fillcolor=lightblue";
        os << "];\n";
    }
    for (size_t i = 0; i < graph.size(); ++i) {
        for (OpId in : graph.op(static_cast<OpId>(i)).inputs)
            os << "  n" << in << " -> n" << i << ";\n";
    }
    os << "}\n";
}

} // namespace h2o::sim
