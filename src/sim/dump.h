/**
 * @file
 * Human-readable graph dumps for simulator debugging: a per-op table
 * (costs and pass annotations, plus timings when per-op timings from
 * Simulator::run are supplied) and Graphviz DOT output of the DAG.
 */

#ifndef H2O_SIM_DUMP_H
#define H2O_SIM_DUMP_H

#include <ostream>
#include <span>

#include "sim/graph.h"
#include "sim/simulator.h"

namespace h2o::sim {

/** Write a per-op text table of costs for a graph. */
void dumpGraph(const Graph &graph, std::ostream &os);

/**
 * Write a per-op table including simulated timings. `result` and
 * `per_op` must come from one `Simulator::run(graph, &per_op)` call on
 * this graph (one timing per op).
 */
void dumpGraphWithTimings(const Graph &graph, const SimResult &result,
                          std::span<const OpTiming> per_op,
                          std::ostream &os);

/** Write the DAG in Graphviz DOT format (fused ops shown dashed). */
void dumpDot(const Graph &graph, std::ostream &os);

} // namespace h2o::sim

#endif // H2O_SIM_DUMP_H
