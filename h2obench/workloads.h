/**
 * @file
 * The benchmark's four workloads (see README.md for why each exists).
 * Each runs one measured pass; `tracer` is null for the untraced pass
 * that yields the end-to-end numbers.
 */

#ifndef H2OBENCH_WORKLOADS_H
#define H2OBENCH_WORKLOADS_H

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "searchspace/decision_space.h"

namespace h2obench {

PassResult runSurrogateBurst(const Options &opts, Tracer *tracer);
PassResult runSupernetStream(const Options &opts, Tracer *tracer);
PassResult runForkedShards(const Options &opts, Tracer *tracer);
PassResult runPerfmodelBuild(const Options &opts, Tracer *tracer);

// --- Replays: the traced pass re-runs one layer's public entry point on
// --- the inputs the pass produced, to time that layer in isolation.

/** Policy::sample and ReinforceController::update on the production
 *  DLRM space at `samples_per_step` candidates per update. Fills
 *  controller.sample_us and controller.update_us. */
void replayController(size_t samples_per_step, uint64_t seed,
                      std::map<std::string, double> &layers);

/** DlrmSupernet::evaluateBatch over `candidates` (of the serve jobs'
 *  small DLRM space), `per_step` candidates per call. Fills
 *  supernet.eval_rows_per_s and supernet.dedup_ratio. */
void replaySupernet(const std::vector<h2o::searchspace::Sample> &candidates,
                    size_t per_step, uint64_t seed,
                    std::map<std::string, double> &layers);

/** arch::buildDlrmGraph and Simulator::runBatch over distinct
 *  production-space candidates. Fills arch.lower_us and
 *  sim.simulate_us. */
void replayLoweringAndSim(const std::vector<h2o::searchspace::Sample> &samples,
                          std::map<std::string, double> &layers);

} // namespace h2obench

#endif // H2OBENCH_WORKLOADS_H
