/**
 * @file
 * The MLP performance model (Section 6.2.1): a small feed-forward
 * regressor with dual heads predicting training and serving performance
 * for the same target model, plus an analytical model-size output that
 * needs no learning. Targets are regressed in log space (execution times
 * span orders of magnitude across a 10^280 search space) with
 * standardized inputs/outputs.
 */

#ifndef H2O_PERFMODEL_PERF_MODEL_H
#define H2O_PERFMODEL_PERF_MODEL_H

#include <array>
#include <cstdint>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "nn/mlp.h"
#include "nn/normalizer.h"
#include "nn/optimizer.h"

namespace h2o::common { class Rng; }

namespace h2o::perfmodel {

/** Prediction for one candidate. */
struct PerfPrediction
{
    double trainStepTimeSec = 0.0; ///< head 0
    double servingTimeSec = 0.0;   ///< head 1
    double modelBytes = 0.0;       ///< analytical head (copied through)
};

/** Training hyper-parameters. */
struct PerfModelConfig
{
    size_t hiddenWidth = 512; ///< Table 1: 2 layers x 512 neurons
    size_t hiddenLayers = 2;
    size_t epochs = 30;
    size_t batchSize = 256;
    double learningRate = 2e-3;
    /** Multiplicative learning-rate decay applied after each epoch. */
    double lrDecay = 0.95;
};

/** Dual-head MLP regressor over architecture features. */
class PerfModel
{
  public:
    /**
     * @param input_dim Feature dimensionality.
     * @param config    Topology / training hyper-parameters.
     * @param rng       Weight-initialization stream.
     */
    PerfModel(size_t input_dim, PerfModelConfig config, common::Rng &rng);

    /**
     * Fit on a design matrix. Targets are two columns:
     * {train step time, serving time}, both in seconds (positive).
     *
     * @return Final epoch's mean training loss.
     */
    double train(const std::vector<std::vector<double>> &features,
                 const std::vector<std::array<double, 2>> &targets,
                 common::Rng &rng);

    /** Predict both heads for one feature vector. Equivalent to (and
     *  implemented as) a one-row predictBatch. */
    PerfPrediction predict(const std::vector<double> &features) const;

    /**
     * Predict both heads for a batch of feature vectors with ONE packed
     * MLP forward over an [n, d] matrix — the tiled kernels' fixed
     * per-element contraction order makes every row bit-identical to a
     * one-row predict(), while the batch amortizes dispatch and runs at
     * matrix (not vector) arithmetic intensity.
     */
    std::vector<PerfPrediction>
    predictBatch(const std::vector<std::vector<double>> &features) const;

    /**
     * Apply a post-hoc calibration (from fine-tuning) to subsequent
     * predictions: per head, log-space polynomial in the model's own
     * log prediction. Coefficients are lowest-degree first.
     *
     * Outside [domain_lo, domain_hi] — the range the calibration was
     * fitted on — the polynomial is evaluated at the clamped edge and
     * extended with unit slope, so a cubic fitted on 20 points can
     * never extrapolate wildly.
     */
    void setCalibration(size_t head, std::vector<double> coefficients,
                        double domain_lo = -1e300,
                        double domain_hi = 1e300);

    /** Remove any calibration (predictions revert to the raw MLP). */
    void clearCalibration();

    /** The raw (uncalibrated) log-space prediction of one head. */
    double rawLogPrediction(const std::vector<double> &features,
                            size_t head) const;

    /** Raw log-space predictions of BOTH heads for a batch of feature
     *  vectors, via one packed forward; out[i] = {head 0, head 1}. */
    std::vector<std::array<double, 2>> rawLogPredictionBatch(
        const std::vector<std::vector<double>> &features) const;

    /** True once train() has run. */
    bool trained() const { return _trained; }

    /** Feature dimensionality. */
    size_t inputDim() const { return _inputDim; }

    /**
     * Checkpoint the trained model: topology, normalizers, weights and
     * calibration. Fatal when called before train().
     */
    void save(std::ostream &os) const;

    /**
     * Restore a checkpoint into a model constructed with the SAME
     * topology (input dim, hidden width/layers); fatal on mismatch.
     */
    void load(std::istream &is);

  private:
    double applyCalibration(size_t head, double log_pred) const;

    size_t _inputDim;
    PerfModelConfig _config;
    /** Serializes prediction forwards: they write the MLP's layer
     *  buffers, and a per-candidate perf stage calls predict() from
     *  several shard lanes at once. Held by pointer so the model stays
     *  movable. */
    std::unique_ptr<std::mutex> _forwardMutex =
        std::make_unique<std::mutex>();
    std::unique_ptr<nn::Mlp> _mlp;
    std::unique_ptr<nn::AdamOptimizer> _optimizer;
    nn::Normalizer _featureNorm;
    nn::Normalizer _targetNorm;
    std::vector<std::vector<double>> _calibration; ///< per head, may be empty
    std::vector<std::pair<double, double>> _calibrationDomain;
    bool _trained = false;
};

} // namespace h2o::perfmodel

#endif // H2O_PERFMODEL_PERF_MODEL_H
