#include "perfmodel/perf_model.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "nn/loss.h"

namespace h2o::perfmodel {

PerfModel::PerfModel(size_t input_dim, PerfModelConfig config,
                     common::Rng &rng)
    : _inputDim(input_dim), _config(config)
{
    h2o_assert(input_dim > 0, "perf model with zero input dim");
    std::vector<size_t> dims;
    dims.push_back(input_dim);
    for (size_t l = 0; l < config.hiddenLayers; ++l)
        dims.push_back(config.hiddenWidth);
    dims.push_back(2); // dual heads: training / serving
    _mlp = std::make_unique<nn::Mlp>(dims, nn::Activation::ReLU,
                                     nn::Activation::Identity, rng);
    // The inputs are encoded feature rows, not upstream activations:
    // nothing consumes d(loss)/d(input), so skip the first layer's dX
    // matmul in backward (~1/3 of that layer's backward FLOPs).
    _mlp->setInputGradEnabled(false);
    _optimizer = std::make_unique<nn::AdamOptimizer>(_mlp->params(),
                                                     config.learningRate);
    _calibration.assign(2, {});
    _calibrationDomain.assign(2, {-1e300, 1e300});
}

double
PerfModel::train(const std::vector<std::vector<double>> &features,
                 const std::vector<std::array<double, 2>> &targets,
                 common::Rng &rng)
{
    h2o_assert(features.size() == targets.size() && !features.empty(),
               "perf model training data mismatch");
    size_t n = features.size();

    nn::Tensor x(n, _inputDim);
    nn::Tensor y(n, 2);
    for (size_t i = 0; i < n; ++i) {
        h2o_assert(features[i].size() == _inputDim,
                   "feature dim mismatch at row ", i);
        for (size_t j = 0; j < _inputDim; ++j)
            x.at(i, j) = static_cast<float>(features[i][j]);
        for (size_t h = 0; h < 2; ++h) {
            h2o_assert(targets[i][h] > 0.0, "non-positive target at row ",
                       i);
            y.at(i, h) = static_cast<float>(std::log(targets[i][h]));
        }
    }
    _featureNorm.fit(x);
    _featureNorm.transform(x);
    _targetNorm.fit(y);
    _targetNorm.transform(y);

    double final_loss = 0.0;
    size_t bs = std::min(_config.batchSize, n);
    double lr = _config.learningRate;
    // Batch staging buffers hoisted out of the epoch loop: every element
    // is overwritten per batch, so steady-state training is alloc-free.
    nn::Tensor xb(bs, _inputDim), yb(bs, 2), grad;
    for (size_t epoch = 0; epoch < _config.epochs; ++epoch) {
        _optimizer->setLearningRate(lr);
        lr *= _config.lrDecay;
        auto perm = rng.permutation(n);
        double epoch_loss = 0.0;
        size_t batches = 0;
        // Row gather through raw storage: at() is an out-of-line
        // bounds-checked call, far too slow for ~90 floats per row per
        // batch per epoch.
        const float *xd = x.data().data();
        const float *yd = y.data().data();
        float *xbd = xb.data().data();
        float *ybd = yb.data().data();
        for (size_t start = 0; start + bs <= n; start += bs) {
            for (size_t i = 0; i < bs; ++i) {
                size_t src = perm[start + i];
                std::copy_n(xd + src * _inputDim, _inputDim,
                            xbd + i * _inputDim);
                ybd[i * 2] = yd[src * 2];
                ybd[i * 2 + 1] = yd[src * 2 + 1];
            }
            const nn::Tensor &pred = _mlp->forward(xb);
            epoch_loss += nn::mseLoss(pred, yb, grad);
            _mlp->backward(grad);
            _optimizer->step();
            ++batches;
        }
        final_loss = batches ? epoch_loss / double(batches) : 0.0;
    }
    _trained = true;
    return final_loss;
}

double
PerfModel::rawLogPrediction(const std::vector<double> &features,
                            size_t head) const
{
    h2o_assert(head < 2, "head out of range");
    return rawLogPredictionBatch({features})[0][head];
}

std::vector<std::array<double, 2>>
PerfModel::rawLogPredictionBatch(
    const std::vector<std::vector<double>> &features) const
{
    h2o_assert(_trained, "predict before train");
    size_t n = features.size();
    std::vector<std::array<double, 2>> out(n);
    if (n == 0)
        return out;
    nn::Tensor x;
    x.resizeUninitialized(n, _inputDim);
    for (size_t i = 0; i < n; ++i) {
        h2o_assert(features[i].size() == _inputDim,
                   "feature dim mismatch at row ", i);
        for (size_t j = 0; j < _inputDim; ++j)
            x.at(i, j) = static_cast<float>(features[i][j]);
    }
    _featureNorm.transform(x);
    // forward() mutates layer caches; the model is logically const for
    // prediction. One packed forward serves both heads for every row.
    std::lock_guard<std::mutex> lock(*_forwardMutex);
    const nn::Tensor &pred = const_cast<nn::Mlp &>(*_mlp).forward(x);
    for (size_t i = 0; i < n; ++i)
        for (size_t h = 0; h < 2; ++h)
            out[i][h] = _targetNorm.inverse(pred.at(i, h), h);
    return out;
}

double
PerfModel::applyCalibration(size_t head, double log_pred) const
{
    const auto &coef = _calibration[head];
    if (coef.empty())
        return log_pred;
    auto [lo, hi] = _calibrationDomain[head];
    double x = std::clamp(log_pred, lo, hi);
    double corrected = 0.0;
    double power = 1.0;
    for (double c : coef) {
        corrected += c * power;
        power *= x;
    }
    // Unit-slope extension outside the fitted domain.
    return corrected + (log_pred - x);
}

PerfPrediction
PerfModel::predict(const std::vector<double> &features) const
{
    return predictBatch({features})[0];
}

std::vector<PerfPrediction>
PerfModel::predictBatch(
    const std::vector<std::vector<double>> &features) const
{
    auto raw = rawLogPredictionBatch(features);
    std::vector<PerfPrediction> out(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
        out[i].trainStepTimeSec =
            std::exp(applyCalibration(0, raw[i][0]));
        out[i].servingTimeSec = std::exp(applyCalibration(1, raw[i][1]));
    }
    return out;
}

void
PerfModel::setCalibration(size_t head, std::vector<double> coefficients,
                          double domain_lo, double domain_hi)
{
    h2o_assert(head < 2, "head out of range");
    h2o_assert(domain_lo <= domain_hi, "inverted calibration domain");
    _calibration[head] = std::move(coefficients);
    _calibrationDomain[head] = {domain_lo, domain_hi};
}

void
PerfModel::clearCalibration()
{
    _calibration.assign(2, {});
    _calibrationDomain.assign(2, {-1e300, 1e300});
}

namespace {

std::vector<double>
tensorToVector(const nn::Tensor &t)
{
    return std::vector<double>(t.data().begin(), t.data().end());
}

void
vectorToTensor(const std::vector<double> &v, nn::Tensor &t,
               const char *what)
{
    if (v.size() != t.size())
        h2o_fatal("perf-model checkpoint ", what, " has ", v.size(),
                  " values, model expects ", t.size());
    for (size_t i = 0; i < v.size(); ++i)
        t[i] = static_cast<float>(v[i]);
}

} // namespace

void
PerfModel::save(std::ostream &os) const
{
    h2o_assert(_trained, "saving an untrained perf model");
    common::writeTaggedScalar(os, "input_dim",
                              static_cast<double>(_inputDim));
    common::writeTaggedScalar(os, "hidden_width",
                              static_cast<double>(_config.hiddenWidth));
    common::writeTaggedScalar(os, "hidden_layers",
                              static_cast<double>(_config.hiddenLayers));
    common::writeTagged(os, "feature_mean", _featureNorm.means());
    common::writeTagged(os, "feature_std", _featureNorm.stddevs());
    common::writeTagged(os, "target_mean", _targetNorm.means());
    common::writeTagged(os, "target_std", _targetNorm.stddevs());
    for (size_t l = 0; l < _mlp->numLayers(); ++l) {
        auto &layer = const_cast<nn::Mlp &>(*_mlp).layer(l);
        common::writeTagged(os, "w" + std::to_string(l),
                            tensorToVector(layer.weights()));
        common::writeTagged(os, "b" + std::to_string(l),
                            tensorToVector(layer.bias()));
    }
    for (size_t h = 0; h < 2; ++h) {
        common::writeTagged(os, "calib" + std::to_string(h),
                            _calibration[h]);
        common::writeTagged(os, "calib_domain" + std::to_string(h),
                            {_calibrationDomain[h].first,
                             _calibrationDomain[h].second});
    }
}

void
PerfModel::load(std::istream &is)
{
    size_t input_dim = static_cast<size_t>(
        common::readTaggedScalar(is, "input_dim"));
    size_t hidden_width = static_cast<size_t>(
        common::readTaggedScalar(is, "hidden_width"));
    size_t hidden_layers = static_cast<size_t>(
        common::readTaggedScalar(is, "hidden_layers"));
    if (input_dim != _inputDim || hidden_width != _config.hiddenWidth ||
        hidden_layers != _config.hiddenLayers) {
        h2o_fatal("perf-model checkpoint topology (", input_dim, "/",
                  hidden_width, "x", hidden_layers,
                  ") does not match this model (", _inputDim, "/",
                  _config.hiddenWidth, "x", _config.hiddenLayers, ")");
    }
    // Sequence the reads explicitly: function-argument evaluation
    // order is unspecified, and these reads consume a stream.
    auto feature_mean = common::readTagged(is, "feature_mean");
    auto feature_std = common::readTagged(is, "feature_std");
    _featureNorm.restore(std::move(feature_mean), std::move(feature_std));
    auto target_mean = common::readTagged(is, "target_mean");
    auto target_std = common::readTagged(is, "target_std");
    _targetNorm.restore(std::move(target_mean), std::move(target_std));
    for (size_t l = 0; l < _mlp->numLayers(); ++l) {
        auto &layer = _mlp->layer(l);
        vectorToTensor(common::readTagged(is, "w" + std::to_string(l)),
                       layer.weights(), "weights");
        vectorToTensor(common::readTagged(is, "b" + std::to_string(l)),
                       layer.bias(), "bias");
    }
    for (size_t h = 0; h < 2; ++h) {
        _calibration[h] =
            common::readTagged(is, "calib" + std::to_string(h));
        auto domain =
            common::readTagged(is, "calib_domain" + std::to_string(h));
        if (domain.size() != 2)
            h2o_fatal("perf-model checkpoint calibration domain malformed");
        _calibrationDomain[h] = {domain[0], domain[1]};
    }
    _trained = true;
}

} // namespace h2o::perfmodel
