/**
 * @file
 * Unit tests for the trainable layers: analytic gradients checked
 * against finite differences (the property that makes the whole
 * super-network trustworthy), masking invariants, embedding lookups,
 * losses, optimizers, and end-to-end MLP convergence.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "arch/dlrm_arch.h"
#include "common/rng.h"
#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/embedding.h"
#include "nn/loss.h"
#include "nn/low_rank_dense.h"
#include "nn/masked_dense.h"
#include "nn/mlp.h"
#include "nn/normalizer.h"
#include "nn/optimizer.h"
#include "perfmodel/perf_model.h"
#include "pipeline/pipeline.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

namespace arch = h2o::arch;
namespace nn = h2o::nn;
namespace pl = h2o::pipeline;
namespace pm = h2o::perfmodel;
namespace sn = h2o::supernet;
namespace ss = h2o::searchspace;
using h2o::common::Rng;

namespace {

/** Scalar loss = 0.5 * sum(out^2); dL/dout = out. */
double
halfSquare(const nn::Tensor &out)
{
    double acc = 0.0;
    for (float v : out.data())
        acc += 0.5 * double(v) * double(v);
    return acc;
}

/**
 * Finite-difference check of every parameter gradient of a layer under
 * the half-square loss.
 */
void
checkParamGradients(nn::Layer &layer, const nn::Tensor &input,
                    double tol = 2e-2)
{
    layer.zeroGrad();
    const nn::Tensor &out = layer.forward(input);
    nn::Tensor dout = out; // dL/dout = out
    layer.backward(dout);

    for (auto &p : layer.params()) {
        // Check a subset of entries for speed.
        size_t stride = std::max<size_t>(1, p.value->size() / 16);
        for (size_t i = 0; i < p.value->size(); i += stride) {
            float orig = (*p.value)[i];
            const float eps = 1e-2f;
            (*p.value)[i] = orig + eps;
            double lp = halfSquare(layer.forward(input));
            (*p.value)[i] = orig - eps;
            double lm = halfSquare(layer.forward(input));
            (*p.value)[i] = orig;
            double numeric = (lp - lm) / (2.0 * eps);
            double analytic = (*p.grad)[i];
            EXPECT_NEAR(analytic, numeric,
                        tol * std::max(1.0, std::abs(numeric)))
                << layer.describe() << " param idx " << i;
        }
    }
}

nn::Tensor
randomInput(size_t rows, size_t cols, uint64_t seed)
{
    Rng rng(seed);
    nn::Tensor t(rows, cols);
    t.gaussianInit(rng, 1.0f);
    return t;
}

} // namespace

// --------------------------------------------------------------- Dense

TEST(DenseLayer, ForwardShapeAndBias)
{
    Rng rng(1);
    nn::DenseLayer layer(3, 2, nn::Activation::Identity, rng);
    layer.bias()[0] = 1.0f;
    layer.weights().zero();
    nn::Tensor in(4, 3);
    const nn::Tensor &out = layer.forward(in);
    EXPECT_EQ(out.rows(), 4u);
    EXPECT_EQ(out.cols(), 2u);
    EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 0.0f);
}

TEST(DenseLayer, ParamGradientsMatchFiniteDifference)
{
    Rng rng(2);
    nn::DenseLayer layer(4, 3, nn::Activation::Tanh, rng);
    checkParamGradients(layer, randomInput(5, 4, 3));
}

TEST(DenseLayer, InputGradientMatchesFiniteDifference)
{
    Rng rng(4);
    nn::DenseLayer layer(3, 2, nn::Activation::Swish, rng);
    nn::Tensor in = randomInput(2, 3, 5);
    layer.zeroGrad();
    const nn::Tensor &out = layer.forward(in);
    nn::Tensor dout = out;
    nn::Tensor din = layer.backward(dout);

    const float eps = 1e-2f;
    for (size_t i = 0; i < in.size(); ++i) {
        nn::Tensor p = in;
        p[i] += eps;
        double lp = halfSquare(layer.forward(p));
        nn::Tensor m = in;
        m[i] -= eps;
        double lm = halfSquare(layer.forward(m));
        double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(din[i], numeric, 2e-2 * std::max(1.0, std::abs(numeric)));
    }
}

// --------------------------------------------------------- MaskedDense

TEST(MaskedDense, ActiveRegionOnly)
{
    Rng rng(6);
    nn::MaskedDenseLayer layer(8, 6, nn::Activation::Identity, rng);
    layer.setActive(4, 3);
    nn::Tensor in = randomInput(2, 8, 7);
    const nn::Tensor &out = layer.forward(in);
    EXPECT_EQ(out.cols(), 3u);
    EXPECT_EQ(layer.activeParamCount(), 4u * 3u + 3u);
}

TEST(MaskedDense, GradientsMatchFiniteDifferenceUnderMask)
{
    Rng rng(8);
    nn::MaskedDenseLayer layer(6, 5, nn::Activation::ReLU, rng);
    layer.setActive(4, 3);
    checkParamGradients(layer, randomInput(4, 6, 9));
}

TEST(MaskedDense, InactiveWeightsGetNoGradient)
{
    Rng rng(10);
    nn::MaskedDenseLayer layer(6, 6, nn::Activation::Identity, rng);
    layer.setActive(3, 2);
    layer.zeroGrad();
    nn::Tensor in = randomInput(5, 6, 11);
    const nn::Tensor &out = layer.forward(in);
    nn::Tensor dout = out;
    layer.backward(dout);
    auto params = layer.params();
    auto &wgrad = *params[0].grad; // 6x6 weight grad
    // Rows >= 3 (inactive inputs) and cols >= 2 (inactive outputs)
    // must be exactly zero.
    for (size_t r = 0; r < 6; ++r) {
        for (size_t c = 0; c < 6; ++c) {
            if (r >= 3 || c >= 2) {
                EXPECT_FLOAT_EQ(wgrad.at(r, c), 0.0f)
                    << "leak at " << r << "," << c;
            }
        }
    }
}

TEST(MaskedDense, GrowingMaskReusesWeights)
{
    // The upper-left sub-matrix must produce the same contribution at
    // any mask size — the weight-reuse property of fine-grained sharing.
    Rng rng(12);
    nn::MaskedDenseLayer layer(4, 4, nn::Activation::Identity, rng);
    nn::Tensor in = randomInput(1, 4, 13);
    in[2] = 0.0f;
    in[3] = 0.0f; // zero the features beyond the small mask

    layer.setActive(2, 2);
    nn::Tensor small = layer.forward(in);
    layer.setActive(4, 2);
    nn::Tensor large = layer.forward(in);
    EXPECT_NEAR(small.at(0, 0), large.at(0, 0), 1e-5);
    EXPECT_NEAR(small.at(0, 1), large.at(0, 1), 1e-5);
}

TEST(MaskedDense, BadActivePanics)
{
    Rng rng(14);
    nn::MaskedDenseLayer layer(4, 4, nn::Activation::Identity, rng);
    EXPECT_DEATH(layer.setActive(5, 2), "out of range");
    EXPECT_DEATH(layer.setActive(2, 0), "out of range");
}

// -------------------------------------------------------- LowRankDense

TEST(LowRankDense, ForwardShape)
{
    Rng rng(16);
    nn::LowRankDenseLayer layer(8, 6, 10, nn::Activation::Identity, rng);
    layer.setActive(8, 3, 10);
    const nn::Tensor &out = layer.forward(randomInput(2, 8, 17));
    EXPECT_EQ(out.cols(), 10u);
    EXPECT_EQ(layer.activeRank(), 3u);
    EXPECT_EQ(layer.activeParamCount(), 8u * 3u + 3u * 10u + 10u);
}

TEST(LowRankDense, GradientsMatchFiniteDifference)
{
    Rng rng(18);
    nn::LowRankDenseLayer layer(5, 4, 6, nn::Activation::Tanh, rng);
    layer.setActive(5, 2, 6);
    checkParamGradients(layer, randomInput(3, 5, 19));
}

TEST(LowRankDense, RankReducesParams)
{
    Rng rng(20);
    nn::LowRankDenseLayer layer(64, 64, 64, nn::Activation::ReLU, rng);
    layer.setActive(64, 8, 64);
    size_t low = layer.activeParamCount();
    layer.setActive(64, 64, 64);
    size_t full = layer.activeParamCount();
    EXPECT_LT(low, full / 3);
}

// ---------------------------------------------- steady-state allocations

// A warmed-up layer reuses every buffer across training steps, the
// transposed-weight scratch of its dX = dY W^T matmul included.
TEST(LayerAllocs, SteadyStateStepsAllocateNoTensors)
{
    Rng rng(30);
    nn::DenseLayer dense(24, 16, nn::Activation::ReLU, rng);
    nn::MaskedDenseLayer masked(24, 16, nn::Activation::ReLU, rng);
    masked.setActive(20, 12);
    nn::LowRankDenseLayer low_rank(24, 8, 16, nn::Activation::ReLU, rng);
    low_rank.setActive(20, 6, 12);
    nn::Tensor in = randomInput(9, 24, 31);
    for (nn::Layer *layer :
         std::vector<nn::Layer *>{&dense, &masked, &low_rank}) {
        nn::Tensor grad =
            randomInput(in.rows(), layer->forward(in).cols(), 32);
        layer->backward(grad); // warm-up: the buffers grow here
        nn::resetTensorAllocCount();
        for (int step = 0; step < 3; ++step) {
            layer->zeroGrad();
            layer->forward(in);
            layer->backward(grad);
        }
        EXPECT_EQ(nn::tensorAllocCount(), 0u) << layer->describe();
    }
}

// A loss writes its gradient into the caller's tensor: after the first
// step the buffer is reused and the loss allocates nothing.
TEST(LayerAllocs, LossesReuseTheCallersGradTensor)
{
    nn::Tensor pred = randomInput(9, 2, 33);
    nn::Tensor target = randomInput(9, 2, 34);
    nn::Tensor labels(9, 2);
    for (size_t i = 0; i < labels.size(); ++i)
        labels[i] = static_cast<float>(i % 2);
    nn::Tensor grad;
    nn::mseLoss(pred, target, grad); // warm-up: the buffer grows here
    nn::resetTensorAllocCount();
    for (int step = 0; step < 3; ++step) {
        nn::mseLoss(pred, target, grad);
        nn::bceWithLogits(pred, labels, grad);
        nn::huberLoss(pred, target, 0.5, grad);
    }
    EXPECT_EQ(nn::tensorAllocCount(), 0u);
}

// PerfModel::train: every SGD step after the first reuses the batch,
// layer and loss-gradient buffers, so extra epochs allocate no tensors.
TEST(LayerAllocs, PerfModelTrainStepsAllocateNoTensors)
{
    std::vector<std::vector<double>> features;
    std::vector<std::array<double, 2>> targets;
    Rng data(35);
    for (size_t i = 0; i < 64; ++i) {
        std::vector<double> row;
        for (size_t j = 0; j < 6; ++j)
            row.push_back(data.uniform(0.0, 1.0));
        features.push_back(row);
        targets.push_back({1.0 + row[0], 2.0 + row[1]});
    }
    auto allocs_for = [&](size_t epochs) {
        pm::PerfModelConfig cfg;
        cfg.hiddenWidth = 16;
        cfg.epochs = epochs;
        cfg.batchSize = 16; // four steps per epoch
        Rng init(36), order(37);
        pm::PerfModel model(6, cfg, init);
        nn::resetTensorAllocCount();
        model.train(features, targets, order);
        return nn::tensorAllocCount();
    };
    EXPECT_EQ(allocs_for(4), allocs_for(1));
}

// DlrmSupernet::accumulateGradients on a warmed configuration reuses its
// workspace, loss-gradient buffer included.
TEST(LayerAllocs, SupernetAccumulateGradientsAllocatesNoTensors)
{
    arch::DlrmArch a;
    a.numDenseFeatures = 4;
    a.tables = {{512, 8, 1.0}, {256, 8, 1.0}};
    a.bottomMlp = {{16, 0}};
    a.topMlp = {{32, 0}};
    a.globalBatch = 256;
    ss::DlrmSearchSpace space(a);
    Rng rng(38);
    sn::DlrmSupernet net(space, sn::SupernetConfig{128, 64}, rng);
    pl::InMemoryPipeline pipe(
        std::make_unique<pl::TrafficGenerator>(
            pl::trafficConfigFor(4, {512, 256}, {1.0, 1.0}), 39),
        32);
    net.configure(space.decisions().uniformSample(rng));
    auto lease = pipe.lease();
    net.accumulateGradients(lease.batch()); // warm-up
    nn::resetTensorAllocCount();
    for (int step = 0; step < 3; ++step)
        net.accumulateGradients(lease.batch());
    EXPECT_EQ(nn::tensorAllocCount(), 0u);
    lease.markAlphaUse();
    lease.markWeightUse();
}

// ---------------------------------------------------------- Activation

// The tensor backward maps against the scalar formula g * act'(x),
// bitwise: negative, signed-zero, infinite and NaN grads against
// pre-activations on both sides of zero, at +-0 and NaN.
TEST(Activation, GradTensorMatchesScalarFormulaBitwise)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> xs = {-2.5f, -1e-30f, -0.0f, 0.0f,
                                   1e-30f, 0.75f,  3.0f,  nan};
    const std::vector<float> gs = {-1.5f, -0.0f, 0.0f, 2.0f,
                                   nan,   -nan,  inf,  -inf};
    nn::Tensor pre(xs.size(), gs.size()), grad(xs.size(), gs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
        for (size_t j = 0; j < gs.size(); ++j) {
            pre.at(i, j) = xs[i];
            grad.at(i, j) = gs[j];
        }
    }
    auto bits = [](float v) {
        uint32_t b;
        std::memcpy(&b, &v, sizeof(b));
        return b;
    };
    for (nn::Activation act :
         {nn::Activation::Identity, nn::Activation::ReLU,
          nn::Activation::Swish, nn::Activation::GeLU,
          nn::Activation::SquaredReLU, nn::Activation::Sigmoid,
          nn::Activation::Tanh}) {
        nn::Tensor dpre(xs.size(), gs.size());
        nn::activateGradTensor(act, pre, grad, dpre);
        for (size_t i = 0; i < pre.size(); ++i) {
            float want = grad[i] * nn::activateGrad(act, pre[i]);
            EXPECT_EQ(bits(dpre[i]), bits(want))
                << nn::activationName(act) << " x=" << pre[i]
                << " g=" << grad[i];
        }
    }
}

// ----------------------------------------------------------- Embedding

TEST(Embedding, LookupAveragesRows)
{
    Rng rng(22);
    nn::EmbeddingTable table(10, 4, rng);
    table.setActiveWidth(4);
    // Forge known rows.
    auto params = table.params();
    nn::Tensor &storage = *params[0].value;
    storage.zero();
    storage.at(2, 0) = 1.0f;
    storage.at(3, 0) = 3.0f;

    std::vector<nn::IdList> ids = {{2, 3}};
    nn::Tensor out = table.forward(ids);
    EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f); // mean of 1 and 3
}

TEST(Embedding, HashingWrapsIds)
{
    Rng rng(24);
    nn::EmbeddingTable table(8, 2, rng);
    std::vector<nn::IdList> a = {{3}};
    std::vector<nn::IdList> b = {{11}}; // 11 % 8 == 3
    nn::Tensor oa = table.forward(a);
    nn::Tensor ob = table.forward(b);
    EXPECT_FLOAT_EQ(oa.at(0, 0), ob.at(0, 0));
}

TEST(Embedding, MaskedWidth)
{
    Rng rng(26);
    nn::EmbeddingTable table(4, 8, rng);
    table.setActiveWidth(3);
    std::vector<nn::IdList> ids = {{1}};
    nn::Tensor out = table.forward(ids);
    EXPECT_EQ(out.cols(), 3u);
    EXPECT_EQ(table.activeParamCount(), 4u * 3u);
}

TEST(Embedding, BackwardScattersIntoTouchedRows)
{
    Rng rng(28);
    nn::EmbeddingTable table(6, 2, rng);
    table.setActiveWidth(2);
    std::vector<nn::IdList> ids = {{1}, {1, 4}};
    table.zeroGrad();
    table.forward(ids);
    nn::Tensor grad(2, 2);
    grad.fill(1.0f);
    table.backward(grad);
    auto params = table.params();
    nn::Tensor &g = *params[0].grad;
    // Row 1: 1.0 from example 0 plus 0.5 from example 1.
    EXPECT_FLOAT_EQ(g.at(1, 0), 1.5f);
    EXPECT_FLOAT_EQ(g.at(4, 0), 0.5f);
    EXPECT_FLOAT_EQ(g.at(0, 0), 0.0f); // untouched row
}

TEST(Embedding, EmptyIdListYieldsZeroVector)
{
    Rng rng(30);
    nn::EmbeddingTable table(4, 3, rng);
    std::vector<nn::IdList> ids = {{}};
    nn::Tensor out = table.forward(ids);
    EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(out.at(0, 2), 0.0f);
}

// -------------------------------------------------------------- losses

TEST(Loss, BceMatchesManual)
{
    nn::Tensor logits(2, 1);
    logits.at(0, 0) = 0.0f;
    logits.at(1, 0) = 2.0f;
    nn::Tensor labels(2, 1);
    labels.at(0, 0) = 1.0f;
    labels.at(1, 0) = 0.0f;
    nn::Tensor grad;
    double value = nn::bceWithLogits(logits, labels, grad);
    double expected =
        0.5 * (-std::log(0.5) - std::log(1.0 - nn::sigmoid(2.0)));
    EXPECT_NEAR(value, expected, 1e-9);
    // grad = (sigmoid(z) - y) / n
    EXPECT_NEAR(grad.at(0, 0), (0.5 - 1.0) / 2.0, 1e-6);
    EXPECT_NEAR(grad.at(1, 0), nn::sigmoid(2.0) / 2.0, 1e-6);
}

TEST(Loss, BceGradFiniteDifference)
{
    nn::Tensor logits(3, 1), labels(3, 1);
    logits.at(0, 0) = 0.7f;
    logits.at(1, 0) = -1.2f;
    logits.at(2, 0) = 0.1f;
    labels.at(0, 0) = 1.0f;
    labels.at(2, 0) = 1.0f;
    nn::Tensor grad, scratch;
    nn::bceWithLogits(logits, labels, grad);
    const float eps = 1e-3f;
    for (size_t i = 0; i < 3; ++i) {
        nn::Tensor p = logits;
        p[i] += eps;
        nn::Tensor m = logits;
        m[i] -= eps;
        double numeric = (nn::bceWithLogits(p, labels, scratch) -
                          nn::bceWithLogits(m, labels, scratch)) /
                         (2.0 * eps);
        EXPECT_NEAR(grad[i], numeric, 1e-4);
    }
}

TEST(Loss, MseValueAndGrad)
{
    nn::Tensor pred(1, 2), target(1, 2);
    pred.at(0, 0) = 3.0f;
    target.at(0, 0) = 1.0f;
    nn::Tensor grad;
    EXPECT_DOUBLE_EQ(nn::mseLoss(pred, target, grad), 2.0); // (4 + 0) / 2
    EXPECT_FLOAT_EQ(grad.at(0, 0), 2.0f); // 2*2/2
}

TEST(Loss, HuberBlendsRegimes)
{
    nn::Tensor pred(1, 2), target(1, 2);
    pred.at(0, 0) = 0.5f;  // inside delta=1: quadratic
    pred.at(0, 1) = 3.0f;  // outside: linear
    nn::Tensor grad;
    EXPECT_NEAR(nn::huberLoss(pred, target, 1.0, grad),
                (0.5 * 0.25 + (3.0 - 0.5)) / 2.0, 1e-6);
    EXPECT_FLOAT_EQ(grad.at(0, 0), 0.25f); // d / n, quadratic side
    EXPECT_FLOAT_EQ(grad.at(0, 1), 0.5f);  // delta / n, linear side
}

TEST(Loss, AucPerfectAndRandomAndDegenerate)
{
    std::vector<double> labels = {1, 1, 0, 0};
    EXPECT_DOUBLE_EQ(nn::auc({0.9, 0.8, 0.2, 0.1}, labels), 1.0);
    EXPECT_DOUBLE_EQ(nn::auc({0.1, 0.2, 0.8, 0.9}, labels), 0.0);
    EXPECT_DOUBLE_EQ(nn::auc({0.5, 0.5, 0.5, 0.5}, labels), 0.5);
    EXPECT_DOUBLE_EQ(nn::auc({0.3, 0.4}, {1, 1}), 0.5); // one class
}

TEST(Loss, LogLossMatchesBce)
{
    std::vector<double> probs = {0.9, 0.2};
    std::vector<double> labels = {1.0, 0.0};
    double expected = (-std::log(0.9) - std::log(0.8)) / 2.0;
    EXPECT_NEAR(nn::logLoss(probs, labels), expected, 1e-12);
}

// ---------------------------------------------------------- optimizers

TEST(Optimizer, SgdStepAndZeroGrad)
{
    nn::Tensor w(1, 2), g(1, 2);
    w.fill(1.0f);
    g.fill(0.5f);
    nn::SgdOptimizer opt({{&w, &g}}, 0.1);
    opt.step();
    EXPECT_FLOAT_EQ(w.at(0, 0), 0.95f);
    EXPECT_FLOAT_EQ(g.at(0, 0), 0.0f); // gradients consumed
}

TEST(Optimizer, SgdMomentumAccumulates)
{
    nn::Tensor w(1, 1), g(1, 1);
    nn::SgdOptimizer opt({{&w, &g}}, 1.0, 0.9);
    g[0] = 1.0f;
    opt.step();
    EXPECT_FLOAT_EQ(w[0], -1.0f);
    g[0] = 1.0f;
    opt.step(); // velocity = 0.9*1 + 1 = 1.9
    EXPECT_FLOAT_EQ(w[0], -2.9f);
}

TEST(Optimizer, ZeroGradLeavesWeightsWithSgd)
{
    // The supernet relies on this: an untouched sub-network (zero grad)
    // must not move under momentum-free SGD.
    nn::Tensor w(1, 1), g(1, 1);
    w[0] = 3.0f;
    nn::SgdOptimizer opt({{&w, &g}}, 0.5, 0.0);
    opt.step();
    EXPECT_FLOAT_EQ(w[0], 3.0f);
}

TEST(Optimizer, AdamConvergesOnQuadratic)
{
    // Minimize (w - 3)^2 by feeding grad = 2(w - 3).
    nn::Tensor w(1, 1), g(1, 1);
    nn::AdamOptimizer opt({{&w, &g}}, 0.1);
    for (int i = 0; i < 500; ++i) {
        g[0] = 2.0f * (w[0] - 3.0f);
        opt.step();
    }
    EXPECT_NEAR(w[0], 3.0f, 1e-2);
}

TEST(Optimizer, GradClipping)
{
    nn::Tensor w(1, 2), g(1, 2);
    g.at(0, 0) = 3.0f;
    g.at(0, 1) = 4.0f; // norm 5
    nn::SgdOptimizer opt({{&w, &g}}, 1.0);
    EXPECT_DOUBLE_EQ(opt.gradNorm(), 5.0);
    opt.clipGradNorm(1.0);
    EXPECT_NEAR(opt.gradNorm(), 1.0, 1e-6);
}

// ----------------------------------------------------------------- MLP

TEST(Mlp, LearnsXor)
{
    Rng rng(40);
    nn::Mlp mlp({2, 16, 1}, nn::Activation::Tanh, nn::Activation::Identity,
                rng);
    nn::AdamOptimizer opt(mlp.params(), 0.02);

    nn::Tensor x(4, 2), y(4, 1);
    float data[4][3] = {{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}};
    for (size_t i = 0; i < 4; ++i) {
        x.at(i, 0) = data[i][0];
        x.at(i, 1) = data[i][1];
        y.at(i, 0) = data[i][2];
    }
    double last = 1e9;
    nn::Tensor grad;
    for (int epoch = 0; epoch < 2000; ++epoch) {
        const nn::Tensor &pred = mlp.forward(x);
        last = nn::mseLoss(pred, y, grad);
        mlp.backward(grad);
        opt.step();
    }
    EXPECT_LT(last, 0.01);
}

TEST(Mlp, ParamCount)
{
    Rng rng(42);
    nn::Mlp mlp({3, 5, 2}, nn::Activation::ReLU, nn::Activation::Identity,
                rng);
    EXPECT_EQ(mlp.paramCount(), 3u * 5 + 5 + 5 * 2 + 2);
    EXPECT_EQ(mlp.numLayers(), 2u);
}

// ----------------------------------------------------------- Normalizer

TEST(Normalizer, StandardizesAndInverts)
{
    nn::Tensor data(3, 2);
    data.at(0, 0) = 1.0f;
    data.at(1, 0) = 2.0f;
    data.at(2, 0) = 3.0f;
    data.at(0, 1) = 10.0f;
    data.at(1, 1) = 10.0f;
    data.at(2, 1) = 10.0f; // constant column: stddev floor applies
    nn::Normalizer norm;
    norm.fit(data);
    nn::Tensor copy = data;
    norm.transform(copy);
    EXPECT_NEAR(copy.at(1, 0), 0.0, 1e-5);
    EXPECT_NEAR(norm.inverse(copy.at(2, 0), 0), 3.0, 1e-4);
    EXPECT_NEAR(norm.apply(2.0, 0), 0.0, 1e-6);
}
