/**
 * @file
 * A/B tests for the tiled matmul kernels against the reference scalar
 * kernels: every micro-kernel ISA variant the host supports must give
 * the reference kernels' bits, on ragged and masked shapes, in every
 * accumulate mode. Plus the determinism contract: tiled results are
 * bitwise reproducible run-to-run and bit-identical across exec thread
 * counts.
 */

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/shard_runner.h"
#include "exec/shard_transport.h"
#include "nn/activation.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"

using namespace h2o;

namespace {

nn::Tensor
randomTensor(size_t rows, size_t cols, common::Rng &rng,
             double zero_prob = 0.0)
{
    nn::Tensor t(rows, cols);
    for (size_t i = 0; i < t.size(); ++i) {
        if (zero_prob > 0.0 && rng.uniform() < zero_prob)
            t[i] = 0.0f;
        else
            t[i] = static_cast<float>(rng.normal());
    }
    return t;
}

bool
sameBits(const nn::Tensor &a, const nn::Tensor &b)
{
    // memcmp must not see the null data pointer of an empty tensor.
    return a.size() == b.size() &&
           (a.size() == 0 ||
            std::memcmp(a.data().data(), b.data().data(),
                        a.size() * sizeof(float)) == 0);
}

void
expectBitIdentical(const nn::Tensor &a, const nn::Tensor &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                             a.size() * sizeof(float)));
}

struct Shape
{
    size_t m, k, n, k_act, n_act;
};

std::vector<Shape>
randomShapes(common::Rng &rng, size_t count)
{
    std::vector<Shape> shapes;
    // Fixed corner cases: single element, sub-tile, exact tile multiples,
    // and ragged remainders around the 6- and 8-row, 4-to-32-column
    // tiles.
    shapes.push_back({1, 1, 1, 1, 1});
    shapes.push_back({3, 5, 7, 2, 4});
    shapes.push_back({4, 16, 64, 16, 64});
    shapes.push_back({8, 32, 128, 32, 128});
    shapes.push_back({5, 17, 65, 13, 33});
    shapes.push_back({9, 64, 192, 50, 130});
    for (size_t i = 0; i < count; ++i) {
        size_t m = static_cast<size_t>(rng.uniformInt(1, 40));
        size_t k = static_cast<size_t>(rng.uniformInt(1, 96));
        size_t n = static_cast<size_t>(rng.uniformInt(1, 160));
        size_t k_act = static_cast<size_t>(
            rng.uniformInt(1, static_cast<int64_t>(k)));
        size_t n_act = static_cast<size_t>(
            rng.uniformInt(1, static_cast<int64_t>(n)));
        shapes.push_back({m, k, n, k_act, n_act});
    }
    return shapes;
}

} // namespace

TEST(NnKernels, KernelIsaIsWidestSupportedVariant)
{
    std::vector<nn::KernelIsa> isas = nn::supportedKernelIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), nn::KernelIsa::Baseline);
    EXPECT_EQ(nn::kernelIsa(), isas.back());
    for (nn::KernelIsa isa : isas)
        EXPECT_STRNE(nn::kernelIsaName(isa), "");
}

TEST(NnKernels, TiledMatmulMaskedMatchesReference)
{
    common::Rng rng(1234);
    for (const Shape &s : randomShapes(rng, 24)) {
        // Masked-weight sparsity exercises the reference kernel's
        // zero-skip path against the micro-kernel's dense path.
        nn::Tensor a = randomTensor(s.m, s.k, rng, 0.3);
        nn::Tensor b = randomTensor(s.k, s.n, rng, 0.3);
        for (bool accumulate : {false, true}) {
            nn::Tensor c0 = randomTensor(s.m, s.n, rng);
            nn::Tensor c_ref = c0;
            nn::reference::matmulMasked(a, b, c_ref, s.k_act, s.n_act,
                                        accumulate);
            for (nn::KernelIsa isa : nn::supportedKernelIsas()) {
                nn::Tensor c_tiled = c0; // same starting contents
                nn::tiled::matmulMasked(a, b, c_tiled, s.k_act, s.n_act,
                                        accumulate, isa);
                expectBitIdentical(c_tiled, c_ref);
            }
        }
    }
}

TEST(NnKernels, TiledMatmulTransAMaskedMatchesReference)
{
    common::Rng rng(2345);
    for (const Shape &s : randomShapes(rng, 24)) {
        nn::Tensor a = randomTensor(s.m, s.k, rng, 0.3); // A[m,k]
        nn::Tensor b = randomTensor(s.m, s.n, rng, 0.3); // B[m,n]
        nn::Tensor c0 = randomTensor(s.k, s.n, rng);     // C[k,n] +=
        nn::Tensor c_ref = c0;
        nn::reference::matmulTransAMasked(a, b, c_ref, s.k_act, s.n_act);
        for (nn::KernelIsa isa : nn::supportedKernelIsas()) {
            nn::Tensor c_tiled = c0;
            nn::tiled::matmulTransAMasked(a, b, c_tiled, s.k_act, s.n_act,
                                          isa);
            expectBitIdentical(c_tiled, c_ref);
        }
    }
}

TEST(NnKernels, TiledMatmulTransBMaskedMatchesReference)
{
    common::Rng rng(3456);
    nn::Tensor bt_scratch;
    for (const Shape &s : randomShapes(rng, 24)) {
        nn::Tensor a = randomTensor(s.m, s.n, rng, 0.3); // A[m,n]
        nn::Tensor b = randomTensor(s.k, s.n, rng, 0.3); // B[k,n], used ^T
        for (bool accumulate : {false, true}) {
            nn::Tensor c0 = randomTensor(s.m, s.k, rng);
            nn::Tensor c_ref = c0;
            nn::reference::matmulTransBMasked(a, b, c_ref, s.n_act,
                                              s.k_act, accumulate);
            for (nn::KernelIsa isa : nn::supportedKernelIsas()) {
                nn::Tensor c_tiled = c0;
                nn::tiled::matmulTransBMasked(a, b, c_tiled, s.n_act,
                                              s.k_act, accumulate,
                                              &bt_scratch, isa);
                expectBitIdentical(c_tiled, c_ref);
            }
        }
    }
}

// Every variant against the reference on every combination of ragged
// sizes around the tile edges, including empty ones. The tensors are
// wider than the active sub-ranges (row strides above the active
// widths), a third of A is exact zeros (the reference kernels skip
// those terms), and every column past the active range must come out
// untouched — the whole storage is compared.
TEST(NnKernels, EveryIsaMatchesReferenceOnRaggedShapes)
{
    const size_t sizes[] = {0,  1,  2,  3,  5,  7,  8,  9,
                            15, 16, 17, 31, 33, 87, 128};
    const std::vector<nn::KernelIsa> isas = nn::supportedKernelIsas();
    common::Rng rng(4242);
    nn::Tensor bt_scratch;
    size_t mismatches = 0;
    auto check = [&](const nn::Tensor &got, const nn::Tensor &want,
                     const char *kernel, nn::KernelIsa isa, size_t m,
                     size_t k, size_t n) {
        if (sameBits(got, want))
            return;
        if (++mismatches <= 10)
            ADD_FAILURE() << kernel << " on " << nn::kernelIsaName(isa)
                          << " differs at m=" << m << " k_act=" << k
                          << " n_act=" << n;
    };
    for (size_t m : sizes) {
        for (size_t k : sizes) {
            for (size_t n : sizes) {
                nn::Tensor a = randomTensor(m, k + 3, rng, 0.3);
                nn::Tensor b = randomTensor(k + 2, n + 5, rng);
                nn::Tensor c0 = randomTensor(m, n + 4, rng);
                for (bool acc : {false, true}) {
                    nn::Tensor want = c0;
                    nn::reference::matmulMasked(a, b, want, k, n, acc);
                    for (nn::KernelIsa isa : isas) {
                        nn::Tensor got = c0;
                        nn::tiled::matmulMasked(a, b, got, k, n, acc, isa);
                        check(got, want, "matmulMasked", isa, m, k, n);
                    }
                }

                // dW += X^T dY: X[m, k], dY[m, n], dW[k, n].
                nn::Tensor dy = randomTensor(m, n + 5, rng, 0.3);
                nn::Tensor dw0 = randomTensor(k + 2, n + 4, rng);
                nn::Tensor dw_want = dw0;
                nn::reference::matmulTransAMasked(a, dy, dw_want, k, n);
                for (nn::KernelIsa isa : isas) {
                    nn::Tensor got = dw0;
                    nn::tiled::matmulTransAMasked(a, dy, got, k, n, isa);
                    check(got, dw_want, "matmulTransAMasked", isa, m, k, n);
                }

                // dX = dY W^T: dY[m, n], W[k, n], dX[m, k].
                nn::Tensor dx0 = randomTensor(m, k + 4, rng);
                for (bool acc : {false, true}) {
                    nn::Tensor want = dx0;
                    nn::reference::matmulTransBMasked(dy, b, want, n, k,
                                                      acc);
                    for (nn::KernelIsa isa : isas) {
                        nn::Tensor got = dx0;
                        nn::tiled::matmulTransBMasked(dy, b, got, n, k, acc,
                                                      &bt_scratch, isa);
                        check(got, want, "matmulTransBMasked", isa, m, k, n);
                    }
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

// A -0 already in C is the one value that tells adding a zero term
// (what the micro-kernel does) from skipping it (what the reference
// kernels do): -0 + +0 is +0. The tiled kernels detect it and keep the
// reference bits.
TEST(NnKernels, NegativeZeroAccumulatorsMatchReference)
{
    common::Rng rng(5151);
    nn::Tensor a = randomTensor(9, 12, rng, 0.5);
    for (size_t j = 0; j < a.cols(); ++j)
        a.at(2, j) = 0.0f; // row 2 contributes only zero terms
    for (size_t i = 0; i < a.rows(); ++i)
        a.at(i, 5) = 0.0f; // column 5 too
    nn::Tensor b = randomTensor(12, 20, rng);
    nn::Tensor c0(9, 20);
    for (size_t i = 0; i < c0.size(); ++i)
        c0[i] = -0.0f;
    nn::Tensor dw0(12, 20);
    for (size_t i = 0; i < dw0.size(); ++i)
        dw0[i] = i % 3 == 0 ? -0.0f : 0.0f;
    nn::Tensor dy = randomTensor(9, 20, rng, 0.5);

    nn::Tensor c_want = c0, dw_want = dw0;
    nn::reference::matmulMasked(a, b, c_want, 12, 20, true);
    nn::reference::matmulTransAMasked(a, dy, dw_want, 12, 20);
    EXPECT_TRUE(std::signbit(c_want.at(2, 0))); // the -0 survives
    for (nn::KernelIsa isa : nn::supportedKernelIsas()) {
        nn::Tensor c = c0, dw = dw0;
        nn::tiled::matmulMasked(a, b, c, 12, 20, true, isa);
        nn::tiled::matmulTransAMasked(a, dy, dw, 12, 20, isa);
        expectBitIdentical(c, c_want);
        expectBitIdentical(dw, dw_want);
    }
}

TEST(NnKernels, TransBOverwriteIgnoresStaleContents)
{
    // The accumulate=false default must make the result independent of
    // whatever garbage C held — the uninitialized-C footgun the explicit
    // flag removed.
    common::Rng rng(4567);
    nn::Tensor a = randomTensor(6, 20, rng);
    nn::Tensor b = randomTensor(12, 20, rng);
    nn::Tensor c1(6, 12), c2(6, 12);
    for (size_t i = 0; i < c1.size(); ++i)
        c1[i] = 1e30f;
    c2.zero();
    nn::matmulTransBMasked(a, b, c1, 20, 12);
    nn::matmulTransBMasked(a, b, c2, 20, 12);
    expectBitIdentical(c1, c2);
}

TEST(NnKernels, TiledIsBitwiseDeterministicRunToRun)
{
    common::Rng rng(5678);
    nn::Tensor a = randomTensor(16, 48, rng);
    nn::Tensor b = randomTensor(48, 96, rng);
    nn::Tensor c1(16, 96), c2(16, 96);
    nn::tiled::matmulMasked(a, b, c1, 48, 96);
    nn::tiled::matmulMasked(a, b, c2, 48, 96);
    expectBitIdentical(c1, c2);
}

TEST(NnKernels, DispatcherSelectsImplementation)
{
    nn::KernelImpl before = nn::kernelImpl();
    common::Rng rng(6789);
    nn::Tensor a = randomTensor(4, 8, rng);
    nn::Tensor b = randomTensor(8, 8, rng);

    nn::setKernelImpl(nn::KernelImpl::Reference);
    nn::Tensor c_ref(4, 8);
    nn::matmulMasked(a, b, c_ref, 8, 8);
    nn::Tensor c_oracle(4, 8);
    nn::reference::matmulMasked(a, b, c_oracle, 8, 8);
    expectBitIdentical(c_ref, c_oracle);

    nn::setKernelImpl(nn::KernelImpl::Tiled);
    nn::Tensor c_tiled(4, 8);
    nn::matmulMasked(a, b, c_tiled, 8, 8);
    nn::Tensor t_oracle(4, 8);
    nn::tiled::matmulMasked(a, b, t_oracle, 8, 8);
    expectBitIdentical(c_tiled, t_oracle);

    nn::setKernelImpl(before);
    EXPECT_EQ(nn::kernelImplFromName("tiled"), nn::KernelImpl::Tiled);
    EXPECT_EQ(nn::kernelImplFromName("reference"),
              nn::KernelImpl::Reference);
}

// End to end: an MLP trained with the tiled kernels ends with the same
// weight bits as one trained with the reference kernels.
TEST(NnKernels, MlpTrainingBitwiseEqualAcrossImplementations)
{
    auto train = [](nn::KernelImpl impl) {
        nn::KernelImpl before = nn::kernelImpl();
        nn::setKernelImpl(impl);
        common::Rng rng(9191);
        nn::Mlp mlp({13, 20, 7, 2}, nn::Activation::ReLU,
                    nn::Activation::Identity, rng);
        nn::AdamOptimizer opt(mlp.params(), 1e-2);
        nn::Tensor x = randomTensor(9, 13, rng, 0.2);
        nn::Tensor y = randomTensor(9, 2, rng);
        nn::Tensor grad;
        for (int step = 0; step < 5; ++step) {
            nn::mseLoss(mlp.forward(x), y, grad);
            mlp.backward(grad);
            opt.step();
        }
        nn::setKernelImpl(before);
        std::vector<nn::Tensor> weights;
        for (const nn::ParamRef &p : mlp.params())
            weights.push_back(*p.value);
        return weights;
    };
    std::vector<nn::Tensor> tiled = train(nn::KernelImpl::Tiled);
    std::vector<nn::Tensor> ref = train(nn::KernelImpl::Reference);
    ASSERT_EQ(tiled.size(), ref.size());
    for (size_t i = 0; i < tiled.size(); ++i)
        expectBitIdentical(tiled[i], ref[i]);
}

// The cross-thread contract: kernels are single-threaded and parallelism
// lives in h2o::exec, whose shard runner applies each shard's result
// after the step barrier in shard-index order. A sharded compute +
// ordered-aggregate step must therefore produce bit-identical results at
// any lane count.
TEST(NnKernels, TiledBitIdenticalAcross1_2_8ExecThreads)
{
    constexpr size_t kShards = 8;
    common::Rng rng(7890);
    std::vector<nn::Tensor> as, bs;
    for (size_t s = 0; s < kShards; ++s) {
        as.push_back(randomTensor(12, 40, rng));
        bs.push_back(randomTensor(40, 72, rng));
    }

    auto run_with_threads = [&](size_t threads) {
        exec::InProcessTransport lanes(threads);
        exec::ShardRunner runner(lanes, {kShards, 1, 0.1});
        nn::Tensor accum(12, 72);
        accum.zero();
        std::vector<nn::Tensor> outs(kShards);
        exec::ShardTask task;
        task.encode = [&](size_t shard) {
            nn::Tensor &c = outs[shard];
            c = nn::Tensor(12, 72);
            nn::tiled::matmulMasked(as[shard], bs[shard], c, 40, 72);
            return std::string();
        };
        // Shared-state aggregation after the barrier, in shard order.
        task.decode = [&](size_t shard, const std::string &) {
            nn::axpy(1.0f / kShards, outs[shard], accum);
        };
        auto report = runner.runStep(0, task);
        EXPECT_EQ(report.survivors().size(), kShards);
        return accum;
    };

    nn::Tensor t1 = run_with_threads(1);
    nn::Tensor t2 = run_with_threads(2);
    nn::Tensor t8 = run_with_threads(8);
    expectBitIdentical(t1, t2);
    expectBitIdentical(t1, t8);
}

// ----------------------------------------------- grouped-mask kernels

namespace {

/** Random packed layout: groups of `batch` rows with random active
 *  dims, covering [0, n_groups * batch) of a [n_groups * batch, max_w]
 *  tensor against a shared [max_k, max_w] weight matrix. */
std::vector<nn::MaskGroup>
randomGroups(common::Rng &rng, size_t n_groups, size_t batch,
             size_t max_k, size_t max_n)
{
    std::vector<nn::MaskGroup> groups;
    for (size_t g = 0; g < n_groups; ++g)
        groups.push_back(
            {g * batch, batch,
             static_cast<size_t>(
                 rng.uniformInt(1, static_cast<int64_t>(max_k))),
             static_cast<size_t>(
                 rng.uniformInt(1, static_cast<int64_t>(max_n)))});
    return groups;
}

/** Copy group g's rows of `packed` into a standalone tensor. */
nn::Tensor
sliceGroup(const nn::Tensor &packed, const nn::MaskGroup &g)
{
    nn::Tensor t(g.rows, packed.cols());
    std::memcpy(t.data().data(),
                packed.data().data() + g.rowBegin * packed.cols(),
                g.rows * packed.cols() * sizeof(float));
    return t;
}

} // namespace

// The batched-quality-stage contract: one grouped call over a packed
// [n_cand * batch, w] tensor is bitwise identical to per-candidate
// masked calls on each candidate's own slice — per implementation.
TEST(NnKernels, GroupedMatmulMatchesPerCandidateBitwise)
{
    common::Rng rng(8901);
    constexpr size_t kGroups = 5, kBatch = 7, kMaxK = 48, kMaxN = 80;
    auto groups = randomGroups(rng, kGroups, kBatch, kMaxK, kMaxN);
    nn::Tensor a = randomTensor(kGroups * kBatch, kMaxK, rng);
    nn::Tensor b = randomTensor(kMaxK, kMaxN, rng, 0.3);

    // One entry per micro-kernel variant, then the reference kernels.
    std::vector<nn::KernelIsa> isas = nn::supportedKernelIsas();
    for (size_t impl = 0; impl <= isas.size(); ++impl) {
        bool ref = impl == isas.size();
        nn::KernelIsa isa = ref ? nn::kernelIsa() : isas[impl];
        for (bool accumulate : {false, true}) {
            nn::Tensor c = randomTensor(kGroups * kBatch, kMaxN, rng);
            nn::Tensor c_grouped = c;
            nn::Tensor c_ref = c;
            nn::reference::matmulMaskedGrouped(a, b, c_ref, groups,
                                               accumulate);
            if (ref)
                c_grouped = c_ref;
            else
                nn::tiled::matmulMaskedGrouped(a, b, c_grouped, groups,
                                               accumulate, isa);
            expectBitIdentical(c_grouped, c_ref);
            for (const auto &g : groups) {
                nn::Tensor a_g = sliceGroup(a, g);
                nn::Tensor c_g = sliceGroup(c, g);
                if (ref)
                    nn::reference::matmulMasked(a_g, b, c_g, g.kAct,
                                                g.nAct, accumulate);
                else
                    nn::tiled::matmulMasked(a_g, b, c_g, g.kAct, g.nAct,
                                            accumulate, isa);
                nn::Tensor got = sliceGroup(c_grouped, g);
                expectBitIdentical(got, c_g);
            }
        }
    }
}

TEST(NnKernels, GroupedAddBiasMatchesPerCandidateBitwise)
{
    common::Rng rng(9012);
    constexpr size_t kGroups = 4, kBatch = 6, kMaxN = 72;
    auto groups = randomGroups(rng, kGroups, kBatch, kMaxN, kMaxN);
    nn::Tensor bias = randomTensor(1, kMaxN, rng);
    nn::Tensor x = randomTensor(kGroups * kBatch, kMaxN, rng);
    nn::Tensor x_grouped = x;
    nn::addBiasGrouped(x_grouped, bias, groups);
    for (const auto &g : groups) {
        nn::Tensor x_g = sliceGroup(x, g);
        nn::addBias(x_g, bias, g.nAct);
        nn::Tensor got = sliceGroup(x_grouped, g);
        expectBitIdentical(got, x_g);
    }
}

TEST(NnKernels, ActivateTensorRowsMatchesFullActivation)
{
    common::Rng rng(1122);
    constexpr size_t kGroups = 4, kBatch = 5, kW = 33;
    auto groups = randomGroups(rng, kGroups, kBatch, kW, kW);
    for (nn::Activation act :
         {nn::Activation::ReLU, nn::Activation::Swish,
          nn::Activation::GeLU, nn::Activation::SquaredReLU}) {
        nn::Tensor pre = randomTensor(kGroups * kBatch, kW, rng);
        nn::Tensor out = pre;
        for (const auto &g : groups)
            nn::activateTensorRows(act, out, out, g.rowBegin, g.rows,
                                   g.nAct);
        for (const auto &g : groups) {
            nn::Tensor pre_g = sliceGroup(pre, g);
            nn::Tensor act_g(pre_g.rows(), pre_g.cols());
            nn::activateTensor(act, pre_g, act_g);
            nn::Tensor got = sliceGroup(out, g);
            for (size_t r = 0; r < g.rows; ++r)
                for (size_t c = 0; c < g.nAct; ++c)
                    EXPECT_EQ(got.at(r, c), act_g.at(r, c))
                        << "row " << r << " col " << c;
            // Columns past nAct must be untouched pre-activations.
            for (size_t r = 0; r < g.rows; ++r)
                for (size_t c = g.nAct; c < kW; ++c)
                    EXPECT_EQ(got.at(r, c), pre_g.at(r, c));
        }
    }
}

// --------------------------------------------------- embedding kernels

namespace {

/** Random CSR id staging: per-example id counts in [0, max_ids], some
 *  examples empty. Mirrors EmbeddingTable::stage(). */
struct CsrIds
{
    std::vector<uint32_t> rows;
    std::vector<size_t> offsets;
    std::vector<float> inv;
};

CsrIds
randomIds(common::Rng &rng, size_t batch, size_t vocab, size_t max_ids)
{
    CsrIds ids;
    ids.offsets.push_back(0);
    for (size_t i = 0; i < batch; ++i) {
        size_t count = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(max_ids)));
        for (size_t p = 0; p < count; ++p)
            ids.rows.push_back(static_cast<uint32_t>(
                rng.uniformInt(0, static_cast<int64_t>(vocab) - 1)));
        ids.offsets.push_back(ids.rows.size());
        ids.inv.push_back(count == 0 ? 0.0f : 1.0f / double(count));
    }
    return ids;
}

/** Scalar oracle replicating the historical per-row gather loop. */
void
oracleGather(const nn::Tensor &table, const CsrIds &ids, nn::Tensor &out,
             size_t width)
{
    for (size_t i = 0; i + 1 < ids.offsets.size(); ++i) {
        for (size_t d = 0; d < width; ++d)
            out.at(i, d) = 0.0f;
        for (size_t p = ids.offsets[i]; p < ids.offsets[i + 1]; ++p)
            for (size_t d = 0; d < width; ++d)
                out.at(i, d) += ids.inv[i] * table.at(ids.rows[p], d);
    }
}

/** Scalar oracle for the matching scatter-add. */
void
oracleScatter(const nn::Tensor &grad_out, const CsrIds &ids,
              nn::Tensor &grad_table, size_t width)
{
    for (size_t i = 0; i + 1 < ids.offsets.size(); ++i)
        for (size_t p = ids.offsets[i]; p < ids.offsets[i + 1]; ++p)
            for (size_t d = 0; d < width; ++d)
                grad_table.at(ids.rows[p], d) +=
                    ids.inv[i] * grad_out.at(i, d);
}

} // namespace

// Like the matmul family, the embedding kernels keep one per-element
// operation order — adds in id-list order from a zero accumulator — in
// BOTH implementations, so tiled, reference, and the scalar oracle all
// agree bitwise, at full and truncated widths.
TEST(NnKernels, EmbeddingGatherBitwiseAcrossImplsAndOracle)
{
    common::Rng rng(2233);
    constexpr size_t kVocab = 64, kDim = 24, kBatch = 19;
    nn::Tensor table = randomTensor(kVocab, kDim, rng);
    CsrIds ids = randomIds(rng, kBatch, kVocab, 6);

    for (size_t width : {kDim, size_t{8}, size_t{1}}) {
        nn::Tensor o_ref(kBatch, width), o_tiled(kBatch, width),
            o_oracle(kBatch, width);
        nn::reference::embeddingGatherPooled(table, ids.rows, ids.offsets,
                                             ids.inv, o_ref, width);
        nn::tiled::embeddingGatherPooled(table, ids.rows, ids.offsets,
                                         ids.inv, o_tiled, width);
        oracleGather(table, ids, o_oracle, width);
        expectBitIdentical(o_tiled, o_ref);
        expectBitIdentical(o_tiled, o_oracle);
    }
}

TEST(NnKernels, EmbeddingScatterAddBitwiseAcrossImplsAndOracle)
{
    common::Rng rng(3344);
    constexpr size_t kVocab = 48, kDim = 16, kBatch = 17;
    CsrIds ids = randomIds(rng, kBatch, kVocab, 5);
    nn::Tensor grad_out = randomTensor(kBatch, kDim, rng);
    // Non-zero starting gradients: scatter-add accumulates.
    nn::Tensor g0 = randomTensor(kVocab, kDim, rng);

    for (size_t width : {kDim, size_t{7}}) {
        nn::Tensor g_ref = g0, g_tiled = g0, g_oracle = g0;
        nn::reference::embeddingScatterAdd(grad_out, ids.rows, ids.offsets,
                                           ids.inv, g_ref, width);
        nn::tiled::embeddingScatterAdd(grad_out, ids.rows, ids.offsets,
                                       ids.inv, g_tiled, width);
        oracleScatter(grad_out, ids, g_oracle, width);
        expectBitIdentical(g_tiled, g_ref);
        expectBitIdentical(g_tiled, g_oracle);
    }
}

TEST(NnKernels, EmbeddingGatherZeroesEmptyExamples)
{
    common::Rng rng(4455);
    nn::Tensor table = randomTensor(8, 4, rng);
    // Three examples, all empty: output must be all-zero even when the
    // destination starts as garbage.
    CsrIds ids;
    ids.offsets = {0, 0, 0, 0};
    ids.inv = {0.0f, 0.0f, 0.0f};
    for (auto gather : {nn::reference::embeddingGatherPooled,
                        nn::tiled::embeddingGatherPooled}) {
        nn::Tensor out(3, 4);
        for (size_t i = 0; i < out.size(); ++i)
            out[i] = 1e30f;
        gather(table, ids.rows, ids.offsets, ids.inv, out, 4);
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], 0.0f) << "element " << i;
    }
}
