/**
 * @file
 * Hot-path micro-benchmark: A/B of the reference (naive scalar) vs tiled
 * matmul kernels at super-network shapes, steady-state allocations per
 * training step, and the SimCache hit rate on a repeat-heavy evaluation
 * stream. Emits machine-readable JSON (BENCH_kernels.json) so perf
 * regressions are diffable across commits; registered as a ctest smoke
 * with a tiny iteration count.
 *
 * Reported metrics:
 *  - the micro-kernel ISA variant the tiled kernels chose on this host;
 *  - GFLOP/s per masked kernel (matmul / transA / transB) for the
 *    reference kernels and for every micro-kernel variant the host
 *    supports ("tiled" is the chosen one), at the DLRM supernet's
 *    bottom-MLP shape and at the perf model's 2-wide head shape
 *    (m x 128 x 2), where the scalar column tail does the work;
 *  - tensor allocations on the first (warm-up) supernet-style training
 *    step vs a steady-state step (target: 0);
 *  - tensor allocations per steady-state DlrmSupernet::evaluateBatch
 *    call (the batched quality stage's no-grad path; target 0, and the
 *    bench exits non-zero when it regresses);
 *  - SimCache hit/miss counters for a stream that revisits candidates.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arch/dlrm_arch.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "nn/mlp.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "pipeline/pipeline.h"
#include "pipeline/traffic_generator.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

using namespace h2o;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

nn::Tensor
randomTensor(size_t rows, size_t cols, common::Rng &rng)
{
    nn::Tensor t(rows, cols);
    for (size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.normal());
    return t;
}

struct KernelScore
{
    double referenceGflops = 0.0;
    double tiledGflops = 0.0; ///< the chosen variant's
    /** Per variant, in supportedKernelIsas() order. */
    std::vector<double> isaGflops;
    double speedup() const
    {
        return referenceGflops > 0.0 ? tiledGflops / referenceGflops : 0.0;
    }
};

/** matmul / transA / transB scores at one shape. */
struct ShapeScores
{
    size_t m = 0, k = 0, n = 0;
    size_t iters = 0;
    KernelScore matmul, transa, transb;
};

/** Time fn(iterations) doing `flops` useful FLOPs per call. */
template <typename Fn>
double
gflops(size_t iters, double flops_per_call, Fn &&fn)
{
    // One untimed call to warm caches and fault in pages.
    fn();
    auto start = Clock::now();
    for (size_t i = 0; i < iters; ++i)
        fn();
    double sec = secondsSince(start);
    return flops_per_call * double(iters) / sec / 1e9;
}

/**
 * Score the three masked kernels at (m x k x n), full active masks (the
 * worst case for the reference kernel's zero-skip, the common case for a
 * configured candidate).
 */
ShapeScores
scoreShape(size_t m, size_t k, size_t n, size_t iters, common::Rng &rng)
{
    ShapeScores s;
    s.m = m;
    s.k = k;
    s.n = n;
    s.iters = iters;
    nn::Tensor a = randomTensor(m, k, rng);
    nn::Tensor b = randomTensor(k, n, rng);
    nn::Tensor bt = randomTensor(k, n, rng); // used transposed: C = A * B^T
    nn::Tensor c(m, n), ct(k, n), cb(m, k), bt_scratch;

    double mm_flops = 2.0 * double(m) * double(k) * double(n);
    s.matmul.referenceGflops = gflops(iters, mm_flops, [&] {
        nn::reference::matmulMasked(a, b, c, k, n);
    });
    ct.zero();
    s.transa.referenceGflops = gflops(iters, mm_flops, [&] {
        nn::reference::matmulTransAMasked(a, c, ct, k, n);
    });
    s.transb.referenceGflops = gflops(iters, mm_flops, [&] {
        nn::reference::matmulTransBMasked(c, bt, cb, n, k);
    });
    for (nn::KernelIsa isa : nn::supportedKernelIsas()) {
        s.matmul.isaGflops.push_back(gflops(iters, mm_flops, [&] {
            nn::tiled::matmulMasked(a, b, c, k, n, false, isa);
        }));
        ct.zero();
        s.transa.isaGflops.push_back(gflops(iters, mm_flops, [&] {
            nn::tiled::matmulTransAMasked(a, c, ct, k, n, isa);
        }));
        s.transb.isaGflops.push_back(gflops(iters, mm_flops, [&] {
            nn::tiled::matmulTransBMasked(c, bt, cb, n, k, false,
                                          &bt_scratch, isa);
        }));
        if (isa == nn::kernelIsa()) {
            s.matmul.tiledGflops = s.matmul.isaGflops.back();
            s.transa.tiledGflops = s.transa.isaGflops.back();
            s.transb.tiledGflops = s.transb.isaGflops.back();
        }
    }
    return s;
}

void
printShape(const ShapeScores &s)
{
    std::cout << "kernel GFLOP/s at (" << s.m << " x " << s.k << " x "
              << s.n << "), " << s.iters << " iters:\n";
    std::vector<nn::KernelIsa> isas = nn::supportedKernelIsas();
    auto line = [&](const char *name, const KernelScore &k) {
        std::cout << "  " << name << ": reference " << k.referenceGflops;
        for (size_t i = 0; i < isas.size(); ++i)
            std::cout << ", " << nn::kernelIsaName(isas[i]) << " "
                      << k.isaGflops[i];
        std::cout << " (chosen " << k.speedup() << "x reference)\n";
    };
    line("matmulMasked", s.matmul);
    line("matmulTransAMasked", s.transa);
    line("matmulTransBMasked", s.transb);
}

void
jsonShape(std::ostream &js, const ShapeScores &s, const char *indent)
{
    std::vector<nn::KernelIsa> isas = nn::supportedKernelIsas();
    auto kernel = [&](const char *name, const KernelScore &k, bool last) {
        js << indent << "  \"" << name << "\": {\"reference\": "
           << k.referenceGflops << ", \"tiled\": " << k.tiledGflops
           << ", \"speedup\": " << k.speedup() << ", \"isa\": {";
        for (size_t i = 0; i < isas.size(); ++i)
            js << (i ? ", " : "") << "\"" << nn::kernelIsaName(isas[i])
               << "\": " << k.isaGflops[i];
        js << "}}" << (last ? "" : ",") << "\n";
    };
    js << indent << "\"shape\": {\"m\": " << s.m << ", \"k\": " << s.k
       << ", \"n\": " << s.n << "},\n"
       << indent << "\"iters\": " << s.iters << ",\n"
       << indent << "\"gflops\": {\n";
    kernel("matmul_masked", s.matmul, false);
    kernel("matmul_transa_masked", s.transa, false);
    kernel("matmul_transb_masked", s.transb, true);
    js << indent << "}";
}

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("iters", 200, "timed iterations per kernel");
    flags.defineInt("m", 256, "rows (supernet batch)");
    flags.defineInt("k", 512, "inner dim (bottom-MLP input width)");
    flags.defineInt("n", 256, "cols (bottom-MLP output width)");
    flags.defineInt("seed", 11, "RNG seed");
    flags.defineString("json", "BENCH_kernels.json",
                       "output path for the JSON report");
    flags.parse(argc, argv);

    size_t iters = static_cast<size_t>(flags.getInt("iters"));
    size_t m = static_cast<size_t>(flags.getInt("m"));
    size_t k = static_cast<size_t>(flags.getInt("k"));
    size_t n = static_cast<size_t>(flags.getInt("n"));
    common::Rng rng(static_cast<uint64_t>(flags.getInt("seed")));

    // --- Kernel A/B: the supernet's bottom-MLP shape, then the perf
    // model's 2-wide head at the same total FLOPs per measurement.
    ShapeScores main_shape = scoreShape(m, k, n, iters, rng);
    constexpr size_t kHeadK = 128, kHeadN = 2;
    size_t head_iters = std::max<size_t>(
        iters, iters * (k * n) / (kHeadK * kHeadN));
    ShapeScores head_shape = scoreShape(m, kHeadK, kHeadN, head_iters, rng);

    // --- Allocations per training step: an MLP forward/backward at the
    // same shapes, first step (buffers grown) vs steady state (reused).
    nn::Mlp mlp({k, n, n, 1}, nn::Activation::ReLU,
                nn::Activation::Identity, rng);
    nn::Tensor x = randomTensor(m, k, rng);
    nn::Tensor grad = randomTensor(m, 1, rng);
    // Whole-buffer zero fills ride along: redundant zeroing (clearing a
    // buffer every element of which is then overwritten) is wasted
    // bandwidth on the training hot path. Steady-state fills should be
    // limited to genuine accumulator resets.
    nn::resetTensorAllocCount();
    nn::resetTensorZeroFillCount();
    mlp.forward(x);
    mlp.backward(grad);
    size_t first_step_allocs = nn::tensorAllocCount();
    size_t first_step_zero_fills = nn::tensorZeroFillCount();
    nn::resetTensorAllocCount();
    nn::resetTensorZeroFillCount();
    for (size_t s = 0; s < 10; ++s) {
        mlp.forward(x);
        mlp.backward(grad);
    }
    size_t steady_allocs = nn::tensorAllocCount() / 10;
    size_t steady_zero_fills = nn::tensorZeroFillCount() / 10;

    // --- Allocations per batched supernet evaluation: the no-grad
    // packed pass reuses workspace scratch and staging buffers, so a
    // steady-state evaluateBatch over a fixed candidate list must not
    // allocate tensors at all.
    size_t eval_first_allocs = 0;
    size_t eval_steady_allocs = 0;
    {
        arch::DlrmArch small;
        small.numDenseFeatures = 4;
        small.tables = {{512, 8, 1.0}, {256, 8, 1.0}};
        small.bottomMlp = {{16, 0}};
        small.topMlp = {{32, 0}};
        small.globalBatch = 256;
        searchspace::DlrmSearchSpace eval_space(small);
        common::Rng net_rng = rng.fork(3);
        supernet::DlrmSupernet net(eval_space, {}, net_rng);
        std::vector<uint64_t> vocabs{512, 256};
        std::vector<double> avg_ids{1.0, 1.0};
        auto gen = std::make_unique<pipeline::TrafficGenerator>(
            pipeline::trafficConfigFor(4, vocabs, avg_ids), 77);
        pipeline::InMemoryPipeline pipe(std::move(gen), 32);
        auto lease = pipe.lease();
        std::vector<searchspace::Sample> cands;
        for (size_t i = 0; i < 8; ++i)
            cands.push_back(eval_space.decisions().uniformSample(rng));
        nn::resetTensorAllocCount();
        (void)net.evaluateBatch(cands, lease.batch());
        eval_first_allocs = nn::tensorAllocCount();
        nn::resetTensorAllocCount();
        for (size_t s = 0; s < 10; ++s)
            (void)net.evaluateBatch(cands, lease.batch());
        eval_steady_allocs = nn::tensorAllocCount() / 10;
        lease.markAlphaUse();
        nn::resetTensorAllocCount();
        nn::resetTensorZeroFillCount();
    }

    // --- SimCache hit rate on a repeat-heavy stream: a candidate pool
    // evaluated round-robin, as paired eval sets / converged policies do.
    searchspace::DlrmSearchSpace space(arch::baselineDlrm());
    bench::CachedDlrmTimer timer(hw::trainingPlatform(),
                                 hw::servingPlatform());
    size_t pool_size = 32;
    size_t evals = std::max<size_t>(iters, 64);
    std::vector<searchspace::Sample> pool;
    for (size_t i = 0; i < pool_size; ++i)
        pool.push_back(space.decisions().uniformSample(rng));
    auto sim_start = Clock::now();
    double checksum = 0.0;
    for (size_t i = 0; i < evals; ++i)
        checksum += timer.trainStepTime(space, pool[i % pool.size()]);
    double sim_sec = secondsSince(sim_start);
    sim::SimCacheStats cache = timer.cacheStats();

    // --- Report.
    std::cout << "micro-kernel ISA: " << nn::kernelIsaName(nn::kernelIsa())
              << "\n";
    printShape(main_shape);
    printShape(head_shape);
    std::cout << "allocs/step: first " << first_step_allocs
              << ", steady-state " << steady_allocs << "\n";
    std::cout << "zero-fills/step: first " << first_step_zero_fills
              << ", steady-state " << steady_zero_fills << "\n";
    std::cout << "allocs/evaluateBatch: first " << eval_first_allocs
              << ", steady-state " << eval_steady_allocs
              << (eval_steady_allocs == 0 ? "" : " (REGRESSION)") << "\n";
    std::cout << "sim cache: " << cache.hits << " hits / " << cache.misses
              << " misses (hit rate " << cache.hitRate() << ") over "
              << evals << " evals in " << sim_sec
              << " s (checksum " << checksum << ")\n";

    std::string json_path = flags.getString("json");
    std::ofstream js(json_path);
    if (!js) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
    }
    js << "{\n"
       << "  \"kernel_isa\": \"" << nn::kernelIsaName(nn::kernelIsa())
       << "\",\n";
    jsonShape(js, main_shape, "  ");
    js << ",\n  \"head\": {\n";
    jsonShape(js, head_shape, "    ");
    js << "\n  },\n"
       << "  \"allocs_per_step\": {\"first\": " << first_step_allocs
       << ", \"steady\": " << steady_allocs << "},\n"
       << "  \"zero_fills_per_step\": {\"first\": " << first_step_zero_fills
       << ", \"steady\": " << steady_zero_fills << "},\n"
       << "  \"allocs_per_evaluate_batch\": {\"first\": "
       << eval_first_allocs << ", \"steady\": " << eval_steady_allocs
       << "},\n"
       << "  \"sim_cache\": {\"hits\": " << cache.hits << ", \"misses\": "
       << cache.misses << ", \"evictions\": " << cache.evictions
       << ", \"hit_rate\": " << cache.hitRate() << "}\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
    // The batched eval path's zero-alloc contract is load-bearing for
    // the quality stage's throughput — fail the smoke when it breaks.
    return eval_steady_allocs == 0 ? 0 : 1;
}
