#include "nn/ops.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "nn/gemm.h"

namespace h2o::nn {

namespace {

/** Shape checks shared by every implementation of each kernel. */
void
checkMatmulMasked(const Tensor &a, const Tensor &b, const Tensor &c,
                  size_t k_act, size_t n_act)
{
    h2o_assert(k_act <= a.cols() && k_act <= b.rows(),
               "matmulMasked: k_act ", k_act, " exceeds A cols ", a.cols(),
               " or B rows ", b.rows());
    h2o_assert(n_act <= b.cols() && n_act <= c.cols(),
               "matmulMasked: n_act ", n_act, " exceeds B/C cols");
    h2o_assert(c.rows() == a.rows(), "matmulMasked: C rows mismatch");
}

void
checkMatmulTransAMasked(const Tensor &a, const Tensor &b, const Tensor &c,
                        size_t k_act, size_t n_act)
{
    h2o_assert(b.rows() == a.rows(),
               "matmulTransAMasked: batch dim mismatch");
    h2o_assert(k_act <= a.cols() && k_act <= c.rows(),
               "matmulTransAMasked: k_act out of range");
    h2o_assert(n_act <= b.cols() && n_act <= c.cols(),
               "matmulTransAMasked: n_act out of range");
}

void
checkMatmulTransBMasked(const Tensor &a, const Tensor &b, const Tensor &c,
                        size_t n_act, size_t k_act)
{
    h2o_assert(n_act <= a.cols() && n_act <= b.cols(),
               "matmulTransBMasked: n_act out of range");
    h2o_assert(k_act <= b.rows() && k_act <= c.cols(),
               "matmulTransBMasked: k_act out of range");
    h2o_assert(c.rows() == a.rows(), "matmulTransBMasked: C rows mismatch");
}

void
checkGrouped(const Tensor &a, const Tensor &b, const Tensor &c,
             std::span<const MaskGroup> groups)
{
    h2o_assert(c.rows() == a.rows(), "matmulMaskedGrouped: C rows mismatch");
    for (const MaskGroup &g : groups) {
        h2o_assert(g.rowBegin + g.rows <= a.rows(),
                   "matmulMaskedGrouped: group rows [", g.rowBegin, ", ",
                   g.rowBegin + g.rows, ") exceed A rows ", a.rows());
        h2o_assert(g.kAct <= a.cols() && g.kAct <= b.rows(),
                   "matmulMaskedGrouped: kAct ", g.kAct, " out of range");
        h2o_assert(g.nAct <= b.cols() && g.nAct <= c.cols(),
                   "matmulMaskedGrouped: nAct ", g.nAct, " out of range");
    }
}

void
checkEmbedding(const Tensor &table_like, std::span<const uint32_t> rows,
               std::span<const size_t> offsets, std::span<const float> inv,
               size_t batch, size_t batch_width, size_t width)
{
    h2o_assert(offsets.size() == batch + 1,
               "embedding kernel: offsets size ", offsets.size(),
               " != batch + 1 (", batch + 1, ")");
    h2o_assert(inv.size() == batch, "embedding kernel: inv size mismatch");
    h2o_assert(offsets.empty() || offsets.back() <= rows.size(),
               "embedding kernel: offsets exceed rows");
    h2o_assert(width <= table_like.cols(),
               "embedding kernel: width ", width, " exceeds table cols ",
               table_like.cols());
    h2o_assert(width <= batch_width,
               "embedding kernel: width exceeds batch tensor cols");
}

std::atomic<KernelImpl> g_impl{KernelImpl::Tiled};

/** One-time H2O_KERNELS env override, applied before first dispatch. */
bool
applyEnvOverride()
{
    if (const char *env = std::getenv("H2O_KERNELS"))
        g_impl.store(kernelImplFromName(env), std::memory_order_relaxed);
    return true;
}

using GemmFn = void (*)(const gemm::Args &);

/** The micro-kernel variants this host can run, indexed by KernelIsa
 *  (null where unsupported), and the widest of them. */
struct IsaTable
{
    GemmFn fn[3] = {};
    KernelIsa widest = KernelIsa::Baseline;
};

const IsaTable &
isaTable()
{
    static const IsaTable table = [] {
        IsaTable t;
        t.fn[size_t(KernelIsa::Baseline)] = gemm::runBaseline;
#if defined(H2O_GEMM_AVX2) || defined(H2O_GEMM_AVX512F)
        __builtin_cpu_init();
#endif
#ifdef H2O_GEMM_AVX2
        if (__builtin_cpu_supports("avx2")) {
            t.fn[size_t(KernelIsa::Avx2)] = gemm::runAvx2;
            t.widest = KernelIsa::Avx2;
        }
#endif
#ifdef H2O_GEMM_AVX512F
        if (__builtin_cpu_supports("avx512f")) {
            t.fn[size_t(KernelIsa::Avx512f)] = gemm::runAvx512f;
            t.widest = KernelIsa::Avx512f;
        }
#endif
        return t;
    }();
    return table;
}

GemmFn
gemmFor(KernelIsa isa)
{
    GemmFn fn = isaTable().fn[size_t(isa)];
    h2o_assert(fn, "kernel ISA ", kernelIsaName(isa),
               " is not supported on this host");
    return fn;
}

} // namespace

const char *
kernelIsaName(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::Baseline:
#if defined(__x86_64__)
        return "sse2";
#else
        return "baseline";
#endif
      case KernelIsa::Avx2:
        return "avx2";
      case KernelIsa::Avx512f:
        return "avx512f";
    }
    h2o_panic("unhandled kernel ISA");
}

std::vector<KernelIsa>
supportedKernelIsas()
{
    std::vector<KernelIsa> isas;
    for (KernelIsa isa :
         {KernelIsa::Baseline, KernelIsa::Avx2, KernelIsa::Avx512f})
        if (isaTable().fn[size_t(isa)])
            isas.push_back(isa);
    return isas;
}

KernelIsa
kernelIsa()
{
    return isaTable().widest;
}

void
setKernelImpl(KernelImpl impl)
{
    g_impl.store(impl, std::memory_order_relaxed);
}

KernelImpl
kernelImpl()
{
    static bool env_applied = applyEnvOverride();
    (void)env_applied;
    return g_impl.load(std::memory_order_relaxed);
}

KernelImpl
kernelImplFromName(const std::string &name)
{
    if (name == "tiled")
        return KernelImpl::Tiled;
    if (name == "reference")
        return KernelImpl::Reference;
    h2o_fatal("unknown kernel impl '", name, "' (want tiled|reference)");
}

const char *
kernelImplName(KernelImpl impl)
{
    return impl == KernelImpl::Tiled ? "tiled" : "reference";
}

// ---------------------------------------------------------------------------
// Reference kernels: the original scalar loops, kept as the A/B oracle.
// ---------------------------------------------------------------------------

namespace reference {

namespace {

/** The matmulMasked loops over an explicit row range — shared by the
 *  plain and grouped entry points so the two are bitwise identical. */
void
matmulMaskedRows(const Tensor &a, const Tensor &b, Tensor &c, size_t row0,
                 size_t rows, size_t k_act, size_t n_act, bool accumulate)
{
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    float *cd = c.data().data();
    size_t ka = a.cols(), nb = b.cols(), nc = c.cols();

    for (size_t i = row0; i < row0 + rows; ++i) {
        float *crow = cd + i * nc;
        if (!accumulate) {
            for (size_t j = 0; j < n_act; ++j)
                crow[j] = 0.0f;
        }
        const float *arow = ad + i * ka;
        // ikj loop order: stream through B rows for cache locality.
        for (size_t k = 0; k < k_act; ++k) {
            float av = arow[k];
            if (av == 0.0f)
                continue;
            const float *brow = bd + k * nb;
            for (size_t j = 0; j < n_act; ++j)
                crow[j] += av * brow[j];
        }
    }
}

} // namespace

void
matmulMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
             size_t n_act, bool accumulate)
{
    checkMatmulMasked(a, b, c, k_act, n_act);
    matmulMaskedRows(a, b, c, 0, a.rows(), k_act, n_act, accumulate);
}

void
matmulMaskedGrouped(const Tensor &a, const Tensor &b, Tensor &c,
                    std::span<const MaskGroup> groups, bool accumulate)
{
    checkGrouped(a, b, c, groups);
    for (const MaskGroup &g : groups)
        matmulMaskedRows(a, b, c, g.rowBegin, g.rows, g.kAct, g.nAct,
                         accumulate);
}

void
embeddingGatherPooled(const Tensor &table, std::span<const uint32_t> rows,
                      std::span<const size_t> offsets,
                      std::span<const float> inv, Tensor &out, size_t width)
{
    checkEmbedding(table, rows, offsets, inv, out.rows(), out.cols(), width);
    const float *td = table.data().data();
    float *od = out.data().data();
    size_t tw = table.cols(), ow = out.cols();
    for (size_t i = 0; i < out.rows(); ++i) {
        float *dst = od + i * ow;
        for (size_t d = 0; d < width; ++d)
            dst[d] = 0.0f;
        float w = inv[i];
        for (size_t p = offsets[i]; p < offsets[i + 1]; ++p) {
            const float *src = td + rows[p] * tw;
            for (size_t d = 0; d < width; ++d)
                dst[d] += w * src[d];
        }
    }
}

void
embeddingScatterAdd(const Tensor &grad_out, std::span<const uint32_t> rows,
                    std::span<const size_t> offsets,
                    std::span<const float> inv, Tensor &grad_table,
                    size_t width)
{
    checkEmbedding(grad_table, rows, offsets, inv, grad_out.rows(),
                   grad_out.cols(), width);
    const float *gd = grad_out.data().data();
    float *td = grad_table.data().data();
    size_t tw = grad_table.cols(), gw = grad_out.cols();
    for (size_t i = 0; i < grad_out.rows(); ++i) {
        const float *src = gd + i * gw;
        float w = inv[i];
        for (size_t p = offsets[i]; p < offsets[i + 1]; ++p) {
            float *dst = td + rows[p] * tw;
            for (size_t d = 0; d < width; ++d)
                dst[d] += w * src[d];
        }
    }
}

void
matmulTransAMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
                   size_t n_act)
{
    checkMatmulTransAMasked(a, b, c, k_act, n_act);
    size_t m = a.rows();
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    float *cd = c.data().data();
    size_t ka = a.cols(), nb = b.cols(), nc = c.cols();

    for (size_t i = 0; i < m; ++i) {
        const float *arow = ad + i * ka;
        const float *brow = bd + i * nb;
        for (size_t k = 0; k < k_act; ++k) {
            float av = arow[k];
            if (av == 0.0f)
                continue;
            float *crow = cd + k * nc;
            for (size_t j = 0; j < n_act; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
matmulTransBMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t n_act,
                   size_t k_act, bool accumulate)
{
    checkMatmulTransBMasked(a, b, c, n_act, k_act);
    size_t m = a.rows();
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    float *cd = c.data().data();
    size_t na = a.cols(), nb = b.cols(), kc = c.cols();

    for (size_t i = 0; i < m; ++i) {
        const float *arow = ad + i * na;
        float *crow = cd + i * kc;
        for (size_t k = 0; k < k_act; ++k) {
            const float *brow = bd + k * nb;
            float acc = 0.0f;
            for (size_t j = 0; j < n_act; ++j)
                acc += arow[j] * brow[j];
            if (accumulate)
                crow[k] += acc;
            else
                crow[k] = acc;
        }
    }
}

} // namespace reference

// ---------------------------------------------------------------------------
// Tiled kernels. The matmul family maps onto the micro-kernel of gemm.h,
// whose per-element operation sequence is the reference kernels'.
// ---------------------------------------------------------------------------

namespace tiled {

namespace {

/** Columns per strip of the embedding kernels' stack accumulators. */
constexpr size_t kColTile = 64;

/**
 * True when rows [row0, row0 + rows) x columns [0, n) of C hold a -0.
 * The reference kernels skip a term whose A value is zero; adding it
 * instead, as the micro-kernel does, adds +-0, which leaves every
 * accumulator but -0 unchanged. An accumulator that starts at +0 can
 * never become -0, so only a -0 already in C at the start of an
 * accumulating call can tell the two apart. Such calls (rare: gradient
 * buffers are zeroed to +0) run the reference loops.
 */
bool
hasNegativeZero(const Tensor &c, size_t row0, size_t rows, size_t n)
{
    const float *cd = c.data().data();
    size_t ld = c.cols();
    uint32_t found = 0; // an integer, not a bool, so the loop vectorizes
    for (size_t i = row0; i < row0 + rows; ++i) {
        const float *row = cd + i * ld;
        for (size_t j = 0; j < n; ++j) {
            uint32_t bits;
            std::memcpy(&bits, row + j, sizeof(bits));
            found |= uint32_t(bits == 0x80000000u);
        }
    }
    return found != 0;
}

/** The tiled matmulMasked over an explicit row range. Per output element
 *  the contraction is k ascending wherever the rows start, so the grouped
 *  entry point is bitwise identical to per-candidate calls. */
void
matmulMaskedRows(const Tensor &a, const Tensor &b, Tensor &c, size_t row0,
                 size_t rows, size_t k_act, size_t n_act, bool accumulate,
                 KernelIsa isa)
{
    GemmFn gemm_fn = gemmFor(isa);
    if (accumulate && hasNegativeZero(c, row0, rows, n_act)) {
        MaskGroup g{row0, rows, k_act, n_act};
        reference::matmulMaskedGrouped(a, b, c, {&g, 1}, true);
        return;
    }
    gemm_fn({a.data().data() + row0 * a.cols(), a.cols(), 1,
             b.data().data(), b.cols(), c.data().data() + row0 * c.cols(),
             c.cols(), rows, n_act, k_act,
             accumulate ? gemm::Mode::Accumulate : gemm::Mode::Overwrite});
}

} // namespace

void
matmulMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
             size_t n_act, bool accumulate, KernelIsa isa)
{
    checkMatmulMasked(a, b, c, k_act, n_act);
    matmulMaskedRows(a, b, c, 0, a.rows(), k_act, n_act, accumulate, isa);
}

void
matmulMaskedGrouped(const Tensor &a, const Tensor &b, Tensor &c,
                    std::span<const MaskGroup> groups, bool accumulate,
                    KernelIsa isa)
{
    checkGrouped(a, b, c, groups);
    for (const MaskGroup &g : groups)
        matmulMaskedRows(a, b, c, g.rowBegin, g.rows, g.kAct, g.nAct,
                         accumulate, isa);
}

void
matmulTransAMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
                   size_t n_act, KernelIsa isa)
{
    checkMatmulTransAMasked(a, b, c, k_act, n_act);
    GemmFn gemm_fn = gemmFor(isa);
    if (hasNegativeZero(c, 0, k_act, n_act)) {
        reference::matmulTransAMasked(a, b, c, k_act, n_act);
        return;
    }
    // C[k, j] += sum_i A[i, k] * B[i, j]: A read column-major, the batch
    // index i as the contraction.
    gemm_fn({a.data().data(), 1, a.cols(), b.data().data(), b.cols(),
             c.data().data(), c.cols(), k_act, n_act, a.rows(),
             gemm::Mode::Accumulate});
}

void
matmulTransBMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t n_act,
                   size_t k_act, bool accumulate, Tensor *bt_scratch,
                   KernelIsa isa)
{
    checkMatmulTransBMasked(a, b, c, n_act, k_act);
    GemmFn gemm_fn = gemmFor(isa);
    // C = A * B^T: copy the active block of B transposed, so the
    // micro-kernel loads contiguous output columns, and contract over j
    // ascending from a zero accumulator, as the reference dot products do.
    Tensor local;
    Tensor &bt = bt_scratch ? *bt_scratch : local;
    bt.resizeUninitialized(n_act, k_act);
    const float *bd = b.data().data();
    float *td = bt.data().data();
    size_t nb = b.cols();
    for (size_t k = 0; k < k_act; ++k)
        for (size_t j = 0; j < n_act; ++j)
            td[j * k_act + k] = bd[k * nb + j];
    gemm_fn({a.data().data(), a.cols(), 1, td, k_act, c.data().data(),
             c.cols(), a.rows(), k_act, n_act,
             accumulate ? gemm::Mode::AddProduct : gemm::Mode::Overwrite});
}

void
embeddingGatherPooled(const Tensor &table, std::span<const uint32_t> rows,
                      std::span<const size_t> offsets,
                      std::span<const float> inv, Tensor &out, size_t width)
{
    checkEmbedding(table, rows, offsets, inv, out.rows(), out.cols(), width);
    const float *td = table.data().data();
    float *od = out.data().data();
    size_t tw = table.cols(), ow = out.cols();
    // Blocked gather: the pooled row accumulates in registers per
    // kColTile strip (one store per strip instead of a read-modify-write
    // per id). Per element the adds still run in id-list order from a
    // zero accumulator — bitwise identical to the reference kernel.
    for (size_t i = 0; i < out.rows(); ++i) {
        float *dst = od + i * ow;
        float w = inv[i];
        size_t p0 = offsets[i], p1 = offsets[i + 1];
        for (size_t d0 = 0; d0 < width; d0 += kColTile) {
            size_t dt = std::min(kColTile, width - d0);
            float acc[kColTile];
            for (size_t j = 0; j < dt; ++j)
                acc[j] = 0.0f;
            for (size_t p = p0; p < p1; ++p) {
                const float *src = td + rows[p] * tw + d0;
#pragma omp simd
                for (size_t j = 0; j < dt; ++j)
                    acc[j] += w * src[j];
            }
            for (size_t j = 0; j < dt; ++j)
                dst[d0 + j] = acc[j];
        }
    }
}

void
embeddingScatterAdd(const Tensor &grad_out, std::span<const uint32_t> rows,
                    std::span<const size_t> offsets,
                    std::span<const float> inv, Tensor &grad_table,
                    size_t width)
{
    checkEmbedding(grad_table, rows, offsets, inv, grad_out.rows(),
                   grad_out.cols(), width);
    const float *gd = grad_out.data().data();
    float *td = grad_table.data().data();
    size_t tw = grad_table.cols(), gw = grad_out.cols();
    // Fused scatter: the example's scaled gradient inv * g is staged
    // once per strip (hoisting the multiply out of the id loop), then
    // added to each touched table row with simd. inv * g[d] is the same
    // IEEE product the reference computes per id, and adds run in
    // id-list order — bitwise identical results.
    for (size_t i = 0; i < grad_out.rows(); ++i) {
        const float *src = gd + i * gw;
        float w = inv[i];
        size_t p0 = offsets[i], p1 = offsets[i + 1];
        if (p0 == p1)
            continue;
        for (size_t d0 = 0; d0 < width; d0 += kColTile) {
            size_t dt = std::min(kColTile, width - d0);
            float tmp[kColTile];
#pragma omp simd
            for (size_t j = 0; j < dt; ++j)
                tmp[j] = w * src[d0 + j];
            for (size_t p = p0; p < p1; ++p) {
                float *dst = td + rows[p] * tw + d0;
#pragma omp simd
                for (size_t j = 0; j < dt; ++j)
                    dst[j] += tmp[j];
            }
        }
    }
}

} // namespace tiled

// ---------------------------------------------------------------------------
// Dispatchers.
// ---------------------------------------------------------------------------

void
matmulMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
             size_t n_act, bool accumulate)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::matmulMasked(a, b, c, k_act, n_act, accumulate);
    else
        reference::matmulMasked(a, b, c, k_act, n_act, accumulate);
}

void
matmulTransAMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
                   size_t n_act)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::matmulTransAMasked(a, b, c, k_act, n_act);
    else
        reference::matmulTransAMasked(a, b, c, k_act, n_act);
}

void
matmulTransBMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t n_act,
                   size_t k_act, bool accumulate, Tensor *bt_scratch)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::matmulTransBMasked(a, b, c, n_act, k_act, accumulate,
                                  bt_scratch);
    else
        reference::matmulTransBMasked(a, b, c, n_act, k_act, accumulate);
}

void
matmulMaskedGrouped(const Tensor &a, const Tensor &b, Tensor &c,
                    std::span<const MaskGroup> groups, bool accumulate)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::matmulMaskedGrouped(a, b, c, groups, accumulate);
    else
        reference::matmulMaskedGrouped(a, b, c, groups, accumulate);
}

void
embeddingGatherPooled(const Tensor &table, std::span<const uint32_t> rows,
                      std::span<const size_t> offsets,
                      std::span<const float> inv, Tensor &out, size_t width)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::embeddingGatherPooled(table, rows, offsets, inv, out, width);
    else
        reference::embeddingGatherPooled(table, rows, offsets, inv, out,
                                         width);
}

void
embeddingScatterAdd(const Tensor &grad_out, std::span<const uint32_t> rows,
                    std::span<const size_t> offsets,
                    std::span<const float> inv, Tensor &grad_table,
                    size_t width)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::embeddingScatterAdd(grad_out, rows, offsets, inv, grad_table,
                                   width);
    else
        reference::embeddingScatterAdd(grad_out, rows, offsets, inv,
                                       grad_table, width);
}

void
matmul(const Tensor &a, const Tensor &b, Tensor &c)
{
    h2o_assert(a.cols() == b.rows(), "matmul shape mismatch: ", a.shapeStr(),
               " x ", b.shapeStr());
    h2o_assert(c.rows() == a.rows() && c.cols() == b.cols(),
               "matmul output shape mismatch");
    matmulMasked(a, b, c, a.cols(), b.cols(), false);
}

void
addBias(Tensor &x, const Tensor &bias, size_t n_act)
{
    h2o_assert(n_act <= bias.size() && n_act <= x.cols(),
               "addBias: n_act out of range");
    float *xd = x.data().data();
    const float *bd = bias.data().data();
    size_t n = x.cols();
    for (size_t i = 0; i < x.rows(); ++i) {
        float *row = xd + i * n;
#pragma omp simd
        for (size_t j = 0; j < n_act; ++j)
            row[j] += bd[j];
    }
}

void
addBiasGrouped(Tensor &x, const Tensor &bias,
               std::span<const MaskGroup> groups)
{
    float *xd = x.data().data();
    const float *bd = bias.data().data();
    size_t n = x.cols();
    for (const MaskGroup &g : groups) {
        h2o_assert(g.rowBegin + g.rows <= x.rows() && g.nAct <= n &&
                       g.nAct <= bias.size(),
                   "addBiasGrouped: group out of range");
        for (size_t i = g.rowBegin; i < g.rowBegin + g.rows; ++i) {
            float *row = xd + i * n;
#pragma omp simd
            for (size_t j = 0; j < g.nAct; ++j)
                row[j] += bd[j];
        }
    }
}

void
axpy(float alpha, const Tensor &x, Tensor &y)
{
    h2o_assert(x.size() == y.size(), "axpy size mismatch");
    const float *xd = x.data().data();
    float *yd = y.data().data();
    size_t n = x.size();
#pragma omp simd
    for (size_t i = 0; i < n; ++i)
        yd[i] += alpha * xd[i];
}

} // namespace h2o::nn
