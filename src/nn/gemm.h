/**
 * @file
 * The register-blocked matmul micro-kernel behind the tiled kernels of
 * nn/ops.h. One source body (gemm_kernel.inc) is compiled once per
 * vector ISA — gemm_sse2.cc, gemm_avx2.cc, gemm_avx512f.cc, each with its
 * own -m flags — and ops.cc calls the widest one the host supports.
 *
 * Every variant computes, for each output element,
 *
 *     acc = 0 (or C);  for p = 0, 1, ..., k-1:  acc = acc + A(i,p) * B(p,j)
 *
 * as one IEEE multiply then one IEEE add per term (the kernels are built
 * with -ffp-contract=off and never with FMA), so the ISA a host picks
 * cannot change any bit of the result.
 *
 * This header holds only declarations and plain data on purpose: an
 * inline function defined here would be compiled into every ISA's
 * object as a COMDAT copy, and the linker keeps one copy — possibly the
 * AVX-512 one — for every caller.
 */

#ifndef H2O_NN_GEMM_H
#define H2O_NN_GEMM_H

#include <cstddef>

namespace h2o::nn::gemm {

/** How a tile's accumulators start and how they land in C. */
enum class Mode
{
    Overwrite,  ///< acc = 0;  C = acc
    Accumulate, ///< acc = C;  C = acc
    AddProduct, ///< acc = 0;  C = C + acc
};

/**
 * C(i, j) for i < m, j < n, contracting over p < k, where
 * A(i, p) = a[i * aRowStride + p * aColStride], B(p, j) = b[p * ldb + j]
 * and C(i, j) = c[i * ldc + j]. The A strides let one kernel read A
 * row-major (C = A B) or column-major (C = A^T B).
 */
struct Args
{
    const float *a;
    size_t aRowStride;
    size_t aColStride;
    const float *b;
    size_t ldb;
    float *c;
    size_t ldc;
    size_t m;
    size_t n;
    size_t k;
    Mode mode;
};

/** The micro-kernel built for the x86-64 baseline (SSE2), or for the
 *  target's default ISA elsewhere. Always present. */
void runBaseline(const Args &args);

/** The AVX2 build (without FMA). Present when H2O_GEMM_AVX2 is defined. */
void runAvx2(const Args &args);

/** The AVX-512F build (without FMA contraction). Present when
 *  H2O_GEMM_AVX512F is defined. */
void runAvx512f(const Args &args);

} // namespace h2o::nn::gemm

#endif // H2O_NN_GEMM_H
