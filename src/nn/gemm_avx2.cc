// The matmul micro-kernel of gemm.h for AVX2, built with -mavx2 and
// without FMA.
// Per-file compile flags are set in src/nn/CMakeLists.txt.

#define H2O_GEMM_VEC_BYTES 32
#define H2O_GEMM_ENTRY runAvx2
#define H2O_GEMM_ROWS 6
#define H2O_GEMM_VECS 2
#include "nn/gemm_kernel.inc"
