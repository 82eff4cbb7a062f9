// The matmul micro-kernel of gemm.h for AVX-512F, built with -mavx512f;
// -ffp-contract=off keeps its FMA instructions out of the code.
// Per-file compile flags are set in src/nn/CMakeLists.txt.

#define H2O_GEMM_VEC_BYTES 64
#define H2O_GEMM_ENTRY runAvx512f
#define H2O_GEMM_ROWS 8
#define H2O_GEMM_VECS 2
#include "nn/gemm_kernel.inc"
