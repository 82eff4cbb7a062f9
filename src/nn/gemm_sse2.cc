// The matmul micro-kernel of gemm.h for the x86-64 baseline ISA (SSE2),
// or for the target's default ISA off x86.
// It gets no -m flag of its own, so it runs on every host of the target.

#define H2O_GEMM_VEC_BYTES 16
#define H2O_GEMM_ENTRY runBaseline
#define H2O_GEMM_ROWS 6
#define H2O_GEMM_VECS 2
#include "nn/gemm_kernel.inc"
