// Matrix multiply kernels.
//
// C[m, n] = sum_k A[m, k] * B[k, n], with optional accumulate-into-C.
// matmul_naive is the reference oracle for tests; matmul_blocked is the
// legacy cache-blocked kernel, kept as the baseline the bench suite
// compares against. The production
// GEMM engine is tensor/gemm_kernel (packed panels + register-blocked
// micro-kernel); matmul() routes through it.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace dlsr {

/// Reference triple loop (used by tests as ground truth).
void matmul_naive(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate);

/// Cache-blocked kernel; same contract as matmul_naive.
void matmul_blocked(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, bool accumulate);

/// C = A(mxk) * B(kxn) on rank-2 tensors (shape-checked, packed engine).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T * B where A is (k x m), B is (k x n) -> C (m x n).
/// Used by conv2d weight gradients.
void matmul_at_b(const float* a, const float* b, float* c, std::size_t k,
                 std::size_t m, std::size_t n, bool accumulate);

/// C = A * B^T where A is (m x k), B is (n x k) -> C (m x n).
/// Used by conv2d input gradients.
void matmul_a_bt(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate);

}  // namespace dlsr
