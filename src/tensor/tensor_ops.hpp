// Free-function kernels over Tensor.
//
// These are the raw numeric kernels; the autodiff layer in src/nn builds its
// differentiable ops on top of them. Matmul is blocked and threaded via the
// common thread pool — it dominates both training and inference time.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace tvbf {

// ---- elementwise -----------------------------------------------------------

/// c = a + b (same shape).
Tensor add(const Tensor& a, const Tensor& b);
/// c = a - b (same shape).
Tensor sub(const Tensor& a, const Tensor& b);
/// c = a * b elementwise (same shape).
Tensor mul(const Tensor& a, const Tensor& b);
/// c = a * s.
Tensor scale(const Tensor& a, float s);
/// In-place a += b (same shape).
void add_inplace(Tensor& a, const Tensor& b);
/// In-place a += s * b (axpy, same shape).
void axpy_inplace(Tensor& a, float s, const Tensor& b);

/// Adds a rank-1 bias of length `a.shape().back()` to each trailing row.
Tensor add_bias(const Tensor& a, const Tensor& bias);

/// max(a, 0) elementwise.
Tensor relu(const Tensor& a);
/// tanh elementwise.
Tensor tanh_t(const Tensor& a);

/// Softmax over the trailing axis: max-subtracted, denominator accumulated
/// in double. Rows run in parallel; each row's bits are fixed.
Tensor softmax_last(const Tensor& a);

// ---- reductions ------------------------------------------------------------

float sum(const Tensor& a);
float mean(const Tensor& a);
float min_value(const Tensor& a);
float max_value(const Tensor& a);
/// Maximum |a_i|; 0 for empty tensors.
float max_abs(const Tensor& a);

// ---- linear algebra --------------------------------------------------------

/// Row-major matrix product: a (m,k) x b (k,n) -> (m,n). Threaded.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Batched matmul: a (B,m,k) x b (B,k,n) -> (B,m,n). If b has rank 2 it is
/// broadcast across the batch.
Tensor batched_matmul(const Tensor& a, const Tensor& b);

/// Batched matmul against the transposed rhs: a (B,m,k) x b (B,n,k)^T ->
/// (B,m,n), i.e. c[b](i,j) = dot(a[b] row i, b[b] row j). Attention scores
/// (Q.K^T) consume K directly without materializing the transpose.
Tensor batched_matmul_nt(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor transpose(const Tensor& a);

/// Swaps the last two axes of a rank-3 tensor.
Tensor transpose_last2(const Tensor& a);

// ---- shaping ---------------------------------------------------------------

/// Extracts rows [begin, end) along axis 0.
Tensor slice0(const Tensor& a, std::int64_t begin, std::int64_t end);

/// Concatenates along axis 0 (shapes must otherwise match).
Tensor concat0(const Tensor& a, const Tensor& b);

// ---- norms & comparisons ---------------------------------------------------

/// Frobenius / L2 norm.
float l2_norm(const Tensor& a);

/// Max |a-b|; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// True if max |a-b| <= atol + rtol * max|b|.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

}  // namespace tvbf
