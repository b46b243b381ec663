#pragma once

#include <algorithm>
#include <cstddef>

#include "tensor/tensor.h"

namespace cq::tensor {

/// C = A * B for row-major A[M,K], B[K,N], C[M,N].
/// `accumulate` adds into C instead of overwriting it.
void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate = false);

/// C = A^T * B for A[K,M], B[K,N], C[M,N].
void gemm_at_b(const float* a, const float* b, float* c, int k, int m, int n,
               bool accumulate = false);

/// C = A * B^T for A[M,K], B[N,K], C[M,N].
void gemm_a_bt(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate = false);

/// Geometry of a 2-D convolution / pooling window.
struct ConvGeometry {
  int in_c = 0, in_h = 0, in_w = 0;
  int kernel = 3;
  int stride = 1;
  int pad = 1;

  int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the im2col matrix: in_c * kernel * kernel.
  int patch_size() const { return in_c * kernel * kernel; }
};

/// im2col for one image of any scalar type: input [C,H,W] (contiguous)
/// is unfolded into `cols` of shape [patch_size, out_h*out_w], zero
/// padding applied. One implementation serves the float training path
/// and the integer-engine code path so the geometry/padding logic can
/// never diverge between them. cols layout: row = (c, ky, kx), col =
/// (y, x) of the output.
template <typename T>
void im2col_any(const T* input, const ConvGeometry& geometry, T* cols) {
  // A copy, not reads through the reference: with T = int32_t every
  // store to `cols` could alias the geometry's int fields, and the
  // compiler would reload them per element.
  const ConvGeometry g = geometry;
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int spatial = oh * ow;
  const int kk = g.kernel * g.kernel;
  const int rows = g.in_c * kk;
  for (int r = 0; r < rows; ++r) {
    const int c = r / kk;
    const int rem = r % kk;
    const int ky = rem / g.kernel;
    const int kx = rem % g.kernel;
    // Output columns [x_lo, x_hi) read input column x * stride + kx - pad
    // inside the row; the columns outside are zero padding. Splitting
    // them off keeps the copy loop free of per-element bounds checks.
    const int shift = kx - g.pad;
    const int x_lo = std::min(ow, std::max(0, (-shift + g.stride - 1) / g.stride));
    const int x_hi =
        std::max(x_lo, std::min(ow, (g.in_w - shift + g.stride - 1) / g.stride));
    const T* plane = input + static_cast<std::size_t>(c) * g.in_h * g.in_w;
    T* crow = cols + static_cast<std::size_t>(r) * spatial;
    for (int y = 0; y < oh; ++y) {
      const int iy = y * g.stride - g.pad + ky;
      T* orow = crow + static_cast<std::size_t>(y) * ow;
      if (iy < 0 || iy >= g.in_h) {
        std::fill(orow, orow + ow, T{0});
        continue;
      }
      const T* irow = plane + static_cast<std::size_t>(iy) * g.in_w;
      std::fill(orow, orow + x_lo, T{0});
      for (int x = x_lo; x < x_hi; ++x) orow[x] = irow[x * g.stride + shift];
      std::fill(orow + x_hi, orow + ow, T{0});
    }
  }
}

/// im2col for one float image (see im2col_any).
void im2col(const float* input, const ConvGeometry& g, float* cols);

/// Inverse scatter-add of im2col: accumulates `cols` back into
/// `input_grad` (must be zeroed by the caller for a fresh gradient).
void col2im(const float* cols, const ConvGeometry& g, float* input_grad);

/// Row-wise softmax of a rank-2 tensor (numerically stable).
Tensor softmax_rows(const Tensor& logits);

/// log-softmax of a rank-2 tensor, row-wise.
Tensor log_softmax_rows(const Tensor& logits);

}  // namespace cq::tensor
