#include "tensor/ops.h"

#include <cmath>
#include <cstring>

namespace cq::tensor {

void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate) {
  // i-k-j loop order keeps the inner loop streaming over contiguous
  // rows of B and C, which is the cache-friendly order for row-major.
  if (!accumulate) {
    std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * n);
  }
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_at_b(const float* a, const float* b, float* c, int k, int m, int n,
               bool accumulate) {
  // p is the outer loop (B rows stream once per p), so every element
  // accumulates its k contributions in ascending-p order.
  if (!accumulate) {
    std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * n);
  }
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<std::size_t>(p) * m;
    const float* brow = b + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_a_bt(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      double acc = accumulate ? crow[j] : 0.0;
      for (int p = 0; p < k; ++p) acc += static_cast<double>(arow[p]) * brow[p];
      crow[j] = static_cast<float>(acc);
    }
  }
}

void im2col(const float* input, const ConvGeometry& g, float* cols) {
  im2col_any(input, g, cols);
}

void col2im(const float* cols, const ConvGeometry& g, float* input_grad) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int spatial = oh * ow;
  for (int c = 0; c < g.in_c; ++c) {
    float* plane = input_grad + static_cast<std::size_t>(c) * g.in_h * g.in_w;
    for (int ky = 0; ky < g.kernel; ++ky) {
      for (int kx = 0; kx < g.kernel; ++kx) {
        const float* crow =
            cols + (static_cast<std::size_t>(c) * g.kernel * g.kernel + ky * g.kernel + kx) *
                       spatial;
        for (int y = 0; y < oh; ++y) {
          const int iy = y * g.stride - g.pad + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          float* irow = plane + static_cast<std::size_t>(iy) * g.in_w;
          const float* orow = crow + static_cast<std::size_t>(y) * ow;
          for (int x = 0; x < ow; ++x) {
            const int ix = x * g.stride - g.pad + kx;
            if (ix >= 0 && ix < g.in_w) irow[ix] += orow[x];
          }
        }
      }
    }
  }
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor out = logits;
  const int rows = logits.dim(0);
  const int cols = logits.dim(1);
  for (int r = 0; r < rows; ++r) {
    auto orow = out.row(r);
    float mx = orow[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, orow[static_cast<std::size_t>(c)]);
    double denom = 0.0;
    for (int c = 0; c < cols; ++c) {
      orow[static_cast<std::size_t>(c)] = std::exp(orow[static_cast<std::size_t>(c)] - mx);
      denom += orow[static_cast<std::size_t>(c)];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int c = 0; c < cols; ++c) orow[static_cast<std::size_t>(c)] *= inv;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  Tensor out = logits;
  const int rows = logits.dim(0);
  const int cols = logits.dim(1);
  for (int r = 0; r < rows; ++r) {
    auto orow = out.row(r);
    float mx = orow[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, orow[static_cast<std::size_t>(c)]);
    double denom = 0.0;
    for (int c = 0; c < cols; ++c) denom += std::exp(orow[static_cast<std::size_t>(c)] - mx);
    const float log_denom = static_cast<float>(std::log(denom)) + mx;
    for (int c = 0; c < cols; ++c) orow[static_cast<std::size_t>(c)] -= log_denom;
  }
  return out;
}

}  // namespace cq::tensor
