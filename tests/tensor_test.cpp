#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <vector>

#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace cq::tensor {
namespace {

TEST(Shape, NumelAndToString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({}), 1u);
  EXPECT_EQ(shape_numel({5, 0}), 0u);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ConstructFromValuesValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, FullAndOnes) {
  const Tensor t = Tensor::full({3}, 2.5f);
  EXPECT_EQ(t[0], 2.5f);
  const Tensor o = Tensor::ones({2});
  EXPECT_EQ(o[1], 1.0f);
}

TEST(Tensor, At2dIndexing) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  EXPECT_EQ(t.at(1, 2), 7.0f);
}

TEST(Tensor, At4dIndexingNchw) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t[t.numel() - 1], 9.0f);
}

TEST(Tensor, ReshapePreservesDataAndChecksNumel) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshape({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a({3}, {1, 2, 3});
  const Tensor b({3}, {10, 20, 30});
  a += b;
  EXPECT_EQ(a[2], 33.0f);
  a -= b;
  EXPECT_EQ(a[2], 3.0f);
  a *= 2.0f;
  EXPECT_EQ(a[0], 2.0f);
  const Tensor c = a + b;
  EXPECT_EQ(c[1], 24.0f);
  const Tensor d = b - a;
  EXPECT_EQ(d[0], 8.0f);
  const Tensor e = a * 0.5f;
  EXPECT_EQ(e[2], 3.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2});
  const Tensor b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Tensor, Reductions) {
  const Tensor t({4}, {1, -5, 3, 1});
  EXPECT_DOUBLE_EQ(t.sum(), 0.0);
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
  EXPECT_EQ(t.abs_max(), 5.0f);
}

TEST(Tensor, RowAndArgmax) {
  const Tensor t({2, 3}, {1, 9, 2, 8, 1, 3});
  EXPECT_EQ(t.argmax_row(0), 1);
  EXPECT_EQ(t.argmax_row(1), 0);
  EXPECT_EQ(t.row(1)[2], 3.0f);
}

TEST(Tensor, AllClose) {
  const Tensor a({2}, {1.0f, 2.0f});
  const Tensor b({2}, {1.0f + 1e-7f, 2.0f});
  EXPECT_TRUE(a.allclose(b));
  const Tensor c({2}, {1.1f, 2.0f});
  EXPECT_FALSE(a.allclose(c));
}

TEST(Tensor, RandnStatistics) {
  util::Rng rng(1);
  const Tensor t = Tensor::randn({10000}, rng, 2.0f);
  EXPECT_NEAR(t.mean(), 0.0, 0.1);
  double sq = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) sq += t[i] * t[i];
  EXPECT_NEAR(std::sqrt(sq / static_cast<double>(t.numel())), 2.0, 0.1);
}

TEST(Gemm, MatchesHandComputed) {
  // A = [[1,2],[3,4]], B = [[5,6],[7,8]] -> C = [[19,22],[43,50]]
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c[4];
  gemm(a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Gemm, AccumulateAddsIntoC) {
  const float a[] = {1, 0, 0, 1};
  const float b[] = {1, 2, 3, 4};
  float c[4] = {10, 10, 10, 10};
  gemm(a, b, c, 2, 2, 2, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[0], 11);
  EXPECT_FLOAT_EQ(c[3], 14);
}

TEST(Gemm, TransposedVariantsAgree) {
  util::Rng rng(3);
  const int m = 4, k = 5, n = 3;
  const Tensor A = Tensor::randn({m, k}, rng);
  const Tensor B = Tensor::randn({k, n}, rng);
  Tensor C1({m, n});
  gemm(A.data(), B.data(), C1.data(), m, k, n);

  // A^T stored as [k, m].
  Tensor At({k, m});
  for (int i = 0; i < m; ++i)
    for (int p = 0; p < k; ++p) At.at(p, i) = A.at(i, p);
  Tensor C2({m, n});
  gemm_at_b(At.data(), B.data(), C2.data(), k, m, n);
  EXPECT_TRUE(C1.allclose(C2, 1e-4f));

  // B^T stored as [n, k].
  Tensor Bt({n, k});
  for (int p = 0; p < k; ++p)
    for (int j = 0; j < n; ++j) Bt.at(j, p) = B.at(p, j);
  Tensor C3({m, n});
  gemm_a_bt(A.data(), Bt.data(), C3.data(), m, k, n);
  EXPECT_TRUE(C1.allclose(C3, 1e-4f));
}

TEST(Im2col, IdentityKernelGeometry) {
  // 1x1 kernel, no padding: cols == input.
  ConvGeometry g;
  g.in_c = 2;
  g.in_h = 3;
  g.in_w = 3;
  g.kernel = 1;
  g.stride = 1;
  g.pad = 0;
  std::vector<float> input(18);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = static_cast<float>(i);
  std::vector<float> cols(static_cast<std::size_t>(g.patch_size()) * g.out_h() * g.out_w());
  im2col(input.data(), g, cols.data());
  for (std::size_t i = 0; i < input.size(); ++i) EXPECT_EQ(cols[i], input[i]);
}

TEST(Im2col, ZeroPaddingAtBorders) {
  ConvGeometry g;
  g.in_c = 1;
  g.in_h = 2;
  g.in_w = 2;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  const std::vector<float> input = {1, 2, 3, 4};
  std::vector<float> cols(static_cast<std::size_t>(g.patch_size()) * g.out_h() * g.out_w());
  im2col(input.data(), g, cols.data());
  // Patch row (ky=0, kx=0) for output (0,0) looks at input (-1,-1) -> 0.
  EXPECT_EQ(cols[0], 0.0f);
  // Patch row (ky=1, kx=1) (center) for output (0,0) is input(0,0)=1.
  const int spatial = g.out_h() * g.out_w();
  EXPECT_EQ(cols[static_cast<std::size_t>(4) * spatial + 0], 1.0f);
}

TEST(Im2col, MatchesDirectIndexingOverGeometries) {
  // Every (kernel, stride, pad) combination, including windows wider
  // than the padded input and pads larger than the kernel, against the
  // definition: cols[(c,ky,kx)][(y,x)] = input[c][y*s-p+ky][x*s-p+kx],
  // or 0 outside the image. Integer codes take the same template.
  for (const int kernel : {1, 2, 3, 5}) {
    for (const int stride : {1, 2, 3}) {
      for (const int pad : {0, 1, 2, 4}) {
        ConvGeometry g;
        g.in_c = 2;
        g.in_h = 5;
        g.in_w = 7;
        g.kernel = kernel;
        g.stride = stride;
        g.pad = pad;
        if (g.out_h() <= 0 || g.out_w() <= 0) continue;
        std::vector<std::int32_t> input(static_cast<std::size_t>(g.in_c) * g.in_h *
                                        g.in_w);
        for (std::size_t i = 0; i < input.size(); ++i) {
          input[i] = static_cast<std::int32_t>(i) + 1;
        }
        const int oh = g.out_h(), ow = g.out_w();
        std::vector<std::int32_t> cols(
            static_cast<std::size_t>(g.patch_size()) * oh * ow, -1);
        im2col_any(input.data(), g, cols.data());
        std::size_t i = 0;
        for (int c = 0; c < g.in_c; ++c) {
          for (int ky = 0; ky < kernel; ++ky) {
            for (int kx = 0; kx < kernel; ++kx) {
              for (int y = 0; y < oh; ++y) {
                for (int x = 0; x < ow; ++x, ++i) {
                  const int iy = y * stride - pad + ky;
                  const int ix = x * stride - pad + kx;
                  const bool inside = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
                  const std::int32_t want =
                      inside ? input[(static_cast<std::size_t>(c) * g.in_h + iy) * g.in_w +
                                     ix]
                             : 0;
                  ASSERT_EQ(want, cols[i]) << "k=" << kernel << " s=" << stride
                                           << " p=" << pad << " c=" << c << " ky=" << ky
                                           << " kx=" << kx << " y=" << y << " x=" << x;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(Im2col, Col2imRoundTripIsMultiplicityWeighted) {
  // col2im(im2col(x)) multiplies each pixel by the number of windows
  // covering it; for kernel 1 that is exactly 1 -> identity.
  ConvGeometry g;
  g.in_c = 1;
  g.in_h = 4;
  g.in_w = 4;
  g.kernel = 1;
  g.stride = 1;
  g.pad = 0;
  std::vector<float> input(16, 2.0f);
  std::vector<float> cols(16);
  im2col(input.data(), g, cols.data());
  std::vector<float> back(16, 0.0f);
  col2im(cols.data(), g, back.data());
  for (const float v : back) EXPECT_EQ(v, 2.0f);
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  const Tensor logits({2, 3}, {1, 2, 3, -1, -2, -3});
  const Tensor p = softmax_rows(logits);
  for (int r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 3; ++c) sum += p.at(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  EXPECT_GT(p.at(0, 2), p.at(0, 0));
  EXPECT_GT(p.at(1, 0), p.at(1, 2));
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const Tensor logits({1, 2}, {1000.0f, 1001.0f});
  const Tensor p = softmax_rows(logits);
  EXPECT_FALSE(std::isnan(p.at(0, 0)));
  EXPECT_NEAR(p.at(0, 0) + p.at(0, 1), 1.0, 1e-5);
}

TEST(LogSoftmax, MatchesLogOfSoftmax) {
  const Tensor logits({1, 4}, {0.5f, -1.0f, 2.0f, 0.0f});
  const Tensor p = softmax_rows(logits);
  const Tensor lp = log_softmax_rows(logits);
  for (int c = 0; c < 4; ++c) EXPECT_NEAR(lp.at(0, c), std::log(p.at(0, c)), 1e-5);
}

TEST(Serialize, RoundTripsTensors) {
  const std::string path = testing::TempDir() + "/cq_tensors.bin";
  util::Rng rng(4);
  std::map<std::string, Tensor> tensors;
  tensors.emplace("w", Tensor::randn({3, 4}, rng));
  tensors.emplace("b", Tensor::randn({7}, rng));
  save_tensors(path, tensors);
  const auto loaded = load_tensors(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded.at("w").allclose(tensors.at("w")));
  EXPECT_TRUE(loaded.at("b").allclose(tensors.at("b")));
  EXPECT_EQ(loaded.at("w").shape(), (Shape{3, 4}));
}

TEST(Serialize, BadMagicThrows) {
  const std::string path = testing::TempDir() + "/cq_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE";
  }
  EXPECT_THROW(load_tensors(path), std::runtime_error);
}

}  // namespace
}  // namespace cq::tensor
