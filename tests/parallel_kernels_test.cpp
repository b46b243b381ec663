// Property tests for the intra-op parallel kernels: under any
// util::ExecContext (thread counts 1/2/3/8, shapes chosen so chunk
// boundaries fall oddly, filters % threads != 0), every kernel must
// produce output BYTE-identical to its serial execution. This is the
// contract that lets serving turn on intra-op parallelism without
// perturbing a single logit; the CI TSan lane runs these same tests to
// prove the chunking is race-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/int_engine.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/models/vgg_small.h"
#include "serve/engine_session.h"
#include "tensor/ops.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cq {
namespace {

using tensor::Tensor;

/// Thread counts the suite sweeps: serial, even, odd (so chunk edges
/// land mid-row-group), and more threads than most tested shapes have
/// rows.
constexpr int kThreadCounts[] = {1, 2, 3, 8};

/// Pool sized for `threads` participants (caller included).
std::unique_ptr<util::ThreadPool> pool_for(int threads) {
  return threads > 1 ? std::make_unique<util::ThreadPool>(threads - 1) : nullptr;
}

bool same_bytes(const float* a, const float* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(float)) == 0;
}

std::vector<float> random_floats(std::size_t count, util::Rng& rng) {
  std::vector<float> out(count);
  for (float& v : out) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  return out;
}

TEST(ParallelKernelsGemm, AllVariantsByteIdenticalAcrossThreadCounts) {
  util::Rng rng(101);
  for (int iter = 0; iter < 12; ++iter) {
    // Odd sizes on purpose: m rarely divides the thread count.
    const int m = static_cast<int>(rng.uniform_int(1, 37));
    const int k = static_cast<int>(rng.uniform_int(1, 29));
    const int n = static_cast<int>(rng.uniform_int(1, 23));
    const bool accumulate = iter % 2 == 1;
    const std::vector<float> a = random_floats(static_cast<std::size_t>(m) * k, rng);
    const std::vector<float> b = random_floats(static_cast<std::size_t>(m) * k * n, rng);
    const std::vector<float> c_init =
        random_floats(static_cast<std::size_t>(m) * std::max(k, n), rng);

    // gemm: A[m,k] * B[k,n].
    std::vector<float> serial(c_init.begin(),
                              c_init.begin() + static_cast<std::size_t>(m) * n);
    tensor::gemm(a.data(), b.data(), serial.data(), m, k, n, accumulate);
    // gemm_at_b: A[k,m]^T * B[k,n] (reuse a as [k,m] when sizes allow).
    std::vector<float> serial_atb(c_init.begin(),
                                  c_init.begin() + static_cast<std::size_t>(m) * n);
    tensor::gemm_at_b(b.data(), b.data(), serial_atb.data(), k, m, n, accumulate);
    // gemm_a_bt: A[m,k] * B[n,k].
    std::vector<float> serial_abt(c_init.begin(),
                                  c_init.begin() + static_cast<std::size_t>(m) * n);
    tensor::gemm_a_bt(a.data(), b.data(), serial_abt.data(), m, k, n, accumulate);

    for (const int t : kThreadCounts) {
      const auto pool = pool_for(t);
      const util::ExecContext exec{pool.get(), t};

      std::vector<float> out(c_init.begin(),
                             c_init.begin() + static_cast<std::size_t>(m) * n);
      tensor::gemm(a.data(), b.data(), out.data(), m, k, n, accumulate, exec);
      EXPECT_TRUE(same_bytes(out.data(), serial.data(), out.size()))
          << "gemm m=" << m << " k=" << k << " n=" << n << " threads=" << t;

      std::vector<float> out_atb(c_init.begin(),
                                 c_init.begin() + static_cast<std::size_t>(m) * n);
      tensor::gemm_at_b(b.data(), b.data(), out_atb.data(), k, m, n, accumulate, exec);
      EXPECT_TRUE(same_bytes(out_atb.data(), serial_atb.data(), out_atb.size()))
          << "gemm_at_b m=" << m << " k=" << k << " n=" << n << " threads=" << t;

      std::vector<float> out_abt(c_init.begin(),
                                 c_init.begin() + static_cast<std::size_t>(m) * n);
      tensor::gemm_a_bt(a.data(), b.data(), out_abt.data(), m, k, n, accumulate, exec);
      EXPECT_TRUE(same_bytes(out_abt.data(), serial_abt.data(), out_abt.size()))
          << "gemm_a_bt m=" << m << " k=" << k << " n=" << n << " threads=" << t;
    }
  }
}

TEST(ParallelKernelsIm2col, ByteIdenticalAcrossGeometries) {
  util::Rng rng(202);
  for (int iter = 0; iter < 10; ++iter) {
    tensor::ConvGeometry g;
    g.in_c = static_cast<int>(rng.uniform_int(1, 7));
    g.kernel = static_cast<int>(rng.uniform_int(0, 1)) == 0 ? 3 : 5;
    g.stride = static_cast<int>(rng.uniform_int(1, 2));
    g.pad = static_cast<int>(rng.uniform_int(0, 2));
    g.in_h = static_cast<int>(rng.uniform_int(g.kernel, 13));
    g.in_w = static_cast<int>(rng.uniform_int(g.kernel, 11));
    if (g.out_h() <= 0 || g.out_w() <= 0) continue;
    const std::vector<float> input =
        random_floats(static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w, rng);
    const std::size_t cols_size =
        static_cast<std::size_t>(g.patch_size()) * g.out_h() * g.out_w();

    std::vector<float> serial(cols_size, -1.0f);
    tensor::im2col(input.data(), g, serial.data());
    for (const int t : kThreadCounts) {
      const auto pool = pool_for(t);
      const util::ExecContext exec{pool.get(), t};
      std::vector<float> cols(cols_size, -1.0f);
      tensor::im2col(input.data(), g, cols.data(), exec);
      EXPECT_TRUE(same_bytes(cols.data(), serial.data(), cols_size))
          << "im2col c=" << g.in_c << " k=" << g.kernel << " s=" << g.stride
          << " p=" << g.pad << " threads=" << t;
    }
  }
}

/// Random IntegerLayer: mixed per-filter bits including pruned (0-bit)
/// filters, dense random codes, random bias.
deploy::IntegerLayer random_integer_layer(int num_filters, std::int64_t per_filter,
                                          util::Rng& rng) {
  deploy::IntegerLayer layer;
  layer.num_filters = num_filters;
  layer.weights_per_filter = per_filter;
  layer.range_hi = static_cast<float>(rng.uniform(0.2, 1.5));
  layer.filter_bits.resize(static_cast<std::size_t>(num_filters));
  layer.codes.assign(static_cast<std::size_t>(num_filters) * per_filter, 0);
  layer.bias.resize(static_cast<std::size_t>(num_filters));
  for (int k = 0; k < num_filters; ++k) {
    const int b = static_cast<int>(rng.uniform_int(0, 4));  // 0 = pruned
    layer.filter_bits[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(b);
    layer.bias[static_cast<std::size_t>(k)] = static_cast<float>(rng.uniform(-1.0, 1.0));
    if (b == 0) continue;
    std::int32_t* row = layer.codes.data() + static_cast<std::size_t>(k) * per_filter;
    for (std::int64_t j = 0; j < per_filter; ++j) {
      row[j] = static_cast<std::int32_t>(rng.uniform_int(0, (1 << b) - 1));
    }
  }
  return layer;
}

deploy::ActCodes random_act_codes(std::size_t count, int bits, util::Rng& rng) {
  deploy::ActCodes acts;
  acts.bits = bits;
  acts.scale = static_cast<float>(rng.uniform(0.01, 0.5));
  acts.codes.resize(count);
  for (std::int32_t& c : acts.codes) {
    c = static_cast<std::int32_t>(rng.uniform_int(0, (1 << bits) - 1));
  }
  return acts;
}

TEST(ParallelKernelsIntegerConv, ByteIdenticalAcrossShapesAndThreadCounts) {
  util::Rng rng(303);
  for (int iter = 0; iter < 15; ++iter) {
    const int in_c = static_cast<int>(rng.uniform_int(1, 6));
    const int kernel = static_cast<int>(rng.uniform_int(0, 1)) == 0 ? 1 : 3;
    const int stride = static_cast<int>(rng.uniform_int(1, 2));
    const int pad = static_cast<int>(rng.uniform_int(0, 1));
    const int h = static_cast<int>(rng.uniform_int(kernel, 10));
    const int w = static_cast<int>(rng.uniform_int(kernel, 9));
    const int batch = static_cast<int>(rng.uniform_int(1, 3));
    // Prime-ish filter counts so filters % threads != 0 for 2, 3, 8.
    const int filter_choices[] = {1, 3, 5, 7, 17, 37};
    const int filters = filter_choices[rng.uniform_int(0, 5)];
    if ((h + 2 * pad - kernel) / stride + 1 <= 0) continue;
    if ((w + 2 * pad - kernel) / stride + 1 <= 0) continue;

    const std::int64_t per_filter = static_cast<std::int64_t>(in_c) * kernel * kernel;
    const deploy::IntegerLayer layer = random_integer_layer(filters, per_filter, rng);
    const deploy::ActCodes acts = random_act_codes(
        static_cast<std::size_t>(batch) * in_c * h * w, 3, rng);

    const Tensor serial =
        deploy::integer_conv_forward(layer, acts, batch, in_c, h, w, kernel, stride, pad);
    for (const int t : kThreadCounts) {
      const auto pool = pool_for(t);
      const util::ExecContext exec{pool.get(), t};
      const Tensor out = deploy::integer_conv_forward(layer, acts, batch, in_c, h, w,
                                                      kernel, stride, pad, exec);
      ASSERT_EQ(out.shape(), serial.shape());
      EXPECT_TRUE(same_bytes(out.data(), serial.data(), serial.numel()))
          << "conv filters=" << filters << " in_c=" << in_c << " h=" << h << " w=" << w
          << " k=" << kernel << " s=" << stride << " p=" << pad << " threads=" << t;
    }
  }
}

TEST(ParallelKernelsIntegerLinear, ByteIdenticalAcrossShapesAndThreadCounts) {
  util::Rng rng(404);
  for (int iter = 0; iter < 15; ++iter) {
    const int in_features = static_cast<int>(rng.uniform_int(1, 64));
    const int filter_choices[] = {1, 2, 3, 5, 7, 17, 37};
    const int filters = filter_choices[rng.uniform_int(0, 6)];
    const int batch = static_cast<int>(rng.uniform_int(1, 5));

    const deploy::IntegerLayer layer = random_integer_layer(filters, in_features, rng);
    const deploy::ActCodes acts = random_act_codes(
        static_cast<std::size_t>(batch) * in_features, 4, rng);

    const Tensor serial = deploy::integer_linear_forward(layer, acts, batch, in_features);
    for (const int t : kThreadCounts) {
      const auto pool = pool_for(t);
      const util::ExecContext exec{pool.get(), t};
      const Tensor out =
          deploy::integer_linear_forward(layer, acts, batch, in_features, exec);
      ASSERT_EQ(out.shape(), serial.shape());
      EXPECT_TRUE(same_bytes(out.data(), serial.data(), serial.numel()))
          << "linear filters=" << filters << " in=" << in_features
          << " batch=" << batch << " threads=" << t;
    }
  }
}

TEST(ParallelKernelsEncode, ByteIdenticalCodes) {
  util::Rng rng(505);
  for (int iter = 0; iter < 8; ++iter) {
    const int numel = static_cast<int>(rng.uniform_int(1, 4097));
    Tensor acts({numel});
    for (int i = 0; i < numel; ++i) {
      acts[static_cast<std::size_t>(i)] = static_cast<float>(rng.uniform(-0.5, 1.5));
    }
    const float hi = static_cast<float>(rng.uniform(0.3, 1.2));
    const int bits = static_cast<int>(rng.uniform_int(1, 8));

    deploy::ActCodes serial;
    deploy::encode_activations_into(acts, hi, bits, serial);
    for (const int t : kThreadCounts) {
      const auto pool = pool_for(t);
      const util::ExecContext exec{pool.get(), t};
      deploy::ActCodes out;
      deploy::encode_activations_into(acts, hi, bits, out, exec);
      ASSERT_EQ(out.codes.size(), serial.codes.size());
      EXPECT_EQ(out.scale, serial.scale);
      EXPECT_EQ(0, std::memcmp(out.codes.data(), serial.codes.data(),
                               serial.codes.size() * sizeof(std::int32_t)))
          << "encode numel=" << numel << " bits=" << bits << " threads=" << t;
    }
  }
}

/// Same-seeded layers, one serial and one with an ExecContext: the
/// float forward/backward must not differ by a single bit.
TEST(ParallelKernelsConv2d, FloatForwardBackwardByteIdentical) {
  for (const bool quantized : {false, true}) {
    for (const int t : kThreadCounts) {
      util::Rng rng_a(606);
      util::Rng rng_b(606);
      nn::Conv2d serial(3, 13, 3, 1, 1, rng_a);   // 13 filters: odd chunks
      nn::Conv2d threaded(3, 13, 3, 1, 1, rng_b);
      const auto pool = pool_for(t);
      threaded.set_exec_context(util::ExecContext{pool.get(), t});
      if (quantized) {
        serial.set_filter_bits(std::vector<int>{2, 3, 0, 1, 4, 2, 2, 3, 0, 2, 1, 4, 2});
        threaded.set_filter_bits(std::vector<int>{2, 3, 0, 1, 4, 2, 2, 3, 0, 2, 1, 4, 2});
      }
      util::Rng data_rng(707);
      const Tensor x = Tensor::randn({2, 3, 9, 7}, data_rng);
      const Tensor y_serial = serial.forward(x);
      const Tensor y_threaded = threaded.forward(x);
      ASSERT_EQ(y_serial.shape(), y_threaded.shape());
      EXPECT_TRUE(same_bytes(y_serial.data(), y_threaded.data(), y_serial.numel()))
          << "forward quantized=" << quantized << " threads=" << t;

      const Tensor grad = Tensor::randn(y_serial.shape(), data_rng);
      const Tensor dx_serial = serial.backward(grad);
      const Tensor dx_threaded = threaded.backward(grad);
      EXPECT_TRUE(same_bytes(dx_serial.data(), dx_threaded.data(), dx_serial.numel()))
          << "backward dx quantized=" << quantized << " threads=" << t;
      EXPECT_TRUE(same_bytes(serial.weight().grad.data(), threaded.weight().grad.data(),
                             serial.weight().grad.numel()))
          << "backward dW quantized=" << quantized << " threads=" << t;
      EXPECT_TRUE(same_bytes(serial.bias().grad.data(), threaded.bias().grad.data(),
                             serial.bias().grad.numel()))
          << "backward db quantized=" << quantized << " threads=" << t;
    }
  }
}

TEST(ParallelKernelsLinear, FloatForwardBackwardByteIdentical) {
  for (const int t : kThreadCounts) {
    util::Rng rng_a(808);
    util::Rng rng_b(808);
    nn::Linear serial(11, 17, rng_a);
    nn::Linear threaded(11, 17, rng_b);
    const auto pool = pool_for(t);
    threaded.set_exec_context(util::ExecContext{pool.get(), t});
    util::Rng data_rng(909);
    const Tensor x = Tensor::randn({5, 11}, data_rng);
    const Tensor y_serial = serial.forward(x);
    const Tensor y_threaded = threaded.forward(x);
    EXPECT_TRUE(same_bytes(y_serial.data(), y_threaded.data(), y_serial.numel()))
        << "forward threads=" << t;

    const Tensor grad = Tensor::randn(y_serial.shape(), data_rng);
    const Tensor dx_serial = serial.backward(grad);
    const Tensor dx_threaded = threaded.backward(grad);
    EXPECT_TRUE(same_bytes(dx_serial.data(), dx_threaded.data(), dx_serial.numel()))
        << "backward threads=" << t;
    EXPECT_TRUE(same_bytes(serial.weight().grad.data(), threaded.weight().grad.data(),
                           serial.weight().grad.numel()))
        << "backward dW threads=" << t;
  }
}

/// End-to-end: a full EngineSession with an intra-op pool must produce
/// byte-identical logits to a serial session over the whole network
/// (encode -> integer conv/linear -> float stem/head). Also the TSan
/// target proving the chunked kernels are race-free in situ.
TEST(ParallelKernelsEngine, SessionByteIdenticalWithIntraOpPool) {
  nn::VggSmallConfig cfg;
  cfg.image_size = 8;
  cfg.num_classes = 4;
  cfg.c1 = 4;
  cfg.c2 = 6;
  cfg.c3 = 8;
  cfg.f1 = 24;
  cfg.f2 = 16;
  cfg.f3 = 12;
  nn::VggSmall model(cfg);
  util::Rng rng(42);
  model.calibrate_activations(Tensor::rand_uniform({16, 3, 8, 8}, rng, 0.0f, 1.0f));
  model.set_activation_bits(3);
  const int pattern[7] = {2, 3, 1, 4, 2, 0, 2};
  int i = 0;
  for (const nn::ScoredLayerRef& ref : model.scored_layers()) {
    for (quant::QuantizableLayer* layer : ref.layers) {
      std::vector<int> bits(static_cast<std::size_t>(layer->num_filters()));
      for (int& b : bits) b = pattern[i++ % 7];
      layer->set_filter_bits(std::move(bits));
    }
  }
  const deploy::QuantizedArtifact artifact = deploy::export_model(model);

  serve::EngineSession serial(artifact, 1, {},
                              deploy::make_backend(deploy::BackendKind::Scalar));
  const Tensor batch = Tensor::rand_uniform({3, 3, 8, 8}, rng, 0.0f, 1.0f);
  const Tensor expected = serial.run(batch);

  for (const int t : {2, 3}) {
    util::ThreadPool pool(t - 1);
    serve::EngineSession threaded(artifact, 1, util::ExecContext{&pool, t});
    const Tensor out = threaded.run(batch);
    ASSERT_EQ(out.shape(), expected.shape());
    EXPECT_TRUE(same_bytes(out.data(), expected.data(), expected.numel()))
        << "engine threads=" << t;
  }
}

}  // namespace
}  // namespace cq
