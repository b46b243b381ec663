// Micro-benchmarks (google-benchmark) of the numerical kernels that
// dominate the experiment runtimes: GEMM, im2col, the uniform
// quantizer, the activation encode and fused epilogue, the integer wrap
// GEMM, and whole-layer forward/backward.

#include <benchmark/benchmark.h>

#include <vector>

#include "nn/conv2d.h"
#include "deploy/backend.h"
#include "deploy/int_engine.h"
#include "deploy/packing.h"
#include "nn/linear.h"
#include "quant/integer_gemm.h"
#include "quant/uniform.h"
#include "tensor/ops.h"

namespace {

using namespace cq;

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmABt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(2);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm_a_bt(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmABt)->Arg(64);

void BM_Im2col(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  util::Rng rng(3);
  tensor::ConvGeometry g;
  g.in_c = 16;
  g.in_h = size;
  g.in_w = size;
  const tensor::Tensor input = tensor::Tensor::randn({g.in_c, size, size}, rng);
  std::vector<float> cols(static_cast<std::size_t>(g.patch_size()) * g.out_h() * g.out_w());
  for (auto _ : state) {
    tensor::im2col(input.data(), g, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(cols.size()));
}
BENCHMARK(BM_Im2col)->Arg(16)->Arg(32);

void BM_QuantizeSpan(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  util::Rng rng(4);
  const tensor::Tensor src = tensor::Tensor::randn({1 << 16}, rng);
  tensor::Tensor dst({1 << 16});
  const quant::UniformRange r{-1.0f, 1.0f};
  for (auto _ : state) {
    quant::quantize_span(src.span(), dst.span(), r, bits);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * (1LL << 16));
}
BENCHMARK(BM_QuantizeSpan)->Arg(1)->Arg(4)->Arg(8);

// The activation encode and the fused conv epilogue at a ResNet20
// shape: one 4-channel 16x16 output over a batch of 8.
constexpr int kEpBatch = 8, kEpChannels = 4, kEpSide = 16;
constexpr int kEpNumel = kEpBatch * kEpChannels * kEpSide * kEpSide;

void BM_EncodeActivations(benchmark::State& state) {
  util::Rng rng(5);
  const tensor::Tensor src = tensor::Tensor::rand_uniform({kEpNumel}, rng, -0.2f, 1.2f);
  deploy::ActCodes codes;
  for (auto _ : state) {
    deploy::encode_activations_into(src.data(), src.numel(), 1.0f, 3, codes);
    benchmark::DoNotOptimize(codes.codes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kEpNumel);
}
BENCHMARK(BM_EncodeActivations);

// BN + ReLU (arg 0) and BN + ReLU + grid encode (arg 1), in place. The
// buffer holds codes after the first pass; the loop is branch-free, so
// its time does not depend on the values.
void BM_EpilogueEncode(benchmark::State& state) {
  util::Rng rng(6);
  deploy::PlanOp op;
  op.out_c = kEpChannels;
  op.out_h = kEpSide;
  op.out_w = kEpSide;
  op.ep_bn = true;
  op.ep_relu = true;
  op.ep_encode = state.range(0) != 0;
  op.out_hi = 1.0f;
  op.out_bits = 3;
  for (int c = 0; c < kEpChannels; ++c) {
    op.bn_mean.push_back(static_cast<float>(rng.uniform(-0.1, 0.1)));
    op.bn_inv_std.push_back(static_cast<float>(rng.uniform(0.8, 1.2)));
    op.bn_gamma.push_back(static_cast<float>(rng.uniform(0.8, 1.2)));
    op.bn_beta.push_back(static_cast<float>(rng.uniform(-0.1, 0.1)));
  }
  tensor::Tensor out = tensor::Tensor::rand_uniform({kEpNumel}, rng, -0.5f, 1.5f);
  deploy::BackendIo io;
  io.out = out.data();
  io.batch = kEpBatch;
  for (auto _ : state) {
    deploy::apply_epilogue(op, io, kEpNumel / kEpBatch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kEpNumel);
}
BENCHMARK(BM_EpilogueEncode)->Arg(0)->Arg(1);

void BM_IntegerGemmWrap(benchmark::State& state) {
  const int n = 64;
  const int acc_bits = static_cast<int>(state.range(0));
  std::vector<std::int32_t> a(static_cast<std::size_t>(n) * n);
  std::vector<std::int32_t> b(static_cast<std::size_t>(n) * n);
  std::vector<std::int64_t> c(static_cast<std::size_t>(n) * n);
  util::Rng rng(5);
  for (auto& v : a) v = static_cast<std::int32_t>(rng.uniform_int(-7, 7));
  for (auto& v : b) v = static_cast<std::int32_t>(rng.uniform_int(-7, 7));
  for (auto _ : state) {
    quant::integer_gemm(a.data(), b.data(), c.data(), n, n, n, acc_bits);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_IntegerGemmWrap)->Arg(0)->Arg(8);

void BM_Conv2dForward(benchmark::State& state) {
  const bool quantized = state.range(0) != 0;
  util::Rng rng(6);
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  if (quantized) conv.set_filter_bits(std::vector<int>(32, 2));
  const tensor::Tensor x = tensor::Tensor::randn({4, 16, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x).data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(0)->Arg(1);

void BM_Conv2dBackward(benchmark::State& state) {
  util::Rng rng(7);
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  const tensor::Tensor x = tensor::Tensor::randn({4, 16, 16, 16}, rng);
  const tensor::Tensor y = conv.forward(x);
  const tensor::Tensor g = tensor::Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(g).data());
  }
}
BENCHMARK(BM_Conv2dBackward);

void BM_IntegerLinearForward(benchmark::State& state) {
  // The deployment engine's integer MAC path (per-filter bit-widths)
  // against the float fake-quant forward of BM_LinearForward.
  const int bits = static_cast<int>(state.range(0));
  util::Rng rng(9);
  nn::Linear fc(512, 256, rng);
  fc.set_filter_bits(std::vector<int>(256, bits));
  const deploy::PackedLayer packed = deploy::pack_layer(fc, "fc");
  const deploy::IntegerLayer integer =
      deploy::build_integer_layer(packed, std::vector<float>(256, 0.0f));
  const tensor::Tensor x = tensor::Tensor::rand_uniform({32, 512}, rng, 0.0f, 1.0f);
  const deploy::ActCodes codes = deploy::encode_activations(x, 1.0f, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        deploy::integer_linear_forward(integer, codes, 32, 512).data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 32 * 512 * 256);
}
BENCHMARK(BM_IntegerLinearForward)->Arg(2)->Arg(4)->Arg(8);

void BM_LinearForward(benchmark::State& state) {
  util::Rng rng(8);
  nn::Linear fc(512, 256, rng);
  const tensor::Tensor x = tensor::Tensor::randn({32, 512}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.forward(x).data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 32 * 512 * 256);
}
BENCHMARK(BM_LinearForward);

void BM_IntegerConvForward(benchmark::State& state) {
  util::Rng rng(11);
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  conv.set_filter_bits(std::vector<int>(32, 3));
  const deploy::PackedLayer packed = deploy::pack_layer(conv, "conv");
  const deploy::IntegerLayer integer =
      deploy::build_integer_layer(packed, std::vector<float>(32, 0.0f));
  const tensor::Tensor x = tensor::Tensor::rand_uniform({4, 16, 16, 16}, rng, 0.0f, 1.0f);
  const deploy::ActCodes codes = deploy::encode_activations(x, 1.0f, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        deploy::integer_conv_forward(integer, codes, 4, 16, 16, 16, 3, 1, 1).data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 4 * 32 * (16 * 9) * 16 * 16);
}
BENCHMARK(BM_IntegerConvForward);

// --- SIMD backend variants -------------------------------------------
// The deploy::simd explicit kernels against the scalar rows above
// (same layers and shapes) at the tier this machine resolves — avx2
// where CPUID allows, portable elsewhere. Skipped under CQ_SIMD=off,
// where the tier would only throw.

void BM_SimdConvForward(benchmark::State& state) {
  const deploy::SimdTier tier = deploy::resolve_simd_tier();
  if (tier == deploy::SimdTier::kScalar) {
    state.SkipWithError("resolved SIMD tier is 'scalar' (CQ_SIMD=off?)");
    return;
  }
  util::Rng rng(11);  // same seed/shape as BM_IntegerConvForward
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  conv.set_filter_bits(std::vector<int>(32, 3));
  const deploy::PackedLayer packed = deploy::pack_layer(conv, "conv");
  const deploy::IntegerLayer integer =
      deploy::build_integer_layer(packed, std::vector<float>(32, 0.0f));
  const deploy::simd::PackedSimd panels = deploy::simd::pack_simd(integer);
  const tensor::Tensor x = tensor::Tensor::rand_uniform({4, 16, 16, 16}, rng, 0.0f, 1.0f);
  const deploy::ActCodes codes = deploy::encode_activations(x, 1.0f, 3);
  std::vector<float> out(static_cast<std::size_t>(4) * 32 * 16 * 16);
  std::vector<std::int32_t> cols;
  std::vector<std::int16_t> cols16;
  std::vector<std::uint8_t> cols8;
  for (auto _ : state) {
    deploy::simd::conv_forward_into(tier, panels, codes, 4, 16, 16, 16, 3, 1, 1,
                                    out.data(), cols, cols16, cols8);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 4 * 32 * (16 * 9) * 16 * 16);
}
BENCHMARK(BM_SimdConvForward);

void BM_SimdLinearForward(benchmark::State& state) {
  const deploy::SimdTier tier = deploy::resolve_simd_tier();
  if (tier == deploy::SimdTier::kScalar) {
    state.SkipWithError("resolved SIMD tier is 'scalar' (CQ_SIMD=off?)");
    return;
  }
  util::Rng rng(12);  // same shape as BM_IntegerLinearForward/4
  nn::Linear fc(512, 256, rng);
  fc.set_filter_bits(std::vector<int>(256, 4));
  const deploy::PackedLayer packed = deploy::pack_layer(fc, "fc");
  const deploy::IntegerLayer integer =
      deploy::build_integer_layer(packed, std::vector<float>(256, 0.0f));
  const deploy::simd::PackedSimd panels = deploy::simd::pack_simd(integer);
  const tensor::Tensor x = tensor::Tensor::rand_uniform({32, 512}, rng, 0.0f, 1.0f);
  const deploy::ActCodes codes = deploy::encode_activations(x, 1.0f, 4);
  std::vector<float> out(static_cast<std::size_t>(32) * 256);
  std::vector<std::int16_t> acts16;
  std::vector<std::uint8_t> acts8;
  for (auto _ : state) {
    deploy::simd::linear_forward_into(tier, panels, codes, 32, 512, out.data(), acts16,
                                      acts8);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 32 * 512 * 256);
}
BENCHMARK(BM_SimdLinearForward);

}  // namespace

BENCHMARK_MAIN();
