// The backend seam's contract tests.
//
// BackendIdentity pins the load-bearing invariant of deploy::Backend:
// every backend produces byte-identical outputs to the scalar
// reference — at the kernel level over randomized shapes (pruned
// 0-bit filter rows, filter counts off the panel-tile boundary, batch
// sweeps) and at the plan level over the model zoo through
// serve::EngineSession, whose batch chunks are swept over thread
// counts. Runs in the TSan and ASan/UBSan CI lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "deploy/backend.h"
#include "deploy/cpu_features.h"
#include "deploy/int_engine.h"
#include "deploy/overflow.h"
#include "deploy/plan.h"
#include "nn/models/vgg_small.h"
#include "obs/profiler.h"
#include "serve/engine_session.h"
#include "serve/server.h"
#include "serve_fixtures.h"
#include "tensor/tensor.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cq::deploy {
namespace {

using tensor::Tensor;

/// Random IntegerLayer with a mixed bit pattern including pruned
/// (0-bit) rows — the filter arrangement real CQ artifacts have.
IntegerLayer random_integer_layer(int num_filters, std::int64_t per_filter,
                                  util::Rng& rng) {
  IntegerLayer layer;
  layer.num_filters = num_filters;
  layer.weights_per_filter = per_filter;
  layer.range_hi = 0.8f;
  const int pattern[7] = {2, 3, 0, 1, 4, 2, 0};
  layer.filter_bits.resize(static_cast<std::size_t>(num_filters));
  layer.codes.assign(static_cast<std::size_t>(num_filters) * per_filter, 0);
  layer.bias.resize(static_cast<std::size_t>(num_filters));
  for (int k = 0; k < num_filters; ++k) {
    const int b = pattern[k % 7];
    layer.filter_bits[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(b);
    layer.bias[static_cast<std::size_t>(k)] =
        static_cast<float>(rng.uniform(-0.5, 0.5));
    if (b == 0) continue;
    const int levels = 1 << b;
    std::int32_t* row = layer.codes.data() + static_cast<std::size_t>(k) * per_filter;
    for (std::int64_t j = 0; j < per_filter; ++j) {
      row[j] = static_cast<std::int32_t>(rng.uniform_int(0, levels - 1));
    }
  }
  return layer;
}

ActCodes random_act_codes(std::size_t count, int bits, util::Rng& rng) {
  ActCodes acts;
  acts.bits = bits;
  const int levels = 1 << bits;
  acts.scale = 0.9f / static_cast<float>(levels - 1);
  acts.codes.resize(count);
  for (std::int32_t& c : acts.codes) {
    c = static_cast<std::int32_t>(rng.uniform_int(0, levels - 1));
  }
  return acts;
}

/// Session thread counts the zoo sweeps: serial, even, odd (8 samples
/// split 3, 3, 2), and more threads than a batch has samples.
constexpr int kThreadCounts[] = {1, 2, 3, 8};

/// ExecContext with `threads` participants (pool of threads - 1).
struct ThreadedExec {
  explicit ThreadedExec(int threads)
      : pool(threads > 1 ? std::make_unique<util::ThreadPool>(threads - 1) : nullptr),
        exec{pool.get(), threads} {}
  std::unique_ptr<util::ThreadPool> pool;
  util::ExecContext exec;
};

void expect_bytes_equal(const float* a, const float* b, std::size_t n,
                        const std::string& what) {
  ASSERT_EQ(0, std::memcmp(a, b, n * sizeof(float))) << what;
}

/// Scalar reference session: the byte-exact baseline every other
/// backend is compared against (the default backend is simd).
serve::EngineSession scalar_session(std::shared_ptr<const ExecutionPlan> plan) {
  return serve::EngineSession(std::move(plan), 1, {}, make_backend(BackendKind::Scalar));
}

/// Tiny MLP artifact with every filter at `weight_bits` and every
/// activation grid at `act_bits` — bit-widths outside the zoo's 0-4-bit
/// pattern, to reach the simd backend's delegation paths.
deploy::QuantizedArtifact uniform_bits_mlp(int weight_bits, int act_bits) {
  nn::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = {20, 16};
  cfg.num_classes = 5;
  nn::Mlp model(cfg);
  util::Rng rng(19);
  model.calibrate_activations(Tensor::rand_uniform({32, 12}, rng, 0.0f, 1.0f));
  model.set_activation_bits(act_bits);
  for (const nn::ScoredLayerRef& ref : model.scored_layers()) {
    for (quant::QuantizableLayer* layer : ref.layers) {
      layer->set_filter_bits(std::vector<int>(
          static_cast<std::size_t>(layer->num_filters()), weight_bits));
    }
  }
  return deploy::export_model(model);
}

TEST(BackendIdentity, PrunedRowsAreHardZero) {
  util::Rng rng(303);
  IntegerLayer layer = random_integer_layer(9, 18, rng);
  // Force every filter pruned: the reference's outputs must be exactly
  // 0.0f (not bias), matching the fake-quant semantics of 0-bit
  // filters — the value SimdPrunedRowsAreHardZero holds simd to.
  std::fill(layer.filter_bits.begin(), layer.filter_bits.end(), std::uint8_t{0});
  std::fill(layer.codes.begin(), layer.codes.end(), 0);
  const ActCodes acts = random_act_codes(3 * 18, 4, rng);
  const Tensor out = integer_linear_forward(layer, acts, 3, 18);
  ASSERT_EQ(out.numel(), 3u * 9u);
  for (std::size_t i = 0; i < out.numel(); ++i) {
    EXPECT_EQ(0.0f, out[i]);
    EXPECT_FALSE(std::signbit(out[i]));  // hard +0.0f, byte-identical to std::fill(0.0f)
  }
}

/// Runs a uniform_bits_mlp plan on the simd backend: every integer op
/// whose layer `delegated` selects must dispatch to "scalar" (at least
/// one must), and the logits must match the scalar reference's bytes.
template <typename Pred>
void expect_delegates_to_scalar(int weight_bits, int act_bits, Pred delegated) {
  const auto plan = std::make_shared<const ExecutionPlan>(
      compile_plan(uniform_bits_mlp(weight_bits, act_bits)));
  const auto backend = make_backend(BackendKind::Simd);
  backend->prepare(*plan);
  int delegated_ops = 0;
  for (const PlanOp& op : plan->ops()) {
    if (op.kind != OpKind::IntConv && op.kind != OpKind::IntLinear) continue;
    if (!delegated(plan->integer_layers()[static_cast<std::size_t>(op.layer)], op)) {
      continue;
    }
    ++delegated_ops;
    EXPECT_STREQ("scalar", backend->dispatch(op));
  }
  EXPECT_GT(delegated_ops, 0);
  serve::EngineSession scalar = scalar_session(plan);
  serve::EngineSession simd_session(plan, 1, {}, make_backend(BackendKind::Simd));
  const Tensor input = serve::random_batch(plan->sample_shape(), 3, 404);
  const Tensor a = scalar.run(input);
  const Tensor b = simd_session.run(input);
  expect_bytes_equal(a.data(), b.data(), a.numel(),
                     "weight_bits=" + std::to_string(weight_bits) +
                         " act_bits=" + std::to_string(act_bits));
}

/// Layers above 15 bits overflow the int16 panels, so the simd backend
/// runs them on the scalar reference.
TEST(BackendIdentity, HighBitLayersFallBackToScalar) {
  expect_delegates_to_scalar(/*weight_bits=*/16, /*act_bits=*/4,
                             [](const IntegerLayer& layer, const PlanOp&) {
                               EXPECT_FALSE(simd::pack_simd(layer).usable);
                               return true;
                             });
}

/// A layer that packs (<= 15-bit weights) but whose reduction is not
/// certified for the int32 accumulator — 12-bit weights against 16-bit
/// activation codes — runs on the scalar reference's int64 path.
TEST(BackendIdentity, UncertifiedReductionsDelegateToScalar) {
  expect_delegates_to_scalar(
      /*weight_bits=*/12, /*act_bits=*/16, [](const IntegerLayer& layer, const PlanOp& op) {
        EXPECT_TRUE(simd::pack_simd(layer).usable);
        return !int_reduction_fits_int32(max_abs_centered_code(layer), op.act_bits,
                                         layer.weights_per_filter);
      });
}

/// The acceptance gate at the tier this machine resolves: every
/// registered backend over the three zoo artifacts produces logits
/// byte-identical to the serial scalar reference at every batch size
/// and thread count, untraced and with a profiler attached.
TEST(BackendIdentity, ZooPlansByteIdenticalAcrossBackends) {
  const deploy::QuantizedArtifact artifacts[] = {serve::tiny_vgg_artifact(),
                                                 serve::tiny_mlp_artifact(),
                                                 serve::tiny_resnet_artifact()};
  for (const deploy::QuantizedArtifact& artifact : artifacts) {
    const auto plan =
        std::make_shared<const ExecutionPlan>(compile_plan(artifact));
    serve::EngineSession scalar = scalar_session(plan);
    for (const int threads : kThreadCounts) {
      ThreadedExec te(threads);
      for (const BackendKind kind : all_backend_kinds()) {
        serve::EngineSession session(plan, 2, te.exec, make_backend(kind));
        obs::PlanProfiler profiler(session.plan(), &session.backend());
        for (const int batch : {1, 3, 8}) {
          const Tensor input = serve::random_batch(
              plan->sample_shape(), batch,
              1000 + static_cast<std::uint64_t>(batch) * 7 + threads);
          const Tensor a = scalar.run(input);
          const std::string what = artifact.arch.kind +
                                   " backend=" + backend_kind_name(kind) +
                                   " batch=" + std::to_string(batch) +
                                   " threads=" + std::to_string(threads);
          for (obs::TraceSink* sink : {static_cast<obs::TraceSink*>(nullptr),
                                       static_cast<obs::TraceSink*>(&profiler)}) {
            session.set_trace_sink(sink);
            const Tensor b = session.run(input);
            ASSERT_EQ(a.shape(), b.shape());
            expect_bytes_equal(a.data(), b.data(), a.numel(),
                               what + (sink != nullptr ? " traced" : ""));
          }
          session.set_trace_sink(nullptr);
        }
      }
    }
  }
}

/// A profiled session at 4 threads: every chunk of a forward reports
/// its own ops with the samples it covered, so each op's sample total
/// is exactly the samples served — while the logits stay those of the
/// serial scalar reference.
TEST(BackendIdentity, ThreadedProfileCountsEverySampleOnce) {
  const deploy::QuantizedArtifact artifacts[] = {serve::tiny_vgg_artifact(),
                                                 serve::tiny_mlp_artifact(),
                                                 serve::tiny_resnet_artifact()};
  for (const deploy::QuantizedArtifact& artifact : artifacts) {
    const auto plan =
        std::make_shared<const ExecutionPlan>(compile_plan(artifact));
    serve::EngineSession scalar = scalar_session(plan);
    ThreadedExec te(4);
    serve::EngineSession session(plan, 1, te.exec);
    obs::PlanProfiler profiler(session.plan(), &session.backend());
    session.set_trace_sink(&profiler);
    std::uint64_t served = 0;
    for (const int batch : {1, 3, 8}) {
      const Tensor input = serve::random_batch(plan->sample_shape(), batch,
                                               3000 + static_cast<std::uint64_t>(batch));
      const Tensor a = scalar.run(input);
      const Tensor b = session.run(input);
      ASSERT_EQ(a.shape(), b.shape());
      expect_bytes_equal(a.data(), b.data(), a.numel(),
                         artifact.arch.kind + " batch=" + std::to_string(batch));
      served += static_cast<std::uint64_t>(batch);
    }
    session.set_trace_sink(nullptr);
    const obs::ProfileReport report = profiler.report();
    ASSERT_EQ(report.ops.size(), plan->ops().size());
    for (const obs::OpProfileRow& row : report.ops) {
      EXPECT_EQ(served, row.samples) << artifact.arch.kind << " op " << row.op;
      // batch 1 runs as one chunk; 3 and 8 split into 3 and 4 chunks.
      EXPECT_EQ(1u + 3u + 4u, row.calls) << artifact.arch.kind << " op " << row.op;
    }
  }
}

// --- Grid encode ------------------------------------------------------

/// Tie-heavy encoder inputs for a 3-bit grid over [0, 7], whose step is
/// exactly 1: every quarter from -1 to 8 (so every half-integer tie)
/// and the float on either side of each.
std::vector<float> tie_heavy_inputs() {
  std::vector<float> values;
  for (float x = -1.0f; x <= 8.0f; x += 0.25f) {
    values.push_back(std::nextafter(x, -1e9f));
    values.push_back(x);
    values.push_back(std::nextafter(x, 1e9f));
  }
  return values;
}

/// The encode as written with std::round, the oracle for the shared
/// libm-free implementation (finite inputs only).
std::int32_t std_round_code(float x, float hi, int bits) {
  const float to_code = static_cast<float>(quant::levels_for_bits(bits) - 1) / hi;
  return static_cast<std::int32_t>(std::round(std::clamp(x, 0.0f, hi) * to_code));
}

TEST(GridEncode, EncodeActivationsMatchesStdRoundOnTies) {
  const std::vector<float> inputs = tie_heavy_inputs();
  for (const float hi : {7.0f, 3.5f, 1.3f}) {
    ActCodes codes;
    encode_activations_into(inputs.data(), inputs.size(), hi, 3, codes);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_EQ(codes.codes[i], std_round_code(inputs[i], hi, 3))
          << "x=" << inputs[i] << " hi=" << hi;
    }
  }
}

/// The fused ep_encode epilogue writes the same codes, as floats.
TEST(GridEncode, EpilogueEncodeMatchesStdRoundOnTies) {
  const std::vector<float> inputs = tie_heavy_inputs();
  for (const bool relu : {false, true}) {
    PlanOp op;
    op.ep_relu = relu;
    op.ep_encode = true;
    op.out_hi = 7.0f;
    op.out_bits = 3;
    std::vector<float> out = inputs;
    BackendIo io;
    io.out = out.data();
    apply_epilogue(op, io, out.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<float>(std_round_code(inputs[i], 7.0f, 3)))
          << "x=" << inputs[i] << " relu=" << relu;
    }
  }
}

/// The non-finite contract of both encoders: NaN, -inf and -0 encode to
/// code 0 and +inf to the top code.
TEST(GridEncode, NonFiniteActivationsEncodeToGridEnds) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> inputs = {std::numeric_limits<float>::quiet_NaN(), -kInf,
                                     -0.0f, kInf};
  const std::vector<std::int32_t> expected = {0, 0, 0, 7};
  ActCodes codes;
  encode_activations_into(inputs.data(), inputs.size(), 1.5f, 3, codes);
  EXPECT_EQ(codes.codes, expected);

  PlanOp op;
  op.ep_encode = true;
  op.out_hi = 1.5f;
  op.out_bits = 3;
  std::vector<float> out = inputs;
  BackendIo io;
  io.out = out.data();
  apply_epilogue(op, io, out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float code = static_cast<float>(expected[i]);
    EXPECT_EQ(std::memcmp(&out[i], &code, sizeof code), 0) << "i=" << i;
  }
}

TEST(BackendFactory, NamesParseAndConstruct) {
  for (const BackendKind kind : all_backend_kinds()) {
    EXPECT_EQ(kind, parse_backend_kind(backend_kind_name(kind)));
    const auto backend = make_backend(kind);
    EXPECT_STREQ(backend_kind_name(kind), backend->name());
  }
  EXPECT_THROW(parse_backend_kind("turbo"), std::invalid_argument);
  try {
    parse_backend_kind("turbo");
  } catch (const std::invalid_argument& e) {
    // A typo'd --backend must name every valid option.
    EXPECT_NE(std::string(e.what()).find("scalar"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("simd"), std::string::npos);
  }
}

TEST(BackendFactory, UnknownKindErrorNamesValidKinds) {
  try {
    // 3 is inside the enum's value range but names no backend.
    make_backend(static_cast<BackendKind>(3));
    FAIL() << "unknown BackendKind accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const BackendKind kind : all_backend_kinds()) {
      EXPECT_NE(what.find(backend_kind_name(kind)), std::string::npos) << what;
    }
  }
}

/// The scalar reference labels every op "scalar"; the simd backend
/// labels its integer ops with its own name and hands every other op to
/// the reference (same label).
TEST(BackendFactory, DispatchNamesPerOp) {
  const ExecutionPlan plan = compile_plan(serve::tiny_vgg_artifact());
  const auto scalar = make_backend(BackendKind::Scalar);
  const auto simd_backend = make_backend(BackendKind::Simd);
  scalar->prepare(plan);
  simd_backend->prepare(plan);
  // Under CQ_SIMD=off the simd backend delegates integer ops too.
  const bool explicit_simd = resolve_simd_tier() != SimdTier::kScalar;
  bool saw_integer = false, saw_other = false;
  for (const PlanOp& op : plan.ops()) {
    EXPECT_STREQ("scalar", scalar->dispatch(op));
    const std::string label = simd_backend->dispatch(op);
    if (op.kind == OpKind::IntConv || op.kind == OpKind::IntLinear) {
      saw_integer = true;
      if (explicit_simd) {
        EXPECT_EQ(0u, label.rfind("simd/", 0)) << label;
      } else {
        EXPECT_EQ("scalar", label);
      }
    } else {
      saw_other = true;
      EXPECT_EQ("scalar", label);
    }
  }
  EXPECT_TRUE(saw_integer);
  EXPECT_TRUE(saw_other);
}

/// The defaults every entry point reads resolve to the simd backend: a
/// session built without a backend and a default ServerConfig.
TEST(BackendFactory, DefaultsResolveToSimd) {
  EXPECT_EQ(BackendKind::Simd, kDefaultBackend);
  const serve::EngineSession session(serve::tiny_mlp_artifact());
  EXPECT_STREQ("simd", session.backend().name());
  EXPECT_STREQ("simd", backend_kind_name(serve::ServerConfig{}.backend));
}

TEST(BackendFactory, RunWithoutPrepareThrows) {
  const ExecutionPlan plan = compile_plan(serve::tiny_mlp_artifact());
  SimdBackend backend;  // prepare() never called
  for (const PlanOp& op : plan.ops()) {
    if (op.kind != OpKind::IntLinear) continue;
    BackendIo io;
    std::vector<float> in(plan.slots()[static_cast<std::size_t>(op.in0)].numel);
    std::vector<float> out(plan.slots()[static_cast<std::size_t>(op.out)].numel);
    io.in0 = in.data();
    io.out = out.data();
    BackendScratch scratch;
    EXPECT_THROW(backend.run(op, plan, io, scratch), std::logic_error);
    return;
  }
  FAIL() << "MLP plan has no IntLinear op";
}

// --- SIMD backend ----------------------------------------------------

/// Explicit-kernel tiers executable on this machine: portable always,
/// avx2 when CPUID licenses it. Never the (throwing) kScalar.
std::vector<SimdTier> reachable_simd_tiers() {
  std::vector<SimdTier> tiers = {SimdTier::kPortable};
  if (max_supported_simd_tier() == SimdTier::kAvx2) {
    tiers.push_back(SimdTier::kAvx2);
  }
  return tiers;
}

/// RAII pin of resolve_simd_tier() for tests constructing SimdBackend.
struct ForcedTier {
  explicit ForcedTier(SimdTier tier) { force_simd_tier(tier); }
  ~ForcedTier() { clear_forced_simd_tier(); }
  ForcedTier(const ForcedTier&) = delete;
  ForcedTier& operator=(const ForcedTier&) = delete;
};

// Filter counts straddling the kFilterTile = 8 panel boundary (odd,
// exact multiple, one past) so tail tiles and full tiles both run,
// swept over every reachable tier and batch, and over
// activation widths that land on different kernels: 3-bit codes ride
// the int8 maddubs path on avx2 (the shared bound proves it exact for
// these layers), 9-bit codes exceed the u8 eligibility and ride the
// int16 pair path, and 16-bit codes fit neither narrowed layout, so
// they run the generic portable kernels over the lane panels at both
// tiers.
TEST(BackendIdentity, SimdConvMatchesScalarAtEveryTier) {
  struct Shape {
    int in_c, hw, filters, kernel, stride, pad;
  };
  const Shape shapes[] = {
      {3, 9, 5, 3, 1, 1},    // tiny, tail tile only
      {8, 12, 16, 3, 1, 1},  // exact tile multiple
      {6, 10, 17, 3, 2, 0},  // one past a tile boundary, strided, no pad
      {4, 7, 13, 5, 1, 2},   // odd everything, large kernel
  };
  util::Rng rng(505);
  for (const Shape& s : shapes) {
    const std::int64_t per_filter =
        static_cast<std::int64_t>(s.in_c) * s.kernel * s.kernel;
    const IntegerLayer layer = random_integer_layer(s.filters, per_filter, rng);
    const simd::PackedSimd packed = simd::pack_simd(layer);
    ASSERT_TRUE(packed.usable);
    ASSERT_TRUE(packed.int8_usable);  // pattern bits <= 4 -> |w| <= 15
    for (const int act_bits : {3, 9, 16}) {
      for (const int batch : {1, 3, 8}) {
        const ActCodes acts = random_act_codes(
            static_cast<std::size_t>(batch) * s.in_c * s.hw * s.hw, act_bits, rng);
        const Tensor reference = integer_conv_forward(
            layer, acts, batch, s.in_c, s.hw, s.hw, s.kernel, s.stride, s.pad);
        for (const SimdTier tier : reachable_simd_tiers()) {
          std::vector<float> out(reference.numel());
          std::vector<std::int32_t> cols;
          std::vector<std::int16_t> cols16;
          std::vector<std::uint8_t> cols8;
          simd::conv_forward_into(tier, packed, acts, batch, s.in_c, s.hw, s.hw, s.kernel,
                                  s.stride, s.pad, out.data(), cols, cols16, cols8);
          expect_bytes_equal(out.data(), reference.data(), reference.numel(),
                             std::string("simd conv tier=") + simd_tier_name(tier) +
                                 " act_bits=" + std::to_string(act_bits) +
                                 " filters=" + std::to_string(s.filters) +
                                 " batch=" + std::to_string(batch));
        }
      }
    }
  }
}

TEST(BackendIdentity, SimdLinearMatchesScalarAtEveryTier) {
  util::Rng rng(606);
  for (const int filters : {1, 8, 13, 24, 33}) {
    const int in_features = 50 + filters;
    const IntegerLayer layer = random_integer_layer(filters, in_features, rng);
    const simd::PackedSimd packed = simd::pack_simd(layer);
    ASSERT_TRUE(packed.usable);
    // u8-eligible / int16-pair / generic portable (lane panels) path
    for (const int act_bits : {4, 10, 16}) {
      for (const int batch : {1, 3, 8}) {
        const ActCodes acts = random_act_codes(
            static_cast<std::size_t>(batch) * in_features, act_bits, rng);
        const Tensor reference =
            integer_linear_forward(layer, acts, batch, in_features);
        for (const SimdTier tier : reachable_simd_tiers()) {
          std::vector<float> out(reference.numel());
          std::vector<std::int16_t> acts16;
          std::vector<std::uint8_t> acts8;
          simd::linear_forward_into(tier, packed, acts, batch, in_features, out.data(),
                                    acts16, acts8);
          expect_bytes_equal(out.data(), reference.data(), reference.numel(),
                             std::string("simd linear tier=") + simd_tier_name(tier) +
                                 " act_bits=" + std::to_string(act_bits) +
                                 " filters=" + std::to_string(filters) +
                                 " batch=" + std::to_string(batch));
        }
      }
    }
  }
}

TEST(BackendIdentity, SimdPrunedRowsAreHardZero) {
  util::Rng rng(707);
  IntegerLayer layer = random_integer_layer(9, 18, rng);
  std::fill(layer.filter_bits.begin(), layer.filter_bits.end(), std::uint8_t{0});
  std::fill(layer.codes.begin(), layer.codes.end(), 0);
  const simd::PackedSimd packed = simd::pack_simd(layer);
  const ActCodes acts = random_act_codes(3 * 18, 4, rng);
  for (const SimdTier tier : reachable_simd_tiers()) {
    std::vector<float> out(3 * 9, -1.0f);
    std::vector<std::int16_t> acts16;
    std::vector<std::uint8_t> acts8;
    simd::linear_forward_into(tier, packed, acts, 3, 18, out.data(), acts16, acts8);
    for (const float v : out) {
      EXPECT_EQ(0.0f, v);
      EXPECT_FALSE(std::signbit(v));  // hard +0.0f, matching the scalar kernels
    }
  }
}

TEST(BackendIdentity, SimdHighBitLayersAreNotPackable) {
  util::Rng rng(808);
  IntegerLayer layer = random_integer_layer(4, 10, rng);
  layer.filter_bits[2] = 16;  // centered codes would overflow int16
  const simd::PackedSimd packed = simd::pack_simd(layer);
  EXPECT_FALSE(packed.usable);
  const ActCodes acts = random_act_codes(10, 4, rng);
  std::vector<float> out(4);
  std::vector<std::int16_t> acts16;
  std::vector<std::uint8_t> acts8;
  EXPECT_THROW(simd::linear_forward_into(SimdTier::kPortable, packed, acts, 1, 10,
                                         out.data(), acts16, acts8),
               std::logic_error);
}

TEST(BackendIdentity, SimdKernelsRefuseScalarTier) {
  util::Rng rng(909);
  const IntegerLayer layer = random_integer_layer(4, 10, rng);
  const simd::PackedSimd packed = simd::pack_simd(layer);
  ASSERT_TRUE(packed.usable);
  const ActCodes acts = random_act_codes(10, 4, rng);
  std::vector<float> out(4);
  std::vector<std::int16_t> acts16;
  std::vector<std::uint8_t> acts8;
  EXPECT_THROW(simd::linear_forward_into(SimdTier::kScalar, packed, acts, 1, 10,
                                         out.data(), acts16, acts8),
               std::logic_error);
}

/// The zoo acceptance gate extended to the simd backend: byte-identical
/// logits to the serial scalar session at every reachable tier, batch
/// size, and thread count — proving the runtime dispatch ("same
/// binary, different tier") preserves the contract.
TEST(BackendIdentity, ZooPlansSimdByteIdenticalAtEveryTier) {
  const deploy::QuantizedArtifact artifacts[] = {serve::tiny_vgg_artifact(),
                                                 serve::tiny_mlp_artifact(),
                                                 serve::tiny_resnet_artifact()};
  for (const SimdTier tier : reachable_simd_tiers()) {
    ForcedTier forced(tier);
    for (const deploy::QuantizedArtifact& artifact : artifacts) {
      const auto plan =
          std::make_shared<const ExecutionPlan>(compile_plan(artifact));
      serve::EngineSession scalar = scalar_session(plan);
      for (const int threads : kThreadCounts) {
        ThreadedExec te(threads);
        serve::EngineSession simd_session(plan, 2, te.exec,
                                          make_backend(BackendKind::Simd));
        for (const int batch : {1, 3, 8}) {
          const Tensor input = serve::random_batch(
              plan->sample_shape(), batch,
              2000 + static_cast<std::uint64_t>(batch) * 7 + threads);
          const Tensor a = scalar.run(input);
          const Tensor b = simd_session.run(input);
          ASSERT_EQ(a.shape(), b.shape());
          expect_bytes_equal(a.data(), b.data(), a.numel(),
                             artifact.arch.kind + " tier=" +
                                 simd_tier_name(tier) +
                                 " batch=" + std::to_string(batch) +
                                 " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

/// NaN and +-inf inputs to every zoo model, on the as-compiled plan
/// (standalone EncodeAct ops) and the optimized one (fused ep_encode):
/// the logits are finite, and every backend, at every reachable simd
/// tier, returns them byte-identical to the scalar reference. Runs in
/// the ASan/UBSan lane.
TEST(BackendIdentity, NonFiniteZooInputsByteIdenticalAcrossBackends) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float poison[] = {std::numeric_limits<float>::quiet_NaN(), kInf, -kInf};
  const deploy::QuantizedArtifact artifacts[] = {serve::tiny_vgg_artifact(),
                                                 serve::tiny_mlp_artifact(),
                                                 serve::tiny_resnet_artifact()};
  for (const deploy::QuantizedArtifact& artifact : artifacts) {
    for (const serve::PlanOpt opt : {serve::PlanOpt::kO0, serve::PlanOpt::kO1}) {
      const auto plan = std::make_shared<const ExecutionPlan>(
          serve::compile_session_plan(artifact, opt));
      Tensor input = serve::random_batch(plan->sample_shape(), 3, 77);
      for (std::size_t i = 0; i < input.numel(); i += 5) input[i] = poison[i % 3];
      const Tensor reference = scalar_session(plan).run(input);
      // Every grid encode maps the poison to a grid end, so none of it
      // reaches the logits.
      for (std::size_t i = 0; i < reference.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(reference[i])) << artifact.arch.kind << " logit " << i;
      }
      for (const SimdTier tier : reachable_simd_tiers()) {
        ForcedTier forced(tier);
        for (const BackendKind kind : all_backend_kinds()) {
          serve::EngineSession session(plan, 1, {}, make_backend(kind));
          const Tensor logits = session.run(input);
          ASSERT_EQ(reference.shape(), logits.shape());
          expect_bytes_equal(reference.data(), logits.data(), reference.numel(),
                             artifact.arch.kind + " backend=" + backend_kind_name(kind) +
                                 " tier=" + simd_tier_name(tier) +
                                 " opt=" + std::to_string(static_cast<int>(opt)));
        }
      }
    }
  }
}

/// Concurrent SimdBackend execution for the TSan lane: the prepare()-
/// built pair/quad panels are shared read-only state across sessions'
/// worker threads.
TEST(BackendIdentity, ConcurrentSimdRunsMatchScalar) {
  const deploy::QuantizedArtifact artifact = serve::tiny_resnet_artifact();
  const auto plan = std::make_shared<const ExecutionPlan>(compile_plan(artifact));
  serve::EngineSession scalar = scalar_session(plan);
  serve::EngineSession simd_session(plan, 3, {}, make_backend(BackendKind::Simd));
  constexpr int kSubmitters = 6;
  constexpr int kRounds = 4;
  std::vector<Tensor> inputs, expected;
  for (int i = 0; i < kSubmitters; ++i) {
    inputs.push_back(serve::random_batch(plan->sample_shape(), 3,
                                         900 + static_cast<std::uint64_t>(i)));
    expected.push_back(scalar.run(inputs.back()));
  }
  std::vector<int> mismatches(kSubmitters, 0);
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kSubmitters; ++i) {
      threads.emplace_back([&, i] {
        for (int r = 0; r < kRounds; ++r) {
          const Tensor out = simd_session.run(inputs[static_cast<std::size_t>(i)]);
          if (std::memcmp(out.data(), expected[static_cast<std::size_t>(i)].data(),
                          out.numel() * sizeof(float)) != 0) {
            ++mismatches[static_cast<std::size_t>(i)];
          }
        }
      });
    }
  }
  for (int i = 0; i < kSubmitters; ++i) {
    EXPECT_EQ(0, mismatches[static_cast<std::size_t>(i)]) << "submitter " << i;
  }
}

/// dispatch() surfaces the resolved ISA: integer ops label simd/<isa>,
/// everything else delegates — the labels cqar_info's dispatch column
/// and the plan profiler rows carry.
TEST(BackendFactory, SimdDispatchNamesResolvedIsa) {
  const ExecutionPlan plan = compile_plan(serve::tiny_vgg_artifact());
  for (const SimdTier tier : reachable_simd_tiers()) {
    ForcedTier forced(tier);
    const auto backend = make_backend(BackendKind::Simd);
    backend->prepare(plan);
    bool saw_integer = false;
    for (const PlanOp& op : plan.ops()) {
      const std::string label = backend->dispatch(op);
      if (op.kind == OpKind::IntConv || op.kind == OpKind::IntLinear) {
        saw_integer = true;
        if (tier == SimdTier::kPortable) {
          EXPECT_EQ("simd/portable", label);
        } else {
          EXPECT_TRUE(label == "simd/avx2" || label == "simd/avx2-i8") << label;
        }
      } else {
        EXPECT_EQ("scalar", label);
      }
    }
    EXPECT_TRUE(saw_integer);
  }
}

/// CQ_SIMD=off / force_simd_tier(kScalar) retires the explicit kernels:
/// the backend constructs at tier scalar, every integer op delegates to
/// the scalar reference (the dispatch label says so), and outputs stay
/// byte-identical.
TEST(BackendFactory, SimdForcedFallbackDelegates) {
  ForcedTier forced(SimdTier::kScalar);
  const auto plan = std::make_shared<const ExecutionPlan>(
      compile_plan(serve::tiny_vgg_artifact()));
  const auto backend = make_backend(BackendKind::Simd);
  backend->prepare(*plan);
  for (const PlanOp& op : plan->ops()) {
    EXPECT_STREQ("scalar", backend->dispatch(op));
  }
  serve::EngineSession scalar = scalar_session(plan);
  serve::EngineSession fallback(plan, 1, {}, make_backend(BackendKind::Simd));
  const Tensor input = serve::random_batch(plan->sample_shape(), 3, 42);
  const Tensor a = scalar.run(input);
  const Tensor b = fallback.run(input);
  expect_bytes_equal(a.data(), b.data(), a.numel(), "forced scalar-tier fallback");
}

TEST(CpuFeatures, EnvAndForceResolveTiers) {
  const char* prev = std::getenv("CQ_SIMD");
  const std::string saved = prev != nullptr ? prev : "";
  const bool had = prev != nullptr;

  ::setenv("CQ_SIMD", "off", 1);
  EXPECT_EQ(SimdTier::kScalar, resolve_simd_tier());
  ::setenv("CQ_SIMD", "scalar", 1);
  EXPECT_EQ(SimdTier::kScalar, resolve_simd_tier());
  ::setenv("CQ_SIMD", "portable", 1);
  EXPECT_EQ(SimdTier::kPortable, resolve_simd_tier());
  // "avx2", "auto", and typos all resolve to the fastest tier the CPU
  // supports — a misspelled override degrades, never crashes.
  ::setenv("CQ_SIMD", "avx2", 1);
  EXPECT_EQ(max_supported_simd_tier(), resolve_simd_tier());
  ::setenv("CQ_SIMD", "definitely-a-typo", 1);
  EXPECT_EQ(max_supported_simd_tier(), resolve_simd_tier());
  // The forced override outranks the environment.
  force_simd_tier(SimdTier::kPortable);
  EXPECT_EQ(SimdTier::kPortable, resolve_simd_tier());
  clear_forced_simd_tier();

  if (had) {
    ::setenv("CQ_SIMD", saved.c_str(), 1);
  } else {
    ::unsetenv("CQ_SIMD");
  }
  // The supported ceiling is exactly what CPUID reported.
  EXPECT_EQ(cpu_features().avx2 ? SimdTier::kAvx2 : SimdTier::kPortable,
            max_supported_simd_tier());
}

TEST(CpuFeatures, JsonNamesArchAndTier) {
  const std::string json = cpu_features_json();
  EXPECT_NE(json.find("\"arch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"avx2\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tier\""), std::string::npos) << json;
  EXPECT_NE(json.find(simd_tier_name(resolve_simd_tier())), std::string::npos)
      << json;
}

/// prepared_bytes() is exactly the lane, pair and quad panels plus the
/// per-filter rescale vectors, derived here from layer geometry alone.
TEST(BackendFactory, SimdPreparedBytesAreExactlyThePanels) {
  const ExecutionPlan plan = compile_plan(serve::tiny_vgg_artifact());
  const auto simd_backend = make_backend(BackendKind::Simd);
  simd_backend->prepare(plan);
  std::size_t expected = 0;
  for (const IntegerLayer& layer : plan.integer_layers()) {
    const auto filters = static_cast<std::size_t>(layer.num_filters);
    const auto patch = static_cast<std::size_t>(layer.weights_per_filter);
    const std::size_t tiles = (filters + simd::kFilterTile - 1) / simd::kFilterTile;
    const std::size_t lanes = tiles * simd::kFilterTile;
    ASSERT_LE(max_abs_centered_code(layer), 127);  // zoo bits <= 4: quads exist
    expected += lanes * patch * sizeof(std::int16_t);                 // lane
    expected += lanes * ((patch + 1) / 2) * 2 * sizeof(std::int16_t);  // pair
    expected += lanes * ((patch + 3) / 4) * 4 * sizeof(std::int8_t);   // quad
    expected += filters * 2 * sizeof(float);  // weight scales + bias
  }
  EXPECT_EQ(expected, simd_backend->prepared_bytes());
}

TEST(EngineSessionValidation, RejectsBadBatchesUpFront) {
  serve::EngineSession session(serve::tiny_mlp_artifact());  // sample shape [12]
  util::Rng rng(1);
  // Wrong rank: a bare sample without the batch dimension.
  try {
    session.run(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f));
    FAIL() << "rank mismatch accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[12]"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("12 floats/sample"), std::string::npos)
        << e.what();
  }
  // Empty batch.
  try {
    session.run(Tensor({0, 12}));
    FAIL() << "empty batch accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(">= 1"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("[12]"), std::string::npos) << e.what();
  }
  // Right rank, wrong per-sample size (total size not divisible into
  // samples of the plan's shape).
  try {
    session.run(Tensor::rand_uniform({2, 13}, rng, 0.0f, 1.0f));
    FAIL() << "per-sample size mismatch accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[12]"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("[2, 13]"), std::string::npos) << e.what();
  }
  // A valid batch still runs after the failures.
  const Tensor out = session.run(Tensor::rand_uniform({3, 12}, rng, 0.0f, 1.0f));
  EXPECT_EQ(out.dim(0), 3);
}

/// End-to-end: a session built from an artifact with a thread pool
/// (default backend, batch chunks at 2 and 3 threads) returns the
/// serial scalar session's logits byte for byte — also the TSan target
/// proving the chunks share no mutable state.
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

  serve::EngineSession serial(artifact, 1, {}, make_backend(BackendKind::Scalar));
  const Tensor batch = Tensor::rand_uniform({3, 3, 8, 8}, rng, 0.0f, 1.0f);
  const Tensor expected = serial.run(batch);

  for (const int t : {2, 3}) {
    util::ThreadPool pool(t - 1);
    serve::EngineSession threaded(artifact, 1, util::ExecContext{&pool, t});
    const Tensor out = threaded.run(batch);
    ASSERT_EQ(out.shape(), expected.shape());
    expect_bytes_equal(out.data(), expected.data(), expected.numel(),
                       "engine threads=" + std::to_string(t));
  }
}

}  // namespace
}  // namespace cq::deploy
