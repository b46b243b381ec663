// The static plan verifier's contract tests.
//
// Two halves. (1) Mutation tests: take the model-zoo plans, apply one
// targeted corruption per test — swapped slot ids, a shrunk arena,
// an overlapping interval, an illegal in-place alias, a weight code
// inflated past its bit-width — and assert verify_plan names exactly
// the violated rule at the right op. A verifier that fails these
// would pass broken optimizer-pass output straight to the kernels.
// (2) Property tests pinning the shared overflow-bound helper
// (deploy/overflow.h): the bound is achievable (tight), safe over
// random code/activation draws, saturates instead of wrapping, and is
// byte-for-byte the number simd::pack_simd dispatches on.
//
// Runs in the TSan and ASan/UBSan CI lanes: "zoo plans verify clean"
// must hold under the sanitizers too.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "deploy/backend.h"
#include "deploy/overflow.h"
#include "deploy/passes/passes.h"
#include "deploy/plan.h"
#include "deploy/verify.h"
#include "quant/uniform.h"
#include "serve/engine_session.h"
#include "serve_fixtures.h"
#include "util/rng.h"

namespace cq::deploy {
namespace {

ExecutionPlan vgg_plan() { return compile_plan(serve::tiny_vgg_artifact()); }
ExecutionPlan mlp_plan() { return compile_plan(serve::tiny_mlp_artifact()); }
ExecutionPlan resnet_plan() { return compile_plan(serve::tiny_resnet_artifact()); }

int find_op(const ExecutionPlan& plan, OpKind kind) {
  for (std::size_t i = 0; i < plan.ops().size(); ++i) {
    if (plan.ops()[i].kind == kind) return static_cast<int>(i);
  }
  return -1;
}

/// Passes when the report contains a finding for `rule`; `op` == -2
/// accepts any op index, otherwise the finding must sit on that op.
::testing::AssertionResult has_finding(const VerifyReport& report, VerifyRule rule,
                                       int op = -2) {
  for (const PlanDiagnostic& d : report.diagnostics) {
    if (d.rule == rule && (op == -2 || d.op == op)) {
      return ::testing::AssertionSuccess();
    }
  }
  return ::testing::AssertionFailure()
         << "no [" << verify_rule_name(rule) << "] finding"
         << (op == -2 ? "" : " at op #" + std::to_string(op)) << "; report:\n"
         << (report.clean() ? "  (clean)\n" : format_diagnostics(report));
}

TEST(PlanVerify, ZooPlansVerifyClean) {
  for (const ExecutionPlan& plan : {vgg_plan(), mlp_plan(), resnet_plan()}) {
    const VerifyReport report = verify_plan(plan);
    EXPECT_TRUE(report.clean()) << format_diagnostics(report);
    // Every integer op earns a certificate, and the int64 safety the
    // scalar kernels rely on is certified for all of them.
    std::size_t integer_ops = 0;
    for (const PlanOp& op : plan.ops()) {
      integer_ops +=
          (op.kind == OpKind::IntConv || op.kind == OpKind::IntLinear) ? 1 : 0;
    }
    ASSERT_EQ(report.certificates.size(), integer_ops);
    for (const IntOpCertificate& cert : report.certificates) {
      EXPECT_TRUE(cert.fits_int64);
      EXPECT_GT(cert.bound, 0);
      // The int8 claim must be exactly the shared helper SimdBackend's
      // resolve_path evaluates, and can never outrank the int32 one.
      const PlanOp& op = plan.ops()[static_cast<std::size_t>(cert.op)];
      EXPECT_EQ(cert.int8_fast_path,
                int_reduction_fits_int8_madd(cert.max_abs_weight, op.act_bits,
                                             cert.terms));
      if (cert.int8_fast_path) {
        EXPECT_TRUE(cert.int32_fast_path);
      }
    }
  }
}

TEST(PlanVerify, SwappedSlotIdIsDefBeforeUse) {
  ExecutionPlan plan = vgg_plan();
  PlanRewriter rw(plan);
  // Op 0 now reads the value the *last* op defines: a use before def.
  rw.ops()[0].in0 = rw.ops().back().out;
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::DefBeforeUse, 0));
}

TEST(PlanVerify, DoubleWriteIsSingleAssignment) {
  ExecutionPlan plan = mlp_plan();
  PlanRewriter rw(plan);
  const int victim = static_cast<int>(rw.ops().size()) - 1;
  rw.ops()[static_cast<std::size_t>(victim)].out =
      rw.ops()[static_cast<std::size_t>(victim) - 1].out;
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::SingleAssignment, victim));
}

TEST(PlanVerify, In1OnNonAddIsDangling) {
  ExecutionPlan plan = vgg_plan();
  PlanRewriter rw(plan);
  const int relu = find_op(plan, OpKind::Relu);
  ASSERT_GE(relu, 0);
  rw.ops()[static_cast<std::size_t>(relu)].in1 = plan.input_slot();
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::DanglingIn1, relu));
}

TEST(PlanVerify, AddWithoutIn1IsDangling) {
  ExecutionPlan plan = resnet_plan();
  PlanRewriter rw(plan);
  const int add = find_op(plan, OpKind::Add);
  ASSERT_GE(add, 0);
  rw.ops()[static_cast<std::size_t>(add)].in1 = -1;
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::DanglingIn1, add));
}

TEST(PlanVerify, WrongNumClassesIsIoSlots) {
  ExecutionPlan plan = mlp_plan();
  PlanRewriter rw(plan);
  ++rw.num_classes();
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::IoSlots, -1));
}

TEST(PlanVerify, CorruptedConvGeometryIsShape) {
  ExecutionPlan plan = vgg_plan();
  PlanRewriter rw(plan);
  const int conv = find_op(plan, OpKind::IntConv);
  ASSERT_GE(conv, 0);
  // The recorded output height no longer re-derives from the input
  // geometry; the slot shape then disagrees too.
  ++rw.ops()[static_cast<std::size_t>(conv)].out_h;
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::Shape, conv));
}

TEST(PlanVerify, ShrunkArenaIsArenaBounds) {
  ExecutionPlan plan = vgg_plan();
  PlanRewriter rw(plan);
  ASSERT_GT(rw.arena_floats(), 0u);
  // The high-water mark is exactly reached by some interval, so any
  // shrink pushes at least one slot out of bounds.
  --rw.arena_floats();
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::ArenaBounds, -1));
}

TEST(PlanVerify, OverlappingLiveIntervalsAreArenaOverlap) {
  ExecutionPlan plan = resnet_plan();
  PlanRewriter rw(plan);
  // Move the residual shortcut onto the main path's interval: both
  // are live when the Add runs, and they are not producer/consumer of
  // one another, so no alias exception applies.
  const int add = find_op(plan, OpKind::Add);
  ASSERT_GE(add, 0);
  const PlanOp& op = plan.ops()[static_cast<std::size_t>(add)];
  ASSERT_NE(op.in0, op.in1);
  rw.slots()[static_cast<std::size_t>(op.in1)].offset =
      rw.slots()[static_cast<std::size_t>(op.in0)].offset;
  const VerifyReport report = verify_plan(plan);
  EXPECT_TRUE(has_finding(report, VerifyRule::ArenaOverlap));
}

TEST(PlanVerify, InPlaceAliasOnConvIsIllegal) {
  ExecutionPlan plan = vgg_plan();
  PlanRewriter rw(plan);
  const int conv = find_op(plan, OpKind::IntConv);
  ASSERT_GE(conv, 0);
  const PlanOp& op = plan.ops()[static_cast<std::size_t>(conv)];
  // A convolution may never run in place: it reads every input patch
  // while writing outputs. Point its output at the input interval.
  rw.slots()[static_cast<std::size_t>(op.out)].offset =
      rw.slots()[static_cast<std::size_t>(op.in0)].offset;
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::Alias, conv));
}

TEST(PlanVerify, BadLayerIndexIsIntLayer) {
  ExecutionPlan plan = mlp_plan();
  PlanRewriter rw(plan);
  const int linear = find_op(plan, OpKind::IntLinear);
  ASSERT_GE(linear, 0);
  rw.ops()[static_cast<std::size_t>(linear)].layer = 999;
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::IntLayer, linear));
}

TEST(PlanVerify, InflatedCodeMagnitudeIsCodeRange) {
  ExecutionPlan plan = vgg_plan();
  PlanRewriter rw(plan);
  const int conv = find_op(plan, OpKind::IntConv);
  ASSERT_GE(conv, 0);
  const int layer_index = plan.ops()[static_cast<std::size_t>(conv)].layer;
  IntegerLayer& layer = rw.integer_layers()[static_cast<std::size_t>(layer_index)];
  // First unpruned filter: push its first code one past the largest
  // value its declared bit-width can hold — the overflow bound that
  // licenses the int32 fast path no longer covers this layer.
  for (std::size_t k = 0; k < layer.filter_bits.size(); ++k) {
    if (layer.filter_bits[k] == 0) continue;
    layer.codes[k * static_cast<std::size_t>(layer.weights_per_filter)] =
        quant::levels_for_bits(layer.filter_bits[k]);
    break;
  }
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::CodeRange, conv));
}

TEST(PlanVerify, InvalidActBitsFailOverflowCertification) {
  ExecutionPlan plan = mlp_plan();
  PlanRewriter rw(plan);
  const int linear = find_op(plan, OpKind::IntLinear);
  ASSERT_GE(linear, 0);
  rw.ops()[static_cast<std::size_t>(linear)].act_bits = 0;
  const VerifyReport report = verify_plan(plan);
  // Both the grid sanity rule and the (saturated, uncertifiable)
  // accumulator bound fire on the same op.
  EXPECT_TRUE(has_finding(report, VerifyRule::IntLayer, linear));
  EXPECT_TRUE(has_finding(report, VerifyRule::Overflow, linear));
}

TEST(PlanVerify, EpilogueFlagOnNonComputeOpIsEpilogue) {
  ExecutionPlan plan = vgg_plan();
  PlanRewriter rw(plan);
  const int relu = find_op(plan, OpKind::Relu);
  ASSERT_GE(relu, 0);
  // Epilogue stages only exist on compute ops; a Relu claiming one is
  // optimizer-pass output the backends would silently ignore.
  rw.ops()[static_cast<std::size_t>(relu)].ep_relu = true;
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::Epilogue, relu));
}

TEST(PlanVerify, FusedBnVectorSizeMismatchIsEpilogue) {
  ExecutionPlan plan = resnet_plan();
  optimize_plan(plan);
  PlanRewriter rw(plan);
  int fused = -1;
  for (std::size_t i = 0; i < plan.ops().size(); ++i) {
    if (plan.ops()[i].ep_bn) fused = static_cast<int>(i);
  }
  ASSERT_GE(fused, 0) << "optimizer produced no BN epilogues on ResNet20";
  rw.ops()[static_cast<std::size_t>(fused)].bn_gamma.pop_back();
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::Epilogue, fused));
}

TEST(PlanVerify, InCodesWithoutCodeProducerIsCodeDomain) {
  ExecutionPlan plan = vgg_plan();
  PlanRewriter rw(plan);
  const int conv = find_op(plan, OpKind::IntConv);
  ASSERT_GE(conv, 0);
  // The unoptimized plan's conv inputs are quantized *activations*
  // (EncodeAct output), not integer codes; adopting them as codes
  // would silently mis-scale the whole layer.
  rw.ops()[static_cast<std::size_t>(conv)].in_codes = true;
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::CodeDomain, conv));
}

TEST(PlanVerify, CodeConsumerGridMismatchIsCodeDomain) {
  ExecutionPlan plan = resnet_plan();
  optimize_plan(plan);
  PlanRewriter rw(plan);
  int consumer = -1;
  for (std::size_t i = 0; i < plan.ops().size(); ++i) {
    if (plan.ops()[i].in_codes) consumer = static_cast<int>(i);
  }
  ASSERT_GE(consumer, 0) << "optimizer propagated no codes on ResNet20";
  // The consumer now decodes on a different grid than its producer
  // encoded on — exactly the inexact-rescale case propagation must
  // never produce.
  ++rw.ops()[static_cast<std::size_t>(consumer)].act_bits;
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::CodeDomain, consumer));
}

TEST(PlanVerify, CodeTypedSlotConsumedRawIsCodeDomain) {
  ExecutionPlan plan = resnet_plan();
  optimize_plan(plan);
  PlanRewriter rw(plan);
  int consumer = -1;
  for (std::size_t i = 0; i < plan.ops().size(); ++i) {
    if (plan.ops()[i].in_codes) consumer = static_cast<int>(i);
  }
  ASSERT_GE(consumer, 0);
  // The producer still writes integer codes; a consumer treating them
  // as raw activations would re-encode the code values themselves.
  rw.ops()[static_cast<std::size_t>(consumer)].in_codes = false;
  EXPECT_TRUE(has_finding(verify_plan(plan), VerifyRule::CodeDomain, consumer));
}

TEST(PlanVerify, StrictSessionServesCleanPlans) {
  serve::EngineSession session(resnet_plan(), 1, {}, nullptr,
                               serve::PlanCheck::kStrict);
  const tensor::Tensor batch = serve::random_batch(session.sample_shape(), 2, 99);
  const tensor::Tensor out = session.run(batch);
  EXPECT_EQ(out.shape(), (tensor::Shape{2, session.num_classes()}));
}

TEST(PlanVerify, StrictSessionRefusesCorruptPlans) {
  ExecutionPlan plan = vgg_plan();
  PlanRewriter rw(plan);
  rw.ops()[0].in0 = rw.ops().back().out;
  EXPECT_THROW(serve::EngineSession(std::move(plan), 1, {}, nullptr,
                                    serve::PlanCheck::kStrict),
               ArtifactError);
}

// ---- the shared overflow-bound helper (deploy/overflow.h) ----

/// Mixed-bit integer layer including pruned rows, codes drawn over the
/// full range of each filter's bit-width.
IntegerLayer random_layer(int filters, std::int64_t per_filter, util::Rng& rng) {
  IntegerLayer layer;
  layer.num_filters = filters;
  layer.weights_per_filter = per_filter;
  layer.range_hi = 1.0f;
  const int pattern[6] = {2, 4, 0, 3, 1, 2};
  layer.filter_bits.resize(static_cast<std::size_t>(filters));
  layer.codes.assign(static_cast<std::size_t>(filters) *
                         static_cast<std::size_t>(per_filter),
                     0);
  layer.bias.assign(static_cast<std::size_t>(filters), 0.0f);
  for (int k = 0; k < filters; ++k) {
    const int bits = pattern[k % 6];
    layer.filter_bits[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(bits);
    if (bits == 0) continue;
    std::int32_t* row = layer.codes.data() +
                        static_cast<std::size_t>(k) * static_cast<std::size_t>(per_filter);
    for (std::int64_t j = 0; j < per_filter; ++j) {
      row[j] = static_cast<std::int32_t>(
          rng.uniform_int(0, quant::levels_for_bits(bits) - 1));
    }
  }
  return layer;
}

TEST(OverflowBound, MatchesSimdPackingExactly) {
  // The no-disagreement property the refactor exists for: the bound
  // input the simd backend dispatches on IS the shared helper's.
  util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const IntegerLayer layer =
        random_layer(3 + trial % 13, 5 + trial % 17, rng);
    const simd::PackedSimd packed = simd::pack_simd(layer);
    ASSERT_TRUE(packed.usable);
    EXPECT_EQ(packed.max_abs_weight, max_abs_centered_code(layer));
  }
}

TEST(OverflowBound, BoundIsAchievedByExtremalCodes) {
  // Tightness: all-extremal codes and activations reach the bound
  // exactly, so it cannot be loosened without admitting overflow.
  for (int bits = 1; bits <= 8; ++bits) {
    for (int act_bits = 1; act_bits <= 8; act_bits += 3) {
      const std::int64_t terms = 37;
      const std::int32_t centered_max = quant::levels_for_bits(bits) - 1;
      const std::int64_t act_max = quant::levels_for_bits(act_bits) - 1;
      std::int64_t acc = 0;
      for (std::int64_t j = 0; j < terms; ++j) acc += centered_max * act_max;
      EXPECT_EQ(acc, int_reduction_bound(centered_max, act_bits, terms));
    }
  }
}

TEST(OverflowBound, RandomReductionsStayBelowBound) {
  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const int bits = 1 + static_cast<int>(rng.uniform_int(0, 7));
    const int act_bits = 1 + static_cast<int>(rng.uniform_int(0, 7));
    const std::int64_t terms = 1 + rng.uniform_int(0, 63);
    const std::int32_t levels = quant::levels_for_bits(bits);
    const std::int64_t act_max = quant::levels_for_bits(act_bits) - 1;
    std::int64_t acc = 0;
    std::int32_t max_abs = 0;
    for (std::int64_t j = 0; j < terms; ++j) {
      const auto code = static_cast<std::int32_t>(rng.uniform_int(0, levels - 1));
      const std::int32_t centered = 2 * code - (levels - 1);
      const auto act = rng.uniform_int(0, act_max);
      acc += static_cast<std::int64_t>(centered) * act;
      max_abs = std::max(max_abs, centered < 0 ? -centered : centered);
    }
    const std::int64_t bound = int_reduction_bound(max_abs, act_bits, terms);
    EXPECT_LE(acc < 0 ? -acc : acc, bound);
    EXPECT_EQ(int_reduction_fits_int32(max_abs, act_bits, terms),
              bound <= std::numeric_limits<std::int32_t>::max());
  }
}

TEST(OverflowBound, Int8MaddEligibilityPinsEveryEdge) {
  // Comfortably inside every bound: maddubs pair sums stay exact.
  EXPECT_TRUE(int_reduction_fits_int8_madd(15, 3, 1024));
  // The pair-sum bound itself: 2 * max|w| * act_max <= 32767.
  // max|w| = 127, act_bits = 8 -> 2*127*255 = 64770 > 32767: refused.
  EXPECT_FALSE(int_reduction_fits_int8_madd(127, 8, 8));
  // ...but 127 with 7-bit acts is 2*127*127 = 32258 <= 32767: allowed.
  EXPECT_TRUE(int_reduction_fits_int8_madd(127, 7, 8));
  // Weights must fit the signed int8 operand of maddubs.
  EXPECT_FALSE(int_reduction_fits_int8_madd(128, 3, 8));
  // Activations must fit the unsigned 8-bit operand.
  EXPECT_FALSE(int_reduction_fits_int8_madd(15, 9, 8));
  EXPECT_FALSE(int_reduction_fits_int8_madd(15, 0, 8));
  // The int32 accumulator bound still applies to the full reduction.
  EXPECT_FALSE(int_reduction_fits_int8_madd(127, 7, std::int64_t{1} << 40));
}

TEST(OverflowBound, SaturatesInsteadOfWrapping) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // A product that would wrap int64 saturates and certifies nothing.
  EXPECT_EQ(int_reduction_bound(std::numeric_limits<std::int32_t>::max(), 16,
                                kMax / 2),
            kMax);
  EXPECT_FALSE(int_reduction_fits_int64(std::numeric_limits<std::int32_t>::max(),
                                        16, kMax / 2));
  EXPECT_FALSE(int_reduction_fits_int32(std::numeric_limits<std::int32_t>::max(),
                                        16, kMax / 2));
  // Unencodable activation bit-widths certify nothing either.
  EXPECT_EQ(int_reduction_bound(1, 0, 1), kMax);
  EXPECT_EQ(int_reduction_bound(1, 17, 1), kMax);
  EXPECT_FALSE(int_reduction_fits_int32(1, 0, 1));
  // Degenerate reductions are exactly zero.
  EXPECT_EQ(int_reduction_bound(0, 4, 10), 0);
  EXPECT_EQ(int_reduction_bound(5, 4, 0), 0);
  EXPECT_TRUE(int_reduction_fits_int64(0, 4, 10));
}

}  // namespace
}  // namespace cq::deploy
