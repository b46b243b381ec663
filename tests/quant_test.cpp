#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "quant/bitwidth.h"
#include "quant/integer_gemm.h"
#include "quant/uniform.h"

namespace cq::quant {
namespace {

TEST(Uniform, LevelsForBits) {
  EXPECT_EQ(levels_for_bits(0), 1);
  EXPECT_EQ(levels_for_bits(1), 2);
  EXPECT_EQ(levels_for_bits(4), 16);
  EXPECT_EQ(levels_for_bits(-3), 1);
}

TEST(Uniform, ZeroBitsPrunesToZero) {
  const UniformRange r{-1.0f, 1.0f};
  EXPECT_EQ(quantize_one(0.73f, r, 0), 0.0f);
}

TEST(Uniform, OneBitIsBinary) {
  const UniformRange r{-2.0f, 2.0f};
  EXPECT_FLOAT_EQ(quantize_one(0.5f, r, 1), 2.0f);   // rounds up to hi
  EXPECT_FLOAT_EQ(quantize_one(-0.5f, r, 1), -2.0f); // rounds down to lo
  EXPECT_FLOAT_EQ(quantize_one(1.9f, r, 1), 2.0f);
}

TEST(Uniform, ClipsOutOfRange) {
  const UniformRange r{-1.0f, 1.0f};
  EXPECT_FLOAT_EQ(quantize_one(5.0f, r, 4), 1.0f);
  EXPECT_FLOAT_EQ(quantize_one(-5.0f, r, 4), -1.0f);
}

TEST(Uniform, EndpointsAreExactlyRepresentable) {
  const UniformRange r{-1.5f, 1.5f};
  for (int bits = 1; bits <= 8; ++bits) {
    EXPECT_FLOAT_EQ(quantize_one(r.lo, r, bits), r.lo) << "bits=" << bits;
    EXPECT_FLOAT_EQ(quantize_one(r.hi, r, bits), r.hi) << "bits=" << bits;
  }
}

TEST(Uniform, QuantizationIsIdempotent) {
  const UniformRange r{-1.0f, 1.0f};
  for (int bits = 1; bits <= 6; ++bits) {
    const float q = quantize_one(0.3777f, r, bits);
    EXPECT_FLOAT_EQ(quantize_one(q, r, bits), q) << "bits=" << bits;
  }
}

TEST(Uniform, ErrorBoundedByHalfStep) {
  const UniformRange r{-1.0f, 1.0f};
  for (int bits = 2; bits <= 8; ++bits) {
    const float bound = max_quantization_error(r, bits) + 1e-6f;
    for (float x = -1.0f; x <= 1.0f; x += 0.01f) {
      const float q = quantize_one(x, r, bits);
      EXPECT_LE(std::fabs(q - x), bound) << "bits=" << bits << " x=" << x;
    }
  }
}

TEST(Uniform, ErrorBoundShrinksWithBits) {
  // Per-value error is not monotone in bits (grids do not nest), but
  // the worst-case bound halves with every added bit.
  const UniformRange r{-1.0f, 1.0f};
  float prev = max_quantization_error(r, 1);
  for (int bits = 2; bits <= 8; ++bits) {
    const float bound = max_quantization_error(r, bits);
    EXPECT_LT(bound, prev) << "bits=" << bits;
    prev = bound;
  }
}

TEST(Uniform, QuantizeSpanMatchesScalar) {
  const UniformRange r{-2.0f, 2.0f};
  const std::vector<float> src = {-3.0f, -1.2f, 0.0f, 0.7f, 2.5f};
  std::vector<float> dst(src.size());
  quantize_span(src, dst, r, 3);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_FLOAT_EQ(dst[i], quantize_one(src[i], r, 3));
  }
}

TEST(Uniform, QuantizeSpanZeroBitsZeroes) {
  const std::vector<float> src = {1.0f, -2.0f};
  std::vector<float> dst(2, 99.0f);
  quantize_span(src, dst, UniformRange{-2.0f, 2.0f}, 0);
  EXPECT_EQ(dst[0], 0.0f);
  EXPECT_EQ(dst[1], 0.0f);
}

TEST(Uniform, SymmetricRange) {
  const std::vector<float> w = {0.5f, -1.25f, 0.3f};
  const UniformRange r = symmetric_range(w);
  EXPECT_FLOAT_EQ(r.lo, -1.25f);
  EXPECT_FLOAT_EQ(r.hi, 1.25f);
  EXPECT_TRUE(r.valid());
  const UniformRange zero = symmetric_range(std::vector<float>{0.0f, 0.0f});
  EXPECT_FALSE(zero.valid());
}

TEST(Uniform, EncodeDecodeRoundTrip) {
  const UniformRange r{-1.0f, 1.0f};
  for (int bits = 1; bits <= 8; ++bits) {
    const int levels = levels_for_bits(bits);
    for (int q = 0; q < levels; ++q) {
      const float x = decode(q, r, bits);
      EXPECT_EQ(encode(x, r, bits), q) << "bits=" << bits << " q=" << q;
    }
  }
}

TEST(Uniform, EncodeMatchesQuantize) {
  const UniformRange r{0.0f, 4.0f};
  for (float x = 0.0f; x <= 4.0f; x += 0.37f) {
    const float via_codes = decode(encode(x, r, 3), r, 3);
    EXPECT_NEAR(via_codes, quantize_one(x, r, 3), 1e-5f);
  }
}

std::uint32_t float_bits(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

float bits_float(std::uint32_t bits) {
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// round_to_grid against std::round, compared as bit patterns: every
/// float within 16 ulps of each integer and half-integer in [0, 65536]
/// (the codes of a <= 16-bit grid and the ties between them), a strided
/// sweep over every non-negative finite float, and the special values.
TEST(Uniform, RoundToGridMatchesStdRound) {
  std::uint64_t checked = 0;
  const auto expect_matches = [&checked](float v) {
    ++checked;
    ASSERT_EQ(float_bits(round_to_grid(v)), float_bits(std::round(v)))
        << "v=" << v << " (bits 0x" << std::hex << float_bits(v) << ")";
  };
  for (int k = 0; k <= 65536; ++k) {
    for (const float center : {static_cast<float>(k), static_cast<float>(k) + 0.5f}) {
      const std::uint32_t c = float_bits(center);
      // +0 has no smaller non-negative neighbour; start the walk there.
      const std::uint32_t lo = c < 16 ? 0 : c - 16;
      for (std::uint32_t b = lo; b <= c + 16; ++b) expect_matches(bits_float(b));
    }
  }
  const std::uint32_t inf_bits = float_bits(std::numeric_limits<float>::infinity());
  for (std::uint32_t b = 0; b < inf_bits; b += 4099) expect_matches(bits_float(b));
  expect_matches(bits_float(inf_bits - 1));  // largest finite float
  EXPECT_GT(checked, 4'000'000u);

  EXPECT_EQ(float_bits(round_to_grid(0.0f)), float_bits(0.0f));
  // -0 rounds to +0 (std::round keeps the sign); every caller then
  // either casts to an integer code or adds +0, so the sign never shows.
  EXPECT_EQ(float_bits(round_to_grid(-0.0f)), float_bits(0.0f));
  EXPECT_EQ(round_to_grid(std::numeric_limits<float>::infinity()),
            std::numeric_limits<float>::infinity());
  EXPECT_TRUE(std::isnan(round_to_grid(std::numeric_limits<float>::quiet_NaN())));
}

TEST(Uniform, ClipToGridDefinesNonFiniteInputs) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(float_bits(clip_to_grid(std::numeric_limits<float>::quiet_NaN(), 2.0f)),
            float_bits(0.0f));
  EXPECT_EQ(float_bits(clip_to_grid(-kInf, 2.0f)), float_bits(0.0f));
  EXPECT_EQ(float_bits(clip_to_grid(-0.0f, 2.0f)), float_bits(0.0f));
  EXPECT_EQ(clip_to_grid(kInf, 2.0f), 2.0f);
  for (const float v : {-3.0f, 0.0f, 1e-30f, 0.75f, 2.0f, 2.5f}) {
    EXPECT_EQ(float_bits(clip_to_grid(v, 2.0f)), float_bits(std::clamp(v, 0.0f, 2.0f)))
        << "v=" << v;
  }
}

/// decode(encode(x)) == quantize_one(x) bit for bit, also on the exact
/// ties of the grid (a 3-bit [0, 7] range has a step of exactly 1).
TEST(Uniform, EncodeDecodeEqualsQuantizeOneOnTies) {
  for (const UniformRange r : {UniformRange{0.0f, 7.0f}, UniformRange{-7.0f, 7.0f}}) {
    for (float x = r.lo - 1.0f; x <= r.hi + 1.0f; x += 0.25f) {
      for (const float v : {std::nextafter(x, -1e9f), x, std::nextafter(x, 1e9f)}) {
        EXPECT_EQ(float_bits(decode(encode(v, r, 3), r, 3)),
                  float_bits(quantize_one(v, r, 3)))
            << "x=" << v << " lo=" << r.lo;
      }
    }
  }
}

TEST(BitArrangement, AverageBitsWeighted) {
  BitArrangement arr;
  // Layer A: 2 filters x 10 weights at 4 and 0 bits.
  arr.add_layer({"a", {4, 0}, 10});
  // Layer B: 1 filter x 20 weights at 2 bits.
  arr.add_layer({"b", {2}, 20});
  // (4*10 + 0*10 + 2*20) / 40 = 2.0
  EXPECT_DOUBLE_EQ(arr.average_bits(), 2.0);
  EXPECT_EQ(arr.total_weights(), 40u);
}

TEST(BitArrangement, CountsByBits) {
  BitArrangement arr;
  arr.add_layer({"a", {4, 0, 4}, 5});
  EXPECT_EQ(arr.weights_with_bits(4), 10u);
  EXPECT_EQ(arr.weights_with_bits(0), 5u);
  EXPECT_EQ(arr.weights_with_bits(2), 0u);
  EXPECT_EQ(arr.filters_with_bits(4), 2u);
  EXPECT_EQ(arr.max_bits(), 4);
}

TEST(BitArrangement, EmptyIsZero) {
  const BitArrangement arr;
  EXPECT_DOUBLE_EQ(arr.average_bits(), 0.0);
  EXPECT_EQ(arr.total_weights(), 0u);
  EXPECT_EQ(arr.max_bits(), 0);
}

TEST(WrapAccumulator, NoWrapWhenDisabled) {
  EXPECT_EQ(wrap_accumulator(123456789, 0), 123456789);
  EXPECT_EQ(wrap_accumulator(-5, 64), -5);
}

TEST(WrapAccumulator, WrapsLikeTwosComplement) {
  // 8-bit accumulator: range [-128, 127].
  EXPECT_EQ(wrap_accumulator(127, 8), 127);
  EXPECT_EQ(wrap_accumulator(128, 8), -128);
  EXPECT_EQ(wrap_accumulator(255, 8), -1);
  EXPECT_EQ(wrap_accumulator(256, 8), 0);
  EXPECT_EQ(wrap_accumulator(-129, 8), 127);
}

TEST(WrapAccumulator, IdentityInsideRange) {
  for (int v = -128; v <= 127; ++v) EXPECT_EQ(wrap_accumulator(v, 8), v);
}

TEST(IntegerGemm, MatchesFloatGemmWhenWide) {
  const std::int32_t a[] = {1, 2, 3, 4};
  const std::int32_t b[] = {5, 6, 7, 8};
  std::int64_t c[4];
  integer_gemm(a, b, c, 2, 2, 2, /*acc_bits=*/32);
  EXPECT_EQ(c[0], 19);
  EXPECT_EQ(c[1], 22);
  EXPECT_EQ(c[2], 43);
  EXPECT_EQ(c[3], 50);
}

TEST(IntegerGemm, NarrowAccumulatorWraps) {
  // 1x1 gemm computing 100*2 = 200, wrapped in 8 bits -> -56.
  const std::int32_t a[] = {100};
  const std::int32_t b[] = {2};
  std::int64_t c[1];
  integer_gemm(a, b, c, 1, 1, 1, 8);
  EXPECT_EQ(c[0], wrap_accumulator(200, 8));
  EXPECT_EQ(c[0], -56);
}

class QuantBitsSweep : public testing::TestWithParam<int> {};

TEST_P(QuantBitsSweep, ValuesLandOnGrid) {
  const int bits = GetParam();
  const UniformRange r{-1.0f, 1.0f};
  const int levels = levels_for_bits(bits);
  const float step = (r.hi - r.lo) / static_cast<float>(levels - 1);
  for (float x = -1.3f; x <= 1.3f; x += 0.071f) {
    const float q = quantize_one(x, r, bits);
    const float k = (q - r.lo) / step;
    EXPECT_NEAR(k, std::round(k), 1e-4f) << "bits=" << bits << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBitWidths, QuantBitsSweep, testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace cq::quant
