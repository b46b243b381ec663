#include "deploy/backend.h"

#include <stdexcept>

#include "quant/uniform.h"

namespace cq::deploy {

void Backend::prepare(const ExecutionPlan&) {}

const char* Backend::dispatch(const PlanOp&) const { return name(); }

namespace {

/// The post-BN tail of the fused epilogue chain for one element, with
/// the stage set fixed at compile time so every combination compiles
/// to a branch-free inner loop (a distinct functor type per
/// combination keeps the call inlinable). Expressions are the
/// standalone Add / Relu ops' verbatim; the encode is
/// encode_activations_into's (quant::clip_to_grid, then
/// quant::round_to_grid), which already yields the integral float code
/// the consumer casts, so no int32 round-trip is needed and the loop
/// vectorizes.
template <bool kAdd, bool kRelu, bool kEncode>
struct EpilogueTail {
  float operator()(float v, float residual, float enc_hi, float to_code) const {
    if constexpr (kAdd) v = v + residual;
    if constexpr (kRelu) v = v > 0.0f ? v : 0.0f;
    if constexpr (kEncode) {
      v = quant::round_to_grid(quant::clip_to_grid(v, enc_hi) * to_code);
    }
    return v;
  }
};

/// Runs `body` with the epilogue tail instantiated for the op's
/// (add, relu, encode) flag combination.
template <typename Body>
void with_epilogue_tail(const PlanOp& op, Body&& body) {
  const int key = (op.ep_add ? 4 : 0) | (op.ep_relu ? 2 : 0) | (op.ep_encode ? 1 : 0);
  switch (key) {
    case 0: body(EpilogueTail<false, false, false>{}); break;
    case 1: body(EpilogueTail<false, false, true>{}); break;
    case 2: body(EpilogueTail<false, true, false>{}); break;
    case 3: body(EpilogueTail<false, true, true>{}); break;
    case 4: body(EpilogueTail<true, false, false>{}); break;
    case 5: body(EpilogueTail<true, false, true>{}); break;
    case 6: body(EpilogueTail<true, true, false>{}); break;
    default: body(EpilogueTail<true, true, true>{}); break;
  }
}

}  // namespace

void apply_epilogue(const PlanOp& op, const BackendIo& io,
                    std::size_t out_numel_per_sample) {
  if (!op.ep_bn && !op.ep_add && !op.ep_relu && !op.ep_encode) return;
  float* const out = io.out;
  const float* const in1 = io.in1;
  const auto batch = static_cast<std::size_t>(io.batch);
  const std::size_t total = out_numel_per_sample * batch;
  // ep_encode is the consumer-side encode (encode_activations_into)
  // hoisted into the producer: the resulting integer codes are exactly
  // what every in_codes consumer would have computed, stored as floats
  // (codes are <= 65535, exactly representable).
  const float enc_hi = op.out_hi;
  const float to_code =
      op.ep_encode
          ? static_cast<float>(quant::levels_for_bits(op.out_bits) - 1) / enc_hi
          : 0.0f;

  // One fused elementwise pass: each element runs the deleted
  // standalone ops' expressions in the standalone order
  // (BN -> Add -> Relu -> encode), in registers. Every stage maps
  // element i from element i alone, so folding the stages into a
  // single read-modify-write per element cannot change a bit versus
  // running each op as its own buffer pass.
  with_epilogue_tail(op, [&](auto tail) {
    if (op.ep_bn) {
      // Walked as [n][c] planes so the per-channel BN constants hoist
      // out of the inner loop; plane p = n * out_c + c starts at
      // p * spatial.
      const auto spatial =
          static_cast<std::int64_t>(op.out_h) * static_cast<std::int64_t>(op.out_w);
      const auto channels = static_cast<std::int64_t>(op.out_c);
      const float* const mean = op.bn_mean.data();
      const float* const inv_std = op.bn_inv_std.data();
      const float* const gamma = op.bn_gamma.data();
      const float* const beta = op.bn_beta.data();
      const std::int64_t planes = static_cast<std::int64_t>(batch) * channels;
      for (std::int64_t p = 0; p < planes; ++p) {
        const auto c = static_cast<std::size_t>(p % channels);
        const float m = mean[c];
        const float is = inv_std[c];
        const float g = gamma[c];
        const float b = beta[c];
        float* const dst = out + p * spatial;
        const float* const res = in1 != nullptr ? in1 + p * spatial : nullptr;
        for (std::int64_t s = 0; s < spatial; ++s) {
          const float xh = (dst[s] - m) * is;
          dst[s] = tail(g * xh + b, res != nullptr ? res[s] : 0.0f, enc_hi, to_code);
        }
      }
    } else {
      for (std::size_t i = 0; i < total; ++i) {
        out[i] = tail(out[i], in1 != nullptr ? in1[i] : 0.0f, enc_hi, to_code);
      }
    }
  });
}

std::size_t op_arena_bytes(const PlanOp& op, const ExecutionPlan& plan) {
  const auto slot_bytes = [&plan](int slot) -> std::size_t {
    if (slot < 0 || slot >= plan.slot_count()) return 0;
    return plan.slots()[static_cast<std::size_t>(slot)].numel * sizeof(float);
  };
  return slot_bytes(op.in0) + slot_bytes(op.in1) + slot_bytes(op.out);
}

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::Scalar:
      return "scalar";
    case BackendKind::Simd:
      return "simd";
  }
  return "?";
}

const std::vector<BackendKind>& all_backend_kinds() {
  static const std::vector<BackendKind> kinds = {BackendKind::Scalar,
                                                 BackendKind::Simd};
  return kinds;
}

namespace {

/// "scalar, simd" — the `known:` clause every selection error
/// carries so a typo'd --backend or a stale config names its options.
std::string known_backend_kinds() {
  std::string known;
  for (const BackendKind kind : all_backend_kinds()) {
    if (!known.empty()) known += ", ";
    known += backend_kind_name(kind);
  }
  return known;
}

}  // namespace

BackendKind parse_backend_kind(const std::string& name) {
  for (const BackendKind kind : all_backend_kinds()) {
    if (name == backend_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown backend '" + name +
                              "' (known: " + known_backend_kinds() + ")");
}

std::unique_ptr<Backend> make_backend(BackendKind kind) {
  switch (kind) {
    case BackendKind::Scalar:
      return std::make_unique<ScalarBackend>();
    case BackendKind::Simd:
      return std::make_unique<SimdBackend>();
  }
  throw std::invalid_argument("make_backend: unknown backend kind " +
                              std::to_string(static_cast<int>(kind)) +
                              " (known: " + known_backend_kinds() + ")");
}

}  // namespace cq::deploy
