// Kernel and session scaling harness. Kernel cases time the integer
// and float kernels serially — for each backend in --backends — and
// verify every simd run is byte-identical to the scalar reference. The
// session case runs default-size VggSmall at batch 8 (PlanOpt::kO1)
// through an EngineSession at each --threads count, byte-checked
// against its serial run: the session splits the batch into one chunk
// per thread, the only place the engine uses threads. Emits
// machine-readable JSON for the CI perf lane.
//
// The perf-smoke CI job runs this binary on a multi-core runner and
// asserts the speedups it observes, e.g.
//
//   kernel_scaling --backends=simd --json=kernel_scaling.json
//                  --assert-case=session_vgg_small_b8@simd
//                  --assert-threads=4 --assert-speedup=1.5
//
// --assert-speedup gates thread scaling of the named session case.
// --assert-simd-speedup / --assert-simd-portable-speedup gate the simd
// backend's win over the scalar kernels on the same case at
// --assert-threads (requires both backends in the sweep): the binary
// applies the first on runners whose resolved SIMD tier is avx2 and
// the second elsewhere, so one CI command line gates every runner at
// the bar its ISA can meet. Exit codes: 0 ok, 1 assertion failed, 2
// output mismatch vs the reference.
//
// Other knobs: --threads=1,2,4 (session thread counts), --repeat=N
// (timed runs per point; best-of is reported to shed scheduler noise),
// --backends=scalar,simd (backends to sweep; simd cases are named
// <case>@simd and always verified byte-identical against scalar
// before timing). The JSON carries a "cpu" object (CPUID features +
// the resolved SIMD tier) so perf artifacts say what machine produced
// them.

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "deploy/backend.h"
#include "deploy/int_engine.h"
#include "nn/models/vgg_small.h"
#include "serve/engine_session.h"
#include "serve_fixtures.h"
#include "tensor/ops.h"
#include "util/cli.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace cq;

/// One timed case: run(threads) executes it and returns the output
/// bytes for the byte-identity check. Kernel cases are serial and
/// ignore `threads`; the session case (`threaded`) is swept over
/// --threads. `ref` (when set) produces the reference those bytes
/// must equal — simd cases point it at the scalar run, so every simd
/// measurement doubles as a cross-backend identity check; scalar
/// cases default to their own serial run.
struct Case {
  std::string name;
  std::string desc;
  std::string backend = "scalar";
  long long work_macs = 0;  ///< 0 = not counted (the session case)
  std::function<std::vector<float>(int threads)> run;
  std::function<std::vector<float>()> ref;
  bool threaded = false;
};

/// EngineSessions over one shared plan, one per thread count, each
/// with its own pool (threads - 1 helpers; the caller participates).
/// Built on first use, so a sweep pays only for the counts it lists.
struct SessionSweep {
  std::shared_ptr<const deploy::ExecutionPlan> plan;
  deploy::BackendKind kind = deploy::kDefaultBackend;
  tensor::Tensor input;
  struct Lane {
    std::unique_ptr<util::ThreadPool> pool;
    std::unique_ptr<serve::EngineSession> session;
  };
  std::map<int, Lane> lanes;

  std::vector<float> run(int threads) {
    Lane& lane = lanes[threads];
    if (lane.session == nullptr) {
      if (threads > 1) lane.pool = std::make_unique<util::ThreadPool>(threads - 1);
      lane.session = std::make_unique<serve::EngineSession>(
          plan, 1, util::ExecContext{lane.pool.get(), threads},
          deploy::make_backend(kind));
    }
    const tensor::Tensor out = lane.session->run(input);
    return std::vector<float>(out.data(), out.data() + out.numel());
  }
};

/// Synthetic IntegerLayer with a mixed bit pattern (pruned filters
/// included) and dense random codes — the shape CQ deployments have.
deploy::IntegerLayer fabricate_integer_layer(int num_filters, std::int64_t per_filter,
                                             util::Rng& rng) {
  deploy::IntegerLayer layer;
  layer.num_filters = num_filters;
  layer.weights_per_filter = per_filter;
  layer.range_hi = 0.9f;
  const int pattern[8] = {2, 3, 2, 1, 4, 2, 0, 2};
  layer.filter_bits.resize(static_cast<std::size_t>(num_filters));
  layer.codes.assign(static_cast<std::size_t>(num_filters) * per_filter, 0);
  layer.bias.resize(static_cast<std::size_t>(num_filters));
  for (int k = 0; k < num_filters; ++k) {
    const int b = pattern[k % 8];
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

deploy::ActCodes fabricate_act_codes(std::size_t count, int bits, util::Rng& rng) {
  deploy::ActCodes acts;
  acts.bits = bits;
  const int levels = 1 << bits;
  acts.scale = 1.0f / static_cast<float>(levels - 1);
  acts.codes.resize(count);
  for (std::int32_t& c : acts.codes) {
    c = static_cast<std::int32_t>(rng.uniform_int(0, levels - 1));
  }
  return acts;
}

std::vector<std::string> parse_list(const std::string& list) {
  std::vector<std::string> out;
  std::string token;
  for (const char c : list + ",") {
    if (c == ',') {
      if (!token.empty()) out.push_back(token);
      token.clear();
    } else {
      token += c;
    }
  }
  return out;
}

bool contains(const std::vector<std::string>& list, const std::string& value) {
  for (const std::string& v : list) {
    if (v == value) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  std::vector<int> thread_counts;
  for (const std::string& t : parse_list(cli.get("threads", "1,2,4"))) {
    thread_counts.push_back(std::stoi(t));
  }
  const std::vector<std::string> backends =
      parse_list(cli.get("backends", "scalar,simd"));
  for (const std::string& b : backends) {
    deploy::parse_backend_kind(b);  // fail fast on typos, naming the options
  }
  const int repeat = static_cast<int>(cli.get_int("repeat", 5));
  const std::string json_path = cli.get("json", "");
  const std::string assert_case = cli.get("assert-case", "");
  const int assert_threads = static_cast<int>(cli.get_int("assert-threads", 4));
  const double assert_speedup = cli.get_double("assert-speedup", 0.0);
  const double assert_simd_speedup = cli.get_double("assert-simd-speedup", 0.0);
  const double assert_simd_portable_speedup =
      cli.get_double("assert-simd-portable-speedup", 0.0);
  const bool want_scalar = contains(backends, "scalar");
  // The simd cases run at the tier this machine resolves (CPUID +
  // CQ_SIMD); tier scalar means the explicit kernels are disabled, so
  // the cases would only throw — skip them and say so.
  const deploy::SimdTier simd_tier = deploy::resolve_simd_tier();
  const bool want_simd =
      contains(backends, "simd") && simd_tier != deploy::SimdTier::kScalar;
  if (contains(backends, "simd") && !want_simd) {
    std::fprintf(stderr,
                 "kernel_scaling: simd backend requested but the resolved tier "
                 "is 'scalar' (CQ_SIMD=off?) — skipping @simd cases\n");
  }

  util::Rng rng(42);
  std::vector<Case> cases;

  /// Registers a scalar case plus (per --backends) its simd twin over
  /// the same inputs; the twin is byte-verified against the scalar
  /// serial run before any timing.
  const auto add_case = [&](const std::string& name, const std::string& desc,
                            long long macs, bool threaded,
                            std::function<std::vector<float>(int)> scalar_run,
                            std::function<std::vector<float>(int)> simd_run) {
    if (want_scalar) {
      cases.push_back({name, desc, "scalar", macs, scalar_run, {}, threaded});
    }
    if (want_simd) {
      cases.push_back({name + "@simd",
                       desc + " (simd backend, " +
                           std::string(deploy::simd_tier_name(simd_tier)) + " tier)",
                       "simd", macs, simd_run, [scalar_run] { return scalar_run(1); },
                       threaded});
    }
  };
  /// A serial kernel case: its runs ignore the thread count.
  const auto add_integer_case = [&](const std::string& name, const std::string& desc,
                                    long long macs,
                                    std::function<std::vector<float>()> scalar_run,
                                    std::function<std::vector<float>()> simd_run) {
    add_case(name, desc, macs, false, [scalar_run](int) { return scalar_run(); },
             [simd_run](int) { return simd_run(); });
  };

  // The session case of the thread-scaling gate: default-size VggSmall,
  // batch 8, optimized plan, one session per thread count.
  {
    const nn::VggSmallConfig cfg;
    nn::VggSmall vgg(cfg);
    const tensor::Shape in = {cfg.in_channels, cfg.image_size, cfg.image_size};
    const auto plan = std::make_shared<const deploy::ExecutionPlan>(
        serve::compile_session_plan(serve::fabricate_artifact(vgg, in, 3, 5),
                                    serve::PlanOpt::kO1));
    const tensor::Tensor input = serve::random_batch(in, 8, 23);
    const auto sweep = [&](deploy::BackendKind kind) {
      auto s = std::make_shared<SessionSweep>();
      s->plan = plan;
      s->kind = kind;
      s->input = input;
      return [s](int threads) { return s->run(threads); };
    };
    add_case("session_vgg_small_b8",
             "EngineSession VggSmall (default size), batch 8, kO1", 0, true,
             sweep(deploy::BackendKind::Scalar), sweep(deploy::BackendKind::Simd));
  }

  // The "large-layer case" of the perf-smoke assertions: one image
  // through a VGG-middle-sized conv, ~75M MACs.
  {
    const int in_c = 64, hw = 32, filters = 128, kernel = 3, batch = 1;
    const std::int64_t per_filter = static_cast<std::int64_t>(in_c) * kernel * kernel;
    auto layer = std::make_shared<deploy::IntegerLayer>(
        fabricate_integer_layer(filters, per_filter, rng));
    auto spacked = std::make_shared<deploy::simd::PackedSimd>(
        deploy::simd::pack_simd(*layer));
    auto acts = std::make_shared<deploy::ActCodes>(fabricate_act_codes(
        static_cast<std::size_t>(batch) * in_c * hw * hw, 3, rng));
    add_integer_case(
        "integer_conv_large", "integer conv 64x32x32 -> 128 filters, 3x3",
        2LL * batch * filters * per_filter * hw * hw,
        [=] {
          tensor::Tensor out = deploy::integer_conv_forward(
              *layer, *acts, batch, in_c, hw, hw, kernel, 1, 1);
          return std::vector<float>(out.data(), out.data() + out.numel());
        },
        [=] {
          std::vector<float> out(static_cast<std::size_t>(batch) * filters * hw * hw);
          std::vector<std::int32_t> cols;
          std::vector<std::int16_t> cols16;
          std::vector<std::uint8_t> cols8;
          deploy::simd::conv_forward_into(simd_tier, *spacked, *acts, batch, in_c,
                                          hw, hw, kernel, 1, 1, out.data(), cols,
                                          cols16, cols8);
          return out;
        });
  }

  // Small conv: shows where tiling overhead eats the win.
  {
    const int in_c = 8, hw = 16, filters = 16, kernel = 3, batch = 1;
    const std::int64_t per_filter = static_cast<std::int64_t>(in_c) * kernel * kernel;
    auto layer = std::make_shared<deploy::IntegerLayer>(
        fabricate_integer_layer(filters, per_filter, rng));
    auto spacked = std::make_shared<deploy::simd::PackedSimd>(
        deploy::simd::pack_simd(*layer));
    auto acts = std::make_shared<deploy::ActCodes>(fabricate_act_codes(
        static_cast<std::size_t>(batch) * in_c * hw * hw, 3, rng));
    add_integer_case(
        "integer_conv_small", "integer conv 8x16x16 -> 16 filters, 3x3",
        2LL * batch * filters * per_filter * hw * hw,
        [=] {
          tensor::Tensor out = deploy::integer_conv_forward(
              *layer, *acts, batch, in_c, hw, hw, kernel, 1, 1);
          return std::vector<float>(out.data(), out.data() + out.numel());
        },
        [=] {
          std::vector<float> out(static_cast<std::size_t>(batch) * filters * hw * hw);
          std::vector<std::int32_t> cols;
          std::vector<std::int16_t> cols16;
          std::vector<std::uint8_t> cols8;
          deploy::simd::conv_forward_into(simd_tier, *spacked, *acts, batch, in_c,
                                          hw, hw, kernel, 1, 1, out.data(), cols,
                                          cols16, cols8);
          return out;
        });
  }

  // Integer FC layer.
  {
    const int in_features = 1024, filters = 1024, batch = 16;
    auto layer = std::make_shared<deploy::IntegerLayer>(
        fabricate_integer_layer(filters, in_features, rng));
    auto spacked = std::make_shared<deploy::simd::PackedSimd>(
        deploy::simd::pack_simd(*layer));
    auto acts = std::make_shared<deploy::ActCodes>(fabricate_act_codes(
        static_cast<std::size_t>(batch) * in_features, 4, rng));
    add_integer_case(
        "integer_linear_large", "integer linear 16x1024 -> 1024",
        2LL * batch * in_features * filters,
        [=] {
          tensor::Tensor out =
              deploy::integer_linear_forward(*layer, *acts, batch, in_features);
          return std::vector<float>(out.data(), out.data() + out.numel());
        },
        [=] {
          std::vector<float> out(static_cast<std::size_t>(batch) * filters);
          std::vector<std::int16_t> acts16;
          std::vector<std::uint8_t> acts8;
          deploy::simd::linear_forward_into(simd_tier, *spacked, *acts, batch,
                                            in_features, out.data(), acts16, acts8);
          return out;
        });
  }

  // Float GEMM — the training-side im2col+GEMM path (backends only
  // differ on integer ops, so this is scalar-only).
  if (want_scalar) {
    const int m = 256, k = 256, n = 256;
    util::Rng gemm_rng(7);
    auto a = std::make_shared<tensor::Tensor>(
        tensor::Tensor::randn({m, k}, gemm_rng));
    auto b = std::make_shared<tensor::Tensor>(
        tensor::Tensor::randn({k, n}, gemm_rng));
    cases.push_back({"gemm_float_256", "tensor::gemm 256x256x256", "scalar",
                     2LL * m * k * n,
                     [=](int) {
                       std::vector<float> c(static_cast<std::size_t>(m) * n);
                       tensor::gemm(a->data(), b->data(), c.data(), m, k, n);
                       return c;
                     },
                     {}});
  }

  struct Point {
    int threads = 0;
    double best_ms = 0.0;
    double speedup = 1.0;
  };
  struct CaseResult {
    const Case* c = nullptr;
    std::vector<Point> points;
  };
  std::vector<CaseResult> results;

  for (const Case& c : cases) {
    CaseResult result;
    result.c = &c;
    // Identity reference: the case's own serial run, or — for simd
    // cases — the scalar serial run (the byte-identity contract every
    // backend is held to).
    const std::vector<float> reference = c.ref ? c.ref() : c.run(1);
    const auto matches = [&reference](const std::vector<float>& out) {
      return out.size() == reference.size() &&
             std::memcmp(out.data(), reference.data(),
                         reference.size() * sizeof(float)) == 0;
    };
    // The speedup baseline is always the strictly serial run, whatever
    // --threads lists — otherwise omitting 1 would silently rebase the
    // asserted speedup on a threaded time. Scalar cases are already
    // warm from the reference run; simd cases warm (and verify) their
    // own run.
    if (c.ref && !matches(c.run(1))) {
      std::fprintf(stderr,
                   "kernel_scaling: %s is NOT byte-identical to the scalar serial "
                   "reference\n",
                   c.name.c_str());
      return 2;
    }
    double base_ms = 0.0;
    for (int r = 0; r < repeat; ++r) {
      util::Timer timer;
      c.run(1);
      const double ms = timer.millis();
      if (r == 0 || ms < base_ms) base_ms = ms;
    }
    // Kernels are serial: their one point is the baseline itself.
    if (!c.threaded) result.points.push_back({1, base_ms, 1.0});
    for (const int t : c.threaded ? thread_counts : std::vector<int>{}) {
      if (!matches(c.run(t))) {  // warm + verify
        std::fprintf(stderr,
                     "kernel_scaling: %s at %d threads is NOT byte-identical "
                     "to the serial reference\n",
                     c.name.c_str(), t);
        return 2;
      }

      double best = 0.0;
      for (int r = 0; r < repeat; ++r) {
        util::Timer timer;
        c.run(t);
        const double ms = timer.millis();
        if (r == 0 || ms < best) best = ms;
      }
      result.points.push_back({t, best, base_ms > 0.0 ? base_ms / best : 1.0});
    }
    results.push_back(std::move(result));
  }

  // Human-readable report.
  for (const CaseResult& r : results) {
    util::Table table({"threads", "best ms", "speedup", "GMAC/s"});
    for (const Point& p : r.points) {
      table.add_row({std::to_string(p.threads), util::Table::num(p.best_ms, 3),
                     util::Table::num(p.speedup, 2),
                     r.c->work_macs > 0
                         ? util::Table::num(static_cast<double>(r.c->work_macs) /
                                                (p.best_ms * 1e6),
                                            2)
                         : std::string("-")});
    }
    std::printf("%s — %s\n%s\n", r.c->name.c_str(), r.c->desc.c_str(),
                table.render().c_str());
  }
  std::printf("hardware threads: %u, repeat: %d (best-of)\n",
              std::thread::hardware_concurrency(), repeat);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "kernel_scaling: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"hardware_threads\": %u,\n  \"repeat\": %d,\n"
                 "  \"cpu\": %s,\n  \"cases\": [\n",
                 std::thread::hardware_concurrency(), repeat,
                 deploy::cpu_features_json().c_str());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"desc\": \"%s\", \"backend\": \"%s\", "
                   "\"work_macs\": %lld,\n"
                   "     \"results\": [",
                   r.c->name.c_str(), r.c->desc.c_str(), r.c->backend.c_str(),
                   r.c->work_macs);
      for (std::size_t j = 0; j < r.points.size(); ++j) {
        const Point& p = r.points[j];
        std::fprintf(f, "%s{\"threads\": %d, \"best_ms\": %.4f, \"speedup\": %.3f}",
                     j == 0 ? "" : ", ", p.threads, p.best_ms, p.speedup);
      }
      std::fprintf(f, "]}%s\n", i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  const auto best_ms_at = [&results](const std::string& name, int threads,
                                     double* out) {
    for (const CaseResult& r : results) {
      if (r.c->name != name) continue;
      for (const Point& p : r.points) {
        if (p.threads != threads) continue;
        *out = p.best_ms;
        return true;
      }
    }
    return false;
  };

  bool failed = false;
  if (assert_speedup > 0.0) {
    bool measured = false;
    for (const CaseResult& r : results) {
      if (r.c->name != assert_case) continue;
      for (const Point& p : r.points) {
        if (p.threads != assert_threads) continue;
        measured = true;
        const bool ok = p.speedup >= assert_speedup;
        std::fprintf(stderr, "assert: %s at %d threads: %.2fx (need >= %.2fx) — %s\n",
                     assert_case.c_str(), assert_threads, p.speedup, assert_speedup,
                     ok ? "PASS" : "FAIL");
        failed = failed || !ok;
      }
    }
    if (!measured) {
      std::fprintf(stderr, "assert: case '%s' with %d threads not measured\n",
                   assert_case.c_str(), assert_threads);
      failed = true;
    }
  }
  if (assert_simd_speedup > 0.0 || assert_simd_portable_speedup > 0.0) {
    // One command line, every runner: the avx2 gate applies where the
    // intrinsic kernels resolved, the (lower) portable gate elsewhere.
    // A gate of 0 for the resolved tier means "not asserted here".
    const bool avx2 = simd_tier == deploy::SimdTier::kAvx2;
    const double need = avx2 ? assert_simd_speedup : assert_simd_portable_speedup;
    double scalar_ms = 0.0, simd_ms = 0.0;
    if (need <= 0.0) {
      std::fprintf(stderr, "assert: no simd gate configured for tier '%s' — skipped\n",
                   deploy::simd_tier_name(simd_tier));
    } else if (!best_ms_at(assert_case, assert_threads, &scalar_ms) ||
               !best_ms_at(assert_case + "@simd", assert_threads, &simd_ms)) {
      std::fprintf(stderr,
                   "assert: simd comparison needs '%s' under scalar and simd at "
                   "%d threads (run with --backends=scalar,simd)\n",
                   assert_case.c_str(), assert_threads);
      failed = true;
    } else {
      const double ratio = simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0;
      const bool ok = ratio >= need;
      std::fprintf(stderr,
                   "assert: %s simd (%s tier) vs scalar at %d threads: %.2fx "
                   "(need >= %.2fx) — %s\n",
                   assert_case.c_str(), deploy::simd_tier_name(simd_tier),
                   assert_threads, ratio, need, ok ? "PASS" : "FAIL");
      failed = failed || !ok;
    }
  }
  return failed ? 1 : 0;
}
