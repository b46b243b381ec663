// plan_optimize — end-to-end A/B of the deploy::optimize_plan pass
// pipeline: for each integer zoo model, serve the same batches through
// two EngineSessions built from the same artifact — one at PlanOpt::kO0
// (plan as compiled) and one at PlanOpt::kO1 (epilogue fusion +
// quantized-domain propagation + arena re-planning) — verify the
// outputs are byte-identical (the passes' exactness contract), and
// time both.
//
// This is the perf-smoke CI lane's optimizer gate, in the
// kernel_scaling mold: the dev container is single-core, so CI runs
// this binary on a multi-core runner and asserts the end-to-end win it
// observes, e.g.
//
//   plan_optimize --json=plan_optimize.json --assert-case=ResNet20
//                 --assert-speedup=1.15
//
// Exit codes: 0 ok, 1 assertion failed, 2 optimized output not
// byte-identical to the unoptimized plan's.
//
// Other knobs: --backend=scalar|simd (kernel backend for both
// sessions, default deploy::kDefaultBackend), --threads=N (threads each
// session splits its batch over), --batch=N (samples per run),
// --repeat=N (timed runs per session; best-of reported).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "deploy/backend.h"
#include "nn/models/mlp.h"
#include "nn/models/resnet20.h"
#include "nn/models/vgg_small.h"
#include "serve_fixtures.h"
#include "serve/engine_session.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace cq;

struct Result {
  std::string name;
  std::size_t ops_o0 = 0;
  std::size_t ops_o1 = 0;
  double o0_ms = 0.0;  ///< best-of run time, plan as compiled
  double o1_ms = 0.0;  ///< best-of run time, optimized plan
  double speedup() const { return o1_ms > 0.0 ? o0_ms / o1_ms : 0.0; }
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int repeat = static_cast<int>(cli.get_int("repeat", 20));
  const int batch = static_cast<int>(cli.get_int("batch", 4));
  const int threads = static_cast<int>(cli.get_int("threads", 1));
  const std::string json_path = cli.get("json", "");
  const std::string assert_case = cli.get("assert-case", "");
  const double assert_speedup = cli.get_double("assert-speedup", 0.0);
  deploy::BackendKind backend_kind;
  try {
    backend_kind = deploy::parse_backend_kind(
        cli.get("backend", deploy::backend_kind_name(deploy::kDefaultBackend)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plan_optimize: %s\n", e.what());
    return 1;
  }
  if (repeat < 1 || batch < 1 || threads < 1) {
    std::fprintf(stderr, "plan_optimize: --repeat/--batch/--threads must be >= 1\n");
    return 1;
  }

  // The caller participates in its own parallel_for, so a pool of
  // threads - 1 helpers gives `threads` threads per forward.
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads - 1);
  const util::ExecContext exec{pool.get(), threads};

  // Default-size zoo models (same fabrication as bench/plan_compile),
  // so the A/B covers representative integer layer shapes.
  struct Model {
    std::string name;
    deploy::QuantizedArtifact artifact;
    tensor::Shape sample;
  };
  std::vector<Model> models;
  {
    const nn::MlpConfig cfg;
    nn::Mlp mlp(cfg);
    models.push_back({"Mlp", serve::fabricate_artifact(mlp, {cfg.in_features}, 3, 3),
                      {cfg.in_features}});
  }
  {
    const nn::VggSmallConfig cfg;
    nn::VggSmall vgg(cfg);
    const tensor::Shape in = {cfg.in_channels, cfg.image_size, cfg.image_size};
    models.push_back({"VggSmall", serve::fabricate_artifact(vgg, in, 3, 5), in});
  }
  {
    const nn::ResNet20Config cfg;
    nn::ResNet20 resnet(cfg);
    const tensor::Shape in = {cfg.in_channels, cfg.image_size, cfg.image_size};
    models.push_back({"ResNet20", serve::fabricate_artifact(resnet, in, 3, 7), in});
  }

  std::vector<Result> results;
  for (const Model& m : models) {
    serve::EngineSession o0(m.artifact, 1, exec, deploy::make_backend(backend_kind),
                            serve::PlanCheck::kNone, serve::PlanOpt::kO0);
    serve::EngineSession o1(m.artifact, 1, exec, deploy::make_backend(backend_kind),
                            serve::PlanCheck::kNone, serve::PlanOpt::kO1);
    const tensor::Tensor input = serve::random_batch(m.sample, batch, 23);

    // Warm both sessions (arena growth stays out of the timed window)
    // and prove the passes' exactness contract on this input.
    const tensor::Tensor ref = o0.run(input);
    const tensor::Tensor opt = o1.run(input);
    if (ref.numel() != opt.numel() ||
        std::memcmp(ref.data(), opt.data(), ref.numel() * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "plan_optimize: %s optimized output is NOT byte-identical "
                   "to the unoptimized plan\n",
                   m.name.c_str());
      return 2;
    }

    Result r;
    r.name = m.name;
    r.ops_o0 = o0.plan().ops().size();
    r.ops_o1 = o1.plan().ops().size();
    for (int i = 0; i < repeat; ++i) {
      util::Timer timer;
      o0.run(input);
      const double ms = timer.millis();
      if (i == 0 || ms < r.o0_ms) r.o0_ms = ms;
    }
    for (int i = 0; i < repeat; ++i) {
      util::Timer timer;
      o1.run(input);
      const double ms = timer.millis();
      if (i == 0 || ms < r.o1_ms) r.o1_ms = ms;
    }
    results.push_back(std::move(r));
  }

  util::Table table({"model", "ops", "O0 ms", "O1 ms", "speedup"});
  for (const Result& r : results) {
    table.add_row({r.name, std::to_string(r.ops_o0) + " -> " + std::to_string(r.ops_o1),
                   util::Table::num(r.o0_ms, 3), util::Table::num(r.o1_ms, 3),
                   util::Table::num(r.speedup(), 2)});
  }
  std::printf("optimized vs unoptimized end-to-end (backend %s, batch %d, "
              "%d threads, best of %d)\n%s\n",
              deploy::backend_kind_name(backend_kind), batch, threads, repeat,
              table.render().c_str());

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "plan_optimize: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"backend\": \"%s\",\n  \"batch\": %d,\n  \"threads\": %d,\n"
                 "  \"repeat\": %d,\n  \"models\": [\n",
                 deploy::backend_kind_name(backend_kind), batch, threads, repeat);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"ops_o0\": %zu, \"ops_o1\": %zu, "
                   "\"o0_ms\": %.4f, \"o1_ms\": %.4f, \"speedup\": %.3f}%s\n",
                   r.name.c_str(), r.ops_o0, r.ops_o1, r.o0_ms, r.o1_ms, r.speedup(),
                   i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (assert_speedup > 0.0) {
    bool measured = false;
    bool failed = false;
    for (const Result& r : results) {
      if (r.name != assert_case) continue;
      measured = true;
      const bool ok = r.speedup() >= assert_speedup;
      std::fprintf(stderr,
                   "assert: %s optimized vs unoptimized: %.2fx (need >= %.2fx) "
                   "— %s\n",
                   assert_case.c_str(), r.speedup(), assert_speedup,
                   ok ? "PASS" : "FAIL");
      failed = failed || !ok;
    }
    if (!measured) {
      std::fprintf(stderr, "assert: case '%s' not measured\n", assert_case.c_str());
      failed = true;
    }
    if (failed) return 1;
  }
  return 0;
}
