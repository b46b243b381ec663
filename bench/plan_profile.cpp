// plan_profile — per-op execution profiles for the three zoo models on
// every kernel backend, via obs::PlanProfiler attached to a serving
// EngineSession. Reports where the interpreter's wall time goes (per
// op kind and per layer) and how much of the end-to-end run the
// profiler attributes to ops — the coverage figure the perf-smoke CI
// lane gates on, so a hole in the interpreter's tracing (an op that
// stops being timed) fails the build rather than silently skewing
// every profile after it.
//
// Usage: plan_profile [--fast] [--repeat=N] [--batch=N]
//                     [--json=path] [--assert_coverage=F]
//   --repeat           profiled runs per model x backend (default 16,
//                      --fast drops it to 4)
//   --batch            samples per run (default 8)
//   --json             machine-readable per-op profiles for the CI artifact
//                      (wall_ms / attributed_ms are totals over all
//                      `runs`; the table prints them per run)
//   --assert_coverage  fail (exit 1) when attributed_ms / wall_ms falls
//                      below F for any model x backend (e.g. 0.9)

#include <cstdio>
#include <string>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/backend.h"
#include "nn/models/mlp.h"
#include "nn/models/resnet20.h"
#include "nn/models/vgg_small.h"
#include "obs/profiler.h"
#include "serve/engine_session.h"
#include "serve_fixtures.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace cq;

struct Result {
  std::string model;
  std::string backend;
  double wall_ms = 0.0;        ///< end-to-end run() wall time, summed over runs
  double attributed_ms = 0.0;  ///< profiler total across all ops and runs
  double coverage = 0.0;       ///< attributed_ms / wall_ms
  obs::ProfileReport report;
};

Result profile(const std::string& model, const deploy::QuantizedArtifact& artifact,
               deploy::BackendKind kind, int repeat, int batch) {
  Result r;
  r.model = model;
  r.backend = deploy::backend_kind_name(kind);
  serve::EngineSession session(artifact, 1, {}, deploy::make_backend(kind));
  const tensor::Tensor input = serve::random_batch(session.sample_shape(), batch, 29);
  session.run(input);  // warm: arena growth + caches stay out of the window

  obs::PlanProfiler profiler(session.plan(), &session.backend());
  session.set_trace_sink(&profiler);
  util::Timer timer;
  for (int i = 0; i < repeat; ++i) session.run(input);
  r.wall_ms = timer.millis();
  session.set_trace_sink(nullptr);

  r.report = profiler.report();
  r.attributed_ms = r.report.total_ms;
  r.coverage = r.wall_ms > 0.0 ? r.attributed_ms / r.wall_ms : 0.0;
  return r;
}

/// Kind aggregate with the largest time share ("where does it go").
const obs::ProfileAggregate* top_kind(const obs::ProfileReport& report) {
  const obs::ProfileAggregate* top = nullptr;
  for (const obs::ProfileAggregate& agg : report.by_kind) {
    if (top == nullptr || agg.total_ms > top->total_ms) top = &agg;
  }
  return top;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool fast = cli.get_bool("fast", false);
  const int repeat = static_cast<int>(cli.get_int("repeat", fast ? 4 : 16));
  const int batch = static_cast<int>(cli.get_int("batch", 8));
  const double min_coverage = cli.get_double("assert_coverage", 0.0);
  if (repeat < 1 || batch < 1) {
    std::fprintf(stderr, "plan_profile: repeat/batch must be >= 1\n");
    return 2;
  }

  // Default-size zoo models (same fabrication as bench/plan_compile):
  // ops run tens of microseconds and up, so the two steady_clock reads
  // the tracing loop adds per op are noise next to the work they time.
  struct Zoo {
    std::string name;
    deploy::QuantizedArtifact artifact;
  };
  std::vector<Zoo> zoo;
  {
    const nn::MlpConfig cfg;
    nn::Mlp mlp(cfg);
    zoo.push_back({"Mlp", serve::fabricate_artifact(mlp, {cfg.in_features}, 3, 3)});
  }
  {
    const nn::VggSmallConfig cfg;
    nn::VggSmall vgg(cfg);
    zoo.push_back({"VggSmall",
                   serve::fabricate_artifact(
                       vgg, {cfg.in_channels, cfg.image_size, cfg.image_size}, 3, 5)});
  }
  {
    const nn::ResNet20Config cfg;
    nn::ResNet20 resnet(cfg);
    zoo.push_back(
        {"ResNet20",
         serve::fabricate_artifact(
             resnet, {cfg.in_channels, cfg.image_size, cfg.image_size}, 3, 7)});
  }

  std::vector<Result> results;
  for (const Zoo& entry : zoo) {
    for (const deploy::BackendKind kind : deploy::all_backend_kinds()) {
      results.push_back(profile(entry.name, entry.artifact, kind, repeat, batch));
    }
  }

  util::Table table({"model", "backend", "wall ms/run", "attributed ms/run",
                     "coverage", "top kind", "kind share"});
  bool covered = true;
  for (const Result& r : results) {
    const obs::ProfileAggregate* top = top_kind(r.report);
    table.add_row({r.model, r.backend, util::Table::num(r.wall_ms / repeat, 3),
                   util::Table::num(r.attributed_ms / repeat, 3),
                   util::Table::num(100.0 * r.coverage, 1) + "%",
                   top != nullptr ? top->key : "-",
                   top != nullptr ? util::Table::num(100.0 * top->share, 1) + "%"
                                  : "-"});
    covered = covered && (min_coverage <= 0.0 || r.coverage >= min_coverage);
  }
  std::printf("per-op plan profiles, batch %d, %d runs per cell\n%s\n", batch, repeat,
              table.render().c_str());

  const std::string json_path = cli.get("json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "plan_profile: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"batch\": %d,\n  \"runs\": %d,\n  \"profiles\": [\n", batch,
                 repeat);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(f,
                   "    {\"model\": \"%s\", \"backend\": \"%s\", \"wall_ms\": %.4f, "
                   "\"attributed_ms\": %.4f, \"coverage\": %.4f, \"profile\": %s}%s\n",
                   r.model.c_str(), r.backend.c_str(), r.wall_ms, r.attributed_ms,
                   r.coverage, r.report.to_json().c_str(),
                   i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!covered) {
    std::fprintf(stderr,
                 "plan_profile: profiler coverage fell below %.2f for at least one "
                 "model x backend (see table) — the interpreter is executing ops "
                 "outside the traced loop\n",
                 min_coverage);
    return 1;
  }
  return 0;
}
