// cqbench: the end-to-end benchmark program (run it through run.py).
//
//   cqbench --workload=serve|session --seed=N --seconds=S
//           --trace=0|1 [--out_dir=DIR] [--git_rev=REV] [--source_digest=HEX]
//           [--corrupt_reference]
//
// Makes every input from the seed, prints a run record, runs the
// workload, and prints the result as the last stdout line. Exits 3 when
// any output differs from the scalar reference, 1 on any other failure.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "deploy/artifact.h"
#include "deploy/cpu_features.h"
#include "serve/engine_session.h"
#include "util/cli.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Inputs per model in the pool every workload draws from.
constexpr int kPoolSize = 64;

const std::vector<std::pair<std::string, Traffic>>& workloads() {
  static const std::vector<std::pair<std::string, Traffic>> table = {
      {"serve", {"mlp", 2000, 400000}},
      {"session", {"resnet20", 0, 0}},
  };
  return table;
}

std::string run_record(const Options& options, const cq::util::Cli& cli,
                       const std::vector<ModelInputs>& models) {
  const std::string build_type = CQBENCH_BUILD_TYPE;
  // The backend a default-constructed session resolves to.
  const cq::serve::EngineSession probe(
      cq::deploy::load_artifact(find_model(models, "mlp").path));
  std::string record = "{\"run_record\": {";
  record += "\"workload\": " + json_string(options.workload);
  record += ", \"seed\": " + std::to_string(options.seed);
  record += ", \"seconds\": " + std::to_string(options.seconds);
  record += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  record += ", \"git_rev\": " + json_string(cli.get("git_rev", "unknown"));
  record += ", \"source_digest\": " + json_string(cli.get("source_digest", "unknown"));
  record += ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  record += ", \"cpu\": " + cq::deploy::cpu_features_json();
  record += ", \"build_type\": " + json_string(build_type);
  record += ", \"release_build\": " + std::string(build_type == "Release" ? "true" : "false");
  record += ", \"session_backend\": " + json_string(probe.backend().name());
  record += "}}";
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: WARNING: %s build, not Release; timings are not comparable\n",
                 build_type.c_str());
  }
  return record;
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

int run(int argc, char** argv) {
  const cq::util::Cli cli(argc, argv);
  Options options;
  options.workload = cli.get("workload", "");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  options.seconds = cli.get_double("seconds", 10);
  options.trace = cli.get_int("trace", 0) == 1;
  options.daemon = CQBENCH_DAEMON;
  options.spans_path = cli.get("spans", "");
  traffic_for(options.workload);  // throws on an unknown workload
  if (options.seconds <= 0) throw std::invalid_argument("perfbench: --seconds must be > 0");
  if (cli.has("session_child")) return run_session_child(options, cli.get("session_child", ""));

  const std::string out_dir = cli.get("out_dir", ".bench_build/perfbench/out");
  ScratchDir scratch{out_dir + "/work-" + options.workload + "-" + std::to_string(::getpid())};
  std::filesystem::create_directories(scratch.path);
  options.work_dir = scratch.path;
  options.spans_path = out_dir + "/spans-" + options.workload + "-seed" +
                       std::to_string(options.seed) + ".json";

  std::vector<ModelInputs> models = make_inputs(options.seed, options.work_dir, kPoolSize);
  if (cli.get_bool("corrupt_reference", false)) {
    // The first model the workload byte-checks; its warm-up trips.
    for (ModelInputs& m : models) {
      if (m.name == traffic_for(options.workload).model) corrupt_reference(m);
    }
  }
  std::printf("%s\n", run_record(options, cli, models).c_str());

  if (options.workload == "session") {
    return run_session_parent(options, models, "/proc/self/exe");
  }
  Report report;
  run_serve(options, models, report);
  report.print_result();
  return report.correct() ? 0 : 3;
}

}  // namespace

const Traffic& traffic_for(const std::string& workload) {
  for (const auto& [name, traffic] : workloads()) {
    if (name == workload) return traffic;
  }
  throw std::invalid_argument("perfbench: unknown workload '" + workload +
                              "' (serve, session)");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
