// cq_serve — multi-model network serving daemon.
//
// Hosts any number of .cqar artifacts in one serve::ModelRegistry
// (each compiled once, optimized, statically verified and budget
// checked at load) behind the cq::net socket front end: a poll()
// event loop speaking the length-prefixed CQN1 protocol on localhost
// (or all interfaces with --all_interfaces). Overload never blocks
// and never silently drops: a request past the per-model queue-depth
// threshold or the global in-flight cap is answered kBusy.
//
// Models come from a manifest (--manifest=serve.txt), lines of
//
//   <name> <artifact.cqar> [key=value ...]   # per-model overrides
//
// with keys workers, backend (scalar|simd), max_batch, max_wait_us,
// queue_capacity, admit_depth, budget_mb, opt (0|1); '#' starts a
// comment. Integer values must be plain non-negative decimals: a
// negative, non-numeric or trailing-junk value in a flag or an override
// is refused with an error naming the key (and the manifest line), and
// the daemon exits 2. Positional name=path arguments
// load additional models with the flag-level defaults, and --zoo
// fabricates the three default-size zoo models (vgg_small, mlp,
// resnet20) in process — no artifact files needed, handy for load
// tests and CI.
//
// SIGTERM/SIGINT drain gracefully: stop accepting, finish every
// admitted request on the version it started on, flush all replies,
// then exit 0. --smoke runs an in-process self-test over localhost
// (info + inference round trips, byte-identity against a fresh
// scalar-reference EngineSession on the same artifact, byte-identity
// across a hot-swap to the identical artifact) and then triggers
// exactly that SIGTERM path; exit status reports the verdict.
//
// Usage: cq_serve [--manifest=FILE] [name=path...] [--zoo] [--port=N]
//                 [--workers=N] [--backend=scalar|simd]
//                 [--max_batch=N] [--max_wait_us=N] [--queue_capacity=N]
//                 [--admit_depth=N] [--budget_mb=N] [--opt=0|1]
//                 [--max_inflight=N] [--responders=N] [--max_connections=N]
//                 [--all_interfaces] [--smoke]
//
// Serving scales by --workers only: each worker runs its batches'
// forward passes serially, which measured faster than splitting a
// forward across threads at every zoo model size. --backend defaults to
// deploy::kDefaultBackend (simd); CQ_SIMD=off makes it run the scalar
// reference kernels.

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "deploy/artifact.h"
#include "net/client.h"
#include "net/front_end.h"
#include "serve/engine_session.h"
#include "serve/model_registry.h"
#include "serve_fixtures.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace cq;

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 's';
  if (::write(g_signal_pipe[1], &byte, 1) < 0) {
    // Pipe full: a shutdown is already pending.
  }
}

struct LoadedModel {
  std::string name;
  deploy::QuantizedArtifact artifact;
  serve::ModelConfig config;
};

constexpr long kIntMax = std::numeric_limits<int>::max();
constexpr long kLongMax = std::numeric_limits<long>::max();

/// Applies one model-level key=value (a manifest override or the flag of
/// the same name) onto a model's config. Returns false on an unknown
/// key; throws naming the key on a bad value.
bool apply_override(serve::ModelConfig& config, const std::string& key,
                    const std::string& value) {
  if (key == "workers") {
    config.server.workers = static_cast<int>(util::parse_count(key, value, kIntMax));
  } else if (key == "backend") {
    config.server.backend = deploy::parse_backend_kind(value);
  } else if (key == "max_batch") {
    config.server.max_batch = static_cast<int>(util::parse_count(key, value, kIntMax));
  } else if (key == "max_wait_us") {
    config.server.max_wait_us = util::parse_count(key, value, kLongMax);
  } else if (key == "queue_capacity") {
    config.server.queue_capacity =
        static_cast<std::size_t>(util::parse_count(key, value, kLongMax));
  } else if (key == "admit_depth") {
    config.admit_queue_depth =
        static_cast<std::size_t>(util::parse_count(key, value, kLongMax));
  } else if (key == "budget_mb") {
    // Bounded so the shift to bytes cannot wrap.
    config.memory_budget_bytes =
        static_cast<std::size_t>(util::parse_count(key, value, kLongMax >> 20)) << 20;
  } else if (key == "opt") {
    config.server.opt = util::parse_count(key, value, 1) == 0 ? serve::PlanOpt::kO0
                                                               : serve::PlanOpt::kO1;
  } else {
    return false;
  }
  return true;
}

/// The daemon-wide model defaults: two workers and a 256-deep queue,
/// then every model-level flag given, parsed exactly as the manifest
/// override of the same name.
serve::ModelConfig config_from_flags(const util::Cli& cli) {
  serve::ModelConfig config;
  config.server.workers = 2;
  config.server.queue_capacity = 256;
  for (const char* key : {"workers", "backend", "max_batch", "max_wait_us",
                          "queue_capacity", "admit_depth", "budget_mb", "opt"}) {
    if (cli.has(key)) apply_override(config, key, cli.get(key, ""));
  }
  return config;
}

net::FrontEndConfig net_config_from_flags(const util::Cli& cli) {
  net::FrontEndConfig config;
  config.port = static_cast<std::uint16_t>(cli.get_count("port", 7411, 65535));
  config.loopback_only = !cli.get_bool("all_interfaces", false);
  config.max_connections =
      static_cast<int>(cli.get_count("max_connections", 64, kIntMax));
  config.max_inflight =
      static_cast<std::size_t>(cli.get_count("max_inflight", 1024, kLongMax));
  config.responders = static_cast<int>(cli.get_count("responders", 2, kIntMax));
  return config;
}

/// Parses "name path [key=value ...]" manifest lines; '#' comments.
std::vector<LoadedModel> parse_manifest(const std::string& path,
                                        const serve::ModelConfig& defaults) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cq_serve: cannot open manifest " + path);
  std::vector<LoadedModel> models;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string name;
    std::string artifact_path;
    if (!(tokens >> name)) continue;  // blank / comment-only line
    if (!(tokens >> artifact_path)) {
      throw std::runtime_error("cq_serve: manifest line " + std::to_string(lineno) +
                               ": expected '<name> <artifact.cqar>'");
    }
    LoadedModel model;
    model.name = name;
    model.config = defaults;
    const std::string where = "cq_serve: manifest line " + std::to_string(lineno) + ": ";
    std::string token;
    while (tokens >> token) {
      const auto eq = token.find('=');
      bool known = false;
      try {
        known = eq != std::string::npos &&
                apply_override(model.config, token.substr(0, eq), token.substr(eq + 1));
      } catch (const std::exception& error) {
        throw std::runtime_error(where + error.what());
      }
      if (!known) throw std::runtime_error(where + "unknown override '" + token + "'");
    }
    model.artifact = deploy::load_artifact(artifact_path);
    models.push_back(std::move(model));
  }
  return models;
}

std::vector<LoadedModel> zoo_models(const serve::ModelConfig& defaults) {
  std::vector<LoadedModel> models;
  {
    const nn::VggSmallConfig cfg;
    nn::VggSmall vgg(cfg);
    models.push_back({"vgg_small",
                      serve::fabricate_artifact(
                          vgg, {cfg.in_channels, cfg.image_size, cfg.image_size}, 3, 5),
                      defaults});
  }
  {
    const nn::MlpConfig cfg;
    nn::Mlp mlp(cfg);
    models.push_back(
        {"mlp", serve::fabricate_artifact(mlp, {cfg.in_features}, 3, 3), defaults});
  }
  {
    const nn::ResNet20Config cfg;
    nn::ResNet20 resnet(cfg);
    models.push_back({"resnet20",
                      serve::fabricate_artifact(
                          resnet, {cfg.in_channels, cfg.image_size, cfg.image_size}, 3,
                          7),
                      defaults});
  }
  return models;
}

/// One deterministic sample for a model's input contract.
tensor::Tensor smoke_sample(const tensor::Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return tensor::Tensor::rand_uniform(shape, rng, -0.2f, 1.2f);
}

bool tensors_identical(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Localhost self-test: for every model, info + round trip, byte
/// compare against a fresh in-process EngineSession on the identical
/// artifact, hot-swap to the same artifact under way, round trip
/// again and require the exact same bytes.
bool run_smoke(std::uint16_t port, serve::ModelRegistry& registry,
               const std::vector<LoadedModel>& models) {
  try {
    for (const LoadedModel& model : models) {
      net::Client client("localhost", port);
      const net::Client::ModelInfo info = client.info(model.name);
      const tensor::Tensor sample = smoke_sample(info.sample_shape, 101);

      net::Client::InferResult first = client.infer(model.name, sample);
      if (!first.admitted) {
        std::fprintf(stderr, "cq_serve smoke: '%s' shed the smoke request: %s\n",
                     model.name.c_str(), first.reason.c_str());
        return false;
      }

      // The remote answer must be byte-identical to the scalar
      // reference running the same artifact in process (same compile +
      // optimize pipeline), whatever backend the model serves on.
      serve::EngineSession session(model.artifact, 1, {},
                                   deploy::make_backend(deploy::BackendKind::Scalar),
                                   serve::PlanCheck::kNone, model.config.server.opt);
      tensor::Shape batch_shape;
      batch_shape.push_back(1);
      batch_shape.insert(batch_shape.end(), info.sample_shape.begin(),
                         info.sample_shape.end());
      tensor::Tensor batch(batch_shape);
      std::memcpy(batch.data(), sample.data(), sample.numel() * sizeof(float));
      const tensor::Tensor local = session.run(batch);
      tensor::Tensor local_row({info.num_classes});
      std::memcpy(local_row.data(), local.data(),
                  static_cast<std::size_t>(info.num_classes) * sizeof(float));
      if (!tensors_identical(first.logits, local_row)) {
        std::fprintf(stderr,
                     "cq_serve smoke: '%s' remote logits differ from in-process "
                     "EngineSession\n",
                     model.name.c_str());
        return false;
      }

      // Hot-swap to the identical artifact; answers must not change by
      // a byte, and the version must bump.
      const int version = registry.swap(model.name, model.artifact);
      const net::Client::InferResult after = client.infer(model.name, sample);
      if (!after.admitted || !tensors_identical(after.logits, first.logits)) {
        std::fprintf(stderr,
                     "cq_serve smoke: '%s' answer changed across hot-swap to v%d\n",
                     model.name.c_str(), version);
        return false;
      }
      if (client.info(model.name).version != version) {
        std::fprintf(stderr, "cq_serve smoke: '%s' version did not bump\n",
                     model.name.c_str());
        return false;
      }
      std::printf("cq_serve smoke: %-10s OK (round trip, in-process byte match, "
                  "hot-swap to v%d byte-stable)\n",
                  model.name.c_str(), version);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cq_serve smoke: %s\n", error.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  serve::ModelConfig defaults;
  net::FrontEndConfig net_config;
  try {
    defaults = config_from_flags(cli);
    net_config = net_config_from_flags(cli);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cq_serve: %s\n", error.what());
    return 2;
  }

  std::vector<LoadedModel> models;
  try {
    if (cli.has("manifest")) {
      models = parse_manifest(cli.get("manifest", ""), defaults);
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) continue;
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "cq_serve: expected name=path, got '%s'\n", arg.c_str());
        return 2;
      }
      LoadedModel model;
      model.name = arg.substr(0, eq);
      model.config = defaults;
      model.artifact = deploy::load_artifact(arg.substr(eq + 1));
      models.push_back(std::move(model));
    }
    if (cli.get_bool("zoo", false)) {
      std::vector<LoadedModel> zoo = zoo_models(defaults);
      for (LoadedModel& model : zoo) models.push_back(std::move(model));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  }
  if (models.empty()) {
    std::fprintf(stderr,
                 "cq_serve: nothing to serve — pass --manifest=FILE, name=path or "
                 "--zoo (kernel backend: --backend=scalar|simd, default %s)\n",
                 deploy::backend_kind_name(deploy::kDefaultBackend));
    return 2;
  }

  serve::ModelRegistry registry;
  try {
    for (const LoadedModel& model : models) {
      registry.load(model.name, model.artifact, model.config);
      const serve::ModelInfo info = registry.info(model.name);
      std::printf("cq_serve: loaded %-10s v%d  %zu ops, %.1f MiB resident\n",
                  model.name.c_str(), info.version, info.ops,
                  static_cast<double>(info.resident_bytes) / (1 << 20));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "cq_serve: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = on_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  try {
    net::FrontEnd front(registry, net_config);
    std::printf("cq_serve: listening on 127.0.0.1:%u (%zu models)\n", front.port(),
                models.size());
    std::fflush(stdout);

    bool smoke_ok = true;
    std::thread smoke;
    if (cli.get_bool("smoke", false)) {
      // The self-test ends by triggering the same SIGTERM drain a real
      // deployment exercises.
      smoke = std::thread([&, port = front.port()] {
        smoke_ok = run_smoke(port, registry, models);
        std::raise(SIGTERM);
      });
    }

    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::printf("cq_serve: draining...\n");
    std::fflush(stdout);
    front.stop();
    if (smoke.joinable()) smoke.join();

    const net::FrontEndStats fstats = front.stats();
    for (const std::string& name : registry.names()) {
      const serve::ServerStats s = registry.stats(name);
      const serve::ModelInfo info = registry.info(name);
      std::printf("cq_serve: %-10s v%-2d completed=%zu failed=%zu shed=%llu "
                  "p50=%.0fus p99=%.0fus\n",
                  name.c_str(), info.version, s.completed, s.failed,
                  static_cast<unsigned long long>(info.requests_shed), s.p50_us,
                  s.p99_us);
    }
    std::printf("cq_serve: connections=%zu replies: result=%zu busy=%zu error=%zu "
                "protocol_errors=%zu\n",
                fstats.connections_accepted, fstats.replies_result,
                fstats.replies_busy, fstats.replies_error, fstats.protocol_errors);
    registry.unload_all();
    return smoke_ok ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cq_serve: %s\n", error.what());
    return 1;
  }
}
