// Serving throughput bench: how the cq::serve stack scales with batch
// size and worker count on one deployed artifact.
//
// Section 1 measures the raw EngineSession integer pipeline (single
// context, no scheduler) at growing batch sizes — the per-sample cost
// floor batching amortizes fixed overheads against. Section 2 runs the
// full Server under closed-loop concurrent load at 1/2/4 workers and
// reports throughput, speedup over 1 worker, latency percentiles and
// the micro-batch sizes the scheduler actually formed. Section 3
// sweeps inter-op workers x intra-op threads-per-forward — the two
// levers trade against each other on a fixed core budget (workers help
// throughput under concurrency, intra-op threads cut single-request
// latency).
//
// No training is needed: serving cost depends only on the architecture
// and the bit arrangement, so the model gets a mixed 0..4-bit
// arrangement and a forward-pass activation calibration before export.
//
// Run: ./serve_throughput [--fast] [--requests=N] [--threads=N]
//                         [--backend=scalar|simd]  (kernel backend, all sections;
//                          default deploy::kDefaultBackend)
//                         [--json=sweep.json]   (section 3, machine-readable;
//                          records the backend so artifacts from different
//                          backends stay distinguishable in the trajectory.
//                          Each sweep row carries the queue-wait vs execute
//                          breakdown, and the file embeds a "profile" object —
//                          the obs::PlanProfiler per-op report for this model
//                          on the selected backend)

#include <atomic>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "deploy/artifact.h"
#include "harness.h"
#include "nn/models/model.h"
#include "obs/profiler.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace cq;

/// Mixed per-filter arrangement (the shape real CQ outputs have: a few
/// pruned filters, mostly low bits, occasional high-bit outliers).
void assign_mixed_bits(nn::Model& model) {
  const int pattern[8] = {2, 3, 2, 1, 4, 2, 0, 2};
  int i = 0;
  for (const nn::ScoredLayerRef& ref : model.scored_layers()) {
    for (quant::QuantizableLayer* layer : ref.layers) {
      std::vector<int> bits(static_cast<std::size_t>(layer->num_filters()));
      for (int& b : bits) b = pattern[i++ % 8];
      layer->set_filter_bits(std::move(bits));
    }
  }
}

deploy::QuantizedArtifact make_artifact(util::Rng& rng) {
  auto model = bench::make_vgg_small(10);
  const tensor::Tensor calib =
      tensor::Tensor::rand_uniform({64, 3, 16, 16}, rng, 0.0f, 1.0f);
  model->calibrate_activations(calib);
  model->set_activation_bits(3);
  assign_mixed_bits(*model);
  return deploy::export_model(*model);
}

struct LoadResult {
  double rps = 0.0;
  serve::ServerStats stats;
};

/// Closed-loop load: `threads` submitters issue `requests` requests
/// total and block on each future. Returns -1 rps on request failure.
LoadResult run_load(const deploy::QuantizedArtifact& artifact,
                    const serve::ServerConfig& config, long requests, long threads) {
  serve::Server server(artifact, config);
  std::vector<std::thread> submitters;
  std::atomic<long> failed{0};
  util::Timer timer;
  for (long t = 0; t < threads; ++t) {
    const long share = requests / threads + (t < requests % threads ? 1 : 0);
    submitters.emplace_back([&server, &failed, share, t] {
      util::Rng thread_rng(100 + static_cast<std::uint64_t>(t));
      for (long i = 0; i < share; ++i) {
        try {
          server.submit(tensor::Tensor::rand_uniform({3, 16, 16}, thread_rng, 0.0f,
                                                     1.0f))
              .get();
        } catch (const std::exception&) {
          failed.fetch_add(1);  // escaping would std::terminate the bench
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  LoadResult result;
  result.rps = failed.load() == 0
                   ? static_cast<double>(requests) / timer.seconds()
                   : -1.0;
  result.stats = server.stats();
  server.shutdown();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool fast = cli.get_bool("fast", false);
  const long requests = cli.get_int("requests", fast ? 96 : 512);
  const long threads = cli.get_int("threads", 8);
  const deploy::BackendKind backend =
      deploy::parse_backend_kind(
          cli.get("backend", deploy::backend_kind_name(deploy::kDefaultBackend)));

  util::Rng rng(7);
  const deploy::QuantizedArtifact artifact = make_artifact(rng);
  std::printf("kernel backend: %s\n\n", deploy::backend_kind_name(backend));

  // --- Section 1: raw integer pipeline vs batch size -----------------
  {
    serve::EngineSession session(artifact, 1, {}, deploy::make_backend(backend));
    util::Table table({"batch", "runs", "total ms", "us/sample"});
    for (const int batch : {1, 8, 32}) {
      const int runs = fast ? 4 : 16;
      const tensor::Tensor input = tensor::Tensor::rand_uniform(
          {batch, 3, 16, 16}, rng, 0.0f, 1.0f);
      session.run(input);  // warm
      util::Timer timer;
      for (int r = 0; r < runs; ++r) session.run(input);
      const double ms = timer.millis();
      table.add_row({std::to_string(batch), std::to_string(runs),
                     util::Table::num(ms, 2),
                     util::Table::num(ms * 1000.0 / (runs * batch), 1)});
    }
    std::printf("EngineSession integer pipeline (single context)\n%s\n",
                table.render().c_str());
  }

  // --- Section 2: full server, closed-loop load ----------------------
  util::Table table({"workers", "req/s", "speedup", "p50 us", "p95 us", "p99 us",
                     "p50 queue", "p50 exec", "mean batch"});
  double base_rps = 0.0;
  for (const int workers : {1, 2, 4}) {
    serve::ServerConfig config;
    config.workers = workers;
    config.backend = backend;
    config.max_batch = 16;
    config.max_wait_us = 200;
    const LoadResult r = run_load(artifact, config, requests, threads);
    if (r.rps < 0.0) {
      std::fprintf(stderr, "serve_throughput: requests failed\n");
      return 1;
    }
    if (workers == 1) base_rps = r.rps;
    table.add_row({std::to_string(workers), util::Table::num(r.rps, 1),
                   util::Table::num(r.rps / base_rps, 2),
                   util::Table::num(r.stats.p50_us, 0),
                   util::Table::num(r.stats.p95_us, 0),
                   util::Table::num(r.stats.p99_us, 0),
                   util::Table::num(r.stats.p50_queue_us, 0),
                   util::Table::num(r.stats.p50_exec_us, 0),
                   util::Table::num(r.stats.mean_batch, 2)});
  }
  std::printf("Server throughput, %ld closed-loop submitters, %ld requests, "
              "%u hw threads\n%s\n",
              threads, requests, std::thread::hardware_concurrency(),
              table.render().c_str());
  std::printf("(worker scaling needs >= as many hardware threads as workers; "
              "on fewer cores the speedup column measures scheduling overhead "
              "only)\n");

  // --- Section 3: inter-op workers x intra-op threads sweep ----------
  struct Combo {
    int workers;
    int intra;
  };
  const Combo combos[] = {{1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {4, 1}};
  util::Table sweep({"workers", "intra", "req/s", "speedup", "p50 us", "p95 us",
                     "mean batch"});
  struct SweepRow {
    Combo combo;
    LoadResult r;
  };
  std::vector<SweepRow> sweep_rows;
  double sweep_base = 0.0;
  for (const Combo& combo : combos) {
    serve::ServerConfig config;
    config.workers = combo.workers;
    config.intra_threads = combo.intra;
    config.backend = backend;
    config.max_batch = 16;
    config.max_wait_us = 200;
    const LoadResult r = run_load(artifact, config, requests, threads);
    if (r.rps < 0.0) {
      std::fprintf(stderr, "serve_throughput: sweep requests failed\n");
      return 1;
    }
    if (sweep_base == 0.0) sweep_base = r.rps;
    sweep_rows.push_back({combo, r});
    sweep.add_row({std::to_string(combo.workers), std::to_string(combo.intra),
                   util::Table::num(r.rps, 1), util::Table::num(r.rps / sweep_base, 2),
                   util::Table::num(r.stats.p50_us, 0),
                   util::Table::num(r.stats.p95_us, 0),
                   util::Table::num(r.stats.mean_batch, 2)});
  }
  std::printf("Inter-op x intra-op sweep (speedup vs 1 worker / 1 thread)\n%s\n",
              sweep.render().c_str());

  const std::string json_path = cli.get("json", "");
  if (!json_path.empty()) {
    // Per-op profile for the artifact on this backend (single context,
    // steady batch) — rides along in the artifact so a kernel-level
    // regression is attributable to an op kind, not just a p95 shift.
    serve::EngineSession session(artifact, 1, {}, deploy::make_backend(backend));
    const tensor::Tensor input =
        tensor::Tensor::rand_uniform({8, 3, 16, 16}, rng, 0.0f, 1.0f);
    session.run(input);  // warm
    obs::PlanProfiler profiler(session.plan(), &session.backend());
    session.set_trace_sink(&profiler);
    for (int r = 0; r < (fast ? 4 : 16); ++r) session.run(input);
    session.set_trace_sink(nullptr);
    const obs::ProfileReport profile = profiler.report();

    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "serve_throughput: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"hardware_threads\": %u,\n  \"requests\": %ld,\n"
                 "  \"submitters\": %ld,\n  \"backend\": \"%s\",\n"
                 "  \"cpu\": %s,\n  \"sweep\": [\n",
                 std::thread::hardware_concurrency(), requests, threads,
                 deploy::backend_kind_name(backend),
                 deploy::cpu_features_json().c_str());
    for (std::size_t i = 0; i < sweep_rows.size(); ++i) {
      const SweepRow& row = sweep_rows[i];
      std::fprintf(f,
                   "    {\"workers\": %d, \"intra_threads\": %d, \"rps\": %.1f, "
                   "\"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, "
                   "\"mean_batch\": %.2f, \"p50_queue_us\": %.0f, "
                   "\"p95_queue_us\": %.0f, \"p50_exec_us\": %.0f, "
                   "\"p95_exec_us\": %.0f, \"failed\": %zu, \"shed\": %zu}%s\n",
                   row.combo.workers, row.combo.intra, row.r.rps, row.r.stats.p50_us,
                   row.r.stats.p95_us, row.r.stats.p99_us, row.r.stats.mean_batch,
                   row.r.stats.p50_queue_us, row.r.stats.p95_queue_us,
                   row.r.stats.p50_exec_us, row.r.stats.p95_exec_us,
                   row.r.stats.failed, row.r.stats.shed,
                   i + 1 == sweep_rows.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n  \"profile\": %s\n}\n", profile.to_json().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
