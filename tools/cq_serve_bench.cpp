// cq_serve_bench — closed-loop load generator, local or remote.
//
// Local mode spins up a serve::Server over a .cqar artifact and drives
// it with `threads` synchronous submitters (each waits for its
// response before sending the next request), then reports throughput,
// latency percentiles, the queue-wait vs execute breakdown and
// micro-batch shape. The serving-side counterpart of cqar_info: where
// cqar_info inspects the deployed bytes, this measures the deployed
// behaviour under concurrent traffic.
//
// Remote mode (--connect=host:port --model=NAME) drives a running
// cq_serve daemon over the CQN1 protocol instead: one net::Client per
// submitter thread, client-side latency histograms, and explicit
// admitted/shed accounting — a kBusy reply counts as shed, records its
// round-trip in a separate histogram (overload must answer *fast*),
// and the loop moves on (optionally after --busy_backoff_us). The
// --assert_* flags turn the run into a CI gate: offered load beyond
// capacity must shed, not collapse.
//
// Usage: cq_serve_bench <model.cqar> [options]
//        cq_serve_bench --connect=host:port --model=NAME [options]
//   --requests=N      total requests across all submitters (default 512)
//   --threads=N       closed-loop submitter threads (default 8)
//   --workers=N       server batch workers / engine contexts (default 4);
//                     serving scales by workers, each running serially
//   --backend=NAME    kernel backend: scalar | simd (default simd)
//   --max_batch=N     micro-batch flush size (default 16)
//   --max_wait_us=N   micro-batch flush age in microseconds (default 200)
//   --queue=N         bounded request queue depth (default 1024)
//   --warmup=N        untimed warmup requests (default 64)
//   --seed=N          input generator seed (default 1)
//   --json=PATH       machine-readable result: one "sweep" row for
//                     the configuration measured; run once per
//                     --workers=N to sweep worker counts
//   --profile         attach obs::PlanProfiler to the engine: prints the
//                     per-op-kind breakdown and embeds the full per-op
//                     report in --json output
//   --trace=PATH      stream one span pair per request into a
//                     Chrome-trace JSON (load in chrome://tracing)
//   --metrics         dump the server's metrics registry in Prometheus
//                     text format after the run
//
// Remote-mode options:
//   --connect=H:P     drive a cq_serve daemon at host H, port P
//   --model=NAME      served model to target (required with --connect)
//   --duration_s=X    run for X seconds instead of a fixed request count
//   --busy_backoff_us=N  sleep N us after a kBusy reply (default 0)
//   --assert_admitted_min=N   fail unless >= N requests were admitted
//   --assert_shed_min=N       fail unless >= N requests were shed BUSY
//   --assert_p99_ms=X         fail unless admitted client p99 <= X ms
//   --assert_busy_p99_ms=X    fail unless BUSY round-trip p99 <= X ms
//   --json gains "admitted"/"shed" fields in both modes.
//
// Integer flags (and the port of --connect) must be plain non-negative
// decimals in range, parsed by util::parse_count as cq_serve parses
// its own: "--workers=two" or "--connect=localhost:70000" exits 2
// naming the flag instead of running with a different value.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "deploy/artifact.h"
#include "net/client.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace cq;

constexpr long kIntMax = std::numeric_limits<int>::max();
constexpr long kLongMax = std::numeric_limits<long>::max();

/// --connect mode: closed-loop load against a cq_serve daemon, one
/// net::Client per submitter, explicit admitted/shed accounting and
/// client-side latency histograms. Returns the process exit status.
int run_remote(const util::Cli& cli) {
  const std::string connect = cli.get("connect", "");
  const auto colon = connect.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "cq_serve_bench: --connect expects host:port\n");
    return 2;
  }
  const std::string host = connect.substr(0, colon);
  const std::string model = cli.get("model", "");
  if (model.empty()) {
    std::fprintf(stderr, "cq_serve_bench: --connect requires --model=NAME\n");
    return 2;
  }
  std::uint16_t port = 0;
  long requests = 0, threads = 0, warmup = 0, busy_backoff_us = 0;
  long admitted_min = 0, shed_min = 0;
  std::uint64_t seed = 0;
  try {
    port = static_cast<std::uint16_t>(
        util::parse_count("connect port", connect.substr(colon + 1), 65535));
    requests = cli.get_count("requests", 512, kLongMax);
    threads = cli.get_count("threads", 8, kLongMax);
    warmup = cli.get_count("warmup", 32, kLongMax);
    busy_backoff_us = cli.get_count("busy_backoff_us", 0, kLongMax);
    admitted_min = cli.get_count("assert_admitted_min", 0, kLongMax);
    shed_min = cli.get_count("assert_shed_min", 0, kLongMax);
    seed = static_cast<std::uint64_t>(cli.get_count("seed", 1, kLongMax));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cq_serve_bench: %s\n", e.what());
    return 2;
  }
  const double duration_s = cli.get_double("duration_s", 0.0);
  const std::string json_path = cli.get("json", "");
  if (requests < 1 || threads < 1) {
    std::fprintf(stderr, "cq_serve_bench: requests/threads must be >= 1\n");
    return 2;
  }

  try {
    net::Client probe(host, port);
    const net::Client::ModelInfo info = probe.info(model);
    std::printf("%s @ %s: input %s, %d classes, serving v%d\n", model.c_str(),
                connect.c_str(), tensor::shape_to_string(info.sample_shape).c_str(),
                info.num_classes, info.version);
    std::printf("%ld closed-loop submitters, %s, busy backoff %ld us\n", threads,
                duration_s > 0.0
                    ? (std::to_string(duration_s) + " s").c_str()
                    : (std::to_string(requests) + " attempts").c_str(),
                busy_backoff_us);

    {  // untimed warmup over the probe connection
      util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
      for (long i = 0; i < warmup; ++i) {
        probe.infer(model,
                    tensor::Tensor::rand_uniform(info.sample_shape, rng, 0.0f, 1.0f));
      }
    }

    obs::LatencyHistogram ok_us;    // admitted round trips
    obs::LatencyHistogram busy_us;  // shed round trips: BUSY must be fast
    std::atomic<long> admitted{0};
    std::atomic<long> shed{0};
    std::atomic<long> failed{0};
    util::Timer timer;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(duration_s));

    std::vector<std::thread> submitters;
    submitters.reserve(static_cast<std::size_t>(threads));
    for (long t = 0; t < threads; ++t) {
      const long share = requests / threads + (t < requests % threads ? 1 : 0);
      submitters.emplace_back([&, share, t] {
        try {
          net::Client client(host, port);
          util::Rng rng(seed + static_cast<std::uint64_t>(t) * 1000003ULL);
          for (long i = 0;; ++i) {
            if (duration_s > 0.0) {
              if (std::chrono::steady_clock::now() >= deadline) break;
            } else if (i >= share) {
              break;
            }
            const tensor::Tensor sample =
                tensor::Tensor::rand_uniform(info.sample_shape, rng, 0.0f, 1.0f);
            const auto begin = std::chrono::steady_clock::now();
            const net::Client::InferResult result = client.infer(model, sample);
            const double us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - begin)
                                  .count();
            if (result.admitted) {
              ok_us.record(us);
              admitted.fetch_add(1, std::memory_order_relaxed);
            } else {
              busy_us.record(us);
              shed.fetch_add(1, std::memory_order_relaxed);
              if (busy_backoff_us > 0) {
                std::this_thread::sleep_for(std::chrono::microseconds(busy_backoff_us));
              }
            }
          }
        } catch (const std::exception& e) {
          if (failed.fetch_add(1) == 0) {
            std::fprintf(stderr, "cq_serve_bench: submitter failed: %s\n", e.what());
          }
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
    const double elapsed = timer.seconds();

    const obs::HistogramSnapshot ok = ok_us.snapshot();
    const obs::HistogramSnapshot busy = busy_us.snapshot();
    const long total = admitted.load() + shed.load();
    std::printf("\n%ld attempts in %.3f s: %ld admitted (%.1f req/s), %ld shed, "
                "%ld submitters failed\n",
                total, elapsed, admitted.load(),
                static_cast<double>(admitted.load()) / elapsed, shed.load(),
                failed.load());
    std::printf("admitted latency  p50 %.0f us   p95 %.0f us   p99 %.0f us   "
                "mean %.0f us   max %.0f us\n",
                ok.percentile(50.0), ok.percentile(95.0), ok.percentile(99.0),
                ok.mean(), ok.max);
    if (busy.count > 0) {
      std::printf("busy round trip   p50 %.0f us   p99 %.0f us   max %.0f us\n",
                  busy.percentile(50.0), busy.percentile(99.0), busy.max);
    }

    if (!json_path.empty()) {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cq_serve_bench: cannot write %s\n", json_path.c_str());
        return 1;
      }
      std::fprintf(
          f,
          "{\n  \"hardware_threads\": %u,\n  \"connect\": \"%s\",\n"
          "  \"model\": \"%s\",\n  \"model_version\": %d,\n"
          "  \"submitters\": %ld,\n  \"elapsed_s\": %.3f,\n"
          "  \"requests\": %ld,\n  \"admitted\": %ld,\n  \"shed\": %ld,\n"
          "  \"failed\": %ld,\n  \"rps\": %.1f,\n"
          "  \"p50_us\": %.0f,\n  \"p95_us\": %.0f,\n  \"p99_us\": %.0f,\n"
          "  \"mean_us\": %.0f,\n  \"busy_p50_us\": %.0f,\n  \"busy_p99_us\": %.0f\n"
          "}\n",
          std::thread::hardware_concurrency(), connect.c_str(), model.c_str(),
          info.version, threads, elapsed, total, admitted.load(), shed.load(),
          failed.load(), static_cast<double>(admitted.load()) / elapsed,
          ok.percentile(50.0), ok.percentile(95.0), ok.percentile(99.0), ok.mean(),
          busy.percentile(50.0), busy.percentile(99.0));
      std::fclose(f);
      std::printf("wrote %s\n", json_path.c_str());
    }

    // CI gates: overload must shed explicitly and stay responsive, not
    // collapse into queueing or errors.
    bool ok_gates = true;
    if (failed.load() != 0) {
      std::fprintf(stderr, "cq_serve_bench: %ld submitter(s) errored\n", failed.load());
      ok_gates = false;
    }
    if (admitted.load() < admitted_min) {
      std::fprintf(stderr, "cq_serve_bench: FAIL admitted %ld < %ld\n",
                   admitted.load(), admitted_min);
      ok_gates = false;
    }
    if (shed.load() < shed_min) {
      std::fprintf(stderr, "cq_serve_bench: FAIL shed %ld < %ld\n", shed.load(),
                   shed_min);
      ok_gates = false;
    }
    const double p99_ms = cli.get_double("assert_p99_ms", 0.0);
    if (p99_ms > 0.0 && ok.percentile(99.0) > p99_ms * 1000.0) {
      std::fprintf(stderr, "cq_serve_bench: FAIL admitted p99 %.0f us > %.0f ms\n",
                   ok.percentile(99.0), p99_ms);
      ok_gates = false;
    }
    const double busy_p99_ms = cli.get_double("assert_busy_p99_ms", 0.0);
    if (busy_p99_ms > 0.0 && busy.percentile(99.0) > busy_p99_ms * 1000.0) {
      std::fprintf(stderr, "cq_serve_bench: FAIL busy p99 %.0f us > %.0f ms\n",
                   busy.percentile(99.0), busy_p99_ms);
      ok_gates = false;
    }
    return ok_gates ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cq_serve_bench: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cq;
  {
    const util::Cli cli(argc, argv);
    if (cli.has("connect")) return run_remote(cli);
  }
  if (argc < 2 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: cq_serve_bench <model.cqar> [--requests=512] [--threads=8] "
                 "[--workers=4] [--backend=scalar|simd (default %s)] "
                 "[--max_batch=16] [--max_wait_us=200] [--queue=1024] [--warmup=64] "
                 "[--seed=1] [--json=PATH] [--profile] [--trace=PATH] [--metrics]\n"
                 "       cq_serve_bench --connect=host:port --model=NAME "
                 "[--requests=512] [--threads=8] [--duration_s=X] "
                 "[--busy_backoff_us=N] [--assert_admitted_min=N] "
                 "[--assert_shed_min=N] [--assert_p99_ms=X] "
                 "[--assert_busy_p99_ms=X] [--json=PATH]\n",
                 deploy::backend_kind_name(deploy::kDefaultBackend));
    return 2;
  }
  const std::string path = argv[1];
  const util::Cli cli(argc, argv);
  long requests = 0, threads = 0, warmup = 0;
  std::uint64_t seed = 0;
  serve::ServerConfig config;
  try {
    requests = cli.get_count("requests", 512, kLongMax);
    threads = cli.get_count("threads", 8, kLongMax);
    warmup = cli.get_count("warmup", 64, kLongMax);
    seed = static_cast<std::uint64_t>(cli.get_count("seed", 1, kLongMax));
    config.workers = static_cast<int>(cli.get_count("workers", 4, kIntMax));
    config.backend = deploy::parse_backend_kind(
        cli.get("backend", deploy::backend_kind_name(deploy::kDefaultBackend)));
    config.max_batch = static_cast<int>(cli.get_count("max_batch", 16, kIntMax));
    config.max_wait_us = cli.get_count("max_wait_us", 200, kLongMax);
    config.queue_capacity =
        static_cast<std::size_t>(cli.get_count("queue", 1024, kLongMax));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cq_serve_bench: %s\n", e.what());
    return 2;
  }
  if (requests < 1 || threads < 1) {
    std::fprintf(stderr, "cq_serve_bench: requests/threads must be >= 1\n");
    return 2;
  }
  const std::string json_path = cli.get("json", "");
  const std::string trace_path = cli.get("trace", "");
  const bool profile = cli.get_bool("profile", false);
  const bool metrics = cli.get_bool("metrics", false);

  deploy::QuantizedArtifact artifact;
  try {
    artifact = deploy::load_artifact(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cq_serve_bench: %s\n", e.what());
    return 1;
  }

  try {
    serve::Server server(artifact, config);
    const tensor::Shape& sample_shape = server.session().sample_shape();
    std::printf("%s: %s, input %s, %d classes, %zu integer layers\n", path.c_str(),
                artifact.arch.kind.c_str(),
                tensor::shape_to_string(sample_shape).c_str(),
                server.session().num_classes(),
                server.session().integer_layer_count());
    std::printf("workers %d, backend %s, max_batch %d, max_wait %ld us, "
                "queue %zu, %ld closed-loop submitters, %ld requests, %u hw threads\n",
                config.workers, server.session().backend().name(), config.max_batch,
                config.max_wait_us, config.queue_capacity, threads, requests,
                std::thread::hardware_concurrency());

    // Deterministic per-thread request streams.
    const auto make_sample = [&sample_shape](util::Rng& rng) {
      return tensor::Tensor::rand_uniform(sample_shape, rng, 0.0f, 1.0f);
    };

    {  // untimed warmup: fills caches and exercises every context once
      util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
      std::vector<std::future<tensor::Tensor>> inflight;
      for (long i = 0; i < warmup; ++i) inflight.push_back(server.submit(make_sample(rng)));
      for (auto& f : inflight) f.get();
    }
    server.reset_stats();  // the open-loop warmup must not skew the report

    // Observability hooks attach after warmup so they cover exactly the
    // measured window.
    std::unique_ptr<obs::PlanProfiler> profiler;
    if (profile) {
      profiler = std::make_unique<obs::PlanProfiler>(server.session().plan(),
                                                     &server.session().backend());
      server.set_op_trace(profiler.get());
    }
    std::unique_ptr<obs::ChromeTraceWriter> tracer;
    if (!trace_path.empty()) {
      tracer = std::make_unique<obs::ChromeTraceWriter>();
      server.set_span_sink(tracer.get());
    }
    util::Timer timer;

    std::vector<std::thread> submitters;
    submitters.reserve(static_cast<std::size_t>(threads));
    std::atomic<long> failed{0};
    for (long t = 0; t < threads; ++t) {
      const long share = requests / threads + (t < requests % threads ? 1 : 0);
      submitters.emplace_back([&server, &make_sample, &failed, share, seed, t] {
        util::Rng rng(seed + static_cast<std::uint64_t>(t) * 1000003ULL);
        for (long i = 0; i < share; ++i) {
          try {
            server.submit(make_sample(rng)).get();  // closed loop
          } catch (const std::exception& e) {
            // An escaping exception would std::terminate the whole
            // process from this thread; report and count instead.
            if (failed.fetch_add(1) == 0) {
              std::fprintf(stderr, "cq_serve_bench: request failed: %s\n", e.what());
            }
          }
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
    const double elapsed = timer.seconds();
    if (failed.load() != 0) {
      std::fprintf(stderr, "cq_serve_bench: %ld/%ld requests failed\n", failed.load(),
                   requests);
      return 1;
    }

    const serve::ServerStats stats = server.stats();
    server.set_op_trace(nullptr);
    server.set_span_sink(nullptr);
    std::printf("\n%zu requests in %.3f s  ->  %.1f req/s\n", stats.completed, elapsed,
                static_cast<double>(stats.completed) / elapsed);
    std::printf("latency  p50 %.0f us   p95 %.0f us   p99 %.0f us   mean %.0f us   "
                "max %.0f us\n",
                stats.p50_us, stats.p95_us, stats.p99_us, stats.mean_us, stats.max_us);
    std::printf("queue    p50 %.0f us   p95 %.0f us   mean %.0f us   |   execute "
                "p50 %.0f us   p95 %.0f us   mean %.0f us\n",
                stats.p50_queue_us, stats.p95_queue_us, stats.mean_queue_us,
                stats.p50_exec_us, stats.p95_exec_us, stats.mean_exec_us);
    std::printf("batching %zu batches, %.2f mean size, %zu max size\n", stats.batches,
                stats.mean_batch, stats.max_batch);

    obs::ProfileReport report;
    if (profiler != nullptr) {
      report = profiler->report();
      util::Table kinds({"op kind", "calls", "total ms", "share"});
      for (const obs::ProfileAggregate& agg : report.by_kind) {
        kinds.add_row({agg.key, std::to_string(agg.calls),
                       util::Table::num(agg.total_ms, 3),
                       util::Table::num(100.0 * agg.share, 1) + "%"});
      }
      std::printf("\nper-op-kind profile (%.3f ms attributed)\n%s\n", report.total_ms,
                  kinds.render().c_str());
    }

    if (tracer != nullptr) {
      if (!tracer->write(trace_path)) return 1;
      std::printf("wrote %s (%zu trace events — load in chrome://tracing)\n",
                  trace_path.c_str(), tracer->size());
    }

    if (metrics) {
      std::printf("\n%s", server.metrics().to_prometheus().c_str());
    }

    if (!json_path.empty()) {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cq_serve_bench: cannot write %s\n", json_path.c_str());
        return 1;
      }
      // One sweep row for the single configuration this run measured.
      std::fprintf(f,
                   "{\n  \"hardware_threads\": %u,\n  \"requests\": %ld,\n"
                   "  \"submitters\": %ld,\n  \"backend\": \"%s\",\n"
                   "  \"admitted\": %zu,\n  \"shed\": %zu,\n  \"sweep\": [\n",
                   std::thread::hardware_concurrency(), requests, threads,
                   deploy::backend_kind_name(config.backend), stats.completed,
                   stats.shed);
      std::fprintf(f,
                   "    {\"workers\": %d, \"rps\": %.1f, "
                   "\"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, "
                   "\"mean_batch\": %.2f, \"p50_queue_us\": %.0f, "
                   "\"p95_queue_us\": %.0f, \"p50_exec_us\": %.0f, "
                   "\"p95_exec_us\": %.0f}\n",
                   config.workers, static_cast<double>(stats.completed) / elapsed,
                   stats.p50_us, stats.p95_us, stats.p99_us, stats.mean_batch,
                   stats.p50_queue_us, stats.p95_queue_us, stats.p50_exec_us,
                   stats.p95_exec_us);
      std::fprintf(f, "  ]");
      if (profiler != nullptr) {
        std::fprintf(f, ",\n  \"profile\": %s", report.to_json().c_str());
      }
      std::fprintf(f, "\n}\n");
      std::fclose(f);
      std::printf("wrote %s\n", json_path.c_str());
    }
    server.shutdown();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cq_serve_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
