// serve: one cq_serve daemon started with the three .cqar files and
// --port=0 only, closed-loop requests to every model over CQN1; the
// traced run adds open-loop traffic to mlp.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "daemon.h"
#include "deploy/artifact.h"
#include "engine_probe.h"
#include "idle_spinners.h"
#include "loadgen.h"
#include "serve/model_registry.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Arrival stream of the open-loop warm-up.
constexpr std::uint64_t kStreamWarmup = 0;

std::vector<std::string> daemon_args(const std::vector<ModelInputs>& models) {
  std::vector<std::string> args;
  for (const ModelInputs& m : models) args.push_back(m.name + "=" + m.path);
  args.push_back("--port=0");
  return args;
}

/// Most contexts (cq_serve workers) a model's `loaded` line is matched
/// against.
constexpr int kMaxWorkers = 64;

/// The backend kind the daemon serves on. cq_serve does not report it,
/// so it is read off the daemon's `loaded` lines: a model's resident
/// MiB is its plan, one arena per worker and the backend-prepared bytes
/// (serve::ModelRegistry), and the backends prepare different amounts.
/// Throws unless exactly one kind explains every line at one worker
/// count, so the traced set-up and replay always profile the backend
/// the daemon runs.
cq::deploy::BackendKind daemon_backend(const Daemon& daemon,
                                       const std::vector<ModelInputs>& models) {
  std::vector<cq::deploy::BackendKind> matches;
  std::string tried;
  for (const cq::deploy::BackendKind kind : cq::deploy::all_backend_kinds()) {
    std::vector<double> base_mib, arena_mib;
    for (const ModelInputs& m : models) {
      const cq::serve::EngineSession session(cq::deploy::load_artifact(m.path), 1, {},
                                             cq::deploy::make_backend(kind));
      base_mib.push_back(static_cast<double>(cq::serve::plan_resident_bytes(session.plan()) +
                                             session.backend().prepared_bytes()) /
                         (1 << 20));
      arena_mib.push_back(static_cast<double>(session.plan().arena_bytes()) / (1 << 20));
    }
    for (int workers = 1; workers <= kMaxWorkers; ++workers) {
      bool all = true;
      for (std::size_t i = 0; i < models.size(); ++i) {
        char expected[32];
        std::snprintf(expected, sizeof expected, "%.1f", base_mib[i] + workers * arena_mib[i]);
        const auto loaded = daemon.loaded_mib().find(models[i].name);
        all = all && loaded != daemon.loaded_mib().end() && std::stod(expected) == loaded->second;
      }
      if (all) {
        matches.push_back(kind);
        break;
      }
    }
    tried += std::string(tried.empty() ? "" : ", ") + cq::deploy::backend_kind_name(kind);
  }
  if (matches.size() != 1) {
    throw std::runtime_error(
        "perfbench: cannot tell the daemon's backend from its loaded lines: " +
        std::to_string(matches.size()) + " of {" + tried + "} match");
  }
  std::printf("daemon: backend %s (from its loaded lines)\n",
              cq::deploy::backend_kind_name(matches.front()));
  return matches.front();
}

/// Client-side tallies per model, for the drain cross-check.
struct ClientTally {
  std::map<std::string, std::size_t> results;  ///< RESULT replies (right or wrong)
  std::size_t busy = 0;

  void add(const std::string& model, const PhaseCount& count) {
    results[model] += count.succeeded + count.mismatch;
    busy += count.busy;
  }
};

/// Adds a phase to the report and the tally.
void record(Report& report, ClientTally& tally, const std::string& model,
            const PhaseCount& count) {
  report.add_phase(count);
  tally.add(model, count);
}

/// Every pool entry of every model once, closed loop: warms the daemon
/// and byte-checks each model over the wire before any timing.
void warm_up(Connection& conn, const std::vector<ModelInputs>& models, Report& report,
             ClientTally& tally) {
  for (const ModelInputs& m : models) {
    record(report, tally, m.name,
           run_closed_loop(conn, m, 1, 0.0, "warmup/" + m.name, m.pool.size()).count);
  }
}

/// Drain, then require the daemon's counts to match the client's.
DaemonSummary drain_and_check(Daemon& daemon, const ClientTally& tally, Report& report) {
  const DaemonSummary summary = daemon.drain();
  std::size_t completed = 0;
  std::size_t shed = 0;
  bool ok = true;
  for (const auto& [name, served] : summary.models) {
    completed += served.completed;
    shed += served.shed;
    const auto found = tally.results.find(name);
    ok = ok && served.completed == (found == tally.results.end() ? 0 : found->second);
  }
  std::size_t client_results = 0;
  for (const auto& [name, n] : tally.results) client_results += n;
  ok = ok && completed == client_results && summary.replies_busy == tally.busy &&
       shed <= tally.busy;
  PhaseCount check;
  check.name = "drain/cross-check";
  check.attempted = 1;
  check.succeeded = ok ? 1 : 0;
  check.errors = ok ? 0 : 1;
  if (!ok) {
    std::fprintf(stderr,
                 "perfbench: drain cross-check failed: daemon completed=%zu shed=%zu busy=%zu, "
                 "client results=%zu busy=%zu\n",
                 completed, shed, summary.replies_busy, client_results, tally.busy);
  }
  report.add_phase(check);
  return summary;
}

void measure(const Options& options, const std::vector<ModelInputs>& models, Report& report) {
  const std::vector<std::string> args = daemon_args(models);
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (daemon) daemon->drain();
    daemon = std::make_unique<Daemon>(options.daemon, args);
    setup_s.push_back(daemon->setup_s());
  }
  auto conn = std::make_unique<Connection>(daemon->port());
  daemon_backend(*daemon, models);
  ClientTally tally;
  warm_up(*conn, models, report, tally);

  Samples samples;
  for (int round = 0; round < kRounds; ++round) {
    for (const ModelInputs& m : models) {
      const LoadResult b1 =
          run_closed_loop(*conn, m, 1, kB1Share * options.seconds / kRounds, "b1/" + m.name);
      const LoadResult b8 =
          run_closed_loop(*conn, m, 8, kB8Share * options.seconds / kRounds, "b8/" + m.name);
      record(report, tally, m.name, b1.count);
      record(report, tally, m.name, b8.count);
      samples.add("b1." + m.name, b1.latency_ms);
      samples.add("b8." + m.name, b8.latency_ms);
    }
  }
  const double rss_mb = daemon->peak_rss_mib();
  conn.reset();
  drain_and_check(*daemon, tally, report);

  report.metric("setup_s", median(setup_s), "s");
  report.metric("rss_mb", rss_mb, "MiB");
  // Batch-1 latency takes the good-side window (Samples::windowed). The
  // batch-8 rate pools the whole run: the daemon's batch scheduler makes
  // it, and a good-side window would pick the lucky batches rather than
  // the host's quiet moments.
  for (const char* name : kModels) {
    report.metric(std::string("b1_ms.") + name, samples.windowed(std::string("b1.") + name, 50),
                  "ms");
  }
  for (const char* name : kModels) {
    report.metric(std::string("b8_sps.") + name,
                  8000.0 / samples.pooled(std::string("b8.") + name, 50), "1/s");
  }
}

/// Adds one traced daemon's drain summary to the layer metrics.
void add_summary(const DaemonSummary& summary, const std::string& model, LayerMetrics& layers) {
  const ServedModelSummary& served = summary.models.at(model);
  layers.completed += static_cast<double>(served.completed);
  layers.failed += static_cast<double>(served.failed);
  layers.shed += static_cast<double>(served.shed);
  layers.replies_busy += static_cast<double>(summary.replies_busy);
  layers.replies_error += static_cast<double>(summary.replies_error);
  layers.protocol_errors += static_cast<double>(summary.protocol_errors);
}

void trace_layers(const Options& options, const std::vector<ModelInputs>& models,
                  const Traffic& traffic, Report& report, SpanRecorder& spans) {
  LayerMetrics layers;
  const std::vector<std::string> args = daemon_args(models);
  // One daemon for the low rate, warmed up at the low rate, then the
  // same schedule untraced and traced: its drain summary covers low-rate
  // requests only. It is started first so the in-process profile below
  // runs on the backend it serves on.
  Daemon low_daemon(options.daemon, args);
  const cq::deploy::BackendKind backend = daemon_backend(low_daemon, models);
  std::vector<const ModelInputs*> all;
  for (const ModelInputs& m : models) all.push_back(&m);
  trace_setup(all, backend, /*verify=*/true, kSetupRepeats, spans, layers);

  const ModelInputs& target = find_model(models, traffic.model);
  {
    cq::serve::EngineSession session(cq::deploy::load_artifact(target.path), 1, {},
                                     cq::deploy::make_backend(backend));
    profile_replay(session, target, spans, report, layers);
  }

  const int pool = static_cast<int>(target.pool.size());
  SpanRecorder off(false);
  {
    layers.resident_mib = low_daemon.resident_mib();
    auto conn = std::make_unique<Connection>(low_daemon.port());
    ClientTally tally;
    warm_up(*conn, models, report, tally);
    record(report, tally, target.name,
           run_open_loop(*conn, target,
                         arrival_schedule(options.seed, kStreamWarmup, traffic.low_rps,
                                          kWarmupShare * options.seconds, pool),
                         "warmup/open-loop", off)
               .count);
    const double cpu_before = low_daemon.cpu_ms();
    const std::vector<Arrival> schedule = arrival_schedule(
        options.seed, kLowStream, traffic.low_rps, kRateShare * options.seconds, pool);
    const LoadResult untraced = run_open_loop(*conn, target, schedule, "low", off);
    const LoadResult traced = run_open_loop(*conn, target, schedule, "low/traced", spans);
    const double cpu_ms = low_daemon.cpu_ms() - cpu_before;
    record(report, tally, target.name, untraced.count);
    record(report, tally, target.name, traced.count);
    conn.reset();
    const DaemonSummary summary = drain_and_check(low_daemon, tally, report);
    add_summary(summary, target.name, layers);
    const ServedModelSummary& served = summary.models.at(target.name);
    layers.server_p50_ms = served.p50_us / 1e3;
    layers.server_p99_ms = served.p99_us / 1e3;
    layers.client_rtt_p50_ms = traced.p50_ms();
    layers.gap_p50_ms = traced.p50_ms() - layers.server_p50_ms;
    layers.encode_us = median(traced.encode_us);
    layers.decode_us = median(traced.decode_us);
    layers.trace_overhead_ms = traced.p50_ms() - untraced.p50_ms();
    layers.cpu_ms_per_req =
        cpu_ms / static_cast<double>(untraced.count.succeeded + traced.count.succeeded);
    layers.lag_p99_ms = percentile(traced.lag_ms, 99);
  }

  // A second daemon for the overload step, so its summary shows the
  // overload path alone.
  {
    Daemon daemon(options.daemon, args);
    auto conn = std::make_unique<Connection>(daemon.port());
    ClientTally tally;
    LoadResult overload = run_open_loop(
        *conn, target,
        arrival_schedule(options.seed, kOverloadStream, traffic.overload_rps,
                         kOverloadShare * options.seconds, pool),
        "overload/traced", spans);
    overload.count.expect_success = false;
    record(report, tally, target.name, overload.count);
    conn.reset();
    add_summary(drain_and_check(daemon, tally, report), target.name, layers);
  }
  layers.emit(report);
}

}  // namespace

void run_serve(const Options& options, const std::vector<ModelInputs>& models,
               Report& report) {
  const Traffic& traffic = traffic_for(options.workload);
  const IdleSpinners spinners;
  if (!options.trace) {
    measure(options, models, report);
    return;
  }
  SpanRecorder spans(true);
  trace_layers(options, models, traffic, report, spans);
  spans.write_json(options.spans_path);
}

}  // namespace perfbench
