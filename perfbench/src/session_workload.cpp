// session: the embedded user. deploy::load_artifact, then
// serve::EngineSession(artifact) with every default, driven in process
// from one thread. The measuring process is a child that only loads
// the generated inputs, so its peak RSS is the program's own.

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <memory>

#include "deploy/artifact.h"
#include "engine_probe.h"
#include "idle_spinners.h"
#include "workloads.h"

namespace perfbench {

namespace {

using cq::serve::EngineSession;

struct Loaded {
  const ModelInputs* inputs = nullptr;
  std::unique_ptr<EngineSession> session;
};

/// load_artifact + EngineSession construction for both models, timed.
double set_up(std::vector<Loaded>& loaded) {
  for (Loaded& l : loaded) l.session.reset();
  const Clock::time_point start = Clock::now();
  for (Loaded& l : loaded) {
    l.session = std::make_unique<EngineSession>(cq::deploy::load_artifact(l.inputs->path));
  }
  return ms_between(start, Clock::now()) / 1e3;
}

/// Every pool entry once per model at batch 1 and at batch 8: warm-up
/// and gate.
void warm_up(std::vector<Loaded>& loaded, Report& report) {
  for (Loaded& l : loaded) {
    for (const int batch : {1, 8}) {
      const Batches batches = make_batches(*l.inputs, batch);
      report.add_phase(run_calls(*l.session, *l.inputs, batches, 0,
                                 "warmup/b" + std::to_string(batch) + "/" + l.inputs->name,
                                 batches.tensors.size())
                           .count);
    }
  }
}

void measure(const Options& options, std::vector<Loaded>& loaded, Report& report) {
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) setup_s.push_back(set_up(loaded));
  warm_up(loaded, report);
  // Read before the latency series grow: mlp's batch-1 calls alone leave
  // millions of samples, which are the benchmark's memory, not the
  // program's.
  const double rss_mb = vm_hwm_mib(0);

  Samples samples;
  for (int round = 0; round < kRounds; ++round) {
    // Each round runs on sessions set up afresh: where a session's
    // buffers land in memory changes its speed by up to a quarter, and
    // one placement must not decide the run. It runs on the CPU the host
    // slows least at the time.
    pin_to_quietest_cpu();
    if (round > 0) {
      setup_s.push_back(set_up(loaded));
      warm_up(loaded, report);
    }
    for (Loaded& l : loaded) {
      const std::string& name = l.inputs->name;
      const LoadResult b1 = run_calls(*l.session, *l.inputs, make_batches(*l.inputs, 1),
                                      kB1Share * options.seconds / kRounds, "b1/" + name);
      const LoadResult b8 = run_calls(*l.session, *l.inputs, make_batches(*l.inputs, 8),
                                      kB8Share * options.seconds / kRounds, "b8/" + name);
      report.add_phase(b1.count);
      report.add_phase(b8.count);
      samples.add("b1." + name, b1.latency_ms);
      samples.add("b8." + name, b8.latency_ms);
    }
  }

  report.metric("setup_s", median(setup_s), "s");
  report.metric("rss_mb", rss_mb, "MiB");
  // One thread and no scheduler: every figure is the fastest call of the
  // run (Samples::fastest).
  for (const Loaded& l : loaded) {
    const std::string& name = l.inputs->name;
    report.metric("b1_ms." + name, samples.fastest("b1." + name), "ms");
  }
  for (const Loaded& l : loaded) {
    const std::string& name = l.inputs->name;
    report.metric("b8_sps." + name, 8000.0 / samples.fastest("b8." + name), "1/s");
  }
}

void trace_layers(const Options& options, std::vector<Loaded>& loaded, Report& report,
                  SpanRecorder& spans) {
  set_up(loaded);
  LayerMetrics layers;
  std::vector<const ModelInputs*> models;
  for (const Loaded& l : loaded) models.push_back(l.inputs);
  const auto backend =
      cq::deploy::parse_backend_kind(loaded.front().session->backend().name());
  trace_setup(models, backend, /*verify=*/false, kSetupRepeats, spans, layers);

  // Untraced batch-1 baseline of the first model, then the traced replay
  // of every model; the difference of the first model's batch-1 medians
  // is the tracing overhead.
  Loaded& first = loaded.front();
  const LoadResult untraced =
      run_calls(*first.session, *first.inputs, make_batches(*first.inputs, 1),
                kB1Share * options.seconds / kRounds, "session/b1/" + first.inputs->name);
  report.add_phase(untraced.count);
  for (Loaded& l : loaded) {
    const double b1_before = layers.run_ms_b1;
    profile_replay(*l.session, *l.inputs, spans, report, layers);
    if (&l == &first) layers.trace_overhead_ms = layers.run_ms_b1 - b1_before - untraced.p50_ms();
  }
  layers.emit(report);
}

}  // namespace

int run_session_parent(const Options& options, const std::vector<ModelInputs>& models,
                       const std::string& self_exe) {
  const std::string inputs_path = options.work_dir + "/inputs.bin";
  write_inputs(inputs_path, models);
  std::vector<std::string> args = {
      self_exe,
      "--session_child=" + inputs_path,
      "--workload=" + options.workload,
      "--seed=" + std::to_string(options.seed),
      "--seconds=" + std::to_string(options.seconds),
      "--trace=" + std::string(options.trace ? "1" : "0"),
      "--spans=" + options.spans_path,
  };
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::fprintf(stderr, "perfbench: fork failed\n");
    return 1;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

int run_session_child(const Options& options, const std::string& inputs_path) {
  const std::vector<ModelInputs> models = read_inputs(inputs_path);
  std::vector<Loaded> loaded;
  for (const char* name : kModels) loaded.push_back({&find_model(models, name), nullptr});
  const IdleSpinners spinners;
  Report report;
  if (options.trace) {
    SpanRecorder spans(true);
    trace_layers(options, loaded, report, spans);
    spans.write_json(options.spans_path);
  } else {
    measure(options, loaded, report);
  }
  report.print_result();
  return report.correct() ? 0 : 3;
}

}  // namespace perfbench
