#pragma once

// The two workloads, the models they measure and the serve workload's
// frozen traffic. README.md
// records why each exists and which layer metric should move which
// end-to-end metric on it.

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured time of one run
  bool trace = false;
  std::string daemon;    ///< cq_serve binary
  std::string work_dir;  ///< this run's scratch directory (inputs, .cqar files)
  std::string spans_path;
};

/// The models every workload measures, in the order their metrics are
/// printed.
inline constexpr const char* kModels[] = {"resnet20", "vgg_small", "mlp"};

/// Open-loop traffic of the serve workload's traced run, frozen so that
/// runs of different commits offer identical load.
struct Traffic {
  std::string model;        ///< target of the open-loop phases
  double low_rps = 0;       ///< a fixed absolute load well below capacity
  double overload_rps = 0;  ///< the overload step, far beyond capacity
};

const Traffic& traffic_for(const std::string& workload);

/// Measured phases repeat in this many interleaved rounds; a metric
/// pools its phases' latencies over the rounds (see Samples).
inline constexpr int kRounds = 8;

/// Share of --seconds each part of a run takes (summed over rounds).
inline constexpr double kB1Share = 0.1;          ///< batch-1 calls, per model
inline constexpr double kB8Share = 0.15;         ///< batch-8 calls, per model
inline constexpr double kWarmupShare = 0.08;     ///< open-loop warm-up (traced serve)
inline constexpr double kRateShare = 0.2;        ///< each low-rate phase (traced serve)
inline constexpr double kOverloadShare = 0.006;  ///< the overload step (traced serve)

/// Arrival streams of one seed: the traced low-rate phases and the
/// overload step.
inline constexpr std::uint64_t kLowStream = 100;
inline constexpr std::uint64_t kOverloadStream = 999;

/// Number of times a run sets the program up; setup_s is their median.
inline constexpr int kSetupRepeats = 15;

/// Serve workload: drives one cq_serve daemon.
void run_serve(const Options& options, const std::vector<ModelInputs>& models,
               Report& report);

/// Session workload, parent side: hands the inputs to a child process
/// that runs the program alone (so its peak RSS is the program's), and
/// returns the child's exit status. The child prints the result.
int run_session_parent(const Options& options, const std::vector<ModelInputs>& models,
                       const std::string& self_exe);

/// Session workload, child side: reads the inputs and measures.
int run_session_child(const Options& options, const std::string& inputs_path);

}  // namespace perfbench
