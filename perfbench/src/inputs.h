#pragma once

// Everything a run feeds the program, made from the workload seed
// before any timing starts: the three default-size zoo artifacts
// (written as .cqar files), a per-model input pool, the scalar
// reference logits for every pooled input, and open-loop arrival
// schedules.

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace perfbench {

struct ModelInputs {
  std::string name;
  std::string path;  ///< the .cqar file written for this run
  cq::tensor::Shape sample_shape;
  int num_classes = 0;
  std::vector<std::vector<float>> pool;       ///< one input sample per entry
  std::vector<std::vector<float>> reference;  ///< reference logits per pool entry

  /// [n, ...sample_shape] batch of pool entries first, first+1, ...
  /// (wrapping around the pool).
  cq::tensor::Tensor batch(std::size_t first, int n) const;
  /// One sample, shaped as the wire carries it: [...sample_shape].
  cq::tensor::Tensor sample(std::size_t index) const;
};

/// Fabricates the zoo artifacts from `seed` (mixed 0-4-bit per-filter
/// arrangement with calibrated activation quantizers, as
/// serve::fabricate_artifact builds them), writes them to `dir`, draws
/// `pool_size` inputs per model, and computes every reference row with
/// the scalar reference backend over the unoptimized plan, loaded back
/// from the written file.
std::vector<ModelInputs> make_inputs(std::uint64_t seed, const std::string& dir,
                                     int pool_size);

/// Binary hand-off of generated inputs to a child process.
void write_inputs(const std::string& path, const std::vector<ModelInputs>& models);
std::vector<ModelInputs> read_inputs(const std::string& path);

const ModelInputs& find_model(const std::vector<ModelInputs>& models,
                              const std::string& name);

/// True when `count` floats at `data` equal `reference` byte for byte.
bool same_bytes(const float* data, std::size_t count, const std::vector<float>& reference);

/// Flips one byte of one reference row: the self-test that shows the
/// output gate trips.
void corrupt_reference(ModelInputs& model);

/// One scheduled request of an open-loop phase.
struct Arrival {
  double at_s = 0.0;  ///< offset from the phase start
  int sample = 0;     ///< pool index
};

/// Poisson arrivals at `rate` per second over `seconds`, conditioned on
/// round(rate * seconds) requests (sorted uniform offsets), with pool
/// indices drawn uniformly. `stream` separates the phases of one seed.
std::vector<Arrival> arrival_schedule(std::uint64_t seed, std::uint64_t stream,
                                      double rate, double seconds, int pool_size);

}  // namespace perfbench
