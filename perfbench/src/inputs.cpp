#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "deploy/artifact.h"
#include "deploy/backend.h"
#include "serve/engine_session.h"
#include "serve_fixtures.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using cq::tensor::Shape;
using cq::tensor::Tensor;

/// The model zoo, in the order the daemon is given them.
const char* const kZooModels[] = {"vgg_small", "mlp", "resnet20"};

/// Activation bit-width of every fabricated model (the daemon's --zoo
/// models use the same).
constexpr int kActBits = 3;

cq::deploy::QuantizedArtifact fabricate(const std::string& name, cq::util::Rng& rng) {
  const std::uint64_t weight_seed = rng.next_u64();
  const std::uint64_t calib_seed = rng.next_u64();
  if (name == "vgg_small") {
    cq::nn::VggSmallConfig cfg;
    cfg.seed = weight_seed;
    cq::nn::VggSmall model(cfg);
    return cq::serve::fabricate_artifact(
        model, {cfg.in_channels, cfg.image_size, cfg.image_size}, kActBits, calib_seed);
  }
  if (name == "mlp") {
    cq::nn::MlpConfig cfg;
    cfg.seed = weight_seed;
    cq::nn::Mlp model(cfg);
    return cq::serve::fabricate_artifact(model, {cfg.in_features}, kActBits, calib_seed);
  }
  cq::nn::ResNet20Config cfg;
  cfg.seed = weight_seed;
  cq::nn::ResNet20 model(cfg);
  return cq::serve::fabricate_artifact(
      model, {cfg.in_channels, cfg.image_size, cfg.image_size}, kActBits, calib_seed);
}

template <typename T>
void put(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T get(std::ifstream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("perfbench: truncated inputs file");
  return value;
}

void put_floats(std::ofstream& out, const std::vector<float>& values) {
  put<std::uint64_t>(out, values.size());
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
}

std::vector<float> get_floats(std::ifstream& in) {
  std::vector<float> values(get<std::uint64_t>(in));
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(float)));
  if (!in) throw std::runtime_error("perfbench: truncated inputs file");
  return values;
}

void put_string(std::ofstream& out, const std::string& text) {
  put<std::uint64_t>(out, text.size());
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string get_string(std::ifstream& in) {
  std::string text(get<std::uint64_t>(in), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  if (!in) throw std::runtime_error("perfbench: truncated inputs file");
  return text;
}

}  // namespace

Tensor ModelInputs::batch(std::size_t first, int n) const {
  Shape shape;
  shape.push_back(n);
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  Tensor out(shape);
  const std::size_t numel = pool.front().size();
  for (int i = 0; i < n; ++i) {
    const std::vector<float>& row = pool[(first + static_cast<std::size_t>(i)) % pool.size()];
    std::memcpy(out.data() + static_cast<std::size_t>(i) * numel, row.data(),
                numel * sizeof(float));
  }
  return out;
}

Tensor ModelInputs::sample(std::size_t index) const {
  Tensor out(sample_shape);
  std::memcpy(out.data(), pool[index].data(), pool[index].size() * sizeof(float));
  return out;
}

std::vector<ModelInputs> make_inputs(std::uint64_t seed, const std::string& dir,
                                     int pool_size) {
  cq::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  std::vector<ModelInputs> models;
  for (const std::string name : kZooModels) {
    ModelInputs model;
    model.name = name;
    model.path = dir + "/" + name + ".cqar";
    cq::deploy::save_artifact(model.path, fabricate(name, rng));

    // The reference: scalar kernels over the plan exactly as compiled,
    // from the bytes the program will read.
    cq::serve::EngineSession reference(
        cq::deploy::load_artifact(model.path), 1, {},
        cq::deploy::make_backend(cq::deploy::BackendKind::Scalar),
        cq::serve::PlanCheck::kNone, cq::serve::PlanOpt::kO0);
    model.sample_shape = reference.sample_shape();
    model.num_classes = reference.num_classes();
    for (int i = 0; i < pool_size; ++i) {
      const Tensor input = Tensor::rand_uniform(model.sample_shape, rng, -0.2f, 1.2f);
      model.pool.emplace_back(input.data(), input.data() + input.numel());
      const Tensor logits = reference.run(model.batch(model.pool.size() - 1, 1));
      model.reference.emplace_back(logits.data(), logits.data() + logits.numel());
    }
    models.push_back(std::move(model));
  }
  return models;
}

void write_inputs(const std::string& path, const std::vector<ModelInputs>& models) {
  std::ofstream out(path, std::ios::binary);
  put<std::uint64_t>(out, models.size());
  for (const ModelInputs& m : models) {
    put_string(out, m.name);
    put_string(out, m.path);
    std::vector<float> shape(m.sample_shape.begin(), m.sample_shape.end());
    put_floats(out, shape);
    put<std::int32_t>(out, m.num_classes);
    put<std::uint64_t>(out, m.pool.size());
    for (std::size_t i = 0; i < m.pool.size(); ++i) {
      put_floats(out, m.pool[i]);
      put_floats(out, m.reference[i]);
    }
  }
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
}

std::vector<ModelInputs> read_inputs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("perfbench: cannot read " + path);
  std::vector<ModelInputs> models(get<std::uint64_t>(in));
  for (ModelInputs& m : models) {
    m.name = get_string(in);
    m.path = get_string(in);
    for (const float d : get_floats(in)) m.sample_shape.push_back(static_cast<int>(d));
    m.num_classes = get<std::int32_t>(in);
    const auto pool = get<std::uint64_t>(in);
    for (std::uint64_t i = 0; i < pool; ++i) {
      m.pool.push_back(get_floats(in));
      m.reference.push_back(get_floats(in));
    }
  }
  return models;
}

const ModelInputs& find_model(const std::vector<ModelInputs>& models,
                              const std::string& name) {
  for (const ModelInputs& m : models) {
    if (m.name == name) return m;
  }
  throw std::runtime_error("perfbench: no model " + name);
}

bool same_bytes(const float* data, std::size_t count, const std::vector<float>& reference) {
  return count == reference.size() &&
         std::memcmp(data, reference.data(), count * sizeof(float)) == 0;
}

void corrupt_reference(ModelInputs& model) {
  auto* bytes = reinterpret_cast<unsigned char*>(model.reference.front().data());
  bytes[0] ^= 0x01;
}

std::vector<Arrival> arrival_schedule(std::uint64_t seed, std::uint64_t stream,
                                      double rate, double seconds, int pool_size) {
  cq::util::Rng rng(seed * 0xD1B54A32D192ED03ULL + stream * 0x632BE59BD9B4E019ULL + 1);
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<Arrival> arrivals(count);
  for (Arrival& a : arrivals) {
    a.at_s = rng.uniform(0.0, seconds);
    a.sample = static_cast<int>(rng.uniform_int(0, pool_size - 1));
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& x, const Arrival& y) { return x.at_s < y.at_s; });
  return arrivals;
}

}  // namespace perfbench
