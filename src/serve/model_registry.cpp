#include "serve/model_registry.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "deploy/verify.h"
#include "util/logging.h"

namespace cq::serve {

namespace {

std::string bytes_human(std::size_t bytes) {
  char buf[32];
  if (bytes >= (std::size_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / static_cast<double>(1 << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / static_cast<double>(1 << 10));
  }
  return buf;
}

}  // namespace

std::size_t plan_resident_bytes(const deploy::ExecutionPlan& plan) {
  std::size_t bytes = 0;
  for (const deploy::PlanOp& op : plan.ops()) {
    bytes += op.weight.numel() * sizeof(float);
    bytes += (op.bias.size() + op.bn_mean.size() + op.bn_inv_std.size() +
              op.bn_gamma.size() + op.bn_beta.size()) *
             sizeof(float);
  }
  for (const deploy::IntegerLayer& layer : plan.integer_layers()) {
    bytes += layer.codes.size() * sizeof(std::int32_t);
    bytes += layer.filter_bits.size();
    bytes += layer.bias.size() * sizeof(float);
  }
  return bytes;
}

ModelRegistry::~ModelRegistry() { unload_all(); }

std::shared_ptr<ModelRegistry::Entry> ModelRegistry::find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  const auto it = map_.find(name);
  return it == map_.end() ? nullptr : it->second;
}

std::shared_ptr<ModelRegistry::Entry> ModelRegistry::require(
    const std::string& name) const {
  std::shared_ptr<Entry> entry = find(name);
  if (entry == nullptr) {
    throw RegistryError("ModelRegistry: unknown model '" + name + "'");
  }
  return entry;
}

std::shared_ptr<ModelRegistry::Version> ModelRegistry::current_version(
    Entry& entry) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return entry.current;
}

std::shared_ptr<ModelRegistry::Version> ModelRegistry::build_version(
    const std::string& name, const deploy::QuantizedArtifact& artifact,
    const ModelConfig& config, int number) const {
  const auto plan = std::make_shared<const deploy::ExecutionPlan>(
      compile_session_plan(artifact, config.server.opt));
  // The registry is the IR boundary for plans it builds itself: verify
  // before serving, exactly like a strict session would, but with the
  // registry naming the model in the refusal.
  const deploy::VerifyReport report = deploy::verify_plan(*plan);
  if (!report.clean()) {
    throw RegistryError("ModelRegistry: model '" + name + "' failed plan verify: " +
                        report.diagnostics.front().message);
  }

  auto version = std::make_shared<Version>();
  version->number = number;
  version->plan = plan;

  // First budget gate: the plan-level footprint (weights + codes +
  // per-context arenas) is known before any worker thread spins up, so
  // a hopeless load is refused cheaply.
  const int contexts = std::max(1, config.server.workers);
  const std::size_t plan_bytes =
      plan_resident_bytes(*plan) +
      plan->arena_bytes() * static_cast<std::size_t>(contexts);
  if (config.memory_budget_bytes != 0 && plan_bytes > config.memory_budget_bytes) {
    throw RegistryError("ModelRegistry: model '" + name + "' version " +
                        std::to_string(number) + " needs " + bytes_human(plan_bytes) +
                        " (plan + " + std::to_string(contexts) +
                        " arenas), over its " +
                        bytes_human(config.memory_budget_bytes) + " budget");
  }

  version->server = std::make_unique<Server>(plan, config.server);

  // Second gate, same load: backend-prepared packed state only exists
  // after prepare() ran. Enforcing it here keeps the budget honest for
  // backends that build large layouts.
  version->resident_bytes =
      plan_bytes + version->server->session().backend().prepared_bytes();
  if (config.memory_budget_bytes != 0 &&
      version->resident_bytes > config.memory_budget_bytes) {
    version->server->shutdown();
    throw RegistryError(
        "ModelRegistry: model '" + name + "' version " + std::to_string(number) +
        " needs " + bytes_human(version->resident_bytes) +
        " with backend-prepared state, over its " +
        bytes_human(config.memory_budget_bytes) + " budget");
  }
  return version;
}

void ModelRegistry::load(const std::string& name,
                         const deploy::QuantizedArtifact& artifact,
                         ModelConfig config) {
  if (name.empty() || name.size() > 256) {
    throw RegistryError("ModelRegistry: model name must be 1..256 bytes");
  }
  auto entry = std::make_shared<Entry>();
  entry->name = name;
  entry->config = config;
  entry->admitted = &entry->metrics.counter(
      "requests_admitted", "requests routed into the model's server");
  entry->shed = &entry->metrics.counter(
      "requests_shed", "requests answered BUSY by admission control");
  entry->swaps = &entry->metrics.counter("hot_swaps", "completed version swaps");
  entry->resident = &entry->metrics.gauge(
      "resident_bytes", "plan + arenas + backend-prepared footprint");
  entry->version = &entry->metrics.gauge("version", "artifact version serving");

  {
    // Reserve the name first so two concurrent loads cannot both build.
    std::lock_guard<std::mutex> lock(map_mutex_);
    if (map_.count(name) != 0) {
      throw RegistryError("ModelRegistry: model '" + name + "' is already loaded");
    }
    map_.emplace(name, entry);
  }
  try {
    std::lock_guard<std::mutex> admin(entry->admin_mutex);
    std::shared_ptr<Version> version = build_version(name, artifact, config, 1);
    entry->resident->set(static_cast<double>(version->resident_bytes));
    entry->version->set(1.0);
    std::lock_guard<std::mutex> lock(map_mutex_);
    entry->current = std::move(version);
  } catch (...) {
    std::lock_guard<std::mutex> lock(map_mutex_);
    map_.erase(name);
    throw;
  }
  util::log_info() << "ModelRegistry: loaded '" << name << "' v1";
}

int ModelRegistry::swap(const std::string& name,
                        const deploy::QuantizedArtifact& artifact) {
  std::shared_ptr<Entry> entry = require(name);
  std::lock_guard<std::mutex> admin(entry->admin_mutex);

  std::shared_ptr<Version> old = current_version(*entry);
  if (old == nullptr) {
    throw RegistryError("ModelRegistry: model '" + name + "' is unloading");
  }
  // Build the successor completely before touching the serving path;
  // any throw here leaves the old version serving untouched.
  std::shared_ptr<Version> next =
      build_version(name, artifact, entry->config, old->number + 1);

  {  // Atomic cutover: one pointer store under the map mutex.
    std::lock_guard<std::mutex> lock(map_mutex_);
    entry->current = next;
  }
  entry->swaps->inc();
  entry->resident->set(static_cast<double>(next->resident_bytes));
  entry->version->set(static_cast<double>(next->number));

  // Drain: requests admitted to the old version before the cutover
  // finish on the plan they started on (shutdown() completes the
  // queue); stragglers that raced the cutover get kClosed from the old
  // scheduler and are retried by submit() against `next`.
  old->server->shutdown();
  util::log_info() << "ModelRegistry: swapped '" << name << "' to v" << next->number;
  return next->number;
}

void ModelRegistry::unload(const std::string& name) {
  std::shared_ptr<Entry> entry = require(name);
  std::lock_guard<std::mutex> admin(entry->admin_mutex);
  std::shared_ptr<Version> old;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    old = entry->current;
    entry->current.reset();
    map_.erase(name);
  }
  if (old != nullptr) old->server->shutdown();  // drain before the name vanishes
}

void ModelRegistry::unload_all() {
  std::vector<std::string> all = names();
  for (const std::string& name : all) {
    try {
      unload(name);
    } catch (const RegistryError&) {
      // Raced another unload; the name is already gone.
    }
  }
}

ModelRegistry::Admission ModelRegistry::submit(const std::string& name,
                                               tensor::Tensor sample) {
  Admission admission;
  std::shared_ptr<Entry> entry = find(name);
  if (entry == nullptr) {
    admission.outcome = Outcome::kUnknown;
    admission.reason = "unknown model '" + name + "'";
    return admission;
  }

  // Two attempts: a kClosed means the version drained between the
  // pointer read and the push (mid-swap race); the retry lands on the
  // successor. Two closed versions back to back means the model is
  // being unloaded.
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::shared_ptr<Version> version = current_version(*entry);
    if (version == nullptr) {
      admission.outcome = Outcome::kUnknown;
      admission.reason = "model '" + name + "' is unloading";
      return admission;
    }

    // Admission control keyed on queue depth: shed before the bounded
    // queue is full when the operator configured a tighter threshold.
    const std::size_t cap = entry->config.admit_queue_depth != 0
                                ? entry->config.admit_queue_depth
                                : entry->config.server.queue_capacity;
    const std::size_t depth = version->server->queue_depth();
    if (depth >= cap) {
      entry->shed->inc();
      admission.outcome = Outcome::kShed;
      admission.reason = "model '" + name + "' over capacity (queue depth " +
                         std::to_string(depth) + " >= " + std::to_string(cap) + ")";
      return admission;
    }

    std::future<tensor::Tensor> future;
    switch (version->server->try_submit(sample, future)) {
      case Server::SubmitResult::kAdmitted:
        entry->admitted->inc();
        admission.outcome = Outcome::kAdmitted;
        admission.result = std::move(future);
        return admission;
      case Server::SubmitResult::kShed:
        entry->shed->inc();
        admission.outcome = Outcome::kShed;
        admission.reason = "model '" + name + "' queue is full";
        return admission;
      case Server::SubmitResult::kClosed:
        continue;  // raced a swap; retry on the successor version
    }
  }
  entry->shed->inc();
  admission.outcome = Outcome::kShed;
  admission.reason = "model '" + name + "' is draining";
  return admission;
}

bool ModelRegistry::has(const std::string& name) const { return find(name) != nullptr; }

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  std::vector<std::string> out;
  out.reserve(map_.size());
  for (const auto& [name, entry] : map_) out.push_back(name);
  return out;
}

ModelInfo ModelRegistry::info(const std::string& name) const {
  std::shared_ptr<Entry> entry = require(name);
  std::shared_ptr<Version> version = current_version(*entry);
  if (version == nullptr) {
    throw RegistryError("ModelRegistry: model '" + name + "' is unloading");
  }
  ModelInfo info;
  info.name = name;
  info.version = version->number;
  info.sample_shape = version->plan->sample_shape();
  info.num_classes = version->plan->num_classes();
  info.resident_bytes = version->resident_bytes;
  info.memory_budget_bytes = entry->config.memory_budget_bytes;
  info.ops = version->plan->ops().size();
  info.requests_admitted = entry->admitted->value();
  info.requests_shed = entry->shed->value();
  return info;
}

ServerStats ModelRegistry::stats(const std::string& name) const {
  std::shared_ptr<Entry> entry = require(name);
  std::shared_ptr<Version> version = current_version(*entry);
  if (version == nullptr) {
    throw RegistryError("ModelRegistry: model '" + name + "' is unloading");
  }
  return version->server->stats();
}

const obs::Registry& ModelRegistry::metrics(const std::string& name) const {
  return require(name)->metrics;
}

std::string ModelRegistry::server_metrics_json(const std::string& name) const {
  std::shared_ptr<Entry> entry = require(name);
  std::shared_ptr<Version> version = current_version(*entry);
  if (version == nullptr) {
    throw RegistryError("ModelRegistry: model '" + name + "' is unloading");
  }
  return version->server->metrics().to_json();
}

}  // namespace cq::serve
