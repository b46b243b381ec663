// cqar_info — inspect a .cqar deployment artifact without loading the
// model: architecture, per-layer bit histograms, activation-quantizer
// calibration, size breakdown and integrity status. The
// deployment-side counterpart of examples/export_and_deploy.
//
// Usage: cqar_info <model.cqar> [--verify] [--plan] [--profile]
//                               [--optimize=0|1] [--backend=NAME]
//                               [--runs=N] [--batch=N]
//   --verify   additionally instantiate the model (full structural
//              check), compile the ExecutionPlan, and run the static
//              plan verifier (deploy/verify.h) over both the compiled
//              and the optimized plan — any invariant finding prints
//              as a diagnostic table and fails the run
//   --plan     compile the deployment ExecutionPlan and print its op
//              listing (kind, shapes, bits, slots, arena offsets,
//              fused epilogue stages, and which kernel implementation
//              the selected backend dispatches each op to) plus the
//              planned arena size. With --optimize (the default) the
//              deploy::optimize_plan pass pipeline runs first and the
//              per-pass log + op-count/arena deltas print after the
//              listing; --optimize=0 shows the plan as compiled
//   --profile  compile the plan, run `runs` random batches of `batch`
//              samples through a profiled serving session
//              (obs::PlanProfiler) and print where the wall time goes:
//              per op, per op kind, per layer, plus the fraction of
//              end-to-end time the profiler attributes to ops
//   --backend  backend --plan's dispatch column reflects and --profile
//              executes on: scalar | simd (default simd)
//   --runs     profiled runs for --profile (default 16)
//   --batch    samples per profiled run (default 8)
//
// Exit status: 0 on success, 1 for any unreadable/truncated/corrupted
// artifact (with a one-line diagnostic on stderr), 2 for usage errors.

#include <cstdio>
#include <map>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/backend.h"
#include "deploy/passes/passes.h"
#include "deploy/plan.h"
#include "deploy/verify.h"
#include "nn/models/model.h"
#include "obs/profiler.h"
#include "serve/engine_session.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

/// Index into artifact.act_quants for each packed layer (the
/// quantizer on that layer's post-ReLU output), recovered by
/// instantiating the architecture skeleton and walking its scored
/// layers in export order. -1 when the mapping cannot be formed.
std::vector<int> act_quant_of_packed_layer(const cq::deploy::QuantizedArtifact& artifact) {
  std::vector<int> map;
  try {
    auto model = cq::deploy::instantiate_model(artifact.arch);
    const auto quantizers = model->activation_quantizers();
    for (const cq::nn::ScoredLayerRef& ref : model->scored_layers()) {
      int index = -1;
      for (std::size_t i = 0; i < quantizers.size(); ++i) {
        if (quantizers[i] == ref.act_quant) {
          index = static_cast<int>(i);
          break;
        }
      }
      // Multi-layer refs (projection shortcuts) pack one entry each.
      for (std::size_t l = 0; l < ref.layers.size(); ++l) map.push_back(index);
    }
  } catch (const std::exception&) {
    map.clear();  // unknown architecture: print the table without the mapping
  }
  if (map.size() != artifact.packed_layers.size()) {
    map.assign(artifact.packed_layers.size(), -1);
  }
  return map;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cq;
  if (argc < 2 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: cqar_info <model.cqar> [--verify] [--plan] [--profile] "
                 "[--optimize=0|1] [--backend=scalar|simd (default %s)] [--runs=16] "
                 "[--batch=8]\n",
                 deploy::backend_kind_name(deploy::kDefaultBackend));
    return 2;
  }
  const std::string path = argv[1];
  const util::Cli cli(argc, argv);

  deploy::QuantizedArtifact artifact;
  try {
    artifact = deploy::load_artifact(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cqar_info: %s\n", e.what());
    return 1;
  }

  std::printf("%s\n", path.c_str());
  std::printf("architecture : %s\n", artifact.arch.kind.c_str());
  for (const auto& [key, value] : artifact.arch.params) {
    std::printf("  %-14s %g\n", key.c_str(), value);
  }
  std::printf("activation quantizers: %zu", artifact.act_quants.size());
  if (!artifact.act_quants.empty()) {
    std::printf(" (bits:");
    for (const deploy::ActQuantState& aq : artifact.act_quants) {
      std::printf(" %d", aq.bits);
    }
    std::printf(")");
  }
  std::printf("\n\n");

  const std::vector<int> act_of = act_quant_of_packed_layer(artifact);
  util::Table table({"layer", "filters", "w/filter", "bits/weight", "0-bit", "range",
                     "payload B", "act bits", "act clip"});
  for (std::size_t i = 0; i < artifact.packed_layers.size(); ++i) {
    const deploy::PackedLayer& layer = artifact.packed_layers[i];
    int pruned = 0;
    for (const std::uint8_t b : layer.filter_bits) pruned += (b == 0);
    std::string act_bits = "-";
    std::string act_clip = "-";
    const int aq = act_of[i];
    if (aq >= 0 && aq < static_cast<int>(artifact.act_quants.size())) {
      act_bits = std::to_string(artifact.act_quants[static_cast<std::size_t>(aq)].bits);
      act_clip = util::Table::num(
          artifact.act_quants[static_cast<std::size_t>(aq)].max_activation, 4);
    }
    table.add_row({layer.name, std::to_string(layer.num_filters),
                   std::to_string(layer.weights_per_filter),
                   util::Table::num(layer.bits_per_weight(), 3), std::to_string(pruned),
                   util::Table::num(layer.range_hi, 4),
                   std::to_string(layer.codes.size()), act_bits, act_clip});
  }
  std::printf("%s\n", table.render().c_str());

  const deploy::SizeReport size = deploy::size_report(artifact);
  std::printf("packed codes %zu B + metadata %zu B + dense fp32 %zu B = %zu B total "
              "(%.2fx vs fp32)\n",
              size.packed_code_bytes, size.packed_meta_bytes, size.dense_bytes,
              size.total_bytes(), size.compression_ratio());

  deploy::BackendKind backend_kind;
  try {
    backend_kind = deploy::parse_backend_kind(
        cli.get("backend", deploy::backend_kind_name(deploy::kDefaultBackend)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cqar_info: %s\n", e.what());
    return 2;  // usage error, not a corrupted artifact
  }

  const bool optimize = cli.get_bool("optimize", true);

  if (cli.get_bool("plan", false)) {
    try {
      deploy::ExecutionPlan plan = deploy::compile_plan(artifact);
      const std::size_t ops_compiled = plan.ops().size();
      const std::size_t arena_compiled = plan.arena_bytes();
      deploy::OptimizeReport opt;
      if (optimize) opt = deploy::optimize_plan(plan);
      const auto backend = deploy::make_backend(backend_kind);
      backend->prepare(plan);
      util::Table ops({"#", "op", "layer", "slots", "out shape", "bits",
                       "epilogue", "arena off", "backend"});
      for (std::size_t i = 0; i < plan.ops().size(); ++i) {
        const deploy::PlanOp& op = plan.ops()[i];
        const deploy::PlanSlot& out = plan.slots()[static_cast<std::size_t>(op.out)];
        std::string slots = std::to_string(op.in0);
        if (op.in1 >= 0) slots += "," + std::to_string(op.in1);
        slots += " -> " + std::to_string(op.out);
        const bool has_bits = op.kind == deploy::OpKind::EncodeAct ||
                              op.kind == deploy::OpKind::IntConv ||
                              op.kind == deploy::OpKind::IntLinear;
        // Fused epilogue stages plus the input domain: "codes>" marks
        // an op adopting pre-encoded grid codes from its producer.
        std::string fused = deploy::epilogue_suffix(op);
        if (op.in_codes) fused = "codes>" + fused;
        ops.add_row({std::to_string(i), deploy::op_kind_name(op.kind),
                     op.label.empty() ? "-" : op.label, slots,
                     cq::tensor::shape_to_string(out.shape),
                     has_bits ? std::to_string(op.act_bits) : "-",
                     fused.empty() ? "-" : fused, std::to_string(out.offset),
                     backend->dispatch(op)});
      }
      std::printf("\nexecution plan (backend %s, %s)\n%s\n", backend->name(),
                  optimize ? "optimized" : "as compiled", ops.render().c_str());
      if (optimize) {
        util::Table passes({"pass", "ops", "arena floats/sample", "changes"});
        for (const deploy::PassResult& p : opt.passes) {
          passes.add_row({p.name,
                          std::to_string(p.ops_before) + " -> " +
                              std::to_string(p.ops_after),
                          std::to_string(p.arena_before) + " -> " +
                              std::to_string(p.arena_after),
                          std::to_string(p.changes)});
        }
        std::printf("optimizer passes\n%s\n", passes.render().c_str());
        std::printf("optimizer    : %zu -> %zu ops (%zu removed), arena "
                    "%zu -> %zu B/sample\n",
                    ops_compiled, plan.ops().size(), opt.ops_removed(),
                    arena_compiled, plan.arena_bytes());
      }
      std::printf("plan         : %zu ops, %d slots, %zu integer layers, "
                  "arena %zu B/sample\n",
                  plan.ops().size(), plan.slot_count(), plan.integer_layers().size(),
                  plan.arena_bytes());
      // What the dispatch column's simd/* labels resolved against on
      // this machine (runtime CPUID + CQ_SIMD override).
      std::printf("cpu          : %s\n", deploy::cpu_features_json().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cqar_info: plan compilation failed — %s\n", e.what());
      return 1;
    }
  }

  if (cli.get_bool("profile", false)) {
    const int runs = static_cast<int>(cli.get_int("runs", 16));
    const int batch = static_cast<int>(cli.get_int("batch", 8));
    if (runs < 1 || batch < 1) {
      std::fprintf(stderr, "cqar_info: --runs/--batch must be >= 1\n");
      return 2;
    }
    try {
      serve::EngineSession session(artifact, 1, {},
                                   deploy::make_backend(backend_kind));
      const tensor::Shape& sample = session.sample_shape();
      tensor::Shape batch_shape;
      batch_shape.push_back(batch);
      batch_shape.insert(batch_shape.end(), sample.begin(), sample.end());
      util::Rng rng(1);
      const tensor::Tensor input =
          tensor::Tensor::rand_uniform(batch_shape, rng, 0.0f, 1.0f);
      session.run(input);  // warm: arena growth stays out of the window

      obs::PlanProfiler profiler(session.plan(), &session.backend());
      session.set_trace_sink(&profiler);
      util::Timer timer;
      for (int r = 0; r < runs; ++r) session.run(input);
      const double wall_ms = timer.millis();
      session.set_trace_sink(nullptr);
      const obs::ProfileReport report = profiler.report();

      util::Table ops({"#", "op", "layer", "dispatch", "calls", "total ms",
                       "mean us", "KB/call", "share"});
      for (const obs::OpProfileRow& row : report.ops) {
        const double kb_per_call =
            row.calls > 0 ? static_cast<double>(row.bytes) / 1024.0 /
                                static_cast<double>(row.calls)
                          : 0.0;
        ops.add_row({std::to_string(row.op), row.kind, row.label, row.dispatch,
                     std::to_string(row.calls), util::Table::num(row.total_ms, 3),
                     util::Table::num(row.mean_us, 1),
                     util::Table::num(kb_per_call, 1),
                     util::Table::num(100.0 * row.share, 1) + "%"});
      }
      std::printf("\nper-op profile (backend %s, %d runs x batch %d)\n%s\n",
                  session.backend().name(), runs, batch, ops.render().c_str());

      util::Table kinds({"op kind", "calls", "total ms", "share"});
      for (const obs::ProfileAggregate& agg : report.by_kind) {
        kinds.add_row({agg.key, std::to_string(agg.calls),
                       util::Table::num(agg.total_ms, 3),
                       util::Table::num(100.0 * agg.share, 1) + "%"});
      }
      std::printf("by op kind\n%s\n", kinds.render().c_str());

      util::Table layers({"layer", "calls", "total ms", "share"});
      for (const obs::ProfileAggregate& agg : report.by_layer) {
        layers.add_row({agg.key, std::to_string(agg.calls),
                        util::Table::num(agg.total_ms, 3),
                        util::Table::num(100.0 * agg.share, 1) + "%"});
      }
      std::printf("by layer\n%s\n", layers.render().c_str());

      std::printf("profile      : %.3f ms attributed of %.3f ms wall "
                  "(%.1f%% coverage)\n",
                  report.total_ms, wall_ms,
                  wall_ms > 0.0 ? 100.0 * report.total_ms / wall_ms : 0.0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cqar_info: profiling failed — %s\n", e.what());
      return 1;
    }
  }

  if (cli.get_bool("verify", false)) {
    try {
      auto model = deploy::instantiate(artifact);
      std::printf("verify       : OK — model instantiates (%s)\n",
                  model->name().c_str());
    } catch (const std::exception& e) {
      std::printf("verify       : FAILED — %s\n", e.what());
      return 1;
    }
    // Static plan verification: compile the IR and prove the invariant
    // catalog (dataflow, shapes, arena lifetimes, overflow bounds) —
    // over the plan as compiled and again after the optimizer pass
    // pipeline, since serving defaults to the optimized plan.
    try {
      deploy::ExecutionPlan plan = deploy::compile_plan(artifact);
      const auto verify_one = [](const char* which,
                                 const deploy::ExecutionPlan& p) -> bool {
        const deploy::VerifyReport report = deploy::verify_plan(p);
        if (!report.clean()) {
          util::Table findings({"op", "rule", "slot", "message"});
          for (const deploy::PlanDiagnostic& d : report.diagnostics) {
            findings.add_row({d.op >= 0 ? std::to_string(d.op) : "-",
                              deploy::verify_rule_name(d.rule),
                              d.slot >= 0 ? std::to_string(d.slot) : "-", d.message});
          }
          std::printf("plan verify  : FAILED (%s) — %zu finding(s)\n%s\n", which,
                      report.diagnostics.size(), findings.render().c_str());
          return false;
        }
        int narrow = 0;
        for (const deploy::IntOpCertificate& cert : report.certificates) {
          narrow += cert.int32_fast_path ? 1 : 0;
        }
        std::printf("plan verify  : OK (%s) — %zu rules checked, %zu integer "
                    "ops certified (int32 fast path on %d)\n",
                    which, deploy::all_verify_rules().size(),
                    report.certificates.size(), narrow);
        return true;
      };
      if (!verify_one("as compiled", plan)) return 1;
      deploy::optimize_plan(plan);
      if (!verify_one("optimized", plan)) return 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cqar_info: plan verification failed — %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
