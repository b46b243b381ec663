#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/int_engine.h"
#include "deploy/plan.h"
#include "nn/act_quant.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/models/model.h"
#include "nn/models/resnet20.h"
#include "nn/pooling.h"
#include "nn/probe.h"
#include "serve/engine_session.h"
#include "serve_fixtures.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace cq::serve {
namespace {

using tensor::Tensor;

/// The pre-plan engine semantics, kept alive as the specification:
/// this walks the instantiated nn::Module tree with the runtime
/// activation-grid tracking the old serve::EngineSession used (PR 3),
/// driving encode_activations + the integer kernels for quantized
/// layers and module forwards for everything else. The plan
/// interpreter must reproduce it byte for byte.
class ModuleWalkReference {
 public:
  explicit ModuleWalkReference(const deploy::QuantizedArtifact& artifact)
      : model_(deploy::instantiate(artifact)) {
    std::size_t next = 0;
    for (const nn::ScoredLayerRef& ref : model_->scored_layers()) {
      for (quant::QuantizableLayer* layer : ref.layers) {
        layers_.push_back(
            deploy::build_integer_layer(artifact.packed_layers[next], bias_of(*layer)));
        integer_index_.emplace(dynamic_cast<const nn::Module*>(layer), next);
        ++next;
      }
    }
  }

  Tensor run(const Tensor& batch) {
    Grid grid;
    return exec_sequential(model_->body(), batch, grid);
  }

 private:
  struct Grid {
    float hi = 0.0f;
    int bits = 0;
    bool valid = false;
  };

  static std::vector<float> bias_of(quant::QuantizableLayer& layer) {
    nn::Parameter* bias = nullptr;
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      bias = &conv->bias();
    } else {
      bias = &dynamic_cast<nn::Linear&>(layer).bias();
    }
    const std::span<const float> values = bias->value.span();
    return {values.begin(), values.end()};
  }

  static Grid grid_after(const nn::ActQuant& aq) {
    Grid grid;
    grid.hi = aq.max_activation();
    grid.bits = aq.bits();
    grid.valid = grid.bits >= 1 && grid.bits <= 16 && grid.hi > 0.0f;
    return grid;
  }

  static void relu_inplace(Tensor& t) {
    for (float& v : t.span()) v = std::max(0.0f, v);
  }

  Tensor exec_sequential(nn::Sequential& chain, Tensor x, Grid& grid) {
    for (std::size_t i = 0; i < chain.size(); ++i) {
      x = exec_module(*chain.at(i), std::move(x), grid);
    }
    return x;
  }

  Tensor exec_module(nn::Module& module, Tensor x, Grid& grid) {
    if (auto* block = dynamic_cast<nn::BasicBlock*>(&module)) {
      return exec_block(*block, std::move(x), grid);
    }
    if (auto* chain = dynamic_cast<nn::Sequential*>(&module)) {
      return exec_sequential(*chain, std::move(x), grid);
    }
    if (auto* aq = dynamic_cast<nn::ActQuant*>(&module)) {
      Tensor out = aq->forward(x);
      grid = grid_after(*aq);
      return out;
    }
    if (dynamic_cast<nn::Conv2d*>(&module) != nullptr ||
        dynamic_cast<nn::Linear*>(&module) != nullptr) {
      Tensor out = exec_quantized(module, std::move(x), grid);
      grid.valid = false;
      return out;
    }
    if (dynamic_cast<nn::MaxPool2d*>(&module) != nullptr ||
        dynamic_cast<nn::Flatten*>(&module) != nullptr ||
        dynamic_cast<nn::Probe*>(&module) != nullptr) {
      return module.forward(x);  // value-preserving: grid survives
    }
    grid.valid = false;
    return module.forward(x);
  }

  Tensor exec_quantized(nn::Module& module, Tensor x, const Grid& grid) {
    const auto it = integer_index_.find(&module);
    if (it == integer_index_.end() || !grid.valid) {
      return module.forward(x);
    }
    const deploy::IntegerLayer& layer = layers_[it->second];
    deploy::encode_activations_into(x, grid.hi, grid.bits, scratch_);
    const int batch = x.dim(0);
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&module)) {
      return deploy::integer_conv_forward(layer, scratch_, batch, conv->in_channels(),
                                          x.dim(2), x.dim(3), conv->kernel(),
                                          conv->stride(), conv->pad());
    }
    auto& fc = dynamic_cast<nn::Linear&>(module);
    return deploy::integer_linear_forward(layer, scratch_, batch, fc.in_features());
  }

  Tensor exec_block(nn::BasicBlock& block, Tensor x, Grid& grid) {
    const Grid entry_grid = grid;
    Tensor h = exec_quantized(*block.conv1(), x, entry_grid);
    h = block.bn1()->forward(h);
    relu_inplace(h);
    h = block.probe1()->forward(h);
    h = block.act_quant1()->forward(h);
    const Grid mid_grid = grid_after(*block.act_quant1());
    Tensor main = exec_quantized(*block.conv2(), std::move(h), mid_grid);
    main = block.bn2()->forward(main);
    if (block.downsample_conv() != nullptr) {
      Tensor shortcut = exec_quantized(*block.downsample_conv(), std::move(x), entry_grid);
      shortcut = block.downsample_bn()->forward(shortcut);
      main += shortcut;
    } else {
      main += x;
    }
    relu_inplace(main);
    main = block.probe2()->forward(main);
    Tensor out = block.act_quant2()->forward(main);
    grid = grid_after(*block.act_quant2());
    return out;
  }

  std::unique_ptr<nn::Model> model_;
  std::vector<deploy::IntegerLayer> layers_;
  std::unordered_map<const nn::Module*, std::size_t> integer_index_;
  deploy::ActCodes scratch_;
};

deploy::QuantizedArtifact artifact_for(int which) {
  return which == 0 ? tiny_vgg_artifact()
                    : which == 1 ? tiny_mlp_artifact() : tiny_resnet_artifact();
}

bool byte_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// The headline property: across all three zoo models, batch sizes
/// {1, 3, 8} and session thread counts {1, 2, 3, 8}, the plan
/// interpreter is byte-identical to the module-walking pre-plan engine
/// semantics, and within float-accumulation tolerance of the
/// fake-quant float reference (the integer kernels reassociate the
/// per-output reduction, so bit-equality against the *float* model is
/// not attainable — byte-identity is asserted against the module-walk
/// executor, tolerance against the float forward).
class PlanVsModule : public ::testing::TestWithParam<int> {};

TEST_P(PlanVsModule, ByteIdenticalAcrossBatchSizesAndThreadCounts) {
  const deploy::QuantizedArtifact artifact = artifact_for(GetParam());
  ModuleWalkReference module_walk(artifact);
  auto float_reference = deploy::instantiate(artifact);
  const auto plan =
      std::make_shared<const deploy::ExecutionPlan>(deploy::compile_plan(artifact));

  for (const int batch_size : {1, 3, 8}) {
    const Tensor batch = random_batch(plan->sample_shape(), batch_size,
                                      900 + static_cast<std::uint64_t>(batch_size));
    const Tensor want = module_walk.run(batch);
    const Tensor float_want = float_reference->forward(batch);

    for (const int threads : {1, 2, 3, 8}) {
      std::unique_ptr<util::ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads - 1);
      // Every cell shares the one compiled plan — this puts the
      // shared-plan ctor under the full matrix (the artifact ctor is
      // covered by PrecompiledPlanMatchesArtifactConstructor) and
      // avoids twelve recompiles per architecture.
      EngineSession session(plan, 1, util::ExecContext{pool.get(), threads});
      const Tensor got = session.run(batch);
      EXPECT_TRUE(byte_equal(got, want))
          << "model " << GetParam() << " batch " << batch_size << " threads "
          << threads << " diverges from the module-walk reference";
      ASSERT_EQ(got.shape(), float_want.shape());
      for (std::size_t i = 0; i < got.numel(); ++i) {
        EXPECT_NEAR(got[i], float_want[i], 5e-3f)
            << "model " << GetParam() << " batch " << batch_size << " threads "
            << threads << " output " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, PlanVsModule, ::testing::Values(0, 1, 2));

/// Concurrent run() calls on shared contexts must also stay
/// byte-identical to the module walk (the TSan lane runs this at 8
/// submitter threads over 4 contexts, each splitting its batch over a
/// shared pool).
TEST(PlanVsModuleConcurrent, EightSubmittersStayByteIdentical) {
  const deploy::QuantizedArtifact artifact = tiny_vgg_artifact();
  ModuleWalkReference module_walk(artifact);
  util::ThreadPool intra(2);
  EngineSession session(artifact, 4, util::ExecContext{&intra, 3});

  constexpr int kThreads = 8;
  constexpr int kRepeats = 3;
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(random_batch(session.sample_shape(), 2,
                                  700 + static_cast<std::uint64_t>(t)));
    expected.push_back(module_walk.run(inputs.back()));
  }

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) {
        const Tensor out = session.run(inputs[static_cast<std::size_t>(t)]);
        if (!byte_equal(out, expected[static_cast<std::size_t>(t)])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(PlanCompile, PrecompiledPlanMatchesArtifactConstructor) {
  const deploy::QuantizedArtifact artifact = tiny_resnet_artifact();
  EngineSession from_artifact(artifact);
  EngineSession from_plan(deploy::compile_plan(artifact));
  const Tensor batch = random_batch(from_artifact.sample_shape(), 4, 41);
  EXPECT_TRUE(byte_equal(from_artifact.run(batch), from_plan.run(batch)));
}

std::map<deploy::OpKind, int> kind_histogram(const deploy::ExecutionPlan& plan) {
  std::map<deploy::OpKind, int> hist;
  for (const deploy::PlanOp& op : plan.ops()) ++hist[op.kind];
  return hist;
}

TEST(PlanCompile, VggLowersToTheExpectedOpMix) {
  const deploy::ExecutionPlan plan = deploy::compile_plan(tiny_vgg_artifact());
  auto hist = kind_histogram(plan);
  // conv0 is the unquantized stem; conv1-4 + fc5-7 run integer.
  EXPECT_EQ(hist[deploy::OpKind::FloatConv], 1);
  EXPECT_EQ(hist[deploy::OpKind::IntConv], 4);
  EXPECT_EQ(hist[deploy::OpKind::IntLinear], 3);
  EXPECT_EQ(hist[deploy::OpKind::FloatLinear], 1);  // output head
  EXPECT_EQ(hist[deploy::OpKind::MaxPool], 3);
  EXPECT_EQ(hist[deploy::OpKind::Flatten], 1);
  EXPECT_EQ(hist[deploy::OpKind::BatchNorm], 5);
  EXPECT_EQ(hist[deploy::OpKind::EncodeAct], 8);  // every calibrated quantizer
  EXPECT_EQ(hist[deploy::OpKind::Add], 0);
  EXPECT_EQ(plan.integer_layers().size(), 7u);
  EXPECT_EQ(plan.num_classes(), 4);
  EXPECT_EQ(plan.sample_shape(), (tensor::Shape{3, 8, 8}));
}

TEST(PlanCompile, ResNetLowersResidualsToAddOps) {
  const deploy::ExecutionPlan plan = deploy::compile_plan(tiny_resnet_artifact());
  auto hist = kind_histogram(plan);
  EXPECT_EQ(hist[deploy::OpKind::Add], 9);      // 3 stages x 3 blocks
  EXPECT_EQ(hist[deploy::OpKind::AvgPool], 1);  // global average pool
  EXPECT_EQ(hist[deploy::OpKind::FloatConv], 1);  // stem
  // 18 block convs + 2 projection shortcuts run integer.
  EXPECT_EQ(hist[deploy::OpKind::IntConv], 20);
  EXPECT_EQ(plan.integer_layers().size(), 20u);
}

TEST(PlanCompile, ArenaIsLifetimePlannedAndSlotsStayInBounds) {
  for (const int which : {0, 1, 2}) {
    const deploy::ExecutionPlan plan = deploy::compile_plan(artifact_for(which));
    ASSERT_GT(plan.arena_bytes(), 0u);
    std::size_t total = 0;
    for (const deploy::PlanOp& op : plan.ops()) {
      for (const int slot : {op.in0, op.in1, op.out}) {
        if (slot < 0) continue;
        const deploy::PlanSlot& s = plan.slots()[static_cast<std::size_t>(slot)];
        EXPECT_LE(s.offset + s.numel, plan.arena_floats())
            << "model " << which << " slot " << slot << " exceeds the arena";
      }
      total += plan.slots()[static_cast<std::size_t>(op.out)].numel;
    }
    // Lifetime reuse must beat the no-reuse layout (one fresh buffer
    // per op output) by a wide margin.
    EXPECT_LT(plan.arena_floats(), total) << "model " << which;
  }
}

}  // namespace
}  // namespace cq::serve
